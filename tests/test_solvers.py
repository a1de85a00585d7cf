import math
import random
import tracemalloc
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tardyjobs import (
    DEFAULT_CALIBRATION,
    Instance,
    Job,
    SolverPolicy,
    auto_estimates,
    auto_select,
    brute_force,
    build_solution_vector_dp,
    edd_feasible,
    forward_states,
    fractional_solution_vector,
    generate_instance,
    group_by_due_date,
    lawler_moore,
    reconstruct_schedule,
    solve,
)
from tardyjobs.generate import SplitMix64

from checks import fractional_runs_check, validate_range_intervals, validate_solution_vector
from conftest import (
    ALL_POLICIES,
    group_jobs_by_due_date,
    job_classes,
    prefix_vector_semantics_check,
    random_small_instance,
)


def J(i, p, w, d):
    return Job(id=i, p=p, w=w, d=d)


TWO_JOBS = Instance((J(0, 2, 3, 2), J(1, 2, 5, 3)))

AUTO_CANDIDATES = (SolverPolicy.LAWLER_MOORE, SolverPolicy.CONCAVE_BY_P, SolverPolicy.INVERSE_BY_W)

MERGE_POLICIES = (SolverPolicy.MAXPLUS_NAIVE, SolverPolicy.PREDICTION, SolverPolicy.CONCAVE_BY_P)


def merge_horizons(inst):
    """Per due-date group i, min(d_i, P<=i): the budgets its merge spans."""
    grouping = group_jobs_by_due_date(inst)
    totals = accumulate(sum(j.p for j in grp) for grp in grouping.groups)
    return [min(d, total) for d, total in zip(grouping.due_dates, totals)]


def group_reaches(inst):
    """Per due-date group i, min(d_i, P<=i, P_i) with P_i its own total
    processing time: the budgets past which its vectors are flat."""
    works = [sum(j.p for j in grp) for grp in group_jobs_by_due_date(inst).groups]
    return [min(h, work) for h, work in zip(merge_horizons(inst), works)]


class TestLawlerMoore:
    def test_two_jobs(self):
        assert lawler_moore(TWO_JOBS).min_tardy_weight == 3

    def test_single_fitting_job(self):
        assert lawler_moore(Instance((J(0, 1, 1, 1),))).min_tardy_weight == 0

    def test_forced_tardy(self):
        assert lawler_moore(Instance((J(0, 2, 7, 1),))).min_tardy_weight == 7

    def test_weight_identity(self):
        res = lawler_moore(TWO_JOBS)
        assert res.min_tardy_weight + res.max_early_weight == TWO_JOBS.w_total

    def test_total_weight_past_float_exactness(self):
        # w_total >= 2**52 runs the DP on exact object arrays
        rng = SplitMix64(4242)
        for trial in range(60):
            inst = random_small_instance(rng, seed=trial + 3000, w_max=2**60)
            assert inst.w_total >= 2**52
            assert lawler_moore(inst).min_tardy_weight == brute_force(inst).min_tardy_weight


@st.composite
def slack_horizon_instances(draw):
    """Up to 8 jobs, some due dates far past the total processing time.

    Every job has p <= 6, so P <= 48, while due dates reach 10**9; a shift
    of 2**60 on every weight puts the DP on the exact object-array path.
    """
    shift = draw(st.sampled_from([0, 2**60]))
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(1, 6), st.integers(1, 9), st.one_of(st.integers(1, 20), st.integers(10**6, 10**9))
            ),
            min_size=1,
            max_size=8,
        )
    )
    return Instance(tuple(J(i, p, w + shift, d) for i, (p, w, d) in enumerate(specs)))


class TestHorizonPastTotalTime:
    """d_max far above the total processing time P: the Lawler-Moore table
    and its witness records stop at min(d_max, P), and merge i of the
    due-date chain at min(d_i, P<=i)."""

    @given(slack_horizon_instances())
    @settings(max_examples=80, deadline=None)
    def test_table_and_witness_match_the_oracle(self, inst):
        P = sum(j.p for j in inst.jobs)
        taken = []
        assert len(build_solution_vector_dp(inst.classes, inst.horizon, taken)) == min(inst.d_max, P) + 1
        assert all(len(mask) <= min(inst.d_max, P) + 1 for _, _, mask in taken)
        want = brute_force(inst).max_early_weight
        assert lawler_moore(inst).max_early_weight == want
        by_id = {j.id: j for j in inst.jobs}
        chosen = [by_id[i] for i in reconstruct_schedule(inst)]
        assert sum(j.w for j in chosen) == want and edd_feasible(chosen)

    def test_witness_peak_does_not_grow_with_d_max(self):
        peaks = []
        for d_max in (10**6, 10**9):
            inst = generate_instance(seed=1, n=50, d_hash=4, d_max=d_max, p_max=10, w_max=10)
            tracemalloc.start()
            try:
                res = solve(inst, SolverPolicy.LAWLER_MOORE, reconstruct=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.max_early_weight == inst.w_total  # P < every due date: all jobs are early
        # 50 bundles of at most P + 1 = 268 states each; a d_max-sized row is 1 MB
        assert max(peaks) < 200_000

    @given(slack_horizon_instances())
    @settings(max_examples=60, deadline=None)
    def test_merge_chain_stops_at_the_prefix_total_time(self, inst):
        want = brute_force(inst).max_early_weight
        horizons = merge_horizons(inst)
        for policy in MERGE_POLICIES:
            for i, acc in forward_states(inst, policy):
                assert len(acc) == horizons[i - 1] + 1, policy
                assert prefix_vector_semantics_check(inst, i, acc), policy
            assert solve(inst, policy).max_early_weight == want, policy

    @pytest.mark.parametrize("policy", MERGE_POLICIES, ids=lambda p: p.value)
    def test_merge_peak_does_not_grow_with_d_max(self, policy):
        peaks = []
        for d_max in (10**6, 10**9):
            inst = generate_instance(seed=1, n=50, d_hash=4, d_max=d_max, p_max=10, w_max=10)
            tracemalloc.start()
            try:
                res = solve(inst, policy)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.min_tardy_weight == 0  # P < every due date: all jobs are early
        # every vector spans at most P + 1 = 268 budgets; a d_max-sized one is 8 MB
        assert max(peaks) < 200_000


class TestSolveMaxplus:
    def test_single_due_date_is_knapsack(self):
        jobs = tuple(J(i, p, w, 7) for i, (p, w) in enumerate([(3, 4), (2, 3), (4, 6), (5, 2)]))
        inst = Instance(jobs)
        knap = build_solution_vector_dp(job_classes(jobs), 7)[7]
        for policy in ALL_POLICIES:
            res = solve(inst, policy)
            assert res.max_early_weight == knap

    def test_both_jobs_early(self):
        inst = Instance((J(0, 1, 2, 1), J(1, 1, 2, 2)))
        for policy in ALL_POLICIES:
            assert solve(inst, policy).min_tardy_weight == 0

    def test_policies_match_oracle(self):
        rng = SplitMix64(12345)
        for trial in range(300):
            inst = random_small_instance(rng, seed=trial)
            want = brute_force(inst).min_tardy_weight
            for policy in ALL_POLICIES:
                assert solve(inst, policy).min_tardy_weight == want, (
                    policy,
                    trial,
                    [(j.p, j.w, j.d) for j in inst.jobs],
                )

    def test_policies_agree_on_larger_instances(self):
        from tardyjobs import generate_instance

        rng = random.Random(83)
        for trial in range(12):
            n = rng.randint(50, 200)
            d_max = rng.randint(20, 300)
            inst = generate_instance(
                seed=trial, n=n, d_hash=rng.randint(1, min(n, d_max, 20)),
                d_max=d_max, p_max=12, w_max=12,
            )
            answers = {p: solve(inst, p).min_tardy_weight for p in ALL_POLICIES}
            assert len(set(answers.values())) == 1, answers

    def test_input_order_invariance(self):
        rng = random.Random(89)
        base = [J(i, rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 15)) for i in range(9)]
        want = solve(Instance(tuple(base)), SolverPolicy.MAXPLUS_NAIVE).min_tardy_weight
        for _ in range(10):
            rng.shuffle(base)
            inst = Instance(tuple(base))
            for policy in ALL_POLICIES:
                assert solve(inst, policy).min_tardy_weight == want

    def test_accumulators_are_valid_solution_vectors(self):
        rng = SplitMix64(777)
        for trial in range(40):
            inst = random_small_instance(rng, seed=trial + 400)
            for policy in (
                SolverPolicy.MAXPLUS_NAIVE,
                SolverPolicy.PREDICTION,
                SolverPolicy.CONCAVE_BY_P,
            ):
                horizons = merge_horizons(inst)
                for i, acc in forward_states(inst, policy):
                    assert validate_solution_vector(acc) == []
                    assert len(acc) == horizons[i - 1] + 1

    def test_auto_policy_solves(self):
        rng = SplitMix64(31337)
        for trial in range(40):
            inst = random_small_instance(rng, seed=trial + 900)
            assert (
                solve(inst, SolverPolicy.AUTO).min_tardy_weight
                == brute_force(inst).min_tardy_weight
            )

    def test_huge_weights_exact_under_every_policy(self):
        # three jobs whose total weight overflows int64 and dwarfs n * d_max
        inst = Instance(tuple(J(i, 1, 2**62, 2000) for i in range(3)))
        want = lawler_moore(inst)
        assert want.min_tardy_weight == 0
        for policy in [*ALL_POLICIES, SolverPolicy.AUTO]:
            got = solve(inst, policy)
            assert (got.min_tardy_weight, got.max_early_weight) == (0, want.max_early_weight)

    def test_weights_past_float_exactness_under_every_policy(self):
        # w_max = 2**60 puts every merge on the exact object-array kernels
        inst = generate_instance(seed=3, n=120, d_hash=4, d_max=600, p_max=5, w_max=2**60)
        want = lawler_moore(inst).min_tardy_weight
        for policy in [*ALL_POLICIES, SolverPolicy.AUTO]:
            assert solve(inst, policy).min_tardy_weight == want, policy

    def test_weights_in_the_uint64_band_under_every_policy(self):
        # weights in [2**63, 2**64): on one due date AUTO picks concave-p, and
        # on sixteen every chain merges exact object vectors
        one_date = generate_instance(seed=1, n=150, d_hash=1, d_max=600, p_max=3, w_max=2**64 - 1)
        assert solve(one_date).policy is SolverPolicy.CONCAVE_BY_P
        sixteen = generate_instance(seed=1, n=300, d_hash=16, d_max=3000, p_max=10, w_max=2**70)
        assert lawler_moore(sixteen).min_tardy_weight == 78804417908669454230
        for inst in (one_date, sixteen):
            want = lawler_moore(inst).min_tardy_weight
            for policy in [*ALL_POLICIES, SolverPolicy.AUTO]:
                assert solve(inst, policy).min_tardy_weight == want, policy

    def test_processing_time_in_the_uint64_band_under_inverse_w(self):
        # one unit too long for its due date: tardy
        inst = Instance((J(0, 2**63 + 1, 1, 2**63),))
        assert brute_force(inst).min_tardy_weight == 1
        for policy in (SolverPolicy.INVERSE_BY_W, SolverPolicy.AUTO):
            got = solve(inst, policy)
            assert (got.policy, got.min_tardy_weight) == (SolverPolicy.INVERSE_BY_W, 1)

    @pytest.mark.parametrize("reconstruct", [False, True], ids=["optimum", "witness"])
    @pytest.mark.parametrize("heavy_last", [True, False], ids=["heavy-last", "heavy-first"])
    def test_mixed_magnitudes_under_every_policy(self, heavy_last, reconstruct):
        # weights <= 10 in every group but one, weights past 2**60 in that one:
        # the float64 vectors of the light groups meet the exact object
        # vectors of the heavy group mid-chain, on either side of a merge
        rng = random.Random(97)
        dates = (300, 600, 900)
        heavy = dates[-1] if heavy_last else dates[0]
        for _ in range(3):
            jobs = []
            for d in dates:
                for _ in range(10):
                    w = 2**60 + rng.randint(1, 999) if d == heavy else rng.randint(1, 10)
                    jobs.append(J(len(jobs), rng.randint(1, 60), w, d))
            inst = Instance(tuple(jobs))
            assert inst.w_total >= 2**52
            want = lawler_moore(inst).max_early_weight
            by_id = {j.id: j for j in jobs}
            for policy in [*ALL_POLICIES, SolverPolicy.AUTO]:
                got = solve(inst, policy, reconstruct=reconstruct)
                assert got.max_early_weight == want, policy
                if reconstruct:
                    chosen = [by_id[i] for i in got.early_set]
                    assert sum(j.w for j in chosen) == want and edd_feasible(chosen)

    def test_reports_the_policy_that_ran(self):
        inst = TWO_JOBS  # n >= d_max: inverse-w falls back to Lawler-Moore
        assert solve(inst, SolverPolicy.AUTO).policy is auto_select(inst)
        assert solve(inst, SolverPolicy.INVERSE_BY_W).policy is SolverPolicy.LAWLER_MOORE
        assert solve(inst, SolverPolicy.CONCAVE_BY_P).policy is SolverPolicy.CONCAVE_BY_P
        assert brute_force(inst).policy is None


class TestPrefixSemantics:
    @pytest.mark.parametrize(
        "policy", [SolverPolicy.MAXPLUS_NAIVE, SolverPolicy.PREDICTION, SolverPolicy.CONCAVE_BY_P]
    )
    def test_first_iteration_is_group_vector(self, policy):
        # the first merge folds group 1 into the empty prefix, [0]
        inst = Instance((J(0, 2, 3, 4), J(1, 1, 1, 4), J(2, 2, 2, 9)))
        states = dict(forward_states(inst, policy))
        grouping = group_jobs_by_due_date(inst)
        # the first group's jobs take P = 3 < d = 4: its vector stops there
        assert np.array_equal(states[1], build_solution_vector_dp(job_classes(grouping.groups[0]), 3))
        assert prefix_vector_semantics_check(inst, 1, states[1])

    def test_mid_iterations(self):
        rng = SplitMix64(2024)
        for trial in range(30):
            inst = random_small_instance(rng, seed=trial + 50)
            for i, acc in forward_states(inst, SolverPolicy.MAXPLUS_NAIVE):
                assert prefix_vector_semantics_check(inst, i, acc)

    def test_final_entry_is_optimum(self):
        inst = TWO_JOBS
        *_, (i, acc) = forward_states(inst, SolverPolicy.MAXPLUS_NAIVE)
        assert acc[-1] == brute_force(inst).max_early_weight

    @pytest.mark.parametrize(
        "policy", [SolverPolicy.LAWLER_MOORE, SolverPolicy.INVERSE_BY_W, SolverPolicy.AUTO]
    )
    def test_rejects_policies_without_forward_merge(self, policy):
        inst = Instance((J(0, 1, 1, 3), J(1, 2, 2, 3)))  # one due date: no merge at all
        with pytest.raises(ValueError, match="forward merge"):
            list(forward_states(inst, policy))

    def test_prediction_carries_the_union_vector_forward(self, monkeypatch):
        import tardyjobs.solvers as solvers

        built, unions = [], []
        real_vector, real_union = solvers.fractional_solution_vector, solvers.fractional_union

        def vector_spy(classes, horizon):
            built.append((classes, horizon, real_vector(classes, horizon)))
            return built[-1][2]

        def union_spy(a, b, horizon):
            unions.append((a, b, horizon, real_union(a, b, horizon)))
            return unions[-1][3]

        monkeypatch.setattr(solvers, "fractional_solution_vector", vector_spy)
        monkeypatch.setattr(solvers, "fractional_union", union_spy)
        inst = generate_instance(seed=7, n=80, d_hash=16, d_max=400)
        states = list(forward_states(inst, SolverPolicy.PREDICTION))
        groups = group_by_due_date(inst).groups
        h, reach = merge_horizons(inst), group_reaches(inst)
        # the empty prefix, then every group at its reach, built from its
        # due date's slice of the class table
        assert [(classes, horizon) for classes, horizon, _ in built] == (
            [((), 0)] + [(groups[i], reach[i]) for i in range(16)]
        )
        assert any(r < x for r, x in zip(reach, h))  # some group stops short of its merge
        # one union per merge, at its horizon, of the prefix and the group: the
        # greedy's vector of the prefix through the group, and the next prefix
        assert [horizon for _, _, horizon, _ in unions] == h
        prefix, end = built[0][2], 0
        for i, (a, b, horizon, union) in enumerate(unions):
            assert a is prefix and b is built[i + 1][2]
            end += len(groups[i])
            greedy = fractional_solution_vector(inst.classes[:end], horizon)
            assert (union.scaled, union.scale) == (greedy.scaled, greedy.scale)
            prefix = union
        assert states[-1][1][-1] == lawler_moore(inst).max_early_weight

    def test_prediction_puts_the_shorter_operand_on_the_left(self, monkeypatch):
        import tardyjobs.solvers as solvers

        merges = []
        real = solvers.convolve_with_ranges

        def spy(A, B, R):
            merges.append((A, B, validate_range_intervals(A, B, R)))
            return real(A, B, R)

        monkeypatch.setattr(solvers, "convolve_with_ranges", spy)
        rng = SplitMix64(4242)
        instances = [random_small_instance(rng, seed=trial + 700) for trial in range(150)]
        # many due dates and few jobs each: the groups reach less than the prefix
        instances += [generate_instance(seed=s, n=30, d_hash=10, d_max=120, p_max=5) for s in range(10)]
        shorter = Counter()
        for inst in instances:
            merges.clear()
            states = [acc for _, acc in forward_states(inst, SolverPolicy.PREDICTION)]
            classes = group_by_due_date(inst).groups
            h, reach = merge_horizons(inst), group_reaches(inst)
            assert len(merges) == len(states)  # one merge per group, the first into the empty prefix
            for i, (A, B, violations) in enumerate(merges):
                assert violations == []
                prefix = states[i - 1] if i else np.zeros(1)
                group = build_solution_vector_dp(classes[i], reach[i])
                assert len(A) == min(len(prefix), len(group)) and len(B) == h[i] + 1
                if len(group) < len(prefix):
                    assert np.array_equal(A, group)
                    side = "group"
                else:  # a tie keeps the prefix on the left
                    assert np.array_equal(A, prefix)
                    side = "prefix" if len(prefix) < len(group) else "tie"
                shorter[side if i else "empty"] += 1  # [0] is always the shorter: tallied apart
            assert states[-1][-1] == lawler_moore(inst).max_early_weight
        assert shorter["group"] >= 20 and shorter["prefix"] >= 20, shorter

    def test_prediction_operands_keep_their_runs(self, monkeypatch):
        # every fractional operand of the range sweep, held ones and the
        # empty prefix included, is the prefix sums of its runs
        import tardyjobs.solvers as solvers

        operands, held = [], Counter()
        real_ranges, real_held = solvers.compute_range_intervals, solvers._held_to

        def ranges_spy(a, b, c, i, w_max):
            operands.extend((a, b, c))
            return real_ranges(a, b, c, i, w_max)

        def held_spy(horizon, vec, frac):
            held[horizon + 1 > len(vec)] += 1
            return real_held(horizon, vec, frac)

        monkeypatch.setattr(solvers, "compute_range_intervals", ranges_spy)
        monkeypatch.setattr(solvers, "_held_to", held_spy)
        rng = SplitMix64(4343)
        instances = [random_small_instance(rng, seed=trial + 900) for trial in range(40)]
        instances += [generate_instance(seed=s, n=30, d_hash=10, d_max=120, p_max=5) for s in range(5)]
        for inst in instances:
            *_, (_, acc) = forward_states(inst, SolverPolicy.PREDICTION)
            assert acc[-1] == lawler_moore(inst).max_early_weight
        assert held[True] >= 20, held  # many operands were extended past their own span
        assert all(fractional_runs_check(frac) for frac in operands)


class TestInverseChain:
    def test_accumulator_holds_only_reachable_weight_targets(self, monkeypatch):
        import tardyjobs.solvers as solvers

        seen = []
        real = solvers.build_inverse_solution_vector

        def spy(classes, acc):
            seen.append(acc)
            return real(classes, acc)

        monkeypatch.setattr(solvers, "build_inverse_solution_vector", spy)
        rng = SplitMix64(909)
        instances = [random_small_instance(rng, seed=trial + 300) for trial in range(40)]
        # due dates well below the total processing time: most weight targets are out of reach
        instances += [generate_instance(seed=s, n=40, d_hash=5, d_max=60, p_max=10) for s in range(5)]
        for inst in instances:
            grouping = group_jobs_by_due_date(inst)
            groups = grouping.groups
            seen.clear()
            best = solvers._solve_inverse(inst)
            assert len(seen) == len(groups)
            for i, acc in enumerate(seen):  # the accumulator after merging groups[:i]
                assert np.isfinite(acc.astype(np.float64)).all() and (np.diff(acc) >= 0).all()
                if i:
                    prefix = Instance(tuple(job for grp in groups[:i] for job in grp))
                    assert len(acc) - 1 == lawler_moore(prefix).max_early_weight
            assert best == lawler_moore(inst).max_early_weight


class TestClassTable:
    @pytest.mark.parametrize("reconstruct", [False, True])
    def test_no_solve_builds_an_instance(self, monkeypatch, reconstruct):
        # every chain, PREDICTION's fractional vectors and the witness read
        # slices of the solved instance's class table; none rebuilds an Instance
        built = []
        real = Instance.__post_init__

        def spy(self):
            built.append(self)
            real(self)

        inst = generate_instance(seed=5, n=60, d_hash=6, d_max=300)
        want = lawler_moore(inst).max_early_weight
        monkeypatch.setattr(Instance, "__post_init__", spy)
        for policy in [*ALL_POLICIES, SolverPolicy.AUTO]:
            res = solve(inst, policy, reconstruct=reconstruct)
            assert res.max_early_weight == want
            assert built == [], policy
        assert Instance((J(0, 1, 1, 1),)) and len(built) == 1  # the spy sees a build


class TestReconstruct:
    def test_single_fitting_job(self):
        inst = Instance((J(0, 1, 1, 1),))
        assert reconstruct_schedule(inst, 1) == [0]

    def test_two_job_example(self):
        assert reconstruct_schedule(TWO_JOBS, 5) == [1]

    def test_all_tardy(self):
        inst = Instance((J(0, 5, 2, 1), J(1, 7, 3, 2)))
        assert reconstruct_schedule(inst, 0) == []

    def test_impossible_target_errors(self):
        with pytest.raises(ValueError, match="optimum"):
            reconstruct_schedule(TWO_JOBS, 6)

    def test_solve_attaches_witness(self):
        res = solve(TWO_JOBS, SolverPolicy.MAXPLUS_NAIVE, reconstruct=True)
        assert res.early_set == (1,)

    def test_witness_exact_past_float_exactness(self):
        # w_total >= 2**52 records the taken states on the object-array DP
        rng = SplitMix64(9191)
        for trial in range(40):
            inst = random_small_instance(rng, seed=trial + 5000, w_max=2**60)
            assert inst.w_total >= 2**52
            res = solve(inst, SolverPolicy.CONCAVE_BY_P, reconstruct=True)
            by_id = {j.id: j for j in inst.jobs}
            chosen = [by_id[i] for i in res.early_set]
            assert sum(j.w for j in chosen) == res.max_early_weight == brute_force(inst).max_early_weight
            assert edd_feasible(chosen)

    def test_peak_memory_is_about_one_byte_per_state(self):
        inst = generate_instance(seed=1, n=400, d_hash=16, d_max=20000)
        best = lawler_moore(inst).max_early_weight
        tracemalloc.start()
        try:
            reconstruct_schedule(inst, best)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the taken matrix holds n * (d_max + 1) bools, 8 MB here
        assert peak < 2 * inst.n * (inst.d_max + 1)

    @pytest.mark.parametrize(
        "policy, shape",
        [
            (SolverPolicy.LAWLER_MOORE, dict(n=200, d_hash=16, d_max=2000)),
            (SolverPolicy.AUTO, dict(n=200, d_hash=16, d_max=2000)),  # AUTO picks Lawler-Moore
            (SolverPolicy.INVERSE_BY_W, dict(n=300, d_hash=4, d_max=200)),  # n >= d_max: the fallback
        ],
        ids=["lawler-moore", "auto", "inverse-w-fallback"],
    )
    def test_lawler_moore_witness_runs_the_dp_once(self, policy, shape, monkeypatch):
        import tardyjobs.solvers as solvers

        calls = []
        real = solvers.build_solution_vector_dp
        monkeypatch.setattr(solvers, "build_solution_vector_dp", lambda *args: calls.append(args) or real(*args))
        inst = generate_instance(seed=1, **shape)
        res = solve(inst, policy, reconstruct=True)
        assert res.policy is SolverPolicy.LAWLER_MOORE
        assert len(calls) == 1
        by_id = {j.id: j for j in inst.jobs}
        chosen = [by_id[i] for i in res.early_set]
        assert sum(j.w for j in chosen) == res.max_early_weight == inst.w_total - res.min_tardy_weight
        assert res.max_early_weight == int(real(inst.classes, inst.horizon).max())
        assert edd_feasible(chosen)

    def test_witness_always_verifies(self):
        rng = SplitMix64(555)
        for trial in range(60):
            inst = random_small_instance(rng, seed=trial + 777)
            res = solve(inst, SolverPolicy.CONCAVE_BY_P, reconstruct=True)
            by_id = {j.id: j for j in inst.jobs}
            chosen = [by_id[i] for i in res.early_set]
            assert sum(j.w for j in chosen) == res.max_early_weight
            assert edd_feasible(chosen)


@st.composite
def duplicate_heavy_instances(draw):
    """Up to four (d, p, w) classes of up to 40 copies each.

    Short due dates against p <= 12 give jobs with p > d and bundles of
    t copies with t * p > d; a shift of 2**60 on every weight puts the DPs
    on the exact object-array path.  A copy cap of 3 keeps n within reach
    of the brute-force oracle.
    """
    shift = draw(st.sampled_from([0, 2**60]))
    copies = draw(st.sampled_from([3, 40]))
    specs = draw(
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(1, 9), st.integers(1, copies)),
            min_size=1,
            max_size=4,
        )
    )
    jobs = []
    for d, p, w, c in specs:
        jobs += [J(len(jobs) + k, p, w + shift, d) for k in range(c)]
    return Instance(tuple(jobs))


class TestDuplicateJobs:
    @given(duplicate_heavy_instances())
    @settings(max_examples=60, deadline=None)
    def test_every_policy_and_witness_on_repeated_jobs(self, inst):
        if inst.n <= 12:
            want = brute_force(inst).max_early_weight
        else:
            want = lawler_moore(inst).max_early_weight
        by_id = {j.id: j for j in inst.jobs}
        for policy in [*ALL_POLICIES, SolverPolicy.AUTO]:
            res = solve(inst, policy, reconstruct=True)
            assert res.max_early_weight == want, policy
            assert len(set(res.early_set)) == len(res.early_set), policy
            chosen = [by_id[i] for i in res.early_set]
            assert sum(j.w for j in chosen) == want and edd_feasible(chosen), policy

    def test_concave_p_on_large_classes_past_float_exactness(self):
        # weights 2**60 + {0, 1, 2} put every fold on the exact object
        # arrays, and each (d, p) class of about 200 jobs, past _FEW_STEPS,
        # has rises in at most three runs of equal value
        from tardyjobs.maxplus import _FEW_STEPS

        rng = random.Random(61)
        inst = Instance(
            tuple(J(i, rng.randint(1, 5), 2**60 + rng.randint(0, 2), rng.choice((1500, 4000))) for i in range(2000))
        )
        assert min(Counter((j.d, j.p) for j in inst.jobs).values()) > _FEW_STEPS
        res = solve(inst, SolverPolicy.CONCAVE_BY_P)
        assert res.policy is SolverPolicy.CONCAVE_BY_P
        assert res.min_tardy_weight == lawler_moore(inst).min_tardy_weight

    def test_lawler_moore_witness_memory_follows_the_bundles(self):
        # 5000 jobs in about 200 (d, p, w) classes: a taken row per job and
        # budget would be 17 MB here, one per bundle is a few MB
        inst = generate_instance(seed=1, n=5000, d_hash=4, d_max=5000, p_max=5, w_max=10)
        tracemalloc.start()
        try:
            res = solve(inst, SolverPolicy.LAWLER_MOORE, reconstruct=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        by_id = {j.id: j for j in inst.jobs}
        chosen = [by_id[i] for i in res.early_set]
        assert sum(j.w for j in chosen) == res.max_early_weight and edd_feasible(chosen)


class TestAutoSelect:
    def test_returns_concrete_policy(self):
        inst = TWO_JOBS
        assert auto_select(inst) in ALL_POLICIES

    def test_calibration_is_configuration(self, monkeypatch):
        import tardyjobs.solvers as solvers

        inst = generate_instance(seed=1, n=50, d_hash=4, d_max=1000)  # inverse-w runs as itself here
        # an absurd cost on every candidate except one forces that one
        for policy in AUTO_CANDIDATES:
            for p in DEFAULT_CALIBRATION:
                monkeypatch.setitem(solvers.DEFAULT_CALIBRATION, p, (1.0,) * 3 if p is policy else (1e18,) * 3)
            assert auto_select(inst) is policy

    def test_picks_only_candidates(self):
        rng = SplitMix64(4711)
        instances = [random_small_instance(rng, seed=trial + 1200) for trial in range(200)]
        instances += [
            generate_instance(seed=3, n=n, d_hash=4, d_max=d_max, p_max=p_max, w_max=w_max)
            for n, d_max, p_max, w_max in [(50, 10**6, 10, 10), (500, 400, 3, 1), (120, 600, 5, 2**60)]
        ]
        for inst in instances:
            assert auto_select(inst) in AUTO_CANDIDATES

    def test_estimates_apply_the_inverse_fallback(self):
        estimates = auto_estimates(TWO_JOBS)  # n >= d_max: inverse-w would run Lawler-Moore
        assert set(estimates) == set(AUTO_CANDIDATES)
        assert estimates[SolverPolicy.INVERSE_BY_W] == estimates[SolverPolicy.LAWLER_MOORE]
        assert auto_select(TWO_JOBS) is SolverPolicy.LAWLER_MOORE

    def test_auto_counts_match_a_per_group_pass(self):
        from tardyjobs.maxplus import _FEW_STEPS
        from tardyjobs.solvers import _auto_counts, _inverse_falls_back

        rng = SplitMix64(606)
        live = 0
        for trial in range(100):
            inst = random_small_instance(rng, seed=trial + 6000, w_max=10 if trial % 2 else 2**70)
            grouping = group_jobs_by_due_date(inst)
            p_classes = [len({j.p for j in g if j.p <= d}) for d, g in zip(grouping.due_dates, grouping.groups)]
            w_classes = [len({j.w for j in g}) for g in grouping.groups]
            # one pass per step of each weight class, up to the kernel's few-step threshold
            w_passes = [sum(min(c, _FEW_STEPS) for c in Counter(j.w for j in g).values()) for g in grouping.groups]
            running = accumulate(sum(j.w for j in g) for g in grouping.groups)
            # Lawler-Moore: per (d, p, w) class of c jobs, the bundles 1, 2, 4, ..., 2**(m-1)
            # and the remainder c - (2**m - 1), for the largest m with 2**m - 1 <= c; the
            # table stops at min(d_max, total p)
            horizon = min(inst.d_max, sum(j.p for j in inst.jobs))
            bundles = []
            for (d, p, w), c in Counter((j.d, j.p, j.w) for j in inst.jobs).items():
                m = (c + 1).bit_length() - 1
                sizes = [2**i for i in range(m)] + [c - 2**m + 1] * (c > 2**m - 1)
                bundles += [min(d, horizon) - t * p + 1 for t in sizes if t * p <= d]
            got = _auto_counts(inst)
            assert got[SolverPolicy.LAWLER_MOORE] == (len(bundles), sum(bundles), inst.n)
            assert got[SolverPolicy.CONCAVE_BY_P] == (
                sum(p_classes),
                pytest.approx(sum(c * (d + 1) * math.log(d + 2) for c, d in zip(p_classes, grouping.due_dates))),
                inst.n,
            )
            if _inverse_falls_back(inst):
                assert SolverPolicy.INVERSE_BY_W not in got
            else:
                assert got[SolverPolicy.INVERSE_BY_W] == (
                    sum(w_classes),
                    sum(c * w for c, w in zip(w_passes, running)),
                    inst.n,
                )
                live += 1
        assert live > 10

    def test_few_jobs_huge_horizon_prefers_baseline(self):
        # n*d_max is tiny next to every convolution bound here
        jobs = tuple(J(i, 10, 10, 100 * (i + 1)) for i in range(10))
        assert auto_select(Instance(jobs)) is SolverPolicy.LAWLER_MOORE

    def test_single_due_date_prefers_merge(self):
        # 500 jobs of one due date and two processing times, no two alike:
        # Lawler-Moore makes 500 row updates, concave-p folds two classes
        jobs = tuple(J(i, 1 + i % 2, 1 + i // 2, 2) for i in range(500))
        assert auto_select(Instance(jobs)) is not SolverPolicy.LAWLER_MOORE
