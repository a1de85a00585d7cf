import math
import random
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

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
    generate_instance,
    group_by_due_date,
    lawler_moore,
    reconstruct_schedule,
    solve,
    validate_solution_vector,
)
from tardyjobs.generate import SplitMix64

from conftest import ALL_POLICIES, prefix_vector_semantics_check, random_small_instance


def J(i, p, w, d):
    return Job(id=i, p=p, w=w, d=d)


TWO_JOBS = Instance((J(0, 2, 3, 2), J(1, 2, 5, 3)))

AUTO_CANDIDATES = (SolverPolicy.LAWLER_MOORE, SolverPolicy.CONCAVE_BY_P, SolverPolicy.INVERSE_BY_W)


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


class TestSolveMaxplus:
    def test_single_due_date_is_knapsack(self):
        jobs = tuple(J(i, p, w, 7) for i, (p, w) in enumerate([(3, 4), (2, 3), (4, 6), (5, 2)]))
        inst = Instance(jobs)
        knap = build_solution_vector_dp(list(jobs), 7)[7]
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
                for i, acc in forward_states(inst, policy):
                    assert validate_solution_vector(acc) == []
                    d_i = group_by_due_date(inst).due_dates[i - 1]
                    assert len(acc) == d_i + 1

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
    def test_first_iteration_is_group_vector(self):
        inst = Instance((J(0, 2, 3, 4), J(1, 1, 1, 4), J(2, 2, 2, 9)))
        states = dict(forward_states(inst, SolverPolicy.MAXPLUS_NAIVE))
        grouping = group_by_due_date(inst)
        assert np.array_equal(states[1], build_solution_vector_dp(list(grouping.groups[0]), 4))
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

        calls = []
        real = solvers.fractional_solution_vector
        monkeypatch.setattr(solvers, "fractional_solution_vector", lambda inst: calls.append(inst) or real(inst))
        inst = generate_instance(seed=7, n=80, d_hash=16, d_max=400)
        states = list(forward_states(inst, SolverPolicy.PREDICTION))
        assert len(calls) == 2 * 16 - 1  # the first prefix, then group and union per merge
        assert states[-1][1][-1] == lawler_moore(inst).max_early_weight


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
        real = solvers._lawler_moore_dp
        monkeypatch.setattr(solvers, "_lawler_moore_dp", lambda *args: calls.append(args) or real(*args))
        inst = generate_instance(seed=1, **shape)
        res = solve(inst, policy, reconstruct=True)
        assert res.policy is SolverPolicy.LAWLER_MOORE
        assert len(calls) == 1
        by_id = {j.id: j for j in inst.jobs}
        chosen = [by_id[i] for i in res.early_set]
        assert sum(j.w for j in chosen) == res.max_early_weight == inst.w_total - res.min_tardy_weight
        assert res.max_early_weight == int(real(inst).max())
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
                monkeypatch.setitem(solvers.DEFAULT_CALIBRATION, p, (1.0, 1.0) if p is policy else (1e18, 1e18))
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
        from tardyjobs.solvers import _auto_counts, _inverse_falls_back

        rng = SplitMix64(606)
        live = 0
        for trial in range(100):
            inst = random_small_instance(rng, seed=trial + 6000, w_max=10 if trial % 2 else 2**70)
            grouping = group_by_due_date(inst)
            p_classes = [len({j.p for j in g if j.p <= d}) for d, g in zip(grouping.due_dates, grouping.groups)]
            w_classes = [len({j.w for j in g}) for g in grouping.groups]
            running = accumulate(sum(j.w for j in g) for g in grouping.groups)
            got = _auto_counts(inst)
            assert got[SolverPolicy.LAWLER_MOORE] == (inst.n, sum(j.d - j.p + 1 for j in inst.jobs if j.p <= j.d))
            assert got[SolverPolicy.CONCAVE_BY_P] == (
                sum(p_classes),
                pytest.approx(sum(c * (d + 1) * math.log(d + 2) for c, d in zip(p_classes, grouping.due_dates))),
            )
            if _inverse_falls_back(inst):
                assert SolverPolicy.INVERSE_BY_W not in got
            else:
                assert got[SolverPolicy.INVERSE_BY_W] == (sum(w_classes), sum(c * w for c, w in zip(w_classes, running)))
                live += 1
        assert live > 10

    def test_few_jobs_huge_horizon_prefers_baseline(self):
        # n*d_max is tiny next to every convolution bound here
        jobs = tuple(J(i, 10, 10, 100 * (i + 1)) for i in range(10))
        assert auto_select(Instance(jobs)) is SolverPolicy.LAWLER_MOORE

    def test_single_due_date_prefers_merge(self):
        jobs = tuple(J(i, 1, 1, 2) for i in range(500))
        assert auto_select(Instance(jobs)) is not SolverPolicy.LAWLER_MOORE
