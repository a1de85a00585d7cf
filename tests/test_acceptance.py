"""Acceptance suite: one test per exit criterion, each at its stated count
and tolerance, printing one PASS/FAIL line per criterion (run with -s to see
the lines as they complete).
"""

import random
import statistics

import numpy as np
import pytest

import tardyjobs.maxplus as mp
from tardyjobs import (
    Instance,
    RangeIntervals,
    SolverPolicy,
    brute_force,
    brute_force_vector,
    build_inverse_solution_vector,
    build_solution_vector_concave,
    build_solution_vector_dp,
    compute_range_intervals,
    convolve_naive,
    convolve_sstep_concave,
    convolve_with_ranges,
    edd_feasible,
    fractional_gap_check,
    fractional_solution_vector,
    generate_instance,
    group_by_due_date,
    solve,
    validate_range_intervals,
)
from tardyjobs.bench import run_bench
from tardyjobs.generate import SplitMix64

from conftest import ALL_POLICIES, brute_force_permutations, inverse_to_direct


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criteria 1 and 8 share one sweep over the same 10,000 instances
# ---------------------------------------------------------------------------

N_ORACLE_INSTANCES = 10_000


@pytest.fixture(scope="module")
def oracle_sweep():
    rng = SplitMix64(0xC0FFEE)
    policy_failures = []
    reconstruction_failures = []
    for trial in range(N_ORACLE_INSTANCES):
        n = 1 + rng.next_u64() % 12
        d_max = 1 + rng.next_u64() % 30
        d_hash = 1 + rng.next_u64() % min(n, d_max)
        inst = generate_instance(
            seed=trial + 1, n=n, d_hash=d_hash, d_max=d_max, p_max=10, w_max=10
        )
        want = brute_force(inst).min_tardy_weight
        for policy in ALL_POLICIES:
            got = solve(inst, policy).min_tardy_weight
            if got != want:
                policy_failures.append((trial, policy.value, want, got))
        res = solve(inst, SolverPolicy.MAXPLUS_NAIVE, reconstruct=True)
        by_id = {j.id: j for j in inst.jobs}
        chosen = [by_id[i] for i in res.early_set]
        if sum(j.w for j in chosen) != res.max_early_weight or not edd_feasible(chosen):
            reconstruction_failures.append(trial)
    return policy_failures, reconstruction_failures


def test_criterion_1_oracle_equivalence(oracle_sweep):
    policy_failures, _ = oracle_sweep
    ok = not policy_failures
    _report(
        "criterion 1 (oracle equivalence)",
        ok,
        f"{N_ORACLE_INSTANCES} instances x {len(ALL_POLICIES)} policies, exact",
    )
    assert ok, f"first failures: {policy_failures[:5]}"


def test_criterion_8_reconstruction_validity(oracle_sweep):
    _, reconstruction_failures = oracle_sweep
    ok = not reconstruction_failures
    _report(
        "criterion 8 (reconstruction validity)",
        ok,
        f"witness early set verified on all {N_ORACLE_INSTANCES} criterion-1 instances",
    )
    assert ok, f"failing trials: {reconstruction_failures[:5]}"


# ---------------------------------------------------------------------------
# criterion 2: engine equivalence on >= 10,000 vector pairs per engine
# ---------------------------------------------------------------------------


def _random_sstep_concave(rng: random.Random, length: int, s: int) -> list:
    n_steps = (length - 1) // s + 1
    diffs = sorted((rng.randint(0, 9) for _ in range(n_steps)), reverse=True)
    core = [rng.randint(0, 5)]
    for d in diffs[1:]:
        core.append(core[-1] + d)
    return [core[i // s] for i in range(length)]


def test_criterion_2_engine_equivalence(monkeypatch):
    monkeypatch.setattr(mp, "SMALL_PRODUCT_CUTOFF", 0)  # force structured paths
    rng = random.Random(0xBEEF)
    mismatches = []

    sstep_pairs = 10_000
    for _ in range(sstep_pairs):
        s = rng.randint(1, 8)
        a = [rng.randint(0, 60) for _ in range(rng.randint(1, 256))]
        b = _random_sstep_concave(rng, rng.randint(1, 256), s)
        if not np.array_equal(convolve_sstep_concave(a, b, s), convolve_naive(a, b)):
            mismatches.append(("sstep", s, len(a), len(b)))

    full_width_pairs = 7_000
    for _ in range(full_width_pairs):
        a = [rng.randint(0, 60) for _ in range(rng.randint(1, 256))]
        b = [rng.randint(0, 60) for _ in range(rng.randint(1, 256))]
        r = RangeIntervals(tuple((0, len(b) - 1) for _ in a), error=10**9)
        if not np.array_equal(convolve_with_ranges(a, b, r), convolve_naive(a, b)):
            mismatches.append(("ranges-full", len(a), len(b)))

    derived_pairs = 0
    trial = 0
    while derived_pairs < 3_000:
        trial += 1
        n = rng.randint(2, 24)
        d_max = rng.randint(2, 255)
        d_hash = rng.randint(2, min(n, d_max))
        inst = generate_instance(
            seed=trial, n=n, d_hash=d_hash, d_max=d_max, p_max=10, w_max=10
        )
        grouping = group_by_due_date(inst)
        dates, groups = grouping.due_dates, grouping.groups
        acc = build_solution_vector_dp(list(groups[0]), dates[0])
        prefix = list(groups[0])
        for i in range(2, len(dates) + 1):
            grp = groups[i - 1]
            b_vec = build_solution_vector_dp(list(grp), dates[i - 1])
            a_frac = fractional_solution_vector(Instance(tuple(prefix)))
            b_frac = fractional_solution_vector(Instance(tuple(grp)))
            prefix = prefix + list(grp)
            c_frac = fractional_solution_vector(Instance(tuple(prefix)))
            ranges = compute_range_intervals(a_frac, b_frac, c_frac, i, inst.w_max)
            want = convolve_naive(acc, b_vec)
            if not np.array_equal(convolve_with_ranges(acc, b_vec, ranges), want):
                mismatches.append(("ranges-derived", trial, i))
            acc = want
            derived_pairs += 1

    total = sstep_pairs + full_width_pairs + derived_pairs
    ok = not mismatches
    _report(
        "criterion 2 (engine equivalence)",
        ok,
        f"{sstep_pairs} step-concave + {full_width_pairs} full-width + "
        f"{derived_pairs} range-guided pairs, exact ({total} total)",
    )
    assert ok, f"first mismatches: {mismatches[:5]}"


# ---------------------------------------------------------------------------
# criterion 3: fractional gap bound on >= 1,000 instances
# ---------------------------------------------------------------------------


def test_criterion_3_fractional_gap_bound():
    rng = SplitMix64(0xABCD)
    failures = []
    count = 1_000
    for trial in range(count):
        n = 1 + rng.next_u64() % 10
        d_max = 1 + rng.next_u64() % 28
        d_hash = 1 + rng.next_u64() % min(n, d_max)
        inst = generate_instance(
            seed=trial + 77, n=n, d_hash=d_hash, d_max=d_max, p_max=9, w_max=9
        )
        frac = fractional_solution_vector(inst)
        integral = brute_force_vector(list(inst.jobs), inst.d_max)
        if not fractional_gap_check(frac, integral, inst.d_hash, inst.w_max):
            failures.append(trial)
    ok = not failures
    _report(
        "criterion 3 (fractional gap bound)",
        ok,
        f"0 <= frac-integral <= d_hash*w_max on {count} instances, every entry",
    )
    assert ok, f"failing trials: {failures[:5]}"


# ---------------------------------------------------------------------------
# criterion 4: range-interval conditions at e = 4*i*w_max, every iteration
# ---------------------------------------------------------------------------


def test_criterion_4_range_interval_conditions():
    rng = SplitMix64(0xD00D)
    failures = []
    count = 1_000
    iterations = 0
    for trial in range(count):
        n = 2 + rng.next_u64() % 10
        d_max = 2 + rng.next_u64() % 28
        d_hash = 2 + rng.next_u64() % min(n, d_max, 8)
        d_hash = min(d_hash, n, d_max)
        inst = generate_instance(
            seed=trial + 999, n=n, d_hash=d_hash, d_max=d_max, p_max=9, w_max=9
        )
        grouping = group_by_due_date(inst)
        dates, groups = grouping.due_dates, grouping.groups
        acc = build_solution_vector_dp(list(groups[0]), dates[0])
        prefix = list(groups[0])
        for i in range(2, len(dates) + 1):
            grp = groups[i - 1]
            b_vec = build_solution_vector_dp(list(grp), dates[i - 1])
            a_frac = fractional_solution_vector(Instance(tuple(prefix)))
            b_frac = fractional_solution_vector(Instance(tuple(grp)))
            prefix = prefix + list(grp)
            c_frac = fractional_solution_vector(Instance(tuple(prefix)))
            ranges = compute_range_intervals(a_frac, b_frac, c_frac, i, inst.w_max)
            assert ranges.error == 4 * i * inst.w_max
            violations = validate_range_intervals(acc, b_vec, ranges)
            if violations:
                failures.append((trial, i, violations[:2]))
            acc = convolve_naive(acc, b_vec)
            iterations += 1
    ok = not failures
    _report(
        "criterion 4 (range-interval conditions)",
        ok,
        f"zero violations at e=4*i*w_max over {count} instances, {iterations} merges",
    )
    assert ok, f"first failures: {failures[:3]}"


# ---------------------------------------------------------------------------
# criterion 5: due-date-ordered enumeration equals full permutation search
# ---------------------------------------------------------------------------


def test_criterion_5_edd_sufficiency():
    rng = SplitMix64(0xFACE)
    failures = []
    count = 500
    for trial in range(count):
        n = 1 + rng.next_u64() % 8
        d_max = 1 + rng.next_u64() % 24
        d_hash = 1 + rng.next_u64() % min(n, d_max)
        inst = generate_instance(
            seed=trial + 4242, n=n, d_hash=d_hash, d_max=d_max, p_max=8, w_max=8
        )
        restricted = brute_force(inst).max_early_weight
        unrestricted = brute_force_permutations(inst).max_early_weight
        if restricted != unrestricted:
            failures.append((trial, restricted, unrestricted))
    ok = not failures
    _report(
        "criterion 5 (EDD sufficiency)",
        ok,
        f"full-permutation optimum equals due-date-ordered optimum on {count} instances",
    )
    assert ok, f"failures: {failures[:5]}"


# ---------------------------------------------------------------------------
# criterion 6: near-linear growth in the number of distinct due dates
# ---------------------------------------------------------------------------


def test_criterion_6_scaling_in_distinct_due_dates():
    # five rounds of one timed solve per instance, each round over the three
    # shapes in alternating order, so that a burst of load on a shared
    # machine falls on every shape alike
    seeds = [101, 102, 103, 104, 105]
    rows = []
    for round_ in range(5):
        order = (4, 8, 16) if round_ % 2 == 0 else (16, 8, 4)
        config = {
            "policies": ["naive"],
            "repetitions": 1,
            "verify": True,
            "grid": [
                {"n": 64, "d_hash": dh, "d_max": 2000, "p_max": 10, "w_max": 10, "seeds": seeds}
                for dh in order
            ],
        }
        rows += run_bench(config)
    med = {}
    for dh in (4, 8, 16):
        per_seed = [
            statistics.median(
                r["nanos"] for r in rows if r["d_hash"] == dh and r["seed"] == seed
            )
            for seed in seeds
        ]
        med[dh] = statistics.median(per_seed)
    r1 = med[8] / med[4]
    r2 = med[16] / med[8]
    ok = 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0
    _report(
        "criterion 6 (d_hash scaling)",
        ok,
        f"median-of-medians growth per doubling: 4->8 = {r1:.2f}x, 8->16 = {r2:.2f}x "
        f"(required within [1.5, 3.0])",
    )
    assert ok, f"ratios out of band: {r1:.3f}, {r2:.3f}"


# ---------------------------------------------------------------------------
# criterion 7: the three builders agree on single-due-date groups
# ---------------------------------------------------------------------------


def test_criterion_7_builder_equivalence():
    from tardyjobs import Job

    rng = random.Random(0x5EED)
    failures = []
    count = 5_000
    for trial in range(count):
        d = rng.randint(1, 64)
        n = rng.randint(0, 32)
        jobs = [
            Job(id=i, p=rng.randint(1, 10), w=rng.randint(1, 8), d=d) for i in range(n)
        ]
        dp = build_solution_vector_dp(jobs, d)
        concave = build_solution_vector_concave(jobs, d)
        inverse = inverse_to_direct(build_inverse_solution_vector(jobs), d)
        if not (dp.tolist() == concave.tolist() == inverse):
            failures.append(trial)
    ok = not failures
    _report(
        "criterion 7 (builder equivalence)",
        ok,
        f"DP, step-concave, and inverse-derived builders identical on {count} groups",
    )
    assert ok, f"failing trials: {failures[:5]}"
