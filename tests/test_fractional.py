import random
from fractions import Fraction

import pytest

from tardyjobs import (
    Instance,
    Job,
    brute_force_vector,
    fractional_gap_check,
    fractional_solution_vector,
    generate_instance,
    wspt_sort,
)
from tardyjobs.fractional import FractionalSolutionVector

from conftest import fractional_by_units


def J(i, p, w, d=10):
    return Job(id=i, p=p, w=w, d=d)


class TestWsptSort:
    def test_already_sorted(self):
        jobs = [J(0, 1, 3), J(1, 2, 2)]
        assert wspt_sort(jobs) == jobs

    def test_swaps(self):
        jobs = [J(0, 2, 2), J(1, 1, 3)]
        assert [j.id for j in wspt_sort(jobs)] == [1, 0]

    def test_equal_ratios_keep_id_order(self):
        jobs = [J(1, 2, 4), J(0, 1, 2)]
        assert [j.id for j in wspt_sort(jobs)] == [0, 1]

    def test_no_floating_point_collisions(self):
        # ratios 10000000001/10000000000 vs 1: distinct under exact compare
        a = J(0, 10_000_000_000, 10_000_000_001, 10)
        b = J(1, 1, 1, 10)
        assert [j.id for j in wspt_sort([b, a])] == [0, 1]


class TestFractionalVector:
    def test_single_job(self):
        inst = Instance((Job(id=0, p=2, w=4, d=2),))
        assert fractional_solution_vector(inst).values() == [0, 2, 4]

    def test_two_jobs_one_date(self):
        inst = Instance((Job(id=0, p=1, w=3, d=3), Job(id=1, p=2, w=2, d=3)))
        assert fractional_solution_vector(inst).values() == [0, 3, 4, 5]

    def test_p_exceeds_due_date_still_sliced(self):
        # slices are admitted until the due date saturates
        inst = Instance((Job(id=0, p=5, w=9, d=2),))
        assert fractional_solution_vector(inst).values() == [
            Fraction(0),
            Fraction(9, 5),
            Fraction(18, 5),
        ]

    def test_entries_flat_once_jobs_exhausted(self):
        inst = Instance((Job(id=0, p=1, w=5, d=4),))
        assert fractional_solution_vector(inst).values() == [0, 5, 5, 5, 5]

    @pytest.mark.parametrize("horizon", [-1, -5])
    def test_negative_horizon_errors(self, horizon):
        inst = generate_instance(seed=1, n=10, d_hash=2, d_max=50)
        with pytest.raises(ValueError, match=f"horizon must be >= 0, got {horizon}$"):
            fractional_solution_vector(inst, horizon)

    def test_values_independent_of_equal_ratio_tie_order(self):
        a = Instance((Job(id=0, p=1, w=2, d=4), Job(id=1, p=2, w=4, d=4)))
        b = Instance((Job(id=0, p=2, w=4, d=4), Job(id=1, p=1, w=2, d=4)))
        assert fractional_solution_vector(a).values() == fractional_solution_vector(b).values()

    def test_dominates_integral_vector(self):
        rng = random.Random(5)
        for trial in range(150):
            n = rng.randint(1, 9)
            d_max = rng.randint(1, 22)
            inst = generate_instance(
                seed=trial, n=n, d_hash=rng.randint(1, min(n, d_max)), d_max=d_max, p_max=7, w_max=7
            )
            frac = fractional_solution_vector(inst)
            integral = brute_force_vector(list(inst.jobs), inst.d_max)
            assert fractional_gap_check(frac, integral, inst.d_hash, inst.w_max)

    def test_at_most_one_fractional_job_per_due_date(self):
        rng = random.Random(6)
        for trial in range(150):
            n = rng.randint(1, 10)
            d_max = rng.randint(1, 20)
            inst = generate_instance(
                seed=trial + 500, n=n, d_hash=rng.randint(1, min(n, d_max)),
                d_max=d_max, p_max=7, w_max=7,
            )
            frac = fractional_solution_vector(inst)
            by_p = {j.id: j.p for j in inst.jobs}
            fractional_jobs = [
                jid for jid, u in frac.units.items() if 0 < u < by_p[jid]
            ]
            assert len(fractional_jobs) <= inst.d_hash

    def test_diffs_are_job_rates(self):
        inst = generate_instance(seed=99, n=6, d_hash=3, d_max=15, p_max=6, w_max=6)
        frac = fractional_solution_vector(inst)
        rates = {Fraction(0)} | {Fraction(j.w, j.p) for j in inst.jobs}
        vals = frac.values()
        for k in range(1, len(vals)):
            assert vals[k] - vals[k - 1] in rates


def test_matches_unit_by_unit_reference():
    # the per-job greedy against the one-unit-per-budget simulation; the
    # draws cover p > d, weights past 2^64 and a processing-time lcm past 2^63
    rng = random.Random(71)
    edges = set()
    for _ in range(1000):
        n = rng.randint(1, 30)
        d_max = rng.randint(1, 200)
        dates = [rng.randint(1, d_max) for _ in range(rng.randint(1, n))]
        p_max = rng.choice((3, 12, 100))
        w_max = rng.choice((6, 2**70))
        inst = Instance(tuple(
            Job(id=i, p=rng.randint(1, p_max), w=rng.randint(1, w_max), d=rng.choice(dates))
            for i in range(n)
        ))
        got, want = fractional_solution_vector(inst), fractional_by_units(inst)
        assert (got.scaled, got.scale, got.units) == (want.scaled, want.scale, want.units)
        if any(j.p > j.d for j in inst.jobs):
            edges.add("p > d")
        if inst.w_max >= 2**64:
            edges.add("w >= 2^64")
        if got.scale > 2**63:
            edges.add("lcm > 2^63")
    assert edges == {"p > d", "w >= 2^64", "lcm > 2^63"}


class TestGapCheck:
    def test_zero_gap(self):
        frac = FractionalSolutionVector(scaled=(0, 2, 4), scale=1)
        assert fractional_gap_check(frac, [0, 2, 4], d_hash=1, w_max=4)

    def test_negative_gap_signals_builder_bug(self):
        frac = FractionalSolutionVector(scaled=(0, 1), scale=1)
        assert not fractional_gap_check(frac, [0, 2], d_hash=1, w_max=5)

    def test_length_mismatch_errors(self):
        frac = FractionalSolutionVector(scaled=(0, 1), scale=1)
        with pytest.raises(ValueError, match="length mismatch"):
            fractional_gap_check(frac, [0, 1, 1], d_hash=1, w_max=1)
