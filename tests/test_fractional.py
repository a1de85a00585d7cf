import math
import random
from fractions import Fraction

import pytest

from tardyjobs import (
    Instance,
    Job,
    fractional_solution_vector,
    fractional_union,
    generate_instance,
    group_by_due_date,
)
from tardyjobs.fractional import FractionalSolutionVector

from checks import brute_force_vector, fractional_gap_check
from conftest import entry_runs, fractional_by_units, job_classes


class TestFractionalVector:
    def test_single_job(self):
        inst = Instance((Job(id=0, p=2, w=4, d=2),))
        assert fractional_solution_vector(inst.classes).values() == [0, 2, 4]

    def test_two_jobs_one_date(self):
        inst = Instance((Job(id=0, p=1, w=3, d=3), Job(id=1, p=2, w=2, d=3)))
        assert fractional_solution_vector(inst.classes).values() == [0, 3, 4, 5]

    def test_p_exceeds_due_date_still_sliced(self):
        # slices are admitted until the due date saturates
        inst = Instance((Job(id=0, p=5, w=9, d=2),))
        assert fractional_solution_vector(inst.classes).values() == [
            Fraction(0),
            Fraction(9, 5),
            Fraction(18, 5),
        ]

    def test_entries_flat_once_jobs_exhausted(self):
        inst = Instance((Job(id=0, p=1, w=5, d=4),))
        assert fractional_solution_vector(inst.classes).values() == [0, 5, 5, 5, 5]

    def test_empty_slice_needs_a_horizon(self):
        with pytest.raises(ValueError, match="empty class slice needs a horizon"):
            fractional_solution_vector(())
        assert fractional_solution_vector((), 3).values() == [0, 0, 0, 0]

    @pytest.mark.parametrize("horizon", [-1, -5])
    def test_negative_horizon_errors(self, horizon):
        inst = generate_instance(seed=1, n=10, d_hash=2, d_max=50)
        with pytest.raises(ValueError, match=f"horizon must be >= 0, got {horizon}$"):
            fractional_solution_vector(inst.classes, horizon)

    def test_ratios_compared_exactly(self):
        # 10000000001/10000000000 against 1: the larger rate fills the due date
        # first, though the other job's class comes first in the class table
        slow = Job(id=0, p=1, w=1, d=10)
        fast = Job(id=1, p=10_000_000_000, w=10_000_000_001, d=10)
        rate = Fraction(10_000_000_001, 10_000_000_000)
        assert fractional_solution_vector(Instance((slow, fast)).classes).values() == [k * rate for k in range(11)]

    def test_values_independent_of_equal_ratio_tie_order(self):
        a = Instance((Job(id=0, p=1, w=2, d=4), Job(id=1, p=2, w=4, d=4)))
        b = Instance((Job(id=0, p=2, w=4, d=4), Job(id=1, p=1, w=2, d=4)))
        assert fractional_solution_vector(a.classes).values() == fractional_solution_vector(b.classes).values()

    def test_dominates_integral_vector(self):
        rng = random.Random(5)
        for trial in range(150):
            n = rng.randint(1, 9)
            d_max = rng.randint(1, 22)
            inst = generate_instance(
                seed=trial, n=n, d_hash=rng.randint(1, min(n, d_max)), d_max=d_max, p_max=7, w_max=7
            )
            frac = fractional_solution_vector(inst.classes)
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
            # the vector equals the reference's (test_matches_unit_by_unit_reference),
            # whose per-job units show the assignment
            _, units = fractional_by_units(inst)
            by_p = {j.id: j.p for j in inst.jobs}
            fractional_jobs = [jid for jid, u in units.items() if 0 < u < by_p[jid]]
            assert len(fractional_jobs) <= inst.d_hash

    def test_diffs_are_job_rates(self):
        inst = generate_instance(seed=99, n=6, d_hash=3, d_max=15, p_max=6, w_max=6)
        frac = fractional_solution_vector(inst.classes)
        rates = {Fraction(0)} | {Fraction(j.w, j.p) for j in inst.jobs}
        vals = frac.values()
        for k in range(1, len(vals)):
            assert vals[k] - vals[k - 1] in rates


def test_matches_unit_by_unit_reference():
    # the per-class greedy against the one-unit-per-budget simulation, on the
    # whole class table and on each of its due-date prefixes; the draws cover
    # p > d, weights past 2^64 and a processing-time lcm past 2^63
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
        got, (want, _) = fractional_solution_vector(inst.classes), fractional_by_units(inst)
        assert (got.scaled, got.scale) == (want.scaled, want.scale)
        end = 0
        for d, group in group_by_due_date(inst)[:-1]:
            end += len(group)
            sub = Instance(tuple(j for j in inst.jobs if j.d <= d))
            got, (want, _) = fractional_solution_vector(inst.classes[:end], d), fractional_by_units(sub)
            assert (got.scaled, got.scale) == (want.scaled, want.scale)
        if any(j.p > j.d for j in inst.jobs):
            edges.add("p > d")
        if inst.w_max >= 2**64:
            edges.add("w >= 2^64")
        if got.scale > 2**63:
            edges.add("lcm > 2^63")
    assert edges == {"p > d", "w >= 2^64", "lcm > 2^63"}


def test_duplicate_classes_match_unit_by_unit_reference():
    # classes of two or more equal jobs, and equal rates w/p across due dates
    # and processing times: one take per class fills what its jobs would, in
    # any order of the tied classes; horizons fall below and past the reach
    rng = random.Random(72)
    tied_across_dates = 0
    for _ in range(400):
        dates = rng.sample(range(1, 60), rng.randint(1, 4))
        rates = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(2)]  # (w, p) per unit of t
        jobs = []
        for _ in range(rng.randint(1, 6)):
            (w, p), t = rng.choice(rates), rng.randint(1, 5)
            d = rng.choice(dates)
            jobs += [(p * t, w * t, d)] * rng.randint(2, 6)
        rng.shuffle(jobs)
        inst = Instance(tuple(Job(id=i, p=p, w=w, d=d) for i, (p, w, d) in enumerate(jobs)))
        want, _ = fractional_by_units(inst)
        ratio_dates = {}
        for (d, p, w), _ in inst.classes:
            ratio_dates.setdefault(Fraction(w, p), set()).add(d)
        tied_across_dates += any(len(ds) > 1 for ds in ratio_dates.values())
        for horizon in (rng.randint(0, inst.d_max), inst.d_max, inst.d_max + rng.randint(1, 9)):
            got = fractional_solution_vector(inst.classes, horizon)
            cut = want.scaled[: horizon + 1]
            assert got.scale == want.scale
            assert got.scaled == cut + (cut[-1],) * (horizon + 1 - len(cut))
    assert tied_across_dates >= 100


def test_union_is_the_maxplus_convolution():
    # fractional_union against max over k + l = b of A'[k] + B'[l], held at
    # its last entry and cut at the horizon, on pairs of greedy vectors; the
    # draws cover weights past 2^64 and a common scale past 2^63
    rng = random.Random(73)

    def draw(p_max, w_max):
        jobs = [Job(id=i, p=rng.randint(1, p_max), w=rng.randint(1, w_max), d=rng.randint(1, 40)) for i in range(25)]
        return fractional_solution_vector(job_classes(jobs[: rng.randint(1, 25)]), rng.randint(0, 45))

    edges = set()
    for _ in range(300):
        p_max, w_max = rng.choice((3, 12, 100)), rng.choice((6, 2**70))
        a, b = draw(p_max, w_max), draw(p_max, w_max)
        horizon = rng.randint(0, len(a) + len(b))
        scale = math.lcm(a.scale, b.scale)
        av, bv = ([x * (scale // v.scale) for x in v.scaled] for v in (a, b))
        conv = [
            max(av[k] + bv[t - k] for k in range(len(av)) if 0 <= t - k < len(bv))
            for t in range(len(av) + len(bv) - 1)
        ]
        want = conv[: horizon + 1] + conv[-1:] * (horizon + 1 - len(conv))
        got = fractional_union(a, b, horizon)
        assert (got.scaled, got.scale) == (tuple(want), scale)
        if max(conv) >= 2**64 * scale:
            edges.add("w >= 2^64")
        if scale > 2**63:
            edges.add("lcm > 2^63")
    assert edges == {"w >= 2^64", "lcm > 2^63"}


def test_union_of_a_built_vector_with_itself():
    built = fractional_solution_vector(Instance((Job(id=0, p=2, w=3, d=4),)).classes)
    assert fractional_union(built, built, 3).values() == [0, Fraction(3, 2), 3, Fraction(9, 2)]


class TestGapCheck:
    def test_zero_gap(self):
        frac = FractionalSolutionVector(scaled=(0, 2, 4), scale=1, runs=entry_runs((0, 2, 4)))
        assert fractional_gap_check(frac, [0, 2, 4], d_hash=1, w_max=4)

    def test_negative_gap_signals_builder_bug(self):
        frac = FractionalSolutionVector(scaled=(0, 1), scale=1, runs=entry_runs((0, 1)))
        assert not fractional_gap_check(frac, [0, 2], d_hash=1, w_max=5)

    def test_length_mismatch_errors(self):
        frac = FractionalSolutionVector(scaled=(0, 1), scale=1, runs=entry_runs((0, 1)))
        with pytest.raises(ValueError, match="length mismatch"):
            fractional_gap_check(frac, [0, 1, 1], d_hash=1, w_max=1)
