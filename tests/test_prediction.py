import random
from fractions import Fraction

import numpy as np
import pytest

from tardyjobs import (
    Instance,
    RangeIntervals,
    compute_range_intervals,
    convolve_naive,
    fractional_solution_vector,
    generate_instance,
    group_by_due_date,
    validate_range_intervals,
)
from tardyjobs.builders import build_solution_vector_dp
from tardyjobs.fractional import FractionalSolutionVector

from conftest import delta


def fsv(values, scale=1):
    return FractionalSolutionVector(scaled=tuple(values), scale=scale)


def iteration_fixtures(seed_base, trials, rng_seed, *, n_max=10, d_max_max=25):
    """Yield (i, acc, group_vec, a_frac, b_frac, c_frac, w_max) per merge."""
    rng = random.Random(rng_seed)
    for trial in range(trials):
        n = rng.randint(2, n_max)
        d_max = rng.randint(2, d_max_max)
        d_hash = rng.randint(2, min(n, d_max))
        inst = generate_instance(
            seed=seed_base + trial, n=n, d_hash=d_hash, d_max=d_max, p_max=8, w_max=8
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
            yield i, acc, b_vec, a_frac, b_frac, c_frac, inst.w_max
            acc = convolve_naive(acc, b_vec)


class TestComputeRangeIntervals:
    def test_trivial_left_side(self):
        # A' = [0] (no prefix mass): the gap is 0 everywhere, one full interval
        b = fsv([0, 1, 2, 2])
        r = compute_range_intervals(fsv([0]), b, b, i=1, w_max=1)
        assert r.intervals == ((0, 3),)
        assert r.error == 4

    def test_trivial_right_side(self):
        # B' = [0]: only the l=0 split exists, every interval collapses
        a = fsv([0, 2, 3])
        r = compute_range_intervals(a, fsv([0]), a, i=1, w_max=1)
        assert r.intervals == ((0, 0), (0, 0), (0, 0))

    def test_error_parameter(self):
        b = fsv([0, 1])
        assert compute_range_intervals(fsv([0]), b, b, i=3, w_max=5).error == 60

    def test_rejects_bad_iteration_index(self):
        with pytest.raises(ValueError):
            compute_range_intervals(fsv([0]), fsv([0]), fsv([0]), i=0, w_max=1)

    def test_sweep_matches_defining_formulas(self):
        # x_k: first in-horizon budget within threshold; y_k: running max of
        # in-horizon maxima (the y pointer never moves backward); a k whose
        # threshold admits nothing is flagged empty
        for i, _, _, af, bf, cf, w_max in iteration_fixtures(2000, 60, rng_seed=17):
            thr = Fraction(2 * i * w_max)
            expected = []
            prev_y = -1
            for k in range(len(af)):
                ls = [
                    l
                    for l in range(len(bf))
                    if k + l < len(cf)
                    and cf.value(k + l) - af.value(k) - bf.value(l) <= thr
                ]
                if not ls:
                    expected.append(None)
                    continue
                y = max(prev_y, max(ls))
                expected.append((min(ls), y))
                prev_y = y
            got = compute_range_intervals(af, bf, cf, i, w_max)
            assert list(got.intervals) == expected

    def test_monotone_endpoints(self):
        for i, _, _, af, bf, cf, w_max in iteration_fixtures(3000, 40, rng_seed=19):
            r = compute_range_intervals(af, bf, cf, i, w_max)
            xs = [iv[0] for iv in r.intervals if iv is not None]
            ys = [iv[1] for iv in r.intervals if iv is not None]
            assert xs == sorted(xs)
            assert ys == sorted(ys)

    def test_saturated_left_side_yields_flagged_empty(self):
        # one short job against a huge horizon: the left vector flattens at
        # budget 1 while the union keeps packing right-side work, so far-out
        # left indices admit no budget at all
        from tardyjobs import Instance, Job, convolve_naive, convolve_with_ranges
        from tardyjobs.builders import build_solution_vector_dp

        left = [Job(id=0, p=1, w=1, d=60)]
        right = [Job(id=i, p=1, w=9, d=200) for i in range(1, 150)]
        af = fractional_solution_vector(Instance(tuple(left)))
        bf = fractional_solution_vector(Instance(tuple(right)))
        cf = fractional_solution_vector(Instance(tuple(left + right)))
        r = compute_range_intervals(af, bf, cf, i=2, w_max=9)
        assert any(iv is None for iv in r.intervals)
        # flagged-empty indices never matter: range-guided stays exact
        a_vec = build_solution_vector_dp(left, 60)
        b_vec = build_solution_vector_dp(right, 200)
        assert validate_range_intervals(a_vec, b_vec, r) == []
        assert np.array_equal(convolve_with_ranges(a_vec, b_vec, r), convolve_naive(a_vec, b_vec))


class TestValidateRangeIntervals:
    def test_full_width_with_generous_error(self):
        a = [0, 2, 5]
        b = [0, 1, 4, 4]
        c = convolve_naive(a, b)
        r = RangeIntervals(tuple((0, len(b) - 1) for _ in a), error=max(c))
        assert validate_range_intervals(a, b, r) == []

    def test_computed_intervals_pass(self):
        for i, acc, b_vec, af, bf, cf, w_max in iteration_fixtures(4000, 50, rng_seed=23):
            r = compute_range_intervals(af, bf, cf, i, w_max)
            assert validate_range_intervals(acc, b_vec, r) == []

    def test_shrunken_interval_reports_condition_2(self):
        a = [0, 2]
        b = [0, 0, 7]
        # l=2's only optimal split is k=0; excluding it from [x_0, y_0] breaks cond 2
        r = RangeIntervals(((0, 1), (0, 1)), error=100)
        violations = validate_range_intervals(a, b, r)
        assert any("condition-2" in v and "l=2" in v for v in violations)

    def test_small_error_reports_condition_1(self):
        a = [0, 0]
        b = [0, 9]
        r = RangeIntervals(((0, 1), (0, 1)), error=0)
        violations = validate_range_intervals(a, b, r)
        assert any("condition-1" in v for v in violations)

    def test_structural_problems_are_data(self):
        a = [0, 1]
        b = [0, 1]
        assert validate_range_intervals(a, b, RangeIntervals(((0, 9), (0, 9)), 0))
        assert validate_range_intervals(a, b, RangeIntervals(((0, 1),), 0))


class TestDelta:
    def test_shared_origin(self):
        v = fsv([0, 1])
        assert delta(v, v, v, 0, 0) == 0

    def test_empty_left_side(self):
        b = fsv([0, 3, 5])
        for l in range(3):
            assert delta(fsv([0]), b, b, 0, l) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            delta(fsv([0]), fsv([0]), fsv([0]), 0, 1)

    def test_unimodal_in_l(self):
        # non-increasing, then non-decreasing; a counterexample would point
        # at a fractional-vector bug
        for i, _, _, af, bf, cf, w_max in iteration_fixtures(5000, 50, rng_seed=29):
            for k in range(len(af)):
                gaps = [
                    delta(af, bf, cf, k, l)
                    for l in range(len(bf))
                    if k + l < len(cf)
                ]
                trough = gaps.index(min(gaps))
                assert all(gaps[j] >= gaps[j + 1] for j in range(trough))
                assert all(gaps[j] <= gaps[j + 1] for j in range(trough, len(gaps) - 1))
