import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tardyjobs.maxplus as mp
from tardyjobs import (
    NEG_INF,
    POS_INF,
    RangeIntervals,
    convolve_naive,
    convolve_sstep_concave,
    convolve_with_ranges,
    is_sstep_concave,
    is_sstep_convex,
    minplus_convolve,
)

vec = st.lists(st.integers(min_value=-20, max_value=50), min_size=1, max_size=24)


def reference(A, B, length, best=max):
    """The definition in plain Python: entry l < length is the best of
    A[k] + B[l-k] over the splits valid in both operands."""
    return [
        best(A[k] + B[l - k] for k in range(max(0, l - len(B) + 1), min(l, len(A) - 1) + 1))
        for l in range(length)
    ]


def with_sentinel(sentinel):
    return st.lists(
        st.one_of(st.integers(min_value=-20, max_value=50), st.just(sentinel)), min_size=1, max_size=24
    )


def shifted(v, by):
    return [x + by for x in v]


def sstep_concave(draw_len, s, rng):
    """Random s-step concave vector of the given length."""
    n_steps = (draw_len - 1) // s + 1
    diffs = sorted((rng.randint(0, 9) for _ in range(n_steps)), reverse=True)
    core = [rng.randint(-3, 3)]
    for d in diffs[1:]:
        core.append(core[-1] + d)
    return [core[i // s] for i in range(draw_len)]


class TestConvolveNaive:
    def test_def_example(self):
        assert convolve_naive([0, 2], [0, 1, 3]).tolist() == [0, 2, 3]

    def test_identity_element(self):
        assert convolve_naive([0], [0, 5, 7]).tolist() == [0, 5, 7]

    def test_all_splits(self):
        assert convolve_naive([0, 1, 1], [0, 1, 1]).tolist() == [0, 1, 2]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            convolve_naive([], [0])
        with pytest.raises(ValueError):
            convolve_naive([0], [])

    def test_neg_inf_saturates(self):
        assert convolve_naive([NEG_INF, 0], [0, 4]).tolist() == [NEG_INF, 0]
        assert convolve_naive([0, 4], [NEG_INF, 0, NEG_INF]).tolist() == reference([0, 4], [NEG_INF, 0, NEG_INF], 3)

    def test_numpy_path_matches_python(self):
        rng = random.Random(7)
        A = [rng.randint(-5, 30) for _ in range(90)]
        B = [rng.randint(-5, 30) for _ in range(80)]
        assert convolve_naive(A, B).tolist() == reference(A, B, 90)

    def test_big_ints_fall_back_exactly(self):
        big = 2**60
        assert convolve_naive([0, big], [0, big, big + 1]).tolist() == [0, big, 2 * big]

    @given(vec, vec)
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, a, b):
        assert np.array_equal(convolve_naive(a, b), convolve_naive(b, a))

    @given(vec, vec, vec)
    @settings(max_examples=100, deadline=None)
    def test_associative_up_to_common_horizon(self, a, b, c):
        left = convolve_naive(convolve_naive(a, b), c)
        right = convolve_naive(a, convolve_naive(b, c))
        h = min(len(a), len(b), len(c))
        assert np.array_equal(left[:h], right[:h])

    @given(vec, vec)
    @settings(max_examples=100, deadline=None)
    def test_monotone_zero_origin_closure(self, a, b):
        a = [0] + sorted(x + 21 for x in a)
        b = [0] + sorted(x + 21 for x in b)
        out = convolve_naive(a, b)
        assert out[0] == 0
        assert all(out[k] <= out[k + 1] for k in range(len(out) - 1))


class TestSStepConcave:
    def test_is_sstep_examples(self):
        assert is_sstep_concave([0, 0, 4, 4, 6, 6], 2)
        assert is_sstep_concave([0, 5, 8, 9], 1)
        assert not is_sstep_concave([0, 0, 4, 5], 2)

    def test_partial_tail_is_fine(self):
        assert is_sstep_concave([0, 0, 4, 4], 2)

    def test_convolve_s1(self):
        assert convolve_sstep_concave([0, 1], [0, 5, 8, 9], 1).tolist() == [0, 5, 8, 9]

    def test_zeros(self):
        assert convolve_sstep_concave([0, 0, 0], [0] * 6, 2).tolist() == [0] * 6

    def test_matches_naive_example(self):
        a, b = [0, 3], [0, 0, 4, 4, 6, 6]
        assert convolve_sstep_concave(a, b, 2).tolist() == convolve_naive(a, b).tolist() == [0, 3, 4, 7, 7, 9]

    def test_precondition_names_index(self):
        with pytest.raises(ValueError, match="index 3"):
            convolve_sstep_concave([0, 1], [0, 0, 4, 5], 2)

    def test_fuzz_against_naive(self, forced_structured_engines):
        rng = random.Random(11)
        for _ in range(400):
            s = rng.randint(1, 6)
            a = [rng.randint(-9, 30) for _ in range(rng.randint(1, 40))]
            b = sstep_concave(rng.randint(1, 40), s, rng)
            assert np.array_equal(convolve_sstep_concave(a, b, s), convolve_naive(a, b))

    def test_large_inputs_use_structured_path(self):
        rng = random.Random(13)
        a = [rng.randint(0, 99) for _ in range(300)]
        b = sstep_concave(280, 3, rng)
        assert np.array_equal(convolve_sstep_concave(a, b, 3), convolve_naive(a, b))


def sstep_convex(n_steps, s, rng):
    """Random s-step convex vector with n_steps steps after its first entry."""
    core = [rng.randint(0, 3)]
    for d in sorted(rng.randint(0, 9) for _ in range(n_steps)):
        core.append(core[-1] + d)
    return [core[0]] + [core[t] for t in range(1, n_steps + 1) for _ in range(s)]


class TestStepEnginesAtScale:
    """The vectorized step engines on inputs past SMALL_PRODUCT_CUTOFF, as the
    solvers call them, against the naive evaluation."""

    def test_concave_fuzz_against_naive(self):
        rng = random.Random(67)
        for case in range(24):
            s = rng.randint(1, 12)
            n_a = rng.randint(300, 3000)
            n_b = rng.randint(300, 3000) if case % 3 else n_a + rng.randint(1, 400)  # B longer
            a = [rng.randint(0, 10**6) for _ in range(n_a)]
            if case % 4 == 0:
                a = [7] * n_a  # all ties
            a = sorted(a) if case % 2 else a
            b = sstep_concave(n_b, s, rng)
            assert np.array_equal(convolve_sstep_concave(a, b, s), convolve_naive(a, b))

    def test_convex_fuzz_against_naive(self):
        rng = random.Random(71)
        for case in range(24):
            s = rng.randint(1, 12)
            n_a = rng.randint(300, 3000)
            a = sorted(rng.randint(0, 10**6) for _ in range(n_a))
            if case % 4 == 0:
                a = [5] * n_a  # all ties
            if case % 2:  # capped accumulator: finite prefix, POS_INF suffix
                cut = rng.randint(1, n_a - 1)
                a[cut:] = [POS_INF] * (n_a - cut)
            n_steps = rng.randint(300, 3000) // s if case % 3 else (n_a + rng.randint(1, 400)) // s
            b = sstep_convex(max(n_steps, 1), s, rng)
            got = minplus_convolve(a, b, s)
            assert np.array_equal(got, minplus_convolve(a, b))

    def test_entries_beyond_float_exactness(self, monkeypatch):
        # shifting both operands by `big` shifts every output entry by 2*big,
        # so the small operands give an exact reference; the step engines must
        # answer on exact object arrays, never by falling back to naive
        rng = random.Random(73)
        big = 2**52 + 1
        cases = []
        for s in (1, 3, 8):
            a = [rng.randint(0, 99) for _ in range(400)]
            b = sstep_concave(350, s, rng)
            inv = sorted(rng.randint(0, 99) for _ in range(400))
            c = sstep_convex(350 // s, s, rng)
            # int references: a float shifted by 2 * big would round
            want, want_inv = convolve_naive(a, b), minplus_convolve(inv, c)
            cases.append((s, a, b, want.astype(np.int64).tolist(), inv, c, want_inv.astype(np.int64).tolist()))

        def refuse(*args):
            raise AssertionError("a step engine fell back to the naive evaluation")

        monkeypatch.setattr(mp, "convolve_naive", refuse)
        monkeypatch.setattr(mp, "_minplus_naive", refuse)
        for s, a, b, want, inv, c, want_inv in cases:
            assert convolve_sstep_concave(shifted(a, big), shifted(b, big), s).tolist() == shifted(want, 2 * big)
            got = minplus_convolve(shifted(inv, big), shifted(c, big), s)
            assert got.tolist() == shifted(want_inv, 2 * big)

    def test_concave_precondition_names_first_index(self):
        rng = random.Random(79)
        # off stride: an entry stops copying its predecessor; on stride: a whole step bends upward
        for s, bad, step in ((1, 377, slice(377, 378)), (4, 402, slice(402, 403)), (4, 404, slice(404, 408))):
            b = sstep_concave(600, s, rng)
            b[step] = [x + 10**6 for x in b[step]]
            a = [rng.randint(0, 50) for _ in range(500)]
            with pytest.raises(ValueError, match=f"first violation at index {bad}$"):
                convolve_sstep_concave(a, b, s)
            with pytest.raises(ValueError, match=f"first violation at index {bad}$"):
                convolve_sstep_concave(a, [2**60 + x for x in b], s)

    def test_convex_precondition_names_first_index(self):
        rng = random.Random(83)
        # off stride: an entry stops copying its successor; on stride: a whole step bends downward
        for s, bad, step in ((1, 377, slice(377, 378)), (4, 401, slice(401, 402)), (4, 404, slice(401, 405))):
            b = sstep_convex(600 // s, s, rng)
            b[step] = [x - 10**6 for x in b[step]]
            a = sorted(rng.randint(0, 50) for _ in range(500))
            with pytest.raises(ValueError, match=f"first violation at index {bad}$"):
                minplus_convolve(a, b, s)
            with pytest.raises(ValueError, match=f"first violation at index {bad}$"):
                minplus_convolve(a, [2**60 + x for x in b], s)

    def test_sentinel_in_step_operand_is_named(self):
        b = [0] * 500
        b[321] = NEG_INF
        with pytest.raises(ValueError, match="index 321$"):
            convolve_sstep_concave([0] * 400, b, 2)


class TestOneKernel:
    """Each operation has one numpy body; float64 and exact object arrays
    must both give the definition's answer."""

    @given(with_sentinel(NEG_INF), with_sentinel(NEG_INF), st.sampled_from([0, 2**60]))
    @settings(max_examples=150, deadline=None)
    def test_maxplus_operations_match_reference(self, a, b, shift):
        a, b = shifted(a, shift), shifted(b, shift)
        want = reference(a, b, max(len(a), len(b)))
        assert convolve_naive(a, b).tolist() == want
        full = RangeIntervals(tuple((0, len(b) - 1) for _ in a), error=0)
        assert convolve_with_ranges(a, b, full).tolist() == want

    @given(with_sentinel(POS_INF), with_sentinel(POS_INF), st.sampled_from([0, 2**60]))
    @settings(max_examples=150, deadline=None)
    def test_minplus_matches_reference(self, a, b, shift):
        a, b = shifted(a, shift), shifted(b, shift)
        assert minplus_convolve(a, b).tolist() == reference(a, b, len(a) + len(b) - 1, best=min)


class TestMixedMagnitudes:
    """A float64 kernel output meets an operand with entries past 2**52: the
    float64 entries must enter the exact object arithmetic as Python ints."""

    BIG = 2**60 + 1

    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_maxplus(self, s):
        rng = random.Random(89 + s)
        a = [rng.randint(0, 10**6) for _ in range(300)]
        b = sstep_concave(280, s, rng)
        small_a, small_b = convolve_naive(a, [0]), convolve_naive(b, [0])  # float64 copies of a and b
        assert small_a.dtype == small_b.dtype == np.float64
        big_a, big_b = shifted(a, self.BIG), shifted(b, self.BIG)
        for left, right, want in (
            (small_a, big_b, reference(a, big_b, 300)),
            (big_a, small_b, reference(big_a, b, 300)),
        ):
            assert convolve_naive(left, right).tolist() == want
            assert convolve_naive(right, left).tolist() == want
            assert convolve_sstep_concave(left, right, s).tolist() == want

    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_minplus(self, s):
        rng = random.Random(97 + s)
        a = sorted(rng.randint(0, 10**6) for _ in range(300))
        a[250:] = [POS_INF] * 50  # a capped accumulator
        b = sstep_convex(250 // s, s, rng)
        small_a, small_b = minplus_convolve(a, [0]), minplus_convolve(b, [0])  # float64 copies of a and b
        assert small_a.dtype == small_b.dtype == np.float64
        big_a, big_b = shifted(a, self.BIG), shifted(b, self.BIG)
        for left, right, want in (
            (small_a, big_b, reference(a, big_b, len(a) + len(b) - 1, best=min)),
            (big_a, small_b, reference(big_a, b, len(a) + len(b) - 1, best=min)),
        ):
            assert minplus_convolve(left, right, s).tolist() == want
            assert minplus_convolve(left, right).tolist() == want


class TestConvolveWithRanges:
    def test_left_identity_full_interval(self):
        b = [0, 4, 4, 9]
        r = RangeIntervals(intervals=((0, 3),), error=0)
        assert convolve_with_ranges([0], b, r).tolist() == b

    def test_full_width_degenerates_to_naive(self):
        rng = random.Random(3)
        a = [rng.randint(0, 20) for _ in range(9)]
        b = [rng.randint(0, 20) for _ in range(12)]
        r = RangeIntervals(intervals=tuple((0, len(b) - 1) for _ in a), error=10**6)
        assert np.array_equal(convolve_with_ranges(a, b, r), convolve_naive(a, b))

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError, match="out of bounds"):
            convolve_with_ranges([0, 1], [0, 1], RangeIntervals(((0, 5), (0, 1)), 0))
        with pytest.raises(ValueError, match="monotone"):
            convolve_with_ranges([0, 1], [0, 1, 2], RangeIntervals(((1, 2), (0, 2)), 0))
        with pytest.raises(ValueError, match="expected 2 intervals"):
            convolve_with_ranges([0, 1], [0, 1], RangeIntervals(((0, 1),), 0))


class TestMinPlus:
    def test_sentinel_propagation(self):
        assert minplus_convolve([0, POS_INF], [0, 3]).tolist() == [0, 3, POS_INF]

    def test_identity(self):
        assert minplus_convolve([0], [0, 2, 7]).tolist() == [0, 2, 7]

    def test_negation_oracle_example(self):
        # -(-A (max,+) -B) computed by hand: [0,1,3] x [0,2] -> [0,1,3,5]
        assert minplus_convolve([0, 1, 3], [0, 2]).tolist() == [0, 1, 3, 5]

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=14),
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=14),
    )
    @settings(max_examples=150, deadline=None)
    def test_negation_identity(self, a, b):
        def neg(v):
            return [-x for x in v]

        got = minplus_convolve(a, b)
        ref = [-x for x in reference(neg(a), neg(b), len(a) + len(b) - 1)]
        assert got.tolist() == ref

    def test_is_sstep_convex(self):
        assert is_sstep_convex([0, 3, 3, 8, 8], 2)
        assert not is_sstep_convex([0, 3, 4, 8, 8], 2)  # off-stride copy broken
        assert not is_sstep_convex([0, 8, 8, 3, 3], 2)  # decreasing steps
        assert not is_sstep_convex([0, 3, 3, 8], 2)  # dangling partial step

    def test_sstep_engine_validates(self):
        with pytest.raises(ValueError, match="not 2-step convex"):
            minplus_convolve([0, 1], [0, 3, 4, 8, 8], 2)

    def test_sstep_engine_fuzz(self, forced_structured_engines):
        rng = random.Random(29)
        for _ in range(400):
            s = rng.randint(1, 5)
            steps = rng.randint(0, 7)
            core = [rng.randint(0, 3)]
            for d in sorted(rng.randint(0, 9) for _ in range(steps)):
                core.append(core[-1] + d)
            b = [core[0]]
            for t in range(1, steps + 1):
                b.extend([core[t]] * s)
            a = sorted(rng.randint(0, 30) for _ in range(rng.randint(1, 30)))
            if rng.random() < 0.4 and len(a) > 1:  # capped-accumulator shape
                cut = rng.randint(1, len(a) - 1)
                a[cut:] = [POS_INF] * (len(a) - cut)
            got = minplus_convolve(a, b, s)
            assert np.array_equal(got, minplus_convolve(a, b))


class TestEngineEquivalence:
    """Every engine agrees with the naive engine wherever its precondition holds."""

    def test_random_engines(self, forced_structured_engines):
        rng = random.Random(31)
        for _ in range(200):
            a = [rng.randint(0, 25) for _ in range(rng.randint(1, 32))]
            s = rng.randint(1, 5)
            b = sstep_concave(rng.randint(1, 32), s, rng)
            want = convolve_naive(a, b)
            assert np.array_equal(convolve_sstep_concave(a, b, s), want)
            full = RangeIntervals(tuple((0, len(b) - 1) for _ in a), error=10**9)
            assert np.array_equal(convolve_with_ranges(a, b, full), want)
