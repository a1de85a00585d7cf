import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tardyjobs.maxplus as mp
from tardyjobs import (
    RangeIntervals,
    convolve_naive,
    convolve_sstep_concave,
    convolve_with_ranges,
    minplus_convolve,
)
from tardyjobs.maxplus import NEG_INF, POS_INF
from tardyjobs.builders import step_concave_class_vector, step_convex_class_vector

from checks import is_sstep_concave, is_sstep_convex

vec = st.lists(st.integers(min_value=-20, max_value=50), min_size=1, max_size=24)


def reference(A, B, length, best=max):
    """The definition in plain Python: entry l < length is the best of
    A[k] + B[l-k] over the splits valid in both operands."""
    return [
        best(A[k] + B[l - k] for k in range(max(0, l - len(B) + 1), min(l, len(A) - 1) + 1))
        for l in range(length)
    ]


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

    def test_neg_inf_in_either_operand_raises(self):
        with pytest.raises(ValueError, match="^operand entry -inf is not finite at index 0$"):
            convolve_naive([NEG_INF, 0], [0, 4])
        with pytest.raises(ValueError, match="^operand entry -inf is not finite at index 2$"):
            convolve_naive([0, 4], [0, 0, NEG_INF])

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


def ordered(values, order):
    """values rearranged to the given order; "mixed" puts a peak at index 1
    of three or more values, so that they are neither sorted way."""
    if order == "non-decreasing":
        return sorted(values)
    if order == "non-increasing":
        return sorted(values, reverse=True)
    if order == "constant":
        return [values[0]] * len(values)
    if len(values) >= 3:
        values[1] = max(values) + 1
    return values


ORDERS = ["non-decreasing", "non-increasing", "constant", "mixed"]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("dtype", [np.float64, object])
@pytest.mark.parametrize("width", [1, 2, 5, 3, 4, 7, 100])
def test_sliding_max_matches_definition(width, dtype, order):
    # the one-entry window is the final step of every class vector stopped at
    # its reach; lengths run past len(a), where the windows empty out, and
    # short of width - 1, where a non-increasing operand's shift starts
    rng = random.Random(width)
    for n_a in (1, 2, 4, 9):
        a = np.array(ordered([rng.randint(-50, 50) for _ in range(n_a)], order), dtype=dtype)
        for length in (1, max(width - 2, 1), n_a, n_a + width + 3):
            got = mp._sliding_max(a, width, length)
            assert got.dtype == a.dtype
            assert got.tolist() == [max(a[max(0, m - width + 1) : m + 1], default=NEG_INF) for m in range(length)]


@pytest.mark.parametrize("width", [1, 3, 4, 7, 100])
def test_sliding_max_on_exact_magnitudes(width):
    # Python ints near 2**60, where float64 would round; the lengths short of
    # the width clip every window at a's start
    rng = random.Random(60 + width)
    for n_a in (1, 5, 130):
        a = np.array([2**60 + rng.randint(-50, 50) for _ in range(n_a)], dtype=object)
        for length in (1, max(width - 1, 1), n_a, n_a + width + 3):
            got = mp._sliding_max(a, width, length).tolist()
            assert got == [max(a[max(0, m - width + 1) : m + 1], default=NEG_INF) for m in range(length)]
            assert all(type(x) is int for x in got[:n_a])


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
            if case % 2:  # an accumulator trimmed to the weight targets a due date reaches
                a = a[: rng.randint(1, n_a - 1)]
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

        monkeypatch.setattr(mp, "_rows", refuse)
        for s, a, b, want, inv, c, want_inv in cases:
            assert convolve_sstep_concave(shifted(a, big), shifted(b, big), s).tolist() == shifted(want, 2 * big)
            got = minplus_convolve(shifted(inv, big), shifted(c, big), s)
            assert got.tolist() == shifted(want_inv, 2 * big)

    @pytest.mark.parametrize("s", [1, 3])
    def test_one_entry_step_operand(self, s, monkeypatch):
        # a one-entry stride subsample, and no B[1:] for the (min,+) steps
        rng = random.Random(101 + s)
        a = [rng.randint(0, 10**6) for _ in range(5000)]
        assert len(a) > mp.SMALL_PRODUCT_CUTOFF
        want, want_inv = convolve_naive(a, [7]), minplus_convolve(a, [7])

        def refuse(*args):
            raise AssertionError("a step engine fell back to the naive evaluation")

        monkeypatch.setattr(mp, "_rows", refuse)
        assert np.array_equal(convolve_sstep_concave(a, [7], s), want)
        assert np.array_equal(minplus_convolve(a, [7], s), want_inv)

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


def first_break(b, s, convex):
    """The first index breaking the s-step structure, by its definition: an
    off-stride entry that does not copy its predecessor (concave) or its
    successor (convex; the last entry has none), or a stride entry l >= 2s
    whose rise B[l] - B[l-s] grows past (concave) or falls below (convex)
    the rise before it.  None for an s-step vector."""
    for l in range(len(b)):
        if l % s:
            source = l + 1 if convex else l - 1  # the entry it copies
            if source == len(b) or b[l] != b[source]:
                return l
        elif l >= 2 * s:
            rise, before = b[l] - b[l - s], b[l - s] - b[l - 2 * s]
            if (rise < before) if convex else (rise > before):
                return l
    return None


class TestStructureGuard:
    """The s-step guards name the index that :func:`first_break` names, on
    float64 and on exact object operands, and the kernels' errors name it
    too."""

    @staticmethod
    def perturbed(s, convex, rng):
        """A random s-step vector with at most one defect: a broken
        off-stride copy, a whole step bent up or down, or (convex) a last
        index off the stride."""
        if convex:
            b = sstep_convex(rng.randint(0, 12), s, rng)
        else:
            b = sstep_concave(rng.randint(1, 12 * s), s, rng)
        kind = rng.choice(["none", "copy", "bend", "tail"] if convex else ["none", "copy", "bend"])
        delta = rng.choice([-1, 1]) * rng.randint(1, 20)
        if kind == "copy" and s > 1 and len(b) > 1:
            b[rng.choice([l for l in range(len(b)) if l % s])] += delta
        elif kind == "bend":  # step t: the stride entry t*s and its copies
            t = rng.randint(0, (len(b) - 1) // s)
            step = range((t - 1) * s + 1, t * s + 1) if convex and t else range(t * s, min(t * s + s, len(b)))
            for l in step:
                b[l] += delta
        elif kind == "tail" and s > 1:
            cut = rng.randint(1, s - 1)
            b = b[:-cut] if len(b) > s and rng.random() < 0.5 else b + [b[-1]] * cut
        return b

    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("convex", [False, True], ids=["concave", "convex"])
    def test_random_defects_match_definition(self, convex, shift):
        rng = random.Random(900 + convex)
        guard = mp._first_sstep_convex_violation if convex else mp._first_sstep_concave_violation
        seen = set()
        for _ in range(600):
            s = rng.randint(1, 6)
            b = self.perturbed(s, convex, rng)
            want = first_break(b, s, convex)
            seen.add(want is None)
            (arr,) = mp._operands(shifted(b, shift))
            assert arr.dtype == (object if shift else np.float64)
            assert guard(arr, s) == want, (b, s)
            a = [rng.randint(0, 50) for _ in range(rng.randint(1, 30))]
            kernel = minplus_convolve if convex else convolve_sstep_concave
            if want is None:
                kernel(a, shifted(b, shift), s)  # accepted
            else:
                with pytest.raises(ValueError, match=f"-step {'convex' if convex else 'concave'}: first violation at index {want}$"):
                    kernel(a, shifted(b, shift), s)
        assert seen == {True, False}

    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("convex", [False, True], ids=["concave", "convex"])
    def test_every_single_defect(self, convex, shift):
        """Every length 1 .. 3s+2 for s = 1 .. 5, so the bends of lengths 2s
        and 2s+1 and a partial last step are all met: the step vector cut to
        that length (for convex, a tail off the stride unless the length is
        1 mod s), then that vector with each index bumped by -1 and by +1."""
        guard = mp._first_sstep_convex_violation if convex else mp._first_sstep_concave_violation
        kernel = minplus_convolve if convex else convolve_sstep_concave
        naive = minplus_convolve if convex else convolve_naive
        structure = "convex" if convex else "concave"
        a = [0, 4, 5]
        outcomes = set()
        for s in range(1, 6):
            stride = [5, 7, 10, 13, 17] if convex else [5, 8, 11, 13, 14]  # rises 2, 3, 3, 4 and 3, 3, 2, 1
            step = [stride[-(-l // s)] if convex else stride[l // s] for l in range(3 * s + 2)]
            for n in range(1, 3 * s + 3):
                clean = step[:n]
                for b in [clean] + [clean[:k] + [clean[k] + d] + clean[k + 1 :] for k in range(n) for d in (-1, 1)]:
                    want = first_break(b, s, convex)
                    outcomes.add(want if want is None else want % s == 0)
                    (arr,) = mp._operands(shifted(b, shift))
                    assert guard(arr, s) == want, (b, s)
                    if want is None:
                        assert np.array_equal(kernel(a, shifted(b, shift), s), naive(a, shifted(b, shift)))
                    else:
                        with pytest.raises(ValueError, match=f"not {s}-step {structure}: first violation at index {want}$"):
                            kernel(a, shifted(b, shift), s)
        assert outcomes == {None, True, False}  # accepted, a bend, an off-stride entry


@pytest.fixture
def branches(monkeypatch):
    """The branch of each ``_stride_maxplus`` call, in call order: "compose",
    or "divide" once the call runs the divide and conquer, the only code in
    maxplus that calls ``np.repeat``."""
    taken = []
    kernel = mp._stride_maxplus

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def repeat(self, *args):
            taken[-1] = "divide"
            return np.repeat(*args)

    def spy(*args):
        taken.append("compose")
        return kernel(*args)

    monkeypatch.setattr(mp, "np", Numpy())
    monkeypatch.setattr(mp, "_stride_maxplus", spy)
    return taken


@pytest.fixture
def bundles(monkeypatch):
    """The bundle splits the composition asks for, one per run of equal rise."""
    seen = []
    real = mp.bundle_sizes
    monkeypatch.setattr(mp, "bundle_sizes", lambda m: seen.append(real(m)) or real(m))
    return seen


FEW = mp._FEW_STEPS
# the real threshold, always divide and conquer, always compose
FORCED = {FEW: "compose", -1: "divide", 10**9: "compose"}


class TestStepCounts:
    """``_stride_maxplus`` on step counts either side of ``_FEW_STEPS``.
    The rises of these vectors form at most ten runs, so at the real
    threshold they compose; each case also runs with the divide and
    conquer and the composition forced, and asserts which branch ran."""

    STEPS = (1, 2, FEW, FEW + 1)

    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_concave_matches_naive(self, s, shift, forced_structured_engines, monkeypatch, branches):
        rng = random.Random(400 + s)
        for steps in self.STEPS:
            n_b = steps * s + 1  # steps full steps and a one-entry final step
            # A shorter than B leaves a NEG_INF suffix in the windowed maxima of A
            for n_a in (n_b // 2 + 1, n_b + 7):
                a = shifted([rng.randint(0, 10**6) for _ in range(n_a)], shift)
                b = shifted(sstep_concave(n_b, s, rng), shift)
                want = convolve_naive(a, b)
                for few, branch in FORCED.items():
                    monkeypatch.setattr(mp, "_FEW_STEPS", few)
                    branches.clear()
                    assert np.array_equal(convolve_sstep_concave(a, b, s), want), (steps, n_a, few)
                    assert branches == [branch], (steps, n_a, few)

    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_minplus_matches_naive(self, s, shift, forced_structured_engines, monkeypatch, branches):
        rng = random.Random(500 + s)
        for steps in self.STEPS:
            # B[1:] has `steps` full steps; A ends before or after B
            for n_a in (steps * s // 2 + 1, steps * s + 7):
                a = shifted(sorted(rng.randint(0, 10**6) for _ in range(n_a)), shift)
                b = shifted(sstep_convex(steps, s, rng), shift)
                want = minplus_convolve(a, b)
                for few, branch in FORCED.items():
                    monkeypatch.setattr(mp, "_FEW_STEPS", few)
                    branches.clear()
                    assert np.array_equal(minplus_convolve(a, b, s), want), (steps, n_a, few)
                    # the last of B[1:]'s steps is the sliding maximum's; one step leaves none to the kernel
                    assert branches == ([branch] if steps > 1 else []), (steps, n_a, few)

    @pytest.mark.parametrize("dtype", [np.float64, object])
    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_stride_kernel_on_neg_inf_padding(self, s, dtype, monkeypatch, branches):
        # D holds NEG_INF in a prefix and a suffix, as the windowed maxima of
        # an operand shorter than the output can; the shorter D ends before
        # the last steps start
        rng = random.Random(600 + s)
        for steps, L in ((t, L) for t in self.STEPS for L in (t * s + rng.randint(1, 40), t * s // 2 + 2)):
            D = np.full(L, NEG_INF, dtype=dtype)
            lo, hi = sorted(rng.sample(range(L + 1), 2))
            D[lo:hi] = [rng.randint(0, 10**6) for _ in range(hi - lo)]
            Bc = np.array(sstep_concave(steps, 1, rng), dtype=dtype)
            want = [
                max((Bc[t] + D[l - t * s] for t in range(steps) if t * s <= l), default=NEG_INF) for l in range(L)
            ]
            for few, branch in FORCED.items():
                monkeypatch.setattr(mp, "_FEW_STEPS", few)
                branches.clear()
                assert mp._stride_maxplus(D, Bc, s).tolist() == want, (steps, few)
                assert branches == [branch], (steps, few)

    @pytest.mark.parametrize("dtype", [np.float64, object])
    @pytest.mark.parametrize("s", [1, 3])
    def test_bundle_count_at_the_threshold(self, s, dtype, branches, bundles):
        # rises that all differ are runs of one step, one bundle each:
        # FEW rises compose, more divide, and the split stops at FEW + 1
        rng = random.Random(650 + s)
        for n_rises, branch in ((FEW, "compose"), (FEW + 1, "divide"), (FEW + 40, "divide")):
            rises = sorted(rng.sample(range(-500, 500), n_rises), reverse=True)
            Bc = np.array([0, *np.cumsum(rises).tolist()], dtype=dtype)
            L = len(Bc) * s + rng.randint(0, s)
            D = np.array([rng.randint(-(10**6), 10**6) for _ in range(L)], dtype=dtype)
            want = [max(Bc[t] + D[l - t * s] for t in range(len(Bc)) if t * s <= l) for l in range(L)]
            branches.clear()
            bundles.clear()
            assert mp._stride_maxplus(D, Bc, s).tolist() == want, n_rises
            assert branches == [branch] and bundles == [(1,)] * min(n_rises, FEW + 1), n_rises


class TestFinalStep:
    """The final step of B one entry wide (a class vector stopped at its
    reach), s wide (every (min,+) call's) or in between, after no, a few
    or many full steps, on both branches of the full steps, against the
    naive evaluation; the orders of A cover each way a sliding maximum is
    taken."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("s", [1, 2, 5, 8])
    def test_concave_matches_naive(self, s, shift, order, forced_structured_engines, monkeypatch):
        rng = random.Random(700 + s)
        for last in sorted({1, (s + 1) // 2, s}):
            for steps in (0, 3, 20):
                n_b = steps * s + last
                for n_a in (1, n_b // 2 + 1, n_b + 9):
                    a = shifted(ordered([rng.randint(0, 10**6) for _ in range(n_a)], order), shift)
                    b = shifted(sstep_concave(n_b, s, rng), shift)
                    want = convolve_naive(a, b).tolist()
                    for few in FORCED:
                        monkeypatch.setattr(mp, "_FEW_STEPS", few)
                        assert convolve_sstep_concave(a, b, s).tolist() == want, (last, steps, n_a, few)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("s", [1, 2, 5, 8])
    def test_minplus_matches_naive(self, s, shift, order, forced_structured_engines, monkeypatch):
        # an s-step convex B ends on the stride, so B[1:] ends in a full
        # step: one entry wide only at s = 1
        rng = random.Random(750 + s)
        for steps in (1, 4, 20):
            b = shifted(sstep_convex(steps, s, rng), shift)
            for n_a in (1, steps * s // 2 + 1, steps * s + 9):
                a = shifted(ordered([rng.randint(0, 10**6) for _ in range(n_a)], order), shift)
                want = minplus_convolve(a, b).tolist()
                for few in FORCED:
                    monkeypatch.setattr(mp, "_FEW_STEPS", few)
                    assert minplus_convolve(a, b, s).tolist() == want, (steps, n_a, few)


class TestOperandsUntouched:
    """No kernel writes into its operands or returns memory shared with
    them, on float64 and on object arrays of Python ints, both of which
    enter a kernel as they are, in every branch: the small product's naive
    evaluation, and past a zero SMALL_PRODUCT_CUTOFF the composition and
    the divide and conquer."""

    BRANCHES = {
        "small-product": {},
        "compose": {"SMALL_PRODUCT_CUTOFF": 0, "_FEW_STEPS": 10**9},
        "divide": {"SMALL_PRODUCT_CUTOFF": 0, "_FEW_STEPS": -1},
    }
    KERNELS = {
        "naive": lambda a, b, c, s: convolve_naive(a, b),
        "sstep_concave": lambda a, b, c, s: convolve_sstep_concave(a, b, s),
        "minplus": lambda a, b, c, s: minplus_convolve(a, c),
        "minplus_s": lambda a, b, c, s: minplus_convolve(a, c, s),
        "ranges": lambda a, b, c, s: convolve_with_ranges(a, b, full_ranges(a, b)),
    }
    STEP_KERNELS = ("sstep_concave", "minplus_s")

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_operands_stay_as_they_were(self, kernel, shift, branch, monkeypatch, branches):
        for name, value in self.BRANCHES[branch].items():
            monkeypatch.setattr(mp, name, value)
        rng = random.Random(800)
        dtype = np.float64 if shift == 0 else object
        # (s, |A|, B's full steps, B's final step): B shorter and longer than
        # A, one step alone, and B of one entry
        for s, n_a, steps, last in ((1, 1, 9, 1), (3, 12, 13, 1), (3, 40, 4, 3), (4, 30, 6, 2), (5, 7, 0, 1)):
            for order in ("non-decreasing", "non-increasing", "mixed"):
                a = np.array(shifted(ordered([rng.randint(0, 99) for _ in range(n_a)], order), shift), dtype=dtype)
                b = np.array(shifted(sstep_concave(steps * s + last, s, rng), shift), dtype=dtype)
                c = np.array(shifted(sstep_convex(steps, s, rng), shift), dtype=dtype)
                copies = [v.copy() for v in (a, b, c)]
                branches.clear()
                out = self.KERNELS[kernel](a, b, c, s)
                for v, copy in zip((a, b, c), copies):
                    assert v.dtype == copy.dtype and v.tolist() == copy.tolist(), (s, n_a, order)
                    assert not np.shares_memory(out, v), (s, n_a, order)
                if kernel in self.STEP_KERNELS and branch != "small-product" and steps > 1:
                    assert branches and set(branches) == {branch}, (s, n_a, order)
                else:
                    assert branches == [], (s, n_a, order)


def equal_rise_runs(n_steps, n_rises, rng):
    """A concave stride subsample of n_steps entries whose rises take
    n_rises distinct values of mixed signs, in runs of random length."""
    rises = sorted(rng.sample(range(-60, 60), n_rises), reverse=True)
    cuts = sorted(rng.sample(range(1, n_steps - 1), n_rises - 1))
    lengths = [j - i for i, j in zip([0, *cuts], [*cuts, n_steps - 1])]
    core = [rng.randint(-9, 9)]
    for v, m in zip(rises, lengths):
        for _ in range(m):
            core.append(core[-1] + v)
    return core


class TestEqualRiseRuns:
    """A stride subsample whose rises form few runs of equal value takes
    one shifted maximum per bundle of a run, at any step count.  Each case
    runs at the real threshold (the composition), with the divide and
    conquer forced and with the composition forced."""

    RISES = (1, 2, 5, 12)

    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_concave_matches_naive(self, s, shift, forced_structured_engines, monkeypatch, branches, bundles):
        rng = random.Random(700 + s)
        for n_rises in self.RISES:
            steps = rng.randint(FEW + 1, 2 * FEW)
            core = shifted(equal_rise_runs(steps + 1, n_rises, rng), shift)
            b = [core[i // s] for i in range(steps * s + 1)]  # steps full steps, a one-entry final step
            # A shorter than B leaves a NEG_INF suffix in the windowed maxima of A
            for n_a in (len(b) // 3, len(b) + 11):
                a = shifted([rng.randint(-(10**6), 10**6) for _ in range(n_a)], shift)
                want = convolve_naive(a, b)
                for few, branch in FORCED.items():
                    monkeypatch.setattr(mp, "_FEW_STEPS", few)
                    branches.clear()
                    bundles.clear()
                    assert np.array_equal(convolve_sstep_concave(a, b, s), want), (n_rises, n_a, few)
                    assert branches == [branch], (n_rises, n_a, few)
                    assert branch == "divide" or len(bundles) == n_rises, (n_rises, n_a, few)

    @pytest.mark.parametrize("dtype", [np.float64, object])
    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_stride_kernel_on_neg_inf_padding(self, s, dtype, monkeypatch, branches):
        # D holds NEG_INF in a prefix and a suffix; the shorter output ends
        # before the last steps start
        rng = random.Random(800 + s)
        for n_rises in self.RISES:
            steps = rng.randint(FEW + 1, 2 * FEW)
            Bc = np.array(equal_rise_runs(steps, n_rises, rng), dtype=dtype)
            for L in (steps * s + rng.randint(1, 40), steps * s // 2 + 2):
                D = np.full(L, NEG_INF, dtype=dtype)
                lo, hi = sorted(rng.sample(range(L + 1), 2))
                D[lo:hi] = [rng.randint(-(10**6), 10**6) for _ in range(hi - lo)]
                want = np.full(L, NEG_INF, dtype=dtype)  # the definition, one step at a time
                for t in range(min(steps, -(-L // s))):
                    want[t * s :] = np.maximum(want[t * s :], Bc[t] + D[: L - t * s])
                for few, branch in FORCED.items():
                    monkeypatch.setattr(mp, "_FEW_STEPS", few)
                    branches.clear()
                    assert mp._stride_maxplus(D, Bc, s).tolist() == want.tolist(), (n_rises, L, few)
                    assert branches == [branch], (n_rises, L, few)

    @pytest.mark.parametrize("shift", [0, 2**60], ids=["float64", "object"])
    @pytest.mark.parametrize("w", [1, 3, 8])
    def test_minplus_on_a_large_weight_class(self, w, shift, forced_structured_engines, monkeypatch, branches, bundles):
        # a weight class of 300 jobs with three distinct processing times:
        # its inverse vector's rises form three runs
        rng = random.Random(900 + w)
        b = step_convex_class_vector([rng.choice((2, 3, 7)) for _ in range(300)], w)
        b = shifted(b.astype(np.int64).tolist(), shift)
        a = shifted(sorted(rng.randint(0, 10**6) for _ in range(rng.randint(200, 2000))), shift)
        want = minplus_convolve(a, b)
        for few, branch in FORCED.items():
            monkeypatch.setattr(mp, "_FEW_STEPS", few)
            branches.clear()
            bundles.clear()
            assert np.array_equal(minplus_convolve(a, b, w), want), few
            assert branches == [branch], few
            assert branch == "divide" or len(bundles) == 3, few

    @pytest.mark.parametrize("p", [1, 5])
    def test_a_class_of_few_step_jobs_takes_a_pass_per_bundle(self, p, branches, bundles):
        # 128 jobs of one weight: 128 steps, whose 127 equal rises are one
        # run of 7 bundles, at the real cutoffs
        rng = random.Random(950 + p)
        b = step_concave_class_vector([4] * FEW, p, FEW * p)
        a = sorted(rng.randint(0, 10**6) for _ in range(len(b) + rng.randint(0, 500)))  # an accumulator past the reach
        assert np.array_equal(convolve_sstep_concave(a, b, p), convolve_naive(a, b))
        assert branches == ["compose"] and bundles == [(1, 2, 4, 8, 16, 32, 64)]

    @pytest.mark.parametrize("w", [1, 5])
    def test_minplus_on_a_class_of_few_step_jobs_takes_a_pass_per_bundle(self, w, branches, bundles):
        # 128 jobs of one processing time: B[1:] has 128 steps, of which the
        # kernel takes all but the last, so 126 equal rises, 7 bundles
        rng = random.Random(960 + w)
        b = step_convex_class_vector([3] * FEW, w)
        a = sorted(rng.randint(0, 10**6) for _ in range(rng.randint(200, 2000)))
        assert np.array_equal(minplus_convolve(a, b, w), minplus_convolve(a, b))
        assert branches == ["compose"] and bundles == [(1, 2, 4, 8, 16, 32, 63)]

    def test_float64_next_to_the_exactness_bound(self, branches, bundles):
        # |a|max + |b|max = 2**52 - 1 keeps the float64 path.  The stride
        # subsample climbs from -M, M = 2**52 - 1 - |a|max, to near M and
        # falls back in a run of 127 steps, whose largest bundle of 64
        # steps falls by more than M: added to an entry built on Bc[0]
        # alone it lands past -2**53, where float64 rounds
        A_MAX, M = 1000, 2**52 - 1 - 1000
        m_up, m_down = 172, 127
        up = (2 * M - 1) // (m_up + 1)
        peak = -M + 1 + (m_up + 1) * up
        down = -((peak + M) // m_down)
        core = [-M, -M + up + 1]
        for v in [up] * m_up + [down] * m_down:
            core.append(core[-1] + v)
        assert max(map(abs, core)) == M and 64 * down < -M
        T = len(core)
        rng = random.Random(1000)
        big = 2**60  # the object path's exact reference, shifted back
        for s in (1, 3):
            b = [core[i // s] for i in range(T * s)]
            a = [rng.randint(-A_MAX, A_MAX) for _ in range(T * s // 2)] + [A_MAX]
            want = (convolve_naive(shifted(a, big), shifted(b, big)) - 2 * big).tolist()
            branches.clear()
            bundles.clear()
            got = convolve_sstep_concave(a, b, s)
            assert got.dtype == np.float64 and branches == ["compose"] and len(bundles) == 3
            assert got.astype(object).tolist() == want, s
            # a D finite only before the second step: every entry the
            # falling run's bundles build on is D + Bc[0]
            D = np.full(T * s, NEG_INF)
            D[:s] = -A_MAX
            got = mp._stride_maxplus(D, np.array(core, dtype=np.float64), s)
            assert got.astype(object).tolist() == [core[l // s] - A_MAX for l in range(T * s)], s


class TestOneKernel:
    """Each operation has one numpy body; float64 and exact object arrays
    must both give the definition's answer."""

    @given(vec, vec, st.sampled_from([0, 2**60]))
    @settings(max_examples=150, deadline=None)
    def test_maxplus_operations_match_reference(self, a, b, shift):
        a, b = shifted(a, shift), shifted(b, shift)
        want = reference(a, b, max(len(a), len(b)))
        assert convolve_naive(a, b).tolist() == want
        full = RangeIntervals(tuple((0, len(b) - 1) for _ in a), error=0)
        assert convolve_with_ranges(a, b, full).tolist() == want

    @given(vec, vec, st.sampled_from([0, 2**60]))
    @settings(max_examples=150, deadline=None)
    def test_minplus_matches_reference(self, a, b, shift):
        a, b = shifted(a, shift), shifted(b, shift)
        assert minplus_convolve(a, b).tolist() == reference(a, b, len(a) + len(b) - 1, best=min)


def full_ranges(a, b):
    return RangeIntervals(tuple((0, len(b) - 1) for _ in a), error=0)


@pytest.mark.parametrize("container", [list, lambda v: np.array(v, dtype=object)], ids=["list", "object"])
@pytest.mark.parametrize("shift", [0, 2**60])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [float("nan"), NEG_INF, POS_INF])
@pytest.mark.parametrize(
    "kernel",
    [
        convolve_naive,
        lambda a, b: convolve_sstep_concave(a, b, 1),
        lambda a, b: convolve_with_ranges(a, b, full_ranges(a, b)),
        minplus_convolve,
        lambda a, b: minplus_convolve(a, b, 1),
    ],
)
def test_kernels_reject_nan_and_both_infinities(kernel, bad, side, shift, container):
    operands = [shifted([0, 1, 2], shift), shifted([0, 1, 2], shift)]
    operands[side][1] = bad
    with pytest.raises(ValueError, match=f"^operand entry {bad} is not finite at index 1$"):
        kernel(*map(container, operands))


def test_float_operands_enter_exact_arithmetic_through_int():
    # a float64 entry past 2**63 must not wrap, nor a fraction truncate
    assert convolve_naive(np.array([0.0, 2.0**70]), np.array([0.0, 1.0])).tolist() == [0, 2**70]
    assert minplus_convolve(np.array([0.0, 2.0**70]), np.array([0.0, 1.0])).tolist() == [0, 1, 2**70 + 1]
    with pytest.raises(ValueError, match="^operand entry 0.5 is not an integer at index 0$"):
        convolve_naive(np.array([0.5, 2.0**60]), np.array([0.0, 1.0]))
    # an object array is checked like any other container
    got = convolve_naive(np.array([0, 2**60 + 1], dtype=object), np.array([0.0, 1.0], dtype=object)).tolist()
    assert got == [0, 2**60 + 1] and all(type(x) is int for x in got)
    with pytest.raises(ValueError, match="^operand entry 0.5 is not an integer at index 0$"):
        convolve_naive(np.array([0.5, 2**60], dtype=object), np.array([0.0, 1.0]))


class TestOperandDtype:
    """The kernels' one dtype rule: float64 while the operands' magnitudes
    sum below EXACT_FLOAT_BOUND, whatever their containers, else object
    arrays of Python ints."""

    CONTAINERS = {
        "list": list,
        "float64": lambda v: np.array(v, dtype=np.float64),
        "object": lambda v: np.array(v, dtype=object),
    }

    @pytest.mark.parametrize("right", CONTAINERS)
    @pytest.mark.parametrize("left", CONTAINERS)
    def test_magnitudes_either_side_of_the_bound(self, left, right):
        bound, half = mp.EXACT_FLOAT_BOUND, mp.EXACT_FLOAT_BOUND // 2
        for x, y, dtype in (
            (half, half - 1, np.float64),
            (half, half, object),
            (-(bound - 1), 0, np.float64),
            (0, -bound, object),
            (2**60, 1, object),
        ):
            a, b = mp._operands(self.CONTAINERS[left]([0, x, 1]), self.CONTAINERS[right]([y, 0]))
            assert a.dtype == b.dtype == dtype, (x, y)
            assert a.tolist() == [0, x, 1] and b.tolist() == [y, 0], (x, y)

    def test_object_ints_past_the_bound_are_not_copied_to_float64(self, monkeypatch):
        copies = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def asarray(self, v, dtype=None):
                copies.append(dtype)
                return np.asarray(v, dtype=dtype)

        monkeypatch.setattr(mp, "np", Numpy())
        big = np.array([0, 2**60], dtype=object)
        a, b = mp._operands(big, np.array([0.0, 1.0]))
        assert copies == [] and a is big and b.dtype == object and b.tolist() == [0, 1]
        # below the bound the float64 copies decide, an object array's too
        a, b = mp._operands(np.array([0, 2**40], dtype=object), [0, 1])
        assert copies == [np.float64, np.float64] and a.dtype == b.dtype == np.float64


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
        a = sorted(rng.randint(0, 10**6) for _ in range(300))[:250]  # a trimmed accumulator
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

    def test_rejects_bad_intervals_on_rows_that_merge_nothing(self):
        # the last row's range starts past the output (k + x > L - 1), so it
        # adds nothing, but its interval is checked all the same
        with pytest.raises(ValueError, match=re.escape("interval 1 out of bounds: [1, 5] not within [0, 1]")):
            convolve_with_ranges([0, 1], [0, 1], RangeIntervals(((0, 1), (1, 5)), 0))
        with pytest.raises(ValueError, match="^interval endpoints not monotone at index 2$"):
            convolve_with_ranges([0, 1, 2], [0, 1, 2], RangeIntervals(((0, 2), (1, 2), (1, 1)), 0))


def blocked_reference(a, b, intervals, block=16):
    """convolve_with_ranges by its definition in plain Python: the
    consecutive indices of a with non-empty ranges, in blocks of up to
    ``block``, each pair with the union of their block's ranges."""
    L = max(len(a), len(b))
    out = [NEG_INF] * L
    k = 0
    while k < len(a):
        if intervals[k] is None:
            k += 1
            continue
        rows = [k]
        while len(rows) < block and rows[-1] + 1 < len(a) and intervals[rows[-1] + 1] is not None:
            rows.append(rows[-1] + 1)
        x, y = intervals[rows[0]][0], intervals[rows[-1]][1]
        for j in rows:
            for l in range(x, y + 1):
                if j + l < L:
                    out[j + l] = max(out[j + l], a[j] + b[l])
        k = rows[-1] + 1
    return out


def witness_ranges(a, b, rng):
    """Monotone ranges holding a split witness of every output index of the
    (max,+)-convolution, widened at random; rows that hold no witness are
    flagged empty unless widening reaches them."""
    L = max(len(a), len(b))
    need = [[] for _ in a]
    for l in range(L):
        splits = range(max(0, l - len(b) + 1), min(l, len(a) - 1) + 1)
        best = max(a[k] + b[l - k] for k in splits)
        k = rng.choice([k for k in splits if a[k] + b[l - k] == best])
        need[k].append(l - k)
    xs, ys = [min(v) if v else None for v in need], [max(v) if v else None for v in need]
    for k in range(len(a)):
        if xs[k] is None and rng.random() < 0.3:
            xs[k] = ys[k] = rng.randrange(len(b))
        elif xs[k] is not None:
            xs[k] = max(0, xs[k] - rng.randrange(3))
            ys[k] = min(len(b) - 1, ys[k] + rng.randrange(3))
    lo = len(b) - 1
    for k in reversed(range(len(a))):  # x a suffix minimum, y a prefix maximum: both monotone
        if xs[k] is not None:
            lo = xs[k] = min(xs[k], lo)
    hi = 0
    for k in range(len(a)):
        if ys[k] is not None:
            hi = ys[k] = max(ys[k], hi)
    return tuple(None if x is None else (x, y) for x, y in zip(xs, ys))


class TestRowBlocks:
    """The naive and range-guided engines fold up to ``mp._BLOCK`` rows of
    the left operand per pass; every block boundary must give the
    definition's answer, in float64 and in exact object arithmetic."""

    @pytest.fixture
    def folds(self, monkeypatch):
        calls = []
        fold = mp._fold_rows

        def counted(out, a, b, k0, k1, *rest):
            calls.append(k1 - k0 + 1)
            return fold(out, a, b, k0, k1, *rest)

        monkeypatch.setattr(mp, "_fold_rows", counted)
        return calls

    @pytest.mark.parametrize("shift", [0, 2**60])
    @pytest.mark.parametrize("right", [-1, 9], ids=["shorter", "longer"])
    @pytest.mark.parametrize("left", [1, 2, 15, 16, 17, 32, 33])
    def test_naive_engines_match_reference(self, left, right, shift, folds):
        rng = random.Random(left * 100 + right)
        a = shifted([rng.randint(-50, 50) for _ in range(left)], shift)
        b = shifted([rng.randint(-50, 50) for _ in range(max(1, left + right))], shift)  # never empty
        got = convolve_naive(a, b)
        assert got.tolist() == reference(a, b, max(len(a), len(b)))
        assert got.dtype == (object if shift else np.float64)
        assert minplus_convolve(a, b).tolist() == reference(a, b, len(a) + len(b) - 1, best=min)
        # one fold per block of the shorter operand's rows, in both engines, at every length
        rows = min(len(a), len(b))
        blocks = [min(16, rows - k0) for k0 in range(0, rows, 16)]
        assert folds == 2 * blocks

    @pytest.mark.parametrize("shift", [0, 2**60])
    @pytest.mark.parametrize("right", [-1, 9], ids=["shorter", "longer"])
    @pytest.mark.parametrize("left", [15, 16, 17, 32, 33])
    def test_ranges_match_reference(self, left, right, shift):
        rng = random.Random(left * 100 + right + 7)
        for _ in range(20):
            a = shifted([rng.randint(-50, 50) for _ in range(left)], shift)
            b = shifted([rng.randint(-50, 50) for _ in range(left + right)], shift)
            intervals = witness_ranges(a, b, rng)
            got = convolve_with_ranges(a, b, RangeIntervals(intervals, error=0)).tolist()
            assert got == blocked_reference(a, b, intervals)
            assert got == reference(a, b, max(len(a), len(b)))  # the ranges hold a witness of every index

    @pytest.mark.parametrize("shift", [0, 2**60])
    def test_ranges_that_hold_no_witness_stay_below_the_convolution(self, shift):
        rng = random.Random(41)
        for _ in range(200):
            n_a, n_b = rng.randint(1, 40), rng.randint(1, 40)
            a = shifted([rng.randint(-50, 50) for _ in range(n_a)], shift)
            b = shifted([rng.randint(-50, 50) for _ in range(n_b)], shift)
            intervals, x, y = [], 0, 0
            for _ in range(n_a):
                if rng.random() < 0.2:
                    intervals.append(None)
                    continue
                x = min(n_b - 1, x + rng.randint(0, 3))
                y = min(n_b - 1, max(x, y + rng.randint(0, 4)))
                intervals.append((x, y))
            got = convolve_with_ranges(a, b, RangeIntervals(tuple(intervals), error=0)).tolist()
            assert got == blocked_reference(a, b, intervals)
            full = reference(a, b, max(n_a, n_b))
            ranged = [
                max((a[k] + b[l - k] for k, iv in enumerate(intervals) if iv and iv[0] <= l - k <= iv[1]), default=NEG_INF)
                for l in range(len(full))
            ]
            assert all(r <= g <= f for r, g, f in zip(ranged, got, full))

    def test_flagged_empty_row_splits_a_run(self):
        a, b = list(range(20)), [0] * 20
        intervals = [(0, 0)] * 20
        intervals[5] = None
        got = convolve_with_ranges(a, b, RangeIntervals(tuple(intervals), error=0)).tolist()
        # row 5 adds nothing, and no block spans it: output 5 is reached by no range
        assert got == [NEG_INF if l == 5 else l for l in range(20)]
        assert got == blocked_reference(a, b, intervals)

    def test_rows_that_start_past_the_output(self):
        # from row 4 on, k + x passes the output's last index 19
        a, b = [0] * 20, list(range(20))
        intervals = tuple((min(16, 2 * k), 19) for k in range(20))
        got = convolve_with_ranges(a, b, RangeIntervals(intervals, error=0)).tolist()
        assert got == blocked_reference(a, b, intervals) == list(range(20))
        # one block of rows 4..19, each from budget 16: the whole block starts past the output
        intervals = ((0, 0),) + (None,) * 3 + ((16, 19),) * 16
        got = convolve_with_ranges(a, b, RangeIntervals(intervals, error=0)).tolist()
        assert got == blocked_reference(a, b, intervals) == [0] + [NEG_INF] * 19

    def test_a_block_takes_the_union_of_its_ranges(self):
        # row k's own range is the one budget k // 4, but every row of the
        # block pairs with budgets 0..3, the union from row 0's x to row 15's y
        a, b = [0] * 16, list(range(20))
        intervals = tuple((k // 4, k // 4) for k in range(16))
        got = convolve_with_ranges(a, b, RangeIntervals(intervals, error=0)).tolist()
        assert got == blocked_reference(a, b, intervals) == [min(l, 3) for l in range(19)] + [NEG_INF]
        assert got != blocked_reference(a, b, intervals, block=1)


class TestRowBuffer:
    """The row folds run their ufuncs under ``mp._ROW_BUFFER`` and hand the
    caller's buffer size back, also when a fold raises: numpy 1.x keeps the
    buffer size process-wide, so only the restore keeps the caller's."""

    CALLER = 4096  # not numpy's default 8192, nor _ROW_BUFFER

    # operands of _BLOCK + 1 entries: two blocks of rows, below SMALL_PRODUCT_CUTOFF
    A = list(range(mp._BLOCK + 1))
    CALLS = {
        "naive": lambda a: convolve_naive(a, a[::-1]),
        "minplus": lambda a: minplus_convolve(a, a[::-1]),
        "minplus_s": lambda a: minplus_convolve(a, [(-(-l // 2)) ** 2 for l in range(len(a))], 2),
        "ranges": lambda a: convolve_with_ranges(a, a[::-1], RangeIntervals(((0, len(a) - 1),) * len(a), error=0)),
        "sstep_concave": lambda a: convolve_sstep_concave(a, [-((l // 2) ** 2) for l in range(len(a))], 2),
    }

    @pytest.fixture
    def caller_bufsize(self):
        old = np.setbufsize(self.CALLER)
        yield
        np.setbufsize(old)

    @pytest.mark.parametrize("call", CALLS)
    def test_folds_run_under_the_row_buffer_and_restore_the_callers(self, call, caller_bufsize, monkeypatch):
        seen = []
        fold = mp._fold_rows

        def recorded(*args):
            seen.append(np.getbufsize())
            return fold(*args)

        monkeypatch.setattr(mp, "_fold_rows", recorded)
        self.CALLS[call](self.A)
        assert len(seen) > 1 and set(seen) == {mp._ROW_BUFFER}
        assert np.getbufsize() == self.CALLER

    @pytest.mark.parametrize("call", CALLS)
    def test_a_fold_that_raises_restores_the_callers(self, call, caller_bufsize, monkeypatch):
        calls = []
        fold = mp._fold_rows

        def second_raises(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("fold failed")
            return fold(*args)

        monkeypatch.setattr(mp, "_fold_rows", second_raises)
        with pytest.raises(RuntimeError, match="^fold failed$"):
            self.CALLS[call](self.A)
        assert np.getbufsize() == self.CALLER

    # a shorter operand of _BLOCK entries at most: one block of rows, which
    # numpy buffers as cheaply under the caller's size
    ONE_BLOCK = {
        "naive": lambda: convolve_naive(list(range(40)), list(range(mp._BLOCK))),
        "minplus": lambda: minplus_convolve(list(range(mp._BLOCK)), list(range(40))),
        "minplus_s": lambda: minplus_convolve(list(range(40)), [(-(-l // 2)) ** 2 for l in range(mp._BLOCK - 1)], 2),
        "sstep_concave": lambda: convolve_sstep_concave(list(range(40)), [-((l // 2) ** 2) for l in range(6)], 2),
    }

    @pytest.mark.parametrize("call", ONE_BLOCK)
    def test_one_block_folds_under_the_callers_buffer(self, call, caller_bufsize, monkeypatch):
        seen, resized = [], []
        fold, setbufsize = mp._fold_rows, np.setbufsize

        def recorded(*args):
            seen.append(np.getbufsize())
            return fold(*args)

        monkeypatch.setattr(mp, "_fold_rows", recorded)
        monkeypatch.setattr(np, "setbufsize", lambda size: resized.append(size) or setbufsize(size))
        self.ONE_BLOCK[call]()
        assert seen == [self.CALLER] and resized == []
        assert np.getbufsize() == self.CALLER

    def test_naive_peak_stays_within_the_block_matrix(self):
        # Measured on float64 operands of 1000 entries: the block matrix of
        # _BLOCK * (w + _BLOCK) entries (w = 1000, every row spans b), the
        # output, and 9.8 KB more, the folded row of w + _BLOCK - 1 entries
        # and array headers; numpy's default 8192-element buffers add about
        # 190 KB, past the 16 KB of slack.
        rng = np.random.default_rng(5)
        a, b = rng.integers(0, 10**6, (2, 1000)).astype(np.float64)
        convolve_naive(a, b)  # first-use allocations outside the trace
        tracemalloc.start()
        try:
            out = convolve_naive(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mp._BLOCK * (len(b) + mp._BLOCK) * 8 + out.nbytes + 16_384


class TestMinPlus:
    def test_pos_inf_in_either_operand_raises(self):
        with pytest.raises(ValueError, match="^operand entry inf is not finite at index 1$"):
            minplus_convolve([0, POS_INF], [0, 3])
        with pytest.raises(ValueError, match="^operand entry inf is not finite at index 1$"):
            minplus_convolve([0, 3], [0, POS_INF])

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
            if rng.random() < 0.4 and len(a) > 1:  # an accumulator trimmed by a due date
                a = a[: rng.randint(1, len(a) - 1)]
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
