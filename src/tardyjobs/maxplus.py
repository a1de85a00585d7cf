"""The (max,+)- and (min,+)-convolution engines.

The (max,+)-convolution of vectors ``A`` and ``B`` is the vector ``C`` with
``C[l] = max_k (A[k] + B[l-k])`` over all index pairs that are valid in both
operands.  Every engine here computes exactly the same output as the naive
quadratic evaluation; the structured engines are merely faster when their
precondition on the operands holds:

* ``convolve_naive``          -- no precondition, O(|A|*|B|) entries in one
                                 numpy pass per block of up to ``_BLOCK``
                                 rows of the shorter operand, at every
                                 length.
* ``convolve_sstep_concave``  -- right operand is s-step concave; each full
                                 step of B meets a sliding-window maximum of
                                 A, taken by doubling: ceil(log2 s) shifted
                                 maxima over the output.  Two branches,
                                 each counted in O(L) numpy passes: while
                                 the steps' rises form runs of equal value
                                 whose binary bundles number at most
                                 ``_FEW_STEPS``, one shifted maximum per
                                 bundle (O(log m) for a run of m steps);
                                 otherwise the row maxima of the resulting
                                 totally monotone matrices (one per residue
                                 class modulo s) come from one batched
                                 divide-and-conquer kernel: O(log L) passes
                                 for all classes.
* ``convolve_with_ranges``    -- guided by per-index ranges ``[x_k, y_k]``
                                 certifying where optimal split witnesses
                                 lie; cost the union width of each block of
                                 up to ``_BLOCK`` consecutive ranges times
                                 its rows, plus one pass per block.

The (min,+) mirror ``minplus_convolve`` has no engine of its own: its
step-convex engine is the concave engine run on the negated operands, and its
naive evaluation is the (max,+) one's row fold with ``np.minimum`` as the
reduction.  That one row fold also answers the step engines' small products.
Both loops of row folds, the naive one and the range-guided one, run their
ufuncs under a buffer of ``_ROW_BUFFER`` elements and give the caller's
buffer size back on the way out: each fold's broadcast add goes through
numpy's buffered iterator, whose default buffers of 8192 elements, allocated
for every block, cost more than the add itself.

This module alone decides what a ``core.Vector`` holds, by one rule for
every container (list, float64 or object array): each operation's one numpy
body computes in float64 while every sum of an entry of A and one of B is
exact there (magnitudes summing below ``EXACT_FLOAT_BOUND``, 2**52), else on
``dtype=object`` arrays of Python ints, each entry checked.  NaN, an
infinity or (past the bound) a fraction raises ``ValueError`` naming its
index.  Results are Vectors of the type computed in; producers pick it with
:func:`vector_dtype`.
``SMALL_PRODUCT_CUTOFF`` only chooses between a step engine and the naive
evaluation on small operands; magnitude never does.

Outputs are truncated at the longer operand's length: the scheduling solvers
never need entries past the current horizon, and monotone non-negative
operands make the truncation lossless for later convolutions.  The (min,+)
mirror used by inverse (weight-indexed) vectors instead keeps the full
``|A|+|B|-1`` output, because weight targets add up across operands.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import sub
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import Vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .prediction import RangeIntervals

__all__ = [
    "convolve_naive",
    "convolve_sstep_concave",
    "convolve_with_ranges",
    "minplus_convolve",
]

# At or below this |A|*|B| product the step engines run the naive evaluation.
# Measured in process (mean over seeds of the best of 5 solves, 2 CPUs,
# numpy 2.4), 4096 against 16384 against 65536: many-dates (n=200, d#=16,
# D=2000) concave-p 3.88/3.62/3.56 ms and inverse-w 4.10/3.52/3.40 ms, small-p
# (n=5000, d#=4, D=5000, p<=5) concave-p 4.77/4.75/4.77 ms, seeds 1-10; the
# exact path (n=300, d#=16, D=3000, p<=10, w<=2**70) concave-p
# 33.0/43.2/67.2 ms, seeds 1-3.  float64 gains a little from a larger cutoff,
# object arrays lose more, so it stays at 4096 rather than split by dtype.
# Tests shrink it to 0 to force the step engines' code paths on small inputs.
SMALL_PRODUCT_CUTOFF = 4096

# _stride_maxplus composes the steps with one shifted maximum per bundle of a
# run of equal rises while those bundles number at most this many; past it
# the divide and conquer's O(log L) passes are cheaper.  On float64 operands
# on a 2-CPU x86_64 VM that many shifted maxima and the divide and conquer
# cost the same at about 230 passes for 2000 rows per class and about 450
# for 20000 rows, so 128 stays on the cheaper side of both.
_FEW_STEPS = 128

# The naive evaluation (both reductions) and the range-guided engine fold up
# to this many rows of the left operand per numpy pass (_fold_rows); an
# operand shorter than that is one block.  Its scratch matrix holds _BLOCK
# rows of the right operand's span.  Fitted under _ROW_BUFFER by perfbench
# (15 s runs, seed 1, a 2-CPU x86_64 VM): 32 rows took many-dates'
# policy_ms.naive to 5.1 ms against 6.5 at 16 rows, but on small-p, where a
# span reaches 5000 budgets, the 32-row matrices (1.3 MB each) raised
# peak_rss_mb to 47.0 MB in every run, against 46.4-46.8 at 16 rows and at
# the numpy default buffer; so 16.
_BLOCK = 16

# Both loops of row folds (_rows and convolve_with_ranges) run their ufuncs
# under this buffer size, in elements: np.setbufsize before the loop, the
# caller's size restored in a finally, since numpy 1.x keeps it process-wide.
# Fitted by the same perfbench runs: many-dates' policy_ms.naive read
# 9.6-10.1 ms under numpy's default 8192, 7.4-7.7 at 2048, 6.7-6.8 at 1024
# and 6.5-6.6 at 512 and at 256; small-p's 12.5-13.3 at 512 and at 1024,
# 15.9-16.8 at 8192.
_ROW_BUFFER = 512

# Sums of finite entries must stay exactly representable in float64; past
# this bound vectors are exact Python-int object arrays.
EXACT_FLOAT_BOUND = 2**52

# Fills, never Vector entries: window padding and initial kernel outputs;
# NEG_INF also marks an output index no block of convolve_with_ranges
# reaches.  They compare exactly against ints in float64 and object arrays.
NEG_INF = float("-inf")
POS_INF = float("inf")


def vector_dtype(bound: int) -> type:
    """The dtype of a Vector whose entries stay within ``bound`` in
    magnitude: float64 below ``EXACT_FLOAT_BOUND``, else ``object``."""
    return np.float64 if bound < EXACT_FLOAT_BOUND else object


def _exact(v: Sequence) -> np.ndarray:
    """v as an object array of Python ints.  An object array of Python ints
    passes as is (one type scan); any other entry goes through ``int()``,
    since a float added to an int past 2**53 silently rounds.  NaN or an
    infinity raises as not finite, a fraction as not an integer."""
    if isinstance(v, np.ndarray) and v.dtype == object and set(map(type, v)) <= {int}:
        return v
    out = []
    for k, x in enumerate(v.tolist() if isinstance(v, np.ndarray) else v):
        try:
            out.append(int(x))
        except (OverflowError, ValueError):
            raise ValueError(f"operand entry {x} is not finite at index {k}") from None
        if out[-1] != x:
            raise ValueError(f"operand entry {x} is not an integer at index {k}")
    return np.array(out, dtype=object)


def _operands(*vectors: Sequence) -> list[np.ndarray]:
    """The vectors, whatever their container, as float64 arrays when every
    sum of one entry of each is exact there (magnitudes summing below
    ``EXACT_FLOAT_BOUND``; NaN or an infinity fails this too), else as
    object arrays checked by :func:`_exact`."""
    try:
        arrays = [np.asarray(v, dtype=np.float64) for v in vectors]
    except OverflowError:  # an int beyond the float range
        pass
    else:
        if sum(np.abs(v).max(initial=0.0) for v in arrays) < EXACT_FLOAT_BOUND:
            return arrays
    return [_exact(v) for v in vectors]


def convolve_naive(A: Vector, B: Vector) -> Vector:
    """(max,+)-convolve two vectors by direct evaluation of the definition.

    The output has ``max(|A|, |B|)`` entries; operand indices out of range
    contribute nothing.  One numpy pass per block of up to ``_BLOCK`` rows
    of the shorter operand, whatever its length.
    """
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty input vector")
    a, b = _operands(A, B)
    return _rows(a, b, max(len(a), len(b)), np.maximum)


def _rows(a: np.ndarray, b: np.ndarray, L: int, reduce: np.ufunc) -> np.ndarray:
    """The first L entries of the ``reduce``-convolution of converted
    operands (np.maximum: (max,+), np.minimum: (min,+)), by direct
    evaluation: one :func:`_fold_rows` pass per block of ``_BLOCK`` rows of
    the shorter operand, at every length."""
    if len(a) > len(b):
        a, b = b, a
    out = np.full(L, NEG_INF if reduce is np.maximum else POS_INF, dtype=b.dtype)
    old = np.setbufsize(_ROW_BUFFER)
    try:
        for k0 in range(0, len(a), _BLOCK):
            _fold_rows(out, a, b, k0, min(k0 + _BLOCK, len(a)) - 1, 0, min(len(b), L - k0) - 1, reduce)
    finally:
        np.setbufsize(old)
    return out


def _fold_rows(out: np.ndarray, a: np.ndarray, b: np.ndarray, k0: int, k1: int, x: int, y: int, reduce: np.ufunc) -> None:
    """out[k + l] = reduce(out[k + l], a[k] + b[l]) for k0 <= k <= k1 and
    x <= l <= y, where k + l < len(out), in one pass for the r = k1 - k0 + 1
    rows (r <= ``_BLOCK``).

    Row j of an (r, w + r) matrix holds a[k0 + j] + b[x .. y] in its first
    w = y - x + 1 columns and ``reduce``'s identity fill in its last r.  Its
    buffer read as r rows of w + r - 1 entries shifts row j right by j, the
    fill columns absorbing the shift, so column c of that view collects the
    sums landing on output k0 + x + c and one reduction over rows folds them
    all.

    Callers run it under ``np.setbufsize(_ROW_BUFFER)``.  The add of a
    broadcast row and column into the matrix's strided first w columns goes
    through numpy's buffered iterator, which allocates its buffers on every
    call: under the default 8192 elements one (16, 540) block's add took
    12-16 us and 196 KB under tracemalloc, at 512 about 4 us and 1.4 KB.
    """
    r, w = k1 - k0 + 1, y - x + 1
    m = np.empty((r, w + r), dtype=out.dtype)
    m[:, w:] = NEG_INF if reduce is np.maximum else POS_INF
    np.add(b[None, x : y + 1], a[k0 : k1 + 1, None], out=m[:, :w])
    folded = reduce.reduce(m.ravel()[: r * (w + r - 1)].reshape(r, w + r - 1), axis=0)
    seg = out[k0 + x : k1 + y + 1]
    reduce(seg, folded[: len(seg)], out=seg)


# ---------------------------------------------------------------------------
# s-step concave engine
# ---------------------------------------------------------------------------


def _first_sstep_concave_violation(b: np.ndarray, s: int) -> int | None:
    """Index of the first entry breaking the s-step concave structure.

    Structure: the stride-s subsample B[0], B[s], B[2s], ... has
    non-increasing consecutive differences, and every off-stride entry
    copies its predecessor.  Each breaking entry is flagged in one bool
    array, a stride entry ``l >= 2s`` by its rise B[l] - B[l-s].
    """
    bad = np.empty(len(b), dtype=bool)
    np.not_equal(b[1:], b[:-1], out=bad[1:])
    bad[::s] = False
    stride = b[::s]
    rises = stride[1:] - stride[:-1]
    np.greater(rises[1:], rises[:-1], out=bad[2 * s :: s])
    first = int(bad.argmax())
    return first if bad[first] else None


def _first_sstep_convex_violation(b: np.ndarray, s: int) -> int | None:
    """Mirror of the concave check for (min,+) step vectors.

    Structure: the stride-s subsample is convex (non-decreasing consecutive
    differences) and every off-stride entry copies its *successor*, i.e.
    ``B[l] = B[s*ceil(l/s)]``.  This forces the last index to be a multiple
    of s: an off-stride last entry has no successor and is flagged.
    """
    bad = np.empty(len(b), dtype=bool)
    np.not_equal(b[:-1], b[1:], out=bad[:-1])
    bad[-1] = True
    bad[::s] = False
    stride = b[::s]
    rises = stride[1:] - stride[:-1]
    np.less(rises[1:], rises[:-1], out=bad[2 * s :: s])
    first = int(bad.argmax())
    return first if bad[first] else None


def _sliding_max(a: np.ndarray, width: int, length: int) -> np.ndarray:
    """out[m] = max(a[m-width+1 .. m] clipped to a's range) for m < length,
    NEG_INF where that window is empty.

    By doubling: a[:length], padded with NEG_INF to ``length``, holds the
    windows of one entry; a pass ``x[step:] = max(x[step:], x[:-step])``
    with ``step <= span``, reading the previous pass's values, widens every
    window from ``span`` to ``span + step`` entries.  Steps 1, 2, 4, ...,
    the last cut to reach ``width`` exactly, make ceil(log2 width) passes
    of O(length) each; a window of one entry is a copy of a.
    """
    x = np.full(length, NEG_INF, dtype=a.dtype)
    x[: len(a)] = a[:length]
    span = 1
    while span < width:
        step = min(span, width - span)
        np.maximum(x[step:], x[:-step], out=x[step:])  # numpy buffers the overlap
        span += step
    return x


@lru_cache(maxsize=None)
def bundle_sizes(c: int) -> tuple[int, ...]:
    """The binary split of c copies: 1, 2, 4, ... and a remainder.

    Every count 0..c is the sum of a subset of them, so c interchangeable
    items become O(log c) items of t copies each with the same optima.
    """
    sizes = []
    t = 1
    while c:
        t = min(t, c)
        sizes.append(t)
        c -= t
        t *= 2
    return tuple(sizes)


def _stride_maxplus(D: np.ndarray, Bc: np.ndarray, s: int) -> np.ndarray:
    """out[l] = max of Bc[t] + D[l - t*s] over t < |Bc| with t*s <= l, for
    concave Bc and D whose NEG_INF entries form a prefix and a suffix.

    Two branches:

    * While the rises Bc[t+1] - Bc[t] of the steps that start inside the
      output form runs of equal rise whose bundles (:func:`bundle_sizes` of
      each run's length) number at most ``_FEW_STEPS``, the steps are
      composed run by run from out = D + Bc[0].  A bundle of b steps of a
      run of rise v is one in-place shifted maximum
      out[l] = max(out[l], out[l - b*s] + b*v).  After a run of m steps
      every count 0..m of them has been taken, so out[l] is the best of
      D[l - t*s] plus Bc[0] and some choice of t rises, at most m from each
      run; since the rises do not grow, the best choice of t rises is the
      first t, which sum to Bc[t] - Bc[0].  That is one numpy pass per
      bundle: O(log m) per run of m steps.  The runs are split in plain
      Python, which stops once the bundles outnumber ``_FEW_STEPS``.
    * Otherwise divide and conquer.  Output index l = q*s + r pairs with
      D[u*s + r], u = q - t, so residue class r is the row maxima of the
      matrix M_r[q][u] = E_r[u] + Bc[q-u], E_r = D[r::s].  Concave Bc
      makes the leftmost row argmax non-decreasing in q, so divide and
      conquer over rows needs only the column window between the argmaxes
      of the rows already solved around it.  The recursion runs one level
      at a time over all classes at once: each level evaluates the middle
      row of every open row range over its window in one flattened pass,
      so a call costs O(log |D|) numpy passes of O(|D|) each.
    """
    L, T = len(D), len(Bc)
    Q = -(-L // s)  # rows per class; step t >= Q starts past the output
    heads = Bc[:Q].tolist()  # the stride entries of the steps inside the output
    bundles = []
    for v, run in groupby(map(sub, heads[1:], heads)):
        bundles += [(b, v) for b in bundle_sizes(len(list(run)))]
        if len(bundles) > _FEW_STEPS:
            break
    if len(bundles) <= _FEW_STEPS:
        # Exact in float64: every stored entry is a prefix value
        # D[u] + Bc[t], below |a|max + |b|max < 2**52 in magnitude for the
        # operands a, b the kernel was called on, and a bundle's b*v is a
        # difference of two Bc entries.  A candidate out[l - b*s] + b*v is
        # at most the prefix value D[u] + Bc[t + b] of the same D entry, by
        # concavity, so it can leave the exact range only downwards, past
        # -2**53; rounding keeps it there, and that prefix value, also
        # taken at l, beats it.  Later rises are no larger, so nothing
        # built on it climbs back.
        out = D + Bc[0]
        for b, v in bundles:  # b <= Q - 1, so b*s < L
            np.maximum(out[b * s :], out[: L - b * s] + b * v, out=out[b * s :])
        return out
    E = np.full(Q * s, NEG_INF, dtype=D.dtype)
    E[:L] = D
    E = E.reshape(Q, s).T.ravel()  # E_r[u] at r*Q + u
    rows = np.full(Q * s, NEG_INF, dtype=D.dtype)
    # open row ranges [r0, r1] with column windows [c0, c1], class offset base
    base = np.arange(s) * Q
    r0 = np.zeros(s, dtype=np.int64)
    r1 = np.full(s, Q - 1)
    c0 = np.zeros(s, dtype=np.int64)
    c1 = np.full(s, Q - 1)
    while base.size:
        mid = (r0 + r1) // 2
        lo = np.maximum(c0, mid - (T - 1))
        width = np.minimum(c1, mid) - lo + 1  # never empty, by monotonicity
        starts = np.cumsum(width) - width
        seg = np.repeat(np.arange(base.size), width)
        k = np.arange(starts[-1] + width[-1])
        vals = E[(base + lo - starts)[seg] + k] + Bc[(mid - lo + starts)[seg] - k]
        best = np.maximum.reduceat(vals, starts)
        rows[base + mid] = best
        hits = np.flatnonzero(vals == best[seg])
        arg = lo + hits[np.searchsorted(hits, starts)] - starts  # leftmost argmax
        left, right = r0 < mid, mid < r1
        base = np.concatenate((base[left], base[right]))
        r0, r1 = np.concatenate((r0[left], mid[right] + 1)), np.concatenate((mid[left] - 1, r1[right]))
        c0, c1 = np.concatenate((c0[left], arg[right])), np.concatenate((arg[left], c1[right]))
    return rows.reshape(s, Q).T.ravel()[:L]


def convolve_sstep_concave(A: Vector, B: Vector, s: int) -> Vector:
    """(max,+)-convolve where the right operand is s-step concave.

    Output equals ``convolve_naive(A, B)`` entry for entry.  Splits are
    grouped by the step of B they use: the final step of B, which may be
    shorter than s, is one sliding-window maximum of A; every full step t
    pairs the stride entry ``B[t*s]`` with the width-s window maximum of A
    ending at ``l - t*s``.  The full steps take one of two branches (L the
    output length):

    * the steps whose stride entries rise by equal amounts form a run, and
      a run of m steps is O(log m) shifted maxima over the output, one per
      binary bundle of its steps, while all runs' bundles number at most
      ``_FEW_STEPS``;
    * otherwise the full steps form, per residue class of l modulo s, a
      totally monotone matrix whose row maxima one batched
      divide-and-conquer kernel finds for all classes together, in
      O(log L) numpy passes over O(L) entries.

    A class vector of c jobs that stops at its reach c*s has c steps, so a
    class of at most ``_FEW_STEPS`` jobs, or a larger one with few distinct
    weights, takes the first branch.

    At or below ``SMALL_PRODUCT_CUTOFF`` on ``|A|*|B|`` the naive
    evaluation of :func:`convolve_naive` answers instead.
    """
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty input vector")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    a, b = _operands(A, B)
    bad = _first_sstep_concave_violation(b, s)
    if bad is not None:
        raise ValueError(f"right operand is not {s}-step concave: first violation at index {bad}")
    L = max(len(a), len(b))
    if len(a) * len(b) <= SMALL_PRODUCT_CUTOFF:
        return _rows(a, b, L, np.maximum)
    return _sstep_maxplus(a, b, s, L)


def _sstep_maxplus(a: np.ndarray, b: np.ndarray, s: int, L: int) -> np.ndarray:
    """The first L entries of the (max,+)-convolution of a with an s-step
    concave b, by the step engine of :func:`convolve_sstep_concave`."""
    Bc = b[::s]  # concave stride subsample
    start = (len(Bc) - 1) * s  # the final step of B covers b[start:]
    out = np.full(L, NEG_INF, dtype=a.dtype)
    out[start:] = Bc[-1] + _sliding_max(a, len(b) - start, L - start)
    if len(Bc) > 1:
        np.maximum(out, _stride_maxplus(_sliding_max(a, s, L), Bc[:-1], s), out=out)
    return out


# ---------------------------------------------------------------------------
# range-guided engine
# ---------------------------------------------------------------------------


def convolve_with_ranges(A: Vector, B: Vector, R: "RangeIntervals") -> Vector:
    """(max,+)-convolve restricted to per-index candidate ranges.

    ``C[l]`` is the maximum of ``A[k] + B[l-k]`` over splits with ``l-k``
    inside ``R.intervals[k]`` and possibly more: the consecutive indices of
    ``A`` with non-empty ranges are taken in blocks of up to ``_BLOCK``, and
    every index of a block pairs with the union of the block's ranges (the
    first index's ``x`` to the last one's ``y``), all in one pass
    (:func:`_fold_rows`).  Those extra pairs are splits too, so ``C`` never
    exceeds ``convolve_naive(A, B)``, and it equals it exactly when the
    ranges certify a split witness for every output index, the contract
    under which solvers call this.  An output index that no block reaches
    holds ``NEG_INF``.  Cost is the blocks' union widths times their rows
    plus one numpy pass per block, so a caller puts the operand of shorter
    span on the left.
    """
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty input vector")
    if len(R.intervals) != len(A):
        raise ValueError(f"expected {len(A)} intervals (one per left-operand index), got {len(R.intervals)}")
    L = max(len(A), len(B))
    a, b = _operands(A, B)
    prev_x = prev_y = 0
    for k, iv in enumerate(R.intervals):
        if iv is None:  # flagged empty: the index never holds a witness
            continue
        x, y = iv
        if not (0 <= x <= y < len(b)):
            raise ValueError(f"interval {k} out of bounds: [{x}, {y}] not within [0, {len(b) - 1}]")
        if x < prev_x or y < prev_y:
            raise ValueError(f"interval endpoints not monotone at index {k}")
        prev_x, prev_y = x, y
    out = np.full(L, NEG_INF, dtype=b.dtype)
    old = np.setbufsize(_ROW_BUFFER)
    try:
        k0 = 0
        while k0 < len(a):
            if R.intervals[k0] is None:
                k0 += 1
                continue
            k1 = k0  # the block: k0 .. k1, consecutive non-empty ranges
            while k1 + 1 < len(a) and k1 + 1 - k0 < _BLOCK and R.intervals[k1 + 1] is not None:
                k1 += 1
            x, y = R.intervals[k0][0], min(R.intervals[k1][1], L - 1 - k0)  # row k0 reaches no output past L - 1
            if y >= x:
                _fold_rows(out, a, b, k0, k1, x, y, np.maximum)
            k0 = k1 + 1
    finally:
        np.setbufsize(old)
    return out


# ---------------------------------------------------------------------------
# (min,+) mirror
# ---------------------------------------------------------------------------


def minplus_convolve(A: Vector, B: Vector, s: int | None = None) -> Vector:
    """(min,+)-convolve inverse vectors: C[l] = min over splits of A[k]+B[l-k].

    Output always has the full ``|A|+|B|-1`` length, since weight targets add
    across operands.  Equivalent to negating both operands,
    (max,+)-convolving at full length, and negating back.

    With a step size ``s`` the right operand must be s-step convex, and past
    ``SMALL_PRODUCT_CUTOFF`` the step engine answers: ``B[0]`` pairs with
    ``A[l]`` alone, and ``B[1:]``, whose off-stride entries copy their
    step's last entry, negates to an s-step concave vector with full steps,
    so the rest is the concave engine of :func:`convolve_sstep_concave` on
    ``-A`` and ``-B[1:]``, negated back.  Otherwise, and without ``s``, the
    naive evaluation answers: the row fold of :func:`convolve_naive`, with
    the minimum as its reduction, over the full output.
    """
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty input vector")
    if s is None:
        a, b = _operands(A, B)
        return _rows(a, b, len(a) + len(b) - 1, np.minimum)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    a, b = _operands(A, B)
    bad = _first_sstep_convex_violation(b, s)
    if bad is not None:
        raise ValueError(f"right operand is not {s}-step convex: first violation at index {bad}")
    L = len(a) + len(b) - 1
    if len(a) * len(b) <= SMALL_PRODUCT_CUTOFF:
        return _rows(a, b, L, np.minimum)
    out = np.full(L, POS_INF, dtype=a.dtype)
    out[: len(a)] = a + b[0]
    if len(b) > 1:  # b[1:] copies each entry from its step's last index: -b[1:] is s-step concave
        np.minimum(out[1:], -_sstep_maxplus(-a, -b[1:], s, L - 1), out=out[1:])
    return out
