"""The (max,+)- and (min,+)-convolution engines.

The (max,+)-convolution of vectors ``A`` and ``B`` is the vector ``C`` with
``C[l] = max_k (A[k] + B[l-k])`` over all index pairs that are valid in both
operands.  Every engine here computes exactly the same output as the naive
quadratic evaluation; the structured engines are merely faster when their
precondition on the operands holds:

* ``convolve_naive``          -- no precondition, O(|A|*|B|).
* ``convolve_sstep_concave``  -- right operand is s-step concave; each full
                                 step of B meets a sliding-window maximum of
                                 A, and the row maxima of the resulting
                                 totally monotone matrices (one per residue
                                 class modulo s) come from one batched
                                 divide-and-conquer kernel: O(log L) numpy
                                 passes of O(L) work for all classes.
* ``convolve_with_ranges``    -- guided by per-index ranges ``[x_k, y_k]``
                                 certifying where optimal split witnesses
                                 lie; cost proportional to the total range
                                 width.

The (min,+) mirror ``minplus_convolve`` runs its step-convex engine through
the same kernel by negation.

Each operation has one numpy body, which runs on one of two element types.
It computes in float64 while every sum of a finite entry of A and one of B
is exact there (magnitudes summing below ``EXACT_FLOAT_BOUND``, 2**52), and
otherwise on ``dtype=object`` arrays of the exact Python ints and the
infinite sentinels.  Operands may be lists; results are ``core.Vector``
arrays of the type computed in, so merge chains stay in arrays.
``SMALL_PRODUCT_CUTOFF`` only chooses between a step engine and the naive
evaluation on small operands; magnitude never does.

Outputs are truncated at the longer operand's length: the scheduling solvers
never need entries past the current horizon, and monotone non-negative
operands make the truncation lossless for later convolutions.  The (min,+)
mirror used by inverse (weight-indexed) vectors instead keeps the full
``|A|+|B|-1`` output, because weight targets add up across operands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import NEG_INF, POS_INF, Vector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .prediction import RangeIntervals

__all__ = [
    "convolve_naive",
    "convolve_sstep_concave",
    "convolve_with_ranges",
    "minplus_convolve",
    "is_sstep_concave",
    "is_sstep_convex",
]

# Below this |A|*|B| product the step engines just run the naive evaluation:
# their asymptotics only pay off past it.  Tests shrink it to 0 to force the
# step engines' code paths on small inputs.
SMALL_PRODUCT_CUTOFF = 4096

# Sums of finite entries must stay exactly representable in float64; past
# this bound vectors are exact Python-int object arrays.
EXACT_FLOAT_BOUND = 2**52


def _max_abs_finite(v: np.ndarray) -> float:
    finite = v[np.isfinite(v)]
    return float(np.abs(finite).max()) if finite.size else 0.0


def _exact(v: Sequence) -> np.ndarray:
    """v as an object array of Python ints and the sentinels; float entries
    become ints, since a float added to an int past 2**53 silently rounds."""
    if isinstance(v, np.ndarray) and v.dtype.kind == "f":
        out = v.astype(object)
        finite = np.isfinite(v)
        out[finite] = v[finite].astype(np.int64).astype(object)
        return out
    return np.asarray(v, dtype=object)


def _operands(*vectors: Sequence) -> list[np.ndarray]:
    """The vectors as float64 arrays when every sum of one finite entry of
    each is exact in float64 (their magnitudes sum below
    ``EXACT_FLOAT_BOUND``), else as exact object arrays (see :func:`_exact`)."""
    try:
        arrays = [np.asarray(v, dtype=np.float64) for v in vectors]
        if sum(map(_max_abs_finite, arrays)) < EXACT_FLOAT_BOUND:
            return arrays
    except OverflowError:  # an int beyond the float range
        pass
    return [_exact(v) for v in vectors]


def convolve_naive(A: Vector, B: Vector) -> Vector:
    """(max,+)-convolve two vectors by direct evaluation of the definition.

    The output has ``max(|A|, |B|)`` entries; operand indices out of range
    contribute nothing.  Entries equal to ``NEG_INF`` saturate.
    """
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty input vector")
    if len(A) > len(B):  # loop over the shorter operand
        A, B = B, A
    a, b = _operands(A, B)
    L = len(b)
    out = np.full(L, NEG_INF, dtype=b.dtype)
    for k, x in enumerate(a.tolist()):
        if x != NEG_INF:
            np.maximum(out[k:], x + b[: L - k], out=out[k:])
    return out


# ---------------------------------------------------------------------------
# s-step concave engine
# ---------------------------------------------------------------------------


def _first_violation(b: np.ndarray, off_stride_bad: np.ndarray, bends: np.ndarray, s: int) -> int | None:
    """First index holding a sentinel, else the first breaking the step
    structure: an off-stride entry flagged in ``off_stride_bad``, or a stride
    entry ``l >= 2s`` whose second difference is flagged in ``bends``."""
    sentinel = np.flatnonzero((b == NEG_INF) | (b == POS_INF))
    if sentinel.size:
        return int(sentinel[0])
    bad = off_stride_bad & (np.arange(len(b)) % s != 0)
    bad[2 * s :] |= bends & (np.arange(2 * s, len(b)) % s == 0)
    first = np.flatnonzero(bad)
    return int(first[0]) if first.size else None


def _first_sstep_concave_violation(b: np.ndarray, s: int) -> int | None:
    """Index of the first entry breaking the s-step concave structure.

    Structure: the stride-s subsample B[0], B[s], B[2s], ... has
    non-increasing consecutive differences, and every off-stride entry
    copies its predecessor.  Sentinel entries are not step-structured.
    """
    copies = np.zeros(len(b), dtype=bool)
    copies[1:] = b[1:] != b[:-1]
    with np.errstate(invalid="ignore"):  # sentinels are reported first anyway
        rise = b[s:] - b[:-s]  # rise[i] = B[i+s] - B[i]
        return _first_violation(b, copies, rise[s:] > rise[:-s], s)


def is_sstep_concave(B: Vector, s: int) -> bool:
    """True iff the stride-s subsample of B is concave and off-stride
    entries copy their predecessor."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return _first_sstep_concave_violation(np.asarray(B, dtype=object), s) is None


def _first_sstep_convex_violation(b: np.ndarray, s: int) -> int | None:
    """Mirror of the concave check for (min,+) step vectors.

    Structure: the stride-s subsample is convex (non-decreasing consecutive
    differences) and every off-stride entry copies its *successor*, i.e.
    ``B[l] = B[s*ceil(l/s)]``.  This forces the last index to be a multiple
    of s.
    """
    copies = np.ones(len(b), dtype=bool)  # the last entry has no successor
    copies[:-1] = b[:-1] != b[1:]
    with np.errstate(invalid="ignore"):
        rise = b[s:] - b[:-s]
        return _first_violation(b, copies, rise[s:] < rise[:-s], s)


def is_sstep_convex(B: Vector, s: int) -> bool:
    """(min,+) mirror of :func:`is_sstep_concave`: convex stride subsample,
    off-stride entries copy their successor."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return _first_sstep_convex_violation(np.asarray(B, dtype=object), s) is None


def _sliding_max(a: np.ndarray, width: int, length: int) -> np.ndarray:
    """out[m] = max(a[m-width+1 .. m] clipped to a's range) for m < length,
    NEG_INF where that window is empty.

    Van Herk/Gil-Werman: cut the padded input into blocks of ``width``; a
    window spans at most two blocks, so it is the maximum of one block
    suffix and one block prefix.  O(length) at any width.
    """
    n_blocks = -(-(length + width - 1) // width)
    x = np.full(n_blocks * width, NEG_INF, dtype=a.dtype)
    x[width - 1 : width - 1 + min(len(a), length)] = a[:length]
    blocks = x.reshape(n_blocks, width)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:length], prefix[width - 1 : width - 1 + length])


def _stride_maxplus(D: np.ndarray, Bc: np.ndarray, s: int) -> np.ndarray:
    """out[l] = max of Bc[t] + D[l - t*s] over t < |Bc| with t*s <= l, for
    concave Bc and D whose NEG_INF entries form a prefix and a suffix.

    Output index l = q*s + r pairs with D[u*s + r], u = q - t, so residue
    class r is the row maxima of the matrix M_r[q][u] = E_r[u] + Bc[q-u],
    E_r = D[r::s].  Concave Bc makes the leftmost row argmax non-decreasing
    in q, so divide and conquer over rows needs only the column window
    between the argmaxes of the rows already solved around it.  The
    recursion runs one level at a time over all classes at once: each level
    evaluates the middle row of every open row range over its window in one
    flattened pass, so a call costs O(log |D|) numpy passes of O(|D|) each.
    """
    L, T = len(D), len(Bc)
    Q = -(-L // s)  # rows per class
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
    ending at ``l - t*s``.  The full steps thus form, per residue class of l
    modulo s, a totally monotone matrix whose row maxima one batched
    divide-and-conquer kernel finds for all classes together, in
    O(log L) numpy passes over O(L) entries (L the output length).

    The kernel runs past ``SMALL_PRODUCT_CUTOFF`` on A without ``NEG_INF``
    entries; otherwise the call is answered by :func:`convolve_naive`.
    """
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty input vector")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    a, b = _operands(A, B)
    bad = _first_sstep_concave_violation(b, s)
    if bad is not None:
        raise ValueError(f"right operand is not {s}-step concave: first violation at index {bad}")
    if len(a) * len(b) <= SMALL_PRODUCT_CUTOFF or (a == NEG_INF).any():
        return convolve_naive(a, b)
    L = max(len(a), len(b))
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


def _check_interval_structure(
    intervals: Sequence[tuple[int, int] | None], n_a: int, n_b: int
) -> None:
    if len(intervals) != n_a:
        raise ValueError(f"expected {n_a} intervals (one per left-operand index), got {len(intervals)}")
    prev_x = prev_y = 0
    for k, iv in enumerate(intervals):
        if iv is None:  # flagged empty: the index never holds a witness
            continue
        x, y = iv
        if not (0 <= x <= y <= n_b - 1):
            raise ValueError(f"interval {k} out of bounds: [{x}, {y}] not within [0, {n_b - 1}]")
        if x < prev_x or y < prev_y:
            raise ValueError(f"interval endpoints not monotone at index {k}")
        prev_x, prev_y = x, y


def convolve_with_ranges(A: Vector, B: Vector, R: "RangeIntervals") -> Vector:
    """(max,+)-convolve restricted to per-index candidate ranges.

    ``C[l]`` is the maximum of ``A[k] + B[l-k]`` over splits with
    ``l-k`` inside ``R.intervals[k]``.  When the ranges certify a split
    witness for every output index (the contract under which solvers call
    this), the result equals ``convolve_naive(A, B)`` exactly.  Cost is
    proportional to the total width of the ranges.
    """
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty input vector")
    intervals = list(R.intervals)
    _check_interval_structure(intervals, len(A), len(B))
    L = max(len(A), len(B))
    a, b = _operands(A, B)
    out = np.full(L, NEG_INF, dtype=b.dtype)
    for k, (v, iv) in enumerate(zip(a.tolist(), intervals)):
        if v == NEG_INF or iv is None:
            continue
        x, y = iv
        hi = min(y, L - 1 - k)
        if hi >= x:
            np.maximum(out[k + x : k + hi + 1], v + b[x : hi + 1], out=out[k + x : k + hi + 1])
    return out


# ---------------------------------------------------------------------------
# (min,+) mirror
# ---------------------------------------------------------------------------


def _minplus_naive(A: Vector, B: Vector) -> Vector:
    """Full-length (min,+)-convolution; POS_INF entries saturate."""
    if len(A) > len(B):
        A, B = B, A
    a, b = _operands(A, B)
    out = np.full(len(a) + len(b) - 1, POS_INF, dtype=b.dtype)
    for k, x in enumerate(a.tolist()):
        if x != POS_INF:
            np.minimum(out[k : k + len(b)], x + b, out=out[k : k + len(b)])
    return out


def _minplus_sstep_convex(a: np.ndarray, b: np.ndarray, s: int) -> np.ndarray:
    """(min,+) counterpart of the s-step engine for convex step vectors.

    ``B[0]`` pairs with ``A[l]`` alone; step t >= 1 pairs ``B[t*s]`` with
    the minimum of the width-s window of A starting at ``l - t*s``.
    Negated, those windows are sliding maxima of -A ending at
    ``l - (t-1)*s - 1`` and ``-B[s::s]`` is concave, so the (max,+) kernel
    of the concave engine computes the steps.
    """
    L = len(a) + len(b) - 1
    Bc = b[::s]  # convex stride subsample; last index of B is a multiple of s
    out = np.full(L, POS_INF, dtype=a.dtype)
    out[: len(a)] = a + Bc[0]
    if len(Bc) > 1:
        D = np.empty(L, dtype=a.dtype)
        D[0] = NEG_INF  # the window before index 0 is empty
        D[1:] = _sliding_max(-a, s, L - 1)
        np.minimum(out, -_stride_maxplus(D, -Bc[1:], s), out=out)
    return out


def minplus_convolve(A: Vector, B: Vector, s: int | None = None) -> Vector:
    """(min,+)-convolve inverse vectors: C[l] = min over splits of A[k]+B[l-k].

    Output always has the full ``|A|+|B|-1`` length, since weight targets add
    across operands.  Equivalent to negating both operands (POS_INF mapping
    to NEG_INF), (max,+)-convolving at full length, and negating back.

    With a step size ``s`` the right operand must be s-step convex and the
    step engine answers: past ``SMALL_PRODUCT_CUTOFF`` and on A whose finite
    entries are followed only by ``POS_INF``, as in a capped accumulator.
    Otherwise, and without ``s``, the naive evaluation answers.
    """
    if len(A) == 0 or len(B) == 0:
        raise ValueError("empty input vector")
    if s is None:
        return _minplus_naive(A, B)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    a, b = _operands(A, B)
    bad = _first_sstep_convex_violation(b, s)
    if bad is not None:
        raise ValueError(f"right operand is not {s}-step convex: first violation at index {bad}")
    finite = (a != POS_INF) & (a != NEG_INF)
    n_finite = np.count_nonzero(finite)
    capped = finite[:n_finite].all() and (a[n_finite:] == POS_INF).all()
    if len(a) * len(b) <= SMALL_PRODUCT_CUTOFF or not capped:
        return _minplus_naive(a, b)
    return _minplus_sstep_convex(a, b, s)
