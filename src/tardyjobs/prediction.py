"""Range intervals: predicting where near-optimal convolution splits lie.

Given fractional solution vectors ``A'``, ``B'`` for two job sets and ``C'``
for their union, the gap ``delta_k(l) = C'[k+l] - A'[k] - B'[l]`` measures
how far the split ``(k, l)`` is from fractionally optimal.  For each left
index ``k`` the set of ``l`` with a small gap is a contiguous interval
``[x_k, y_k]`` (the gap is unimodal in ``l``), and both endpoints are
non-decreasing in ``k``, so a single two-pointer sweep recovers all
intervals.  It costs O(|A'| + |B'|) pointer moves, plus a scan of each
flagged-empty row (see :class:`RangeIntervals`) up to the horizon of ``C'``,
plus O(1) for each row past the point where the left side saturates.  The y
pointer gallops: after ``_GALLOP`` single steps in one row it doubles its
step and then bisects back to the first budget out of range, which the
budgets in range forming a prefix of ``[x_k, end)`` makes exact, so a row
that moves y by m costs O(log m) tests past the first ``_GALLOP``.

With the threshold ``2*i*w_max`` (``i`` the merge iteration, ``w_max`` the
maximum job weight), these intervals are *range intervals* for the integral
vectors ``A`` and ``B`` with additive error ``e = 4*i*w_max``:

1. every in-range split is within ``e`` of optimal,
2. every output index has an exactly-optimal split inside its range, and
3. interval endpoints are monotone.

Condition 2 is what makes the range-guided convolution exact.  The test
suite checks all three literally against the naive convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .fractional import FractionalSolutionVector

__all__ = [
    "RangeIntervals",
    "compute_range_intervals",
]


# Single steps of the y pointer in one row before it gallops.  Galloping from
# the first step made the sweep slower where rows move y by a few budgets.
_GALLOP = 8


@dataclass(frozen=True)
class RangeIntervals:
    """Per-left-index candidate ranges ``[x_k, y_k]`` with additive error.

    An entry may be ``None``: a flagged-empty range for a left index that
    can never participate in an optimal split (its fractional gap exceeds
    the threshold at every budget).  Convolution and validation skip such
    indices; exactness is unaffected because an optimal split's gap is at
    most half the admission threshold, so witnesses always land in
    non-empty ranges.
    """

    intervals: tuple[tuple[int, int] | None, ...]
    error: int


def _rescaled(
    a: FractionalSolutionVector,
    b: FractionalSolutionVector,
    c: FractionalSolutionVector,
) -> tuple[Sequence[int], Sequence[int], Sequence[int], int]:
    """The three scaled vectors over their common scale; a vector already
    at that scale is passed through, not copied."""
    scale = math.lcm(a.scale, b.scale, c.scale)
    av, bv, cv = (v.scaled if v.scale == scale else [x * (scale // v.scale) for x in v.scaled] for v in (a, b, c))
    return av, bv, cv, scale


def compute_range_intervals(
    a_frac: FractionalSolutionVector,
    b_frac: FractionalSolutionVector,
    c_frac: FractionalSolutionVector,
    i: int,
    w_max: int,
) -> RangeIntervals:
    """Sweep out the range intervals of A in B from the fractional vectors.

    ``c_frac`` must belong to the union of the two job sets, so that the
    common rescaling is exact.  ``i`` is the merge iteration; the admission
    threshold is ``2*i*w_max`` and the certified error is ``4*i*w_max``.
    Both pointers only ever move forward, and in row ``k`` both stop at
    ``min(|B'|, |C'| - k)``: a budget ``l`` with ``k + l`` past the horizon
    of ``C'`` is never in range.  There is one row per entry of ``A'``, and
    the sweep and the range-guided convolution's blocks of rows both grow
    with them, so a caller puts the vector of shorter span on the left.

    A left index whose gap exceeds the threshold at every budget (which
    happens when the left side's jobs saturate far below its horizon while
    the union keeps absorbing work) gets a flagged-empty range; the shared
    pointers are not advanced past it.
    """
    if len(a_frac) == 0 or len(b_frac) == 0 or len(c_frac) == 0:
        raise ValueError("empty fractional vector")
    if i < 1:
        raise ValueError(f"iteration index must be >= 1, got {i}")
    if w_max < 1:
        raise ValueError(f"maximum job weight must be >= 1, got {w_max}")
    av, bv, cv, scale = _rescaled(a_frac, b_frac, c_frac)
    threshold = 2 * i * w_max * scale
    n_b, n_c = len(bv), len(cv)

    intervals: list[tuple[int, int] | None] = []
    x = y = 0
    prev_empty = False
    for k, a_k in enumerate(av):
        if prev_empty and a_k == av[k - 1]:
            # the gap only grows once the left side saturates; still empty
            intervals.append(None)
            continue
        end = n_c - k if n_c - k < n_b else n_b  # min(|B'|, |C'| - k), with no call per row
        bar = a_k + threshold  # (k, l) is within threshold iff C'[k+l] - B'[l] <= bar
        scan = x
        while scan < end and cv[k + scan] - bv[scan] > bar:
            scan += 1
        prev_empty = scan >= end
        if prev_empty:  # no budget within threshold: flagged-empty range
            intervals.append(None)
            continue
        x = scan
        if y <= x:  # y stays one past the last qualifying index
            y = x + 1
        stop = y + _GALLOP
        while y < end and cv[k + y] - bv[y] <= bar:
            y += 1
            if y == stop:  # _GALLOP single steps in range: double the step, then bisect back
                lo, hi, step = y, y + 1, 2  # every budget below lo is in range
                while hi < end and cv[k + hi] - bv[hi] <= bar:
                    lo, step = hi + 1, 2 * step
                    hi = lo + step - 1
                hi = min(hi, end)  # the first budget out of range is in [lo, hi]
                while lo < hi:
                    mid = (lo + hi) // 2
                    if cv[k + mid] - bv[mid] <= bar:
                        lo = mid + 1
                    else:
                        hi = mid
                y = lo
                break
        intervals.append((x, y - 1))
    return RangeIntervals(intervals=tuple(intervals), error=4 * i * w_max)
