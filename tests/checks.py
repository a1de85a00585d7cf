"""Checkers the test suite runs against the solver's vectors and ranges."""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from typing import Sequence

from tardyjobs import FractionalSolutionVector, Job, RangeIntervals, convolve_naive
from tardyjobs.core import Vector
from tardyjobs.maxplus import _first_sstep_concave_violation, _first_sstep_convex_violation, _operands
from tardyjobs.oracle import DEFAULT_CAP, _check_cap


def validate_solution_vector(v: Sequence) -> list[str]:
    """Check solution-vector invariants; return violations (empty = valid).

    A valid vector starts at 0 and is monotone non-decreasing.  Violations
    are returned as data rather than raised so tests can assert on them.
    """
    violations: list[str] = []
    if len(v) == 0:
        return ["empty vector"]
    if v[0] != 0:
        violations.append("nonzero-origin")
    for k in range(1, len(v)):
        if v[k] < v[k - 1]:
            violations.append(f"non-monotone at {k}")
    return violations


def brute_force_vector(jobs: list[Job], horizon: int, cap: int = DEFAULT_CAP) -> list[int]:
    """entry[k] = max weight over feasible early sets with total p <= k."""
    _check_cap(len(jobs), cap)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    ordered = sorted(jobs, key=lambda j: (j.d, j.id))
    n = len(ordered)
    out = [0] * (horizon + 1)

    stack = [(0, 0, 0)]
    while stack:
        idx, t, w = stack.pop()
        if w > out[t]:
            out[t] = w
        if idx == n:
            continue
        job = ordered[idx]
        stack.append((idx + 1, t, w))
        nt = t + job.p
        if nt <= job.d and nt <= horizon:
            stack.append((idx + 1, nt, w + job.w))
    for k in range(1, horizon + 1):
        if out[k] < out[k - 1]:
            out[k] = out[k - 1]
    return out


def is_sstep_concave(B: Vector, s: int) -> bool:
    """True iff the stride-s subsample of B is concave and off-stride
    entries copy their predecessor."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    (b,) = _operands(B)
    return _first_sstep_concave_violation(b, s) is None


def is_sstep_convex(B: Vector, s: int) -> bool:
    """(min,+) mirror of :func:`is_sstep_concave`: convex stride subsample,
    off-stride entries copy their successor."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    (b,) = _operands(B)
    return _first_sstep_convex_violation(b, s) is None


def fractional_gap_check(
    frac: FractionalSolutionVector, integral, d_hash: int, w_max: int
) -> bool:
    """True iff ``0 <= frac[k] - integral[k] <= d_hash * w_max`` for all k.

    ``integral`` is a plain solution vector on the same horizon; comparisons
    are exact via the scaled representation.
    """
    if len(frac) != len(integral):
        raise ValueError(f"length mismatch: fractional {len(frac)} vs integral {len(integral)}")
    bound = d_hash * w_max * frac.scale
    for k in range(len(integral)):
        gap = frac.scaled[k] - integral[k] * frac.scale
        if gap < 0 or gap > bound:
            return False
    return True


def fractional_runs_check(frac: FractionalSolutionVector) -> bool:
    """Whether ``frac.runs`` take non-increasing rates and their prefix
    sums, held flat past the last, are ``frac.scaled``."""
    rates = [rate for rate, _ in frac.runs]
    sums = list(accumulate(chain.from_iterable(repeat(rate, units) for rate, units in frac.runs), initial=0))
    flat = sums + sums[-1:] * (len(frac) - len(sums))
    return rates == sorted(rates, reverse=True) and flat == list(frac.scaled)


def validate_range_intervals(A: Vector, B: Vector, R: RangeIntervals) -> list[str]:
    """Check the three range-interval conditions literally; violations are data.

    Computes the naive convolution C and verifies, with e = R.error:
    (1) in-range splits are within e of C, (2) every output index has an
    exactly-optimal in-range split, (3) endpoints are monotone.  Structural
    problems (wrong count, out-of-bounds endpoints) are reported the same
    way rather than raised.
    """
    violations: list[str] = []
    intervals = list(R.intervals)
    if len(intervals) != len(A):
        return [f"expected {len(A)} intervals, got {len(intervals)}"]
    for k, iv in enumerate(intervals):
        if iv is None:  # flagged empty: inert everywhere
            continue
        x, y = iv
        if not (0 <= x <= y <= len(B) - 1):
            violations.append(f"interval {k} out of bounds: [{x}, {y}]")
    if violations:
        return violations

    e = R.error
    C = convolve_naive(A, B)

    for k, iv in enumerate(intervals):
        if iv is None:
            continue
        x, y = iv
        for l in range(x, y + 1):
            kl = k + l
            if kl >= len(C):
                continue
            if A[k] + B[l] < C[kl] - e:
                violations.append(
                    f"condition-1 violation at k={k}, l={l}: "
                    f"{A[k]}+{B[l]} < {C[kl]}-{e}"
                )
    for l in range(len(C)):
        found = False
        for k in range(min(l, len(A) - 1), -1, -1):
            j = l - k
            if j >= len(B):
                break
            iv = intervals[k]
            if iv is None:
                continue
            x, y = iv
            if x <= j <= y and A[k] + B[j] == C[l]:
                found = True
                break
        if not found:
            violations.append(f"condition-2 violation at l={l}: no in-range optimal split")
    prev = None
    for k, iv in enumerate(intervals):
        if iv is None:
            continue
        if prev is not None and (iv[0] < prev[0] or iv[1] < prev[1]):
            violations.append(f"condition-3 violation at k={k}: endpoints not monotone")
        prev = iv
    return violations
