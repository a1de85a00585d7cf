"""Fractional relaxation of the weighted-tardy-jobs problem.

In the relaxation each job may be scheduled to an arbitrary fraction
``0 <= x_j <= 1``, subject to the per-due-date load constraints
``sum_{d_k <= d_j} p_k * x_k <= d_j`` for every job ``j``.  The *fractional
solution vector* maps each processing-time budget ``k`` to the maximum
fractional early weight achievable within budget ``k``.  It dominates the
integral solution vector entry-wise, and the gap is at most
``d_hash * w_max`` because at most one job per due date ends up fractional.
The prediction module uses these vectors as a cheap predictor of where
near-optimal convolution splits lie.

The greedy takes units by non-increasing rate w/p, so a vector is concave,
the prefix sums of runs ``(rate, units)``, one per (d, p, w) class at most.
:func:`fractional_union` merges two vectors' runs by rate, their
(max,+)-convolution (Axiotis & Tzamos), in O(runs + horizon), and
:func:`fractional_solution_vector` folds it over a slice's due dates.

Entries are exact rationals stored as integers scaled by the lcm of the
processing times; floating point never enters any comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, groupby, repeat

from .core import JobClass

__all__ = [
    "FractionalSolutionVector",
    "fractional_solution_vector",
    "fractional_union",
]


@dataclass(frozen=True)
class FractionalSolutionVector:
    """Fractional early-weight optima per processing-time budget.

    ``scaled[k] / scale`` is the exact value at budget k; ``scale`` is the
    lcm of the classes' processing times so every entry is integral after
    scaling.  ``runs`` are the (rate, units) slopes, by non-increasing rate
    and scaled alike, whose prefix sums ``scaled`` holds, flat past the
    last.  Every vector carries them, so any two can be unioned; the empty
    prefix, ``fractional_solution_vector((), 0)``, is the entries ``(0,)``
    at scale 1 over an empty tuple of runs.
    """

    scaled: tuple[int, ...]
    scale: int
    runs: tuple[tuple[int, int], ...] = field(compare=False)

    def __len__(self) -> int:
        return len(self.scaled)

    def value(self, k: int) -> Fraction:
        return Fraction(self.scaled[k], self.scale)

    def values(self) -> list[Fraction]:
        return [Fraction(v, self.scale) for v in self.scaled]


def _cut(runs: list[tuple[int, int]], units: int) -> list[tuple[int, int]]:
    """The first ``units`` units of ``runs`` taken by non-increasing rate."""
    if units <= 0:
        return []
    runs = sorted(runs, reverse=True)
    ends = list(accumulate(length for _, length in runs))
    i = bisect_left(ends, units)  # the run holding the last unit taken
    if i < len(runs):
        rate, length = runs[i]
        runs[i] = (rate, units - ends[i] + length)
    return runs[: i + 1]


def _vector(runs: list[tuple[int, int]], scale: int, horizon: int) -> FractionalSolutionVector:
    """The vector over budgets 0..``horizon`` of ``runs`` cut at ``horizon`` units."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    runs = tuple(_cut(runs, horizon))
    scaled = list(accumulate(chain.from_iterable(repeat(rate, units) for rate, units in runs), initial=0))
    scaled += [scaled[-1]] * (horizon + 1 - len(scaled))
    return FractionalSolutionVector(tuple(scaled), scale, runs)


def fractional_union(a: FractionalSolutionVector, b: FractionalSolutionVector, horizon: int) -> FractionalSolutionVector:
    """The (max,+)-convolution of two fractional vectors over budgets
    0..``horizon``: their runs, rescaled to lcm(a.scale, b.scale), merged by
    rate and cut at ``horizon`` units.  When b's due dates are at or past
    a's, d the latest, and ``horizon`` <= min(d, P), P the total processing
    time of both, it is the fractional vector of their union: its early sets
    split into early sets of both sides, and any two of those with k + l <=
    ``horizon`` units are early together; with the empty prefix for a, it
    is b cut at ``horizon``.  Raises ``ValueError`` for a negative horizon.
    """
    scale = math.lcm(a.scale, b.scale)
    return _vector([(rate * (scale // v.scale), units) for v in (a, b) for rate, units in v.runs], scale, horizon)


def fractional_solution_vector(classes: tuple[JobClass, ...], horizon: int | None = None) -> FractionalSolutionVector:
    """Greedy fractional solution vector of the jobs of a class-table slice
    over budgets 0..``horizon``, by default 0..its largest due date.

    The fold of :func:`fractional_union` over the slice's due dates: each
    date adds a run per class, p * c units of rate ``w * (scale // p)``,
    and cuts the runs so far at the date.  A horizon at or past min(d_max,
    P), P the total processing time, only adds flat entries, and a shorter
    one cuts the vector; a solver passes its merge's horizon, so that no
    vector outgrows the integral ones.  O(classes * d_hash + horizon).
    Raises ``ValueError`` for a negative horizon, and for an empty slice
    without one.
    """
    if horizon is None:
        if not classes:
            raise ValueError("an empty class slice needs a horizon")
        horizon = classes[-1][0][0]
    scale = math.lcm(*{p for (_, p, _), _ in classes})
    runs: list[tuple[int, int]] = []
    for d, group in groupby(classes, key=lambda cls: cls[0][0]):
        runs = _cut(runs + [(w * (scale // p), p * c) for (_, p, w), c in group], d)
    return _vector(runs, scale, horizon)
