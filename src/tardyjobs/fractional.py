"""Fractional relaxation of the weighted-tardy-jobs problem.

In the relaxation each job may be scheduled to an arbitrary fraction
``0 <= x_j <= 1``, subject to the per-due-date load constraints
``sum_{d_k <= d_j} p_k * x_k <= d_j`` for every job ``j``.  The *fractional
solution vector* maps each processing-time budget ``k`` to the maximum
fractional early weight achievable within budget ``k``.  It dominates the
integral solution vector entry-wise, and the gap is at most
``d_hash * w_max`` because at most one job per due date ends up fractional
(see :func:`fractional_gap_check`).  The prediction module uses these
vectors as a cheap predictor of where near-optimal convolution splits lie.
The greedy runs over a slice of an instance's (d, p, w) class table, one
take per class, so a vector costs O(classes * d_hash + horizon); a solver
passes a due-date prefix of ``Instance.classes`` or one due date's slice.

Entries are exact rationals stored as integers scaled by the lcm of the
processing times; floating point never enters any comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .core import JobClass

__all__ = [
    "FractionalSolutionVector",
    "fractional_solution_vector",
    "fractional_gap_check",
]


@dataclass(frozen=True)
class FractionalSolutionVector:
    """Fractional early-weight optima per processing-time budget.

    ``scaled[k] / scale`` is the exact value at budget k; ``scale`` is the
    lcm of the classes' processing times so every entry is integral after
    scaling.
    """

    scaled: tuple[int, ...]
    scale: int

    def __len__(self) -> int:
        return len(self.scaled)

    def value(self, k: int) -> Fraction:
        return Fraction(self.scaled[k], self.scale)

    def values(self) -> list[Fraction]:
        return [Fraction(v, self.scale) for v in self.scaled]


def fractional_solution_vector(classes: tuple[JobClass, ...], horizon: int | None = None) -> FractionalSolutionVector:
    """Greedy fractional solution vector of the jobs of a class-table slice
    over budgets 0..``horizon``, by default 0..its largest due date.

    The (d, p, w) classes are taken in WSPT order, by their exact scaled
    rates ``w * (scale // p)``, each as many unit slices as fit at once:
    with ``room[t]`` the due date t minus the units already placed against
    due dates <= t, a class of c jobs takes ``min(p * c, min(room[i:]))``
    units, i its due date's index, which is what c takes of one job each
    would add up to; the take is subtracted from ``room[i:]``.  Each unit adds the class's rate, so the vector is
    the prefix sums of the rates in take order, flat once jobs run out.  At
    most min(d_max, P) units are taken, P the total processing time, so a
    horizon at or past that only adds flat entries, and a shorter one cuts
    the vector.  A solver passes its merge's horizon, so that no vector
    outgrows the integral ones.  O(classes * d_hash + horizon).
    Raises ``ValueError`` for a negative horizon, and for an empty slice
    without one.
    """
    if horizon is None:
        if not classes:
            raise ValueError("an empty class slice needs a horizon")
        horizon = classes[-1][0][0]
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    room = list(dict.fromkeys(d for (d, _, _), _ in classes))  # the due dates, ascending
    date_index = {d: i for i, d in enumerate(room)}
    scale = math.lcm(*{p for (_, p, _), _ in classes})
    # The constraints are nested due-date prefixes, a polymatroid: after each
    # block of equal rate the greedy has taken the same total units in any
    # order inside the block, and every unit of a block adds the same rate,
    # so the order of ties does not change the vector.
    by_rate = sorted(
        ((w * (scale // p), d, p * c) for (d, p, w), c in classes), key=itemgetter(0), reverse=True
    )
    rates: list[int] = []  # the scaled rate, once per unit taken
    for rate, d, units in by_rate:
        i = date_index[d]
        take = min(units, *room[i:])
        for t in range(i, len(room)):
            room[t] -= take
        rates += [rate] * take
        if len(rates) >= horizon:
            break
    scaled = list(accumulate(rates, initial=0))
    del scaled[horizon + 1 :]
    scaled += [scaled[-1]] * (horizon + 1 - len(scaled))
    return FractionalSolutionVector(scaled=tuple(scaled), scale=scale)


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
