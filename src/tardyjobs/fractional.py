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

Entries are exact rationals stored as integers scaled by the lcm of the
processing times; floating point never enters any comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import Instance, Job

__all__ = [
    "FractionalSolutionVector",
    "wspt_sort",
    "fractional_solution_vector",
    "fractional_gap_check",
]


@dataclass(frozen=True)
class FractionalSolutionVector:
    """Fractional early-weight optima per processing-time budget.

    ``scaled[k] / scale`` is the exact value at budget k; ``scale`` is the
    lcm of the instance's processing times so every entry is integral after
    scaling.  ``units`` maps job id to the number of unit slices the greedy
    schedule took from that job (``units[j] / p_j`` is the implicit
    fractional assignment ``x_j``); :func:`fractional_solution_vector`
    always sets it.
    """

    scaled: tuple[int, ...]
    scale: int
    units: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.scaled)

    def value(self, k: int) -> Fraction:
        return Fraction(self.scaled[k], self.scale)

    def values(self) -> list[Fraction]:
        return [Fraction(v, self.scale) for v in self.scaled]


def wspt_sort(jobs: list[Job]) -> list[Job]:
    """Sort jobs by non-increasing weight-to-processing-time ratio.

    Ratios are compared exactly as the integers ``w * (L // p)``, where L is
    the lcm of the processing times; ties keep id order.
    """
    lcm = math.lcm(*(j.p for j in jobs))
    return sorted(jobs, key=lambda j: (-j.w * (lcm // j.p), j.id))


def fractional_solution_vector(instance: Instance, horizon: int | None = None) -> FractionalSolutionVector:
    """Greedy fractional solution vector over budgets 0..``horizon``, by
    default 0..d_max.

    Jobs are taken in WSPT order, each as many unit slices as fit at once:
    with ``room[t]`` the due date t minus the units already placed against
    due dates <= t, job j takes ``min(p_j, min(room[i:]))`` units, where i
    indexes its own due date, and the take is subtracted from ``room[i:]``.
    Each unit adds the job's rate ``w_j / p_j``, so the vector is the prefix
    sums of the rates in take order, flat once jobs run out.  At most
    min(d_max, P) units are taken, P the total processing time, so a
    horizon at or past that only adds flat entries, and a shorter one cuts
    the vector.  A solver passes its merge's horizon, so that no vector
    outgrows the integral ones.
    """
    if horizon is None:
        horizon = instance.d_max
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    dates = sorted({j.d for j in instance.jobs})
    date_index = {d: i for i, d in enumerate(dates)}
    room = list(dates)
    scale = math.lcm(*(j.p for j in instance.jobs))
    rates: list[int] = []  # w_j/p_j scaled, once per unit taken
    units: dict[int, int] = {}
    for job in wspt_sort(list(instance.jobs)):
        i = date_index[job.d]
        take = min(job.p, *room[i:])
        for t in range(i, len(room)):
            room[t] -= take
        rates += [job.w * (scale // job.p)] * take
        units[job.id] = take
    scaled = list(accumulate(rates, initial=0))
    del scaled[horizon + 1 :]
    scaled += [scaled[-1]] * (horizon + 1 - len(scaled))
    return FractionalSolutionVector(scaled=tuple(scaled), scale=scale, units=units)


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
