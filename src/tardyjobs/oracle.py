"""Exhaustive ground truth for small instances.

Used by the test suite to certify every solver and builder, and by the
CLI's verify mode.  ``brute_force`` enumerates early sets in due-date order
with feasibility pruning.
"""

from __future__ import annotations

from .core import Instance, Job, SolveResult

__all__ = [
    "edd_feasible",
    "brute_force",
]

DEFAULT_CAP = 20


def edd_feasible(early: list[Job]) -> bool:
    """True iff the set can all run early when ordered by due date.

    Sorts by (due date, id) and checks every prefix sum of processing
    times against the corresponding due date.  The empty set is feasible.
    """
    t = 0
    for job in sorted(early, key=lambda j: (j.d, j.id)):
        t += job.p
        if t > job.d:
            return False
    return True


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"instance too large for brute force: n={n} > cap={cap}")


def brute_force(instance: Instance, cap: int = DEFAULT_CAP) -> SolveResult:
    """Exact optimum by enumerating early sets in due-date order.

    Jobs are considered in (due date, id) order, so the running total of
    selected processing times is exactly each selected job's completion
    time; branches that would make a job tardy are pruned.
    """
    _check_cap(instance.n, cap)
    jobs = sorted(instance.jobs, key=lambda j: (j.d, j.id))
    n = len(jobs)
    best_w = 0
    best_ids: tuple[int, ...] = ()

    # iterative DFS over (index, time_used, weight, chosen ids)
    stack = [(0, 0, 0, ())]
    while stack:
        idx, t, w, ids = stack.pop()
        if w > best_w:
            best_w = w
            best_ids = ids
        if idx == n:
            continue
        job = jobs[idx]
        stack.append((idx + 1, t, w, ids))  # job tardy
        if t + job.p <= job.d:  # job early, completes at t + p
            stack.append((idx + 1, t + job.p, w + job.w, ids + (job.id,)))
    return SolveResult(
        min_tardy_weight=instance.w_total - best_w,
        max_early_weight=best_w,
        early_set=tuple(sorted(best_ids)),
    )
