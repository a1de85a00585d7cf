"""Domain types for the weighted-tardy-jobs problem.

An instance is a set of jobs, each with an integer processing time ``p``,
weight ``w``, and due date ``d``.  A schedule is a permutation of the jobs
on a single machine; a job is early if it completes by its due date and
tardy otherwise.  The objective is to minimize the total weight of tardy
jobs, or equivalently to maximize the total weight of early jobs.

The solvers in this package all operate on *solution vectors*: integer
arrays indexed by a processing-time budget ``k`` whose entry ``k`` is the
maximum total weight of a feasible early set with total processing time at
most ``k``.  *Inverse* solution vectors swap the roles of weight and
processing time: entry ``k`` is the minimum total processing time of an
early set with total weight at least ``k``, with ``POS_INF`` marking
unreachable weight targets.  Both are numpy arrays, :data:`Vector`: float64
while entries stay below ``maxplus.EXACT_FLOAT_BOUND`` (2**52), else
``dtype=object`` arrays of Python ints, either with the sentinels.  The
helpers here validate the structural invariants (zero origin, monotonicity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .solvers import SolverPolicy

# Saturating sentinels for infeasible entries: NEG_INF in (max,+) vectors,
# POS_INF in (min,+) vectors.  Float infinities compare exactly against ints,
# so they sit in float64 vectors and in object vectors of Python ints alike.
NEG_INF = float("-inf")
POS_INF = float("inf")

#: A (max,+) solution vector or (min,+) inverse vector: a float64 array of
#: integers below 2**52 or an object array of Python ints, plus sentinels.
Vector = np.ndarray


@dataclass(frozen=True, order=True)
class Job:
    """One job: integer label, processing time, weight, and due date.

    ``p > d`` is allowed; such a job can never be early and its weight is
    unavoidably tardy, but solvers must accept it.
    """

    id: int
    p: int
    w: int
    d: int

    def __post_init__(self) -> None:
        for name in ("p", "w", "d"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"job {self.id}: {name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class Instance:
    """An immutable problem instance with cached summary statistics."""

    jobs: tuple[Job, ...]
    n: int = field(init=False)
    d_max: int = field(init=False)
    d_hash: int = field(init=False)  # number of distinct due dates
    p_max: int = field(init=False)
    w_max: int = field(init=False)
    w_total: int = field(init=False)

    def __post_init__(self) -> None:
        jobs = tuple(self.jobs)
        object.__setattr__(self, "jobs", jobs)
        if not jobs:
            raise ValueError("instance must contain at least one job")
        ids = [j.id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in instance")
        object.__setattr__(self, "n", len(jobs))
        object.__setattr__(self, "d_max", max(j.d for j in jobs))
        object.__setattr__(self, "d_hash", len({j.d for j in jobs}))
        object.__setattr__(self, "p_max", max(j.p for j in jobs))
        object.__setattr__(self, "w_max", max(j.w for j in jobs))
        object.__setattr__(self, "w_total", sum(j.w for j in jobs))


@dataclass(frozen=True)
class DueDateGrouping:
    """Jobs partitioned by due date, groups ordered by increasing due date.

    ``groups[i]`` holds every job whose due date is ``due_dates[i]``, in
    id order (the tie order within a group is not semantically relevant;
    id order is fixed for reproducibility).
    """

    due_dates: tuple[int, ...]
    groups: tuple[tuple[Job, ...], ...]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve: the optimum and, optionally, a witness set.

    ``min_tardy_weight + max_early_weight`` always equals the instance's
    total weight.  ``early_set`` (job ids) is populated only when schedule
    reconstruction was requested.  ``policy`` is the policy that ran, after
    ``AUTO`` and fallbacks were resolved; the oracle leaves it ``None``.
    """

    min_tardy_weight: int
    max_early_weight: int
    early_set: tuple[int, ...] | None = None
    policy: SolverPolicy | None = None


def group_by_due_date(instance: Instance) -> DueDateGrouping:
    """Partition the instance's jobs by due date, groups sorted by due date."""
    buckets: dict[int, list[Job]] = {}
    for job in instance.jobs:
        buckets.setdefault(job.d, []).append(job)
    due_dates = sorted(buckets)
    groups = tuple(tuple(sorted(buckets[d], key=lambda j: j.id)) for d in due_dates)
    return DueDateGrouping(due_dates=tuple(due_dates), groups=groups)


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
