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
early set with total weight at least ``k``; a solver keeps only the
weight targets it can still reach.  Both are numpy arrays of finite
integers, :data:`Vector`, of the dtype ``maxplus.vector_dtype`` picks:
float64 while entries stay below 2**52, else ``dtype=object`` arrays of
Python ints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .solvers import SolverPolicy

#: A (max,+) solution vector or (min,+) inverse vector: a float64 array of
#: finite integers or an object array of Python ints, as
#: ``maxplus.vector_dtype`` picks from the entries' bound.
Vector = np.ndarray


#: A class of interchangeable jobs, ``((d, p, w), c)``: c jobs with due date
#: d, processing time p and weight w.  ``Instance.classes`` holds them once
#: per instance, and every DP, builder and merge chain reads them from there;
#: a builder takes one due date's slice of that table, as
#: :func:`group_by_due_date` cuts it.
JobClass = tuple[tuple[int, int, int], int]


@dataclass(frozen=True, order=True, slots=True)
class Job:
    """One job: integer label, processing time, weight, and due date.

    ``p > d`` is allowed; such a job can never be early and its weight is
    unavoidably tardy, but solvers must accept it.  Slotted, with no
    per-job ``__dict__``, since an instance may hold many thousands.
    """

    id: int
    p: int
    w: int
    d: int

    def __post_init__(self) -> None:
        p, w, d = self.p, self.w, self.d
        if type(self.id) is type(p) is type(w) is type(d) is int and p >= 1 and w >= 1 and d >= 1:
            return  # plain ints, the common case; anything else takes the checks below
        if not isinstance(self.id, int) or isinstance(self.id, bool):
            raise ValueError(f"job id must be an integer, got {self.id!r}")
        for name in ("p", "w", "d"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"job {self.id}: {name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class Instance:
    """An immutable problem instance with cached summary statistics.

    ``classes`` is the jobs' (d, p, w) class table, built on first use and
    cached on the instance, and so is ``horizon``.
    """

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

    @cached_property
    def classes(self) -> tuple[JobClass, ...]:
        """The jobs' (d, p, w) classes with their sizes, in due-date order.

        Jobs of one class are interchangeable, so the dynamic programs run
        over classes instead of jobs.  Within one due date the classes are in
        (p, w) order.  A tuple, so that no caller can change what every
        later solve of the instance reads.
        """
        return tuple(sorted(Counter(map(attrgetter("d", "p", "w"), self.jobs)).items(), key=itemgetter(0)))

    @cached_property
    def horizon(self) -> int:
        """min(d_max, total processing time): no set of jobs finishes later,
        so no budget past it changes an answer."""
        return min(self.d_max, sum(p * c for (_, p, _), c in self.classes))


@dataclass(frozen=True)
class DueDateGrouping:
    """The class table partitioned by due date, groups by increasing due date.

    ``groups[i]`` is the exact-size slice of ``Instance.classes`` whose
    classes have due date ``due_dates[i]``, in the table's (p, w) order.
    """

    due_dates: tuple[int, ...]
    groups: tuple[tuple[JobClass, ...], ...]


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
    """The due-date slices of ``instance.classes``, in order: the package's
    one due-date partition, which every merge chain reads its groups from."""
    classes = instance.classes
    starts = [i for i, ((d, _, _), _) in enumerate(classes) if i == 0 or d != classes[i - 1][0][0]]
    bounds = zip(starts, starts[1:] + [len(classes)])
    return DueDateGrouping(tuple(classes[i][0][0] for i in starts), tuple(classes[i:j] for i, j in bounds))
