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
from operator import attrgetter, itemgetter, mul
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
    """An immutable problem instance: its jobs, their class table, and
    summary statistics read from that table.

    ``classes`` holds the jobs' (d, p, w) classes with their sizes, in
    due-date order and within one due date in (p, w) order.  Jobs of one
    class are interchangeable, so the dynamic programs run over classes
    instead of jobs.  A tuple, so that no caller can change what every later
    solve of the instance reads.  ``horizon`` is min(d_max, total processing
    time): no set of jobs finishes later, so no budget past it changes an
    answer.  Both are built once, with the instance, and stay out of
    equality and hashing, which the jobs already decide.
    """

    jobs: tuple[Job, ...]
    n: int = field(init=False)
    d_max: int = field(init=False)
    d_hash: int = field(init=False)  # number of distinct due dates
    p_max: int = field(init=False)
    w_max: int = field(init=False)
    w_total: int = field(init=False)
    classes: tuple[JobClass, ...] = field(init=False, compare=False, repr=False)
    horizon: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        jobs = tuple(self.jobs)
        if not jobs:
            raise ValueError("instance must contain at least one job")
        if len(set(map(attrgetter("id"), jobs))) != len(jobs):
            raise ValueError("duplicate job ids in instance")
        classes = tuple(sorted(Counter(map(attrgetter("d", "p", "w"), jobs)).items(), key=itemgetter(0)))
        keys, counts = zip(*classes)
        ds, ps, ws = zip(*keys)
        values = {
            "jobs": jobs,
            "n": len(jobs),
            "d_max": ds[-1],
            "d_hash": len(set(ds)),
            "p_max": max(ps),
            "w_max": max(ws),
            "w_total": sum(map(mul, ws, counts)),
            "classes": classes,
            "horizon": min(ds[-1], sum(map(mul, ps, counts))),
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)


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


def group_by_due_date(instance: Instance) -> tuple[tuple[int, tuple[JobClass, ...]], ...]:
    """The due-date slices of ``instance.classes`` as ``(d, slice)`` pairs,
    by increasing due date, each slice in the table's (p, w) order: the
    package's one due-date partition, which every merge chain reads its
    groups from."""
    classes = instance.classes
    starts = [i for i, ((d, _, _), _) in enumerate(classes) if i == 0 or d != classes[i - 1][0][0]]
    return tuple((classes[i][0][0], classes[i:j]) for i, j in zip(starts, starts[1:] + [len(classes)]))
