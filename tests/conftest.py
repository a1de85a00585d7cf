"""Shared helpers for the test suite."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from tardyjobs import (
    FractionalSolutionVector,
    Instance,
    Job,
    SolveResult,
    SolverPolicy,
    generate_instance,
)
from tardyjobs.generate import SplitMix64

from checks import brute_force_vector

ALL_POLICIES = [
    SolverPolicy.LAWLER_MOORE,
    SolverPolicy.MAXPLUS_NAIVE,
    SolverPolicy.PREDICTION,
    SolverPolicy.CONCAVE_BY_P,
    SolverPolicy.INVERSE_BY_W,
]


def job_classes(jobs) -> tuple:
    """``Instance(jobs).classes``, the builders' input, or () for no jobs."""
    return Instance(tuple(jobs)).classes if jobs else ()


class JobGrouping(NamedTuple):
    due_dates: tuple[int, ...]
    groups: tuple[tuple[Job, ...], ...]


def group_jobs_by_due_date(instance: Instance) -> JobGrouping:
    """The instance's jobs by due date, groups by increasing due date and
    each in id order: the jobs whose class tables are the slices that
    ``group_by_due_date(instance)`` pairs with their due dates."""
    buckets: dict[int, list[Job]] = {}
    for job in sorted(instance.jobs, key=lambda j: j.id):
        buckets.setdefault(job.d, []).append(job)
    due_dates = tuple(sorted(buckets))
    return JobGrouping(due_dates, tuple(tuple(buckets[d]) for d in due_dates))


def random_small_instance(rng: SplitMix64, seed: int, *, n_max=12, d_max_max=30, p_max=10, w_max=10):
    """One seeded instance with parameters drawn from the given rng."""
    n = 1 + rng.next_u64() % n_max
    d_max = 1 + rng.next_u64() % d_max_max
    d_hash = 1 + rng.next_u64() % min(n, d_max)
    return generate_instance(seed=seed, n=n, d_hash=d_hash, d_max=d_max, p_max=p_max, w_max=w_max)


@pytest.fixture
def forced_structured_engines(monkeypatch):
    """Push the structured convolution engines onto their real code paths
    even for tiny inputs (normally they defer to naive below a size cutoff)."""
    import tardyjobs.maxplus as mp

    monkeypatch.setattr(mp, "SMALL_PRODUCT_CUTOFF", 0)


def prefix_vector_semantics_check(instance: Instance, i: int, acc: list) -> bool:
    """True iff acc matches the brute-force optima of the first i groups.

    Checks that the merge accumulator after iteration i equals, entry for
    entry, the exhaustive optimum over the union of the first i due-date
    groups at each budget.
    """
    prefix = [job for g in group_jobs_by_due_date(instance).groups[:i] for job in g]
    return list(acc) == brute_force_vector(prefix, len(acc) - 1)


def delta(a_frac, b_frac, c_frac, k: int, l: int) -> Fraction:
    """Exact fractional gap ``C'[k+l] - (A'[k] + B'[l])`` of one split."""
    if not (0 <= k < len(a_frac)) or not (0 <= l < len(b_frac)) or k + l >= len(c_frac):
        raise ValueError(f"split (k={k}, l={l}) out of range")
    return c_frac.value(k + l) - a_frac.value(k) - b_frac.value(l)


def entry_runs(scaled) -> tuple[tuple[int, int], ...]:
    """One run of one unit per budget, the consecutive differences of
    ``scaled``: runs whose prefix sums are its entries."""
    return tuple((b - a, 1) for a, b in zip(scaled, scaled[1:]))


def fractional_by_units(instance: Instance) -> tuple[FractionalSolutionVector, dict[int, int]]:
    """Reference fractional solution vector: the WSPT greedy, one unit at a time.

    Jobs are sorted by exact ``Fraction`` ratios.  Each budget step admits one
    unit of the current job while it has processing time left and no due date
    at or after its own is full; otherwise the scan moves on to the next job
    and retries the same budget.  Once jobs run out the entries repeat.
    Returns the vector and, per job id, the units taken from that job
    (``units[j] / p_j`` is the implicit fractional assignment ``x_j``).
    """
    dates = sorted({j.d for j in instance.jobs})
    date_index = {d: i for i, d in enumerate(dates)}
    m = len(dates)
    load = [0] * m  # units placed against due date i or earlier
    jobs = sorted(instance.jobs, key=lambda j: (Fraction(-j.w, j.p), j.id))
    scale = math.lcm(*(j.p for j in jobs))
    scaled = [0] * (instance.d_max + 1)
    units = {j.id: 0 for j in jobs}

    def suffix_slack(i: int) -> int:
        return min(dates[t] - load[t] for t in range(i, m))

    j, taken = 0, 0
    slack = suffix_slack(date_index[jobs[0].d])
    for k in range(1, instance.d_max + 1):
        while j < len(jobs) and (jobs[j].p - taken <= 0 or slack <= 0):
            j += 1
            if j < len(jobs):
                taken = 0
                slack = suffix_slack(date_index[jobs[j].d])
        if j >= len(jobs):
            scaled[k:] = [scaled[k - 1]] * (instance.d_max + 1 - k)
            break
        cur = jobs[j]
        scaled[k] = scaled[k - 1] + cur.w * (scale // cur.p)
        taken += 1
        slack -= 1
        for t in range(date_index[cur.d], m):
            load[t] += 1
        units[cur.id] += 1
    return FractionalSolutionVector(scaled=tuple(scaled), scale=scale, runs=entry_runs(scaled)), units


def inverse_to_direct(inv: list, horizon: int) -> list:
    """Convert an inverse vector back to budget indexing.

    entry[k] = largest weight target whose minimum processing time is <= k.
    Round-trips with the direct builders on the same job group.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    out = [0] * (horizon + 1)
    w = 0
    for k in range(horizon + 1):
        while w + 1 < len(inv) and inv[w + 1] <= k:
            w += 1
        out[k] = w
    return out


@functools.cache
def _perm_matrix(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def brute_force_permutations(instance: Instance, cap: int = 8) -> SolveResult:
    """Exact optimum over every processing order of all n jobs.

    Vectorized over the n! permutations: a job is early in an order iff its
    running completion time is within its due date.  Exponentially more
    work than :func:`brute_force`; only for validating that due-date-ordered
    enumeration is lossless.
    """
    if instance.n > cap:
        raise ValueError(f"instance too large for brute force: n={instance.n} > cap={cap}")
    jobs = list(instance.jobs)
    perms = _perm_matrix(len(jobs))
    p = np.array([j.p for j in jobs], dtype=np.int64)
    w = np.array([j.w for j in jobs], dtype=np.int64)
    d = np.array([j.d for j in jobs], dtype=np.int64)
    early = np.cumsum(p[perms], axis=1) <= d[perms]
    best = int((w[perms] * early).sum(axis=1).max())
    return SolveResult(min_tardy_weight=instance.w_total - best, max_early_weight=best)
