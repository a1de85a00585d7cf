"""Solution-vector builders for single-due-date job groups.

All jobs passed to these builders share one due date; the group is then an
ordinary knapsack over processing times, and its solution vector can be
built three ways:

* plain pseudo-polynomial DP over the horizon, run over bundles of equal
  jobs (:func:`bundled_knapsack`, shared with the Lawler-Moore solver),
* grouping jobs by equal processing time ``p``: the vector of one such
  class is ``p``-step concave (top weights first, so increments shrink),
  and folding classes with the step-concave engine is near-linear, or
* the weight-indexed mirror: group by equal weight ``w`` and fold per-class
  *inverse* vectors (minimum processing time per weight target) with the
  (min,+) step engine.  Solvers keep only the weight targets a due date
  lets them reach and read the optimum off the trimmed inverse vector as
  its last index, so it is never mapped back.

The two direct builders agree entry for entry, and the inverse vector
encodes the same optima; the cross-checks live in the test suite.  Every
builder returns a :data:`~tardyjobs.core.Vector` of the dtype
``maxplus.vector_dtype`` picks from the sums it can hold (the group's
total weight or processing time).
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Iterable

import numpy as np

from .core import Job, JobClass, Vector
from .maxplus import _operands, bundle_sizes, convolve_sstep_concave, minplus_convolve, vector_dtype

__all__ = [
    "build_solution_vector_dp",
    "build_solution_vector_concave",
    "build_inverse_solution_vector",
    "step_concave_class_vector",
    "step_convex_class_vector",
]


def _prefix_sums(values: list[int]) -> Vector:
    """0 and the running sums of ``values``."""
    return np.cumsum([0, *values], dtype=vector_dtype(sum(values)))


def bundled_knapsack(classes: Iterable[JobClass], horizon: int, dtype, taken: list | None = None) -> Vector:
    """The Lawler-Moore table over job classes, one row update per bundle.

    Entry k = best weight of a set of jobs that, run back to back in
    due-date order and finishing at time k, are all early; the classes must
    come in due-date order.  The table spans budgets 0..``horizon`` and a
    due date past it counts as the horizon, so a horizon of at least the
    jobs' total processing time loses nothing.  The table starts at zero,
    so its maximum is the optimum.

    A class of c copies enters as the bundles of
    :func:`~tardyjobs.maxplus.bundle_sizes`: a bundle of t copies is one
    item of time t*p and weight t*w, and only states up to its due date
    can gain it.  A class of one job is one update.  With ``taken`` given,
    each bundle that fits appends ``(class key, t, mask)``: mask[k - t*p]
    is set where the bundle strictly improved state k.
    """
    f = np.zeros(horizon + 1, dtype=dtype)
    for key, c in classes:
        d, p, w = key
        d = d if d < horizon else horizon
        for t in (1,) if c == 1 else bundle_sizes(c):
            tp = t * p
            if tp <= d:  # otherwise the bundle can never be early
                gain = f[: d + 1 - tp] + t * w
                dst = f[tp : d + 1]
                if taken is not None:
                    taken.append((key, t, gain > dst))
                np.maximum(dst, gain, out=dst)
    return f


def build_solution_vector_dp(jobs: list[Job], horizon: int) -> Vector:
    """Knapsack DP: entry k = max weight of a subset with total p <= k.

    The Lawler-Moore table of the jobs with every due date set to the
    horizon, run over bundles of jobs with equal (p, w).
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    classes = Counter(map(attrgetter("p", "w"), jobs)).items()
    return bundled_knapsack(
        (((horizon, p, w), c) for (p, w), c in classes),
        horizon,
        vector_dtype(sum(job.w for job in jobs)),
    )


def step_concave_class_vector(weights: list[int], p: int, horizon: int) -> Vector:
    """Vector of a class of jobs that all have processing time p.

    Taking t jobs costs t*p time and the best choice is the t largest
    weights, so the vector steps up by sorted-descending weights at each
    multiple of p and is flat in between: a p-step concave vector.  It
    spans budgets 0..``horizon``; past ``len(weights) * p``, the class's
    reach, it only repeats its last entry.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    sums = _prefix_sums(sorted(weights, reverse=True)[: horizon // p])
    return sums[np.minimum(np.arange(horizon + 1) // p, len(sums) - 1)]


def build_solution_vector_concave(jobs: list[Job], horizon: int, acc: Vector | None = None) -> Vector:
    """Same output as the DP builder, via per-processing-time concave folds.

    With ``acc`` given, the classes are folded into it instead: ``acc`` is a
    monotone solution vector of other jobs (a merged prefix) spanning at most
    ``horizon + 1`` budgets, and the result is its (max,+)-convolution with
    this group's vector.  A prefix that stops short, at its own horizon
    min(d, P) of its latest due date d and total processing time P, holds
    its last entry at every later budget, so it is padded with that entry up
    to ``horizon``.
    Without it the fold starts from the first class vector, so a group of
    c classes costs c - 1 kernel calls.

    The accumulator, ``acc`` or the first class vector, spans the whole
    horizon, and every other class vector stops at its reach
    min(horizon, c*p) for c jobs of time p.  The kernel cuts its output at
    the longer operand, so the output keeps the horizon, and a class vector
    that short has about c steps: the step kernel takes one pass per
    bundle of a run of equal weights, at most ``_FEW_STEPS`` passes.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    classes: dict[int, list[int]] = {}
    for job in jobs:
        if job.p <= horizon:  # longer jobs can never fit
            classes.setdefault(job.p, []).append(job.w)
    order = sorted(classes)
    if acc is None:
        if not order:
            return np.zeros(horizon + 1)
        first = order.pop(0)
        acc = step_concave_class_vector(classes[first], first, horizon)
    else:
        (acc,) = _operands(acc)
        acc = acc[np.minimum(np.arange(horizon + 1), len(acc) - 1)]
    for p in order:
        reach = min(horizon, len(classes[p]) * p)
        acc = convolve_sstep_concave(acc, step_concave_class_vector(classes[p], p, reach), p)
    return acc


def step_convex_class_vector(processing_times: list[int], w: int) -> Vector:
    """Inverse vector of a class of jobs that all have weight w.

    Entry k = minimum total processing time reaching weight >= k; meeting
    a target of k needs ceil(k/w) jobs, cheapest first, so the vector jumps
    right after each multiple of w and its stride-w subsample is convex.
    Horizon is the class's total weight.
    """
    sums = _prefix_sums(sorted(processing_times))
    return sums[(np.arange(len(processing_times) * w + 1) + w - 1) // w]


def build_inverse_solution_vector(jobs: list[Job], acc: Vector = (0,)) -> Vector:
    """Inverse vector of a group: entry k = min total p with weight >= k.

    Built by folding the per-weight class vectors with the (min,+) step
    engine into ``acc``.  By default ``acc`` is ``[0]`` and the horizon is
    the group's total weight; given the inverse vector of other jobs (a
    merged prefix), the result is its (min,+)-convolution with this group's
    vector and spans their summed weights.  No due date applies here;
    solvers trim the weight targets it puts out of reach afterwards.
    """
    classes: dict[int, list[int]] = {}
    for job in jobs:
        classes.setdefault(job.w, []).append(job.p)
    (acc,) = _operands(acc)
    for w in sorted(classes):
        acc = minplus_convolve(acc, step_convex_class_vector(classes[w], w), w)
    return acc
