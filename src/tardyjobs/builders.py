"""Solution-vector builders for single-due-date job groups.

All jobs passed to these builders share one due date; the group is then an
ordinary knapsack over processing times, and its solution vector can be
built three ways:

* plain pseudo-polynomial DP over the horizon,
* grouping jobs by equal processing time ``p``: the vector of one such
  class is ``p``-step concave (top weights first, so increments shrink),
  and folding classes with the step-concave engine is near-linear, or
* the weight-indexed mirror: group by equal weight ``w`` and fold per-class
  *inverse* vectors (minimum processing time per weight target) with the
  (min,+) step engine.  Solvers read the optimum off the capped inverse
  vector as its largest finite index, so it is never mapped back.

The two direct builders agree entry for entry, and the inverse vector
encodes the same optima; the cross-checks live in the test suite.  Every
builder returns a :data:`~tardyjobs.core.Vector`: float64 while the sums
it holds stay below ``EXACT_FLOAT_BOUND``, else exact Python ints.
"""

from __future__ import annotations

import numpy as np

from .core import Job, Vector
from .maxplus import EXACT_FLOAT_BOUND, _operands, convolve_sstep_concave, minplus_convolve

__all__ = [
    "build_solution_vector_dp",
    "build_solution_vector_concave",
    "build_inverse_solution_vector",
    "step_concave_class_vector",
    "step_convex_class_vector",
]


def _prefix_sums(values: list[int]) -> Vector:
    """0 and the running sums of ``values``."""
    return np.cumsum([0, *values], dtype=np.float64 if sum(values) < EXACT_FLOAT_BOUND else object)


def build_solution_vector_dp(jobs: list[Job], horizon: int) -> Vector:
    """Knapsack DP: entry k = max weight of a subset with total p <= k."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    total = sum(job.w for job in jobs)
    f = np.zeros(horizon + 1, dtype=np.float64 if total < EXACT_FLOAT_BOUND else object)
    for job in jobs:
        if job.p <= horizon:
            np.maximum(f[job.p :], f[: horizon + 1 - job.p] + job.w, out=f[job.p :])
    return f


def step_concave_class_vector(weights: list[int], p: int, horizon: int) -> Vector:
    """Vector of a class of jobs that all have processing time p.

    Taking t jobs costs t*p time and the best choice is the t largest
    weights, so the vector steps up by sorted-descending weights at each
    multiple of p and is flat in between: a p-step concave vector.
    """
    sums = _prefix_sums(sorted(weights, reverse=True)[: horizon // p])
    return sums[np.minimum(np.arange(horizon + 1) // p, len(sums) - 1)]


def build_solution_vector_concave(jobs: list[Job], horizon: int, acc: Vector | None = None) -> Vector:
    """Same output as the DP builder, via per-processing-time concave folds.

    With ``acc`` given, the classes are folded into it instead: ``acc`` is a
    monotone solution vector of other jobs (a merged prefix) spanning at most
    ``horizon + 1`` budgets, padded with its last entry up to ``horizon``,
    and the result is its (max,+)-convolution with this group's vector.
    Without it the fold starts from the first class vector, so a group of
    c classes costs c - 1 kernel calls.
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
        acc = convolve_sstep_concave(acc, step_concave_class_vector(classes[p], p, horizon), p)
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
    merged prefix, possibly capped with ``POS_INF``), the result is its
    (min,+)-convolution with this group's vector and spans their summed
    weights.  The due-date cap is not applied here; solvers cap afterwards
    (entries above the cap become POS_INF).
    """
    classes: dict[int, list[int]] = {}
    for job in jobs:
        classes.setdefault(job.w, []).append(job.p)
    (acc,) = _operands(acc)
    for w in sorted(classes):
        acc = minplus_convolve(acc, step_convex_class_vector(classes[w], w), w)
    return acc
