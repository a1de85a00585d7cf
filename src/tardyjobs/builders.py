"""Solution-vector builders over job classes.

Every builder takes a tuple of :data:`~tardyjobs.core.JobClass` entries
``((d, p, w), c)``, c interchangeable jobs each, as ``Instance.classes``
holds them; the solvers pass one due date's slice of that table, a group
that is an ordinary knapsack over processing times.  Its solution vector
can be built three ways:

* plain pseudo-polynomial DP over the horizon, one row update per bundle of
  equal jobs (:func:`build_solution_vector_dp`, which over the whole table
  is the Lawler-Moore DP and its witness records),
* per processing time ``p``: the vector of the jobs of one ``p`` is
  ``p``-step concave (top weights first, so increments shrink), and folding
  these class vectors with the step-concave engine into an accumulator, by
  default the empty prefix ``[0]``, is near-linear, one kernel call per
  class, or
* the weight-indexed mirror: per weight ``w``, fold the *inverse* class
  vectors (minimum processing time per weight target) with the (min,+)
  step engine.  Solvers keep only the weight targets a due date lets them
  reach and read the optimum off the trimmed inverse vector as its last
  index, so it is never mapped back.

The two direct builders agree entry for entry, and the inverse vector
encodes the same optima; the cross-checks live in the test suite.  Every
builder returns a :data:`~tardyjobs.core.Vector` of the dtype
``maxplus.vector_dtype`` picks from the sums it can hold (the classes' total
weight or processing time).
"""

from __future__ import annotations

import numpy as np

from .core import JobClass, Vector
from .maxplus import _operands, bundle_sizes, convolve_sstep_concave, minplus_convolve, vector_dtype

__all__ = [
    "build_solution_vector_dp",
    "build_solution_vector_concave",
    "build_inverse_solution_vector",
    "step_concave_class_vector",
    "step_convex_class_vector",
]


def _prefix_sums(values: list[int]) -> Vector:
    """0 and the running sums of ``values``.  The array takes its dtype
    before the sums: numpy would read a list with an entry in [2^63, 2^64)
    as uint64 and cast it to float64."""
    return np.array([0, *values], dtype=vector_dtype(sum(values))).cumsum()


def build_solution_vector_dp(classes: tuple[JobClass, ...], horizon: int, taken: list | None = None) -> Vector:
    """Knapsack DP over job classes, one row update per bundle.

    Entry k = best weight of a set of jobs that, run back to back in
    due-date order and finishing at time k, are all early; the classes must
    come in due-date order, as in ``Instance.classes``.  The table spans
    budgets 0..``horizon`` and a due date past it counts as the horizon: for
    one due date's slice and a horizon up to that date, entry k is the best
    weight with total processing time <= k.  Over the whole table and
    ``Instance.horizon`` it is the Lawler-Moore table, whose maximum is the
    optimum: it starts at zero, and no set of jobs runs past their total
    processing time.

    A class of c copies enters as the bundles of
    :func:`~tardyjobs.maxplus.bundle_sizes`: a bundle of t copies is one
    item of time t*p and weight t*w, and only states up to its due date
    can gain it.  A class of one job is one update.  With ``taken`` given,
    each bundle that fits appends ``(class key, t, mask)``: mask[k - t*p]
    is set where the bundle strictly improved state k.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    f = np.zeros(horizon + 1, dtype=vector_dtype(sum(w * c for (_, _, w), c in classes)))
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
    counts = np.full(len(sums), p)
    counts[-1] = horizon + 1 - (len(sums) - 1) * p  # the last entry repeats to the horizon
    return np.repeat(sums, counts)


def build_solution_vector_concave(classes: tuple[JobClass, ...], horizon: int, acc: Vector = (0,)) -> Vector:
    """Same output as the DP builder, via per-processing-time concave folds.

    The classes are those of one due date at or past ``horizon``, whose due
    date is therefore not read; the weights of the jobs of one processing
    time p, ``[w] * c`` per class, make p's class vector.

    The classes are folded into ``acc``, a monotone solution vector of other
    jobs (a merged prefix) spanning at most ``horizon + 1`` budgets, and the
    result is its (max,+)-convolution with this group's vector.  By default
    ``acc`` is the empty prefix ``[0]``, and the result is the group's
    vector; a group of c classes costs c kernel calls.  A prefix that stops
    short, at its own horizon min(d, P) of its latest due date d and total
    processing time P, holds its last entry at every later budget, so it is
    padded with that entry up to ``horizon``.

    The padded accumulator spans the whole horizon, and every class vector
    stops at its reach min(horizon, c*p) for c jobs of time p.  The kernel
    cuts its output at the longer operand, so the output keeps the horizon,
    and a class vector that short has about c steps: the step kernel takes
    one pass per bundle of a run of equal weights, at most ``_FEW_STEPS``
    passes.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    weights: dict[int, list[int]] = {}  # p -> the weights of its jobs
    for (_, p, w), c in classes:
        if p <= horizon:  # longer jobs can never fit
            weights.setdefault(p, []).extend([w] * c)
    (acc,) = _operands(acc)
    acc = acc[np.minimum(np.arange(horizon + 1), len(acc) - 1)]
    for p in sorted(weights):
        reach = min(horizon, len(weights[p]) * p)
        acc = convolve_sstep_concave(acc, step_concave_class_vector(weights[p], p, reach), p)
    return acc


def step_convex_class_vector(processing_times: list[int], w: int) -> Vector:
    """Inverse vector of a class of jobs that all have weight w.

    Entry k = minimum total processing time reaching weight >= k; meeting
    a target of k needs ceil(k/w) jobs, cheapest first, so the vector jumps
    right after each multiple of w and its stride-w subsample is convex.
    Horizon is the class's total weight.
    """
    sums = _prefix_sums(sorted(processing_times))
    counts = np.full(len(sums), w)
    counts[0] = 1  # target 0 needs no job
    return np.repeat(sums, counts)


def build_inverse_solution_vector(classes: tuple[JobClass, ...], acc: Vector = (0,)) -> Vector:
    """Inverse vector of a group: entry k = min total p with weight >= k.

    Built by folding the per-weight class vectors, each from the processing
    times ``[p] * c`` of the classes of its weight, with the (min,+) step
    engine into ``acc``.  By default ``acc`` is ``[0]`` and the horizon is
    the classes' total weight; given the inverse vector of other jobs (a
    merged prefix), the result is its (min,+)-convolution with this group's
    vector and spans their summed weights.  No due date applies here;
    solvers trim the weight targets it puts out of reach afterwards.
    """
    times: dict[int, list[int]] = {}  # w -> the processing times of its jobs
    for (_, p, w), c in classes:
        times.setdefault(w, []).extend([p] * c)
    (acc,) = _operands(acc)
    for w in sorted(times):
        acc = minplus_convolve(acc, step_convex_class_vector(times[w], w), w)
    return acc
