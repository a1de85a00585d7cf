"""End-to-end exact solvers for the weighted-tardy-jobs problem.

Two families:

* :func:`lawler_moore` -- the classic O(n * H) dynamic program over jobs
  in due-date order, H = min(d_max, total processing time), used as the
  baseline and as the reconstruction backend.  It runs over the
  instance's (d, p, w) job classes, each split into O(log c) bundles of
  interchangeable jobs.
* the due-date merge -- take the due-date slices of the class table that
  :func:`~tardyjobs.core.group_by_due_date` cuts as groups, build a
  solution vector per group, and merge them in due-date order, from the
  empty prefix ``[0]``, with (max,+)-convolutions.  After merging group i
  the accumulator entry k holds the best early weight achievable from the
  first i groups within processing budget k, so the last entry of the final
  accumulator is the optimum.  Merge i spans budgets 0..h_i, h_i = min(d_i,
  P<=i) with P<=i the total processing time of the first i groups: no set
  of them finishes later, so a larger budget would only repeat the last
  entry.
  The policy picks how each merge is computed:

  - ``MAXPLUS_NAIVE``: quadratic convolution per merge.
  - ``PREDICTION``: per merge, build the incoming group's fractional
    solution vector and union it with the merged prefix's, a merge of their
    rate runs, which is the next prefix; derive range intervals from the
    three and run the range-guided convolution.  The group's vectors stop
    at its reach, min(h_i, P_i) for its own processing time P_i, and the
    operand of shorter span, group or prefix, goes on the left, one row of
    range intervals per budget.
  - ``CONCAVE_BY_P``: split each group by processing time and fold the
    step-concave per-class vectors.
  - ``INVERSE_BY_W``: run the whole merge chain in the weight-indexed
    (min,+) mirror, folding per-weight classes, and after each group keep
    only the weight targets its due date reaches; falls back to
    Lawler-Moore when n >= d_max, where the baseline is at least as fast,
    when the total weight exceeds n * d_max, where the weight-indexed
    vectors would outgrow the baseline's whole table, and when a table over
    weights 0..total weight has more entries than memory can address.
  - ``AUTO``: run the candidate with the smallest estimated time, of
    Lawler-Moore, concave-p and inverse-w.  On the committed timing grid
    Lawler-Moore is fastest on 85 of the 115 shapes and inverse-w on the
    other 30.  Concave-p stays because AUTO picks it on large-weight shapes
    outside the grid, where it is the faster: AUTO took 63.9 ms against
    Lawler-Moore's 117.8 at n = 2*10^4, 4 due dates, d_max = 2*10^4,
    p <= 5, w <= 10^6 (2 CPUs, Python 3.11, numpy 2.4); a grid that spans
    such shapes would settle it.  Naive and prediction build every group
    with the knapsack DP, as much work as the whole Lawler-Moore table, so
    they run only when asked for.  On a horizon past the largest table
    memory can address, AUTO runs inverse-w when no witness is asked for
    and inverse-w would not fall back.

Every policy returns the exact optimum; they differ only in running time.
:func:`solve` is the entry point: it resolves ``AUTO``, applies the
fallbacks, runs the policy and reports which policy ran.

AUTO's estimate for a candidate is ``a * calls + b * units + c * n`` ms,
counted in what the candidate's loops touch (d_i is the due date of group i);
the per-job term is the pass over the jobs that builds the instance's class
table, which :func:`~tardyjobs.bench.run_bench` times with each solve:

* Lawler-Moore: one numpy row update per bundle of t copies of a (d, p, w)
  class with t * p <= d, over min(d, H) - t * p + 1 cells each;
* concave-p: per group, the first like every other, one kernel call per
  processing-time class with p <= d_i, over (d_i + 1) * log(d_i + 2) units
  per class;
* inverse-w: per group, one kernel call per weight class, over the running
  total weight of the groups up to and including it, times min(c,
  ``_FEW_STEPS``) for a class of c jobs: the kernel's passes when the
  class's processing times all differ, one per step up to
  ``_FEW_STEPS`` steps, and past that a divide and conquer that costs
  about as much as that many passes.  The kernel takes one pass per
  bundle of a run of equal steps, so a class with repeated processing
  times costs fewer passes at any size, which the count does not follow.

Where inverse-w would fall back, its estimate is Lawler-Moore's.  The
constants ``(a, b, c)`` are configuration, ``DEFAULT_CALIBRATION``, fitted by
``scripts/fit_auto.py`` to the per-policy medians in ``BENCH_auto_grid.json``.
:func:`auto_estimates` returns the estimates and :func:`auto_select` the
choice.  All three counts are projections of the instance's class table,
``Instance.classes``, which the instance builds at construction for AUTO,
every policy's chain, PREDICTION's fractional vectors and the witness alike.
"""

from __future__ import annotations

from enum import Enum
from itertools import groupby
from math import log
from typing import Iterator

import numpy as np

from .builders import (
    build_inverse_solution_vector,
    build_solution_vector_concave,
    build_solution_vector_dp,
)
from .core import Instance, Job, SolveResult, Vector, group_by_due_date
from .fractional import FractionalSolutionVector, fractional_solution_vector, fractional_union
from .maxplus import _FEW_STEPS, bundle_sizes, convolve_naive, convolve_with_ranges
from .oracle import edd_feasible
from .prediction import compute_range_intervals

__all__ = [
    "SolverPolicy",
    "DEFAULT_CALIBRATION",
    "lawler_moore",
    "solve",
    "forward_states",
    "auto_estimates",
    "auto_select",
    "reconstruct_schedule",
]


class SolverPolicy(Enum):
    LAWLER_MOORE = "lawler-moore"
    MAXPLUS_NAIVE = "naive"
    PREDICTION = "prediction"
    CONCAVE_BY_P = "concave-p"
    INVERSE_BY_W = "inverse-w"
    AUTO = "auto"


def lawler_moore(instance: Instance) -> SolveResult:
    """Baseline DP over jobs in due-date order, state = exact early time.

    :func:`~tardyjobs.builders.build_solution_vector_dp` over
    ``instance.classes`` and ``instance.horizon``: O(b * H) for b bundles,
    at most n of them, H = ``instance.horizon``.
    """
    best = int(build_solution_vector_dp(instance.classes, instance.horizon).max())
    return SolveResult(instance.w_total - best, best, policy=SolverPolicy.LAWLER_MOORE)


_MERGE_POLICIES = (SolverPolicy.MAXPLUS_NAIVE, SolverPolicy.PREDICTION, SolverPolicy.CONCAVE_BY_P)


def forward_states(instance: Instance, policy: SolverPolicy) -> Iterator[tuple[int, Vector]]:
    """Yield (i, accumulator) after merging each due-date group.

    Group i is the i-th due-date slice of ``instance.classes`` that
    :func:`~tardyjobs.core.group_by_due_date` cuts, handed to its builder as
    it is.  The chain starts from the empty prefix, ``[0]`` and its
    fractional vector, and merge i folds group i into the prefix of the
    groups before it, the first group like every other.  The accumulator
    after iteration i is a ``Vector`` spanning budgets 0..h_i, h_i =
    min(d^(i), P<=i), the best early weight of the first i groups per
    budget; P<=i, their total processing time, is summed from the slices.
    Merge i's group vector spans the same budgets, except under PREDICTION.
    There the group's integral and fractional vectors stop at its reach
    min(h_i, P_i), P_i its own total processing time, past which they are
    flat.  The operand of shorter span, group or prefix, goes on the left,
    one row of range intervals per budget; the other is held at its last
    entries up to h_i, both its vectors, runs and all.  The union's
    fractional vector, the next merge's prefix, spans h_i.  A split past the
    left operand's reach r is matched by the split at r, no worse and with
    no larger fractional gap, so the rows 0..r hold every witness.
    The union's fractional vector is the merge of the prefix's and the
    group's rate runs, :func:`~tardyjobs.fractional.fractional_union`.
    Introspection surface for tests and demos; :func:`solve` consumes it.
    Raises ``ValueError`` for a policy that does not run the forward merge.
    """
    if policy not in _MERGE_POLICIES:
        raise ValueError(f"forward merge does not apply to policy {policy}")
    acc: Vector = np.zeros(1)  # the empty prefix: no jobs, weight 0 at budget 0
    prefix_frac = fractional_solution_vector((), 0)
    total = 0  # P<=i, the total processing time of the first i groups
    for i, (d_i, classes) in enumerate(group_by_due_date(instance), start=1):
        work = sum(p * c for (_, p, _), c in classes)  # the group's total processing time
        total += work
        h = min(d_i, total)
        if policy is SolverPolicy.CONCAVE_BY_P:
            acc = build_solution_vector_concave(classes, h, acc)
        elif policy is SolverPolicy.MAXPLUS_NAIVE:
            acc = convolve_naive(acc, build_solution_vector_dp(classes, h))
        else:  # PREDICTION
            reach = min(h, work)  # the group's vectors are flat past it
            left = (acc, prefix_frac)
            right = (build_solution_vector_dp(classes, reach), fractional_solution_vector(classes, reach))
            c_frac = fractional_union(prefix_frac, right[1], h)
            if len(right[0]) < len(acc):  # the operand of shorter span is the rows' side; a tie keeps the prefix
                left, right = right, left
            (a, a_frac), (b, b_frac) = left, _held_to(h, *right)
            ranges = compute_range_intervals(a_frac, b_frac, c_frac, i, instance.w_max)
            acc = convolve_with_ranges(a, b, ranges)
            prefix_frac = c_frac  # the union is the next merge's prefix
        yield i, acc


def _held_to(horizon: int, vec: Vector, frac: FractionalSolutionVector) -> tuple[Vector, FractionalSolutionVector]:
    """A solution vector and its fractional vector, both flat past their
    last budget, extended with their last entries to span 0..``horizon``."""
    held = FractionalSolutionVector(frac.scaled + frac.scaled[-1:] * (horizon + 1 - len(vec)), frac.scale, frac.runs)
    return vec[np.minimum(np.arange(horizon + 1), len(vec) - 1)], held


def _solve_inverse(instance: Instance) -> int:
    """Weight-indexed (min,+) mirror of the merge chain over the due-date
    slices of ``instance.classes``; the best early weight."""
    acc: Vector = np.zeros(1)
    for d_i, classes in group_by_due_date(instance):
        acc = build_inverse_solution_vector(classes, acc)
        # targets needing more time than this due date are out of reach from
        # here on; the vector is non-decreasing, so the rest is a prefix
        acc = acc[: np.count_nonzero(acc <= d_i)]
    return len(acc) - 1


# Fitted by scripts/fit_auto.py to the policy medians in BENCH_auto_grid.json
# (shapes from bench/auto_grid.json): per candidate, (ms per call, ms per unit)
# and ms per job, in the counts of _auto_counts.
DEFAULT_CALIBRATION: dict[SolverPolicy, tuple[float, float, float]] = {
    SolverPolicy.LAWLER_MOORE: (0.00409, 6.01e-07, 0.000182),
    SolverPolicy.CONCAVE_BY_P: (0.0986, 5.11e-06, 0.00152),
    SolverPolicy.INVERSE_BY_W: (0.125, 7.83e-07, 0.000972),
}


# The most entries of a table over budgets or weights: past it, its size in
# bytes (8 an entry) overflows the platform's index type.
_MAX_TABLE = np.iinfo(np.intp).max // 8


def _inverse_falls_back(instance: Instance) -> bool:
    """Whether inverse-w runs Lawler-Moore instead (see the module docstring)."""
    n, d_max, w_total = instance.n, instance.d_max, instance.w_total
    return n >= d_max or w_total > n * d_max or w_total + 1 > _MAX_TABLE


def _auto_counts(instance: Instance) -> dict[SolverPolicy, tuple[int, float, int]]:
    """Per candidate: (calls, units, n), the counts of the module docstring.

    Where inverse-w would fall back, it has no entry.  The counts are
    projections of ``instance.classes``, taken in one walk over its due-date
    slices in their (p, w) order: Lawler-Moore's bundles, a processing-time
    class each time p changes, and per slice its job counts per weight and
    the running total weight.
    """
    inverse = not _inverse_falls_back(instance)
    bundles = cells = p_calls = w_calls = running = w_units = 0
    p_units = 0.0
    horizon = instance.horizon
    for d, due_slice in groupby(instance.classes, key=lambda e: e[0][0]):
        top = (d if d < horizon else horizon) + 1  # the table's states up to d
        last_p = p_classes = 0
        w_jobs: dict[int, int] = {}  # weight -> number of jobs in this slice
        for (_, p, w), c in due_slice:
            if p <= d:  # else no bundle of the class can be early
                if p != last_p:
                    last_p, p_classes = p, p_classes + 1
                for t in (1,) if c == 1 else bundle_sizes(c):
                    if t * p <= d:
                        bundles += 1
                        cells += top - t * p
            if inverse:
                w_jobs[w] = w_jobs.get(w, 0) + c
                running += c * w
        p_calls += p_classes
        p_units += p_classes * (d + 1) * log(d + 2)
        if inverse:
            w_calls += len(w_jobs)
            # the passes of c distinct processing times; repeated ones take fewer, at any c
            w_units += sum(c if c < _FEW_STEPS else _FEW_STEPS for c in w_jobs.values()) * running
    counts = {
        SolverPolicy.LAWLER_MOORE: (bundles, cells, instance.n),
        SolverPolicy.CONCAVE_BY_P: (p_calls, p_units, instance.n),
    }
    if inverse:
        counts[SolverPolicy.INVERSE_BY_W] = (w_calls, w_units, instance.n)
    return counts


def auto_estimates(instance: Instance) -> dict[SolverPolicy, float]:
    """Estimated ms of each AUTO candidate on the instance.

    Each is ``a * calls + b * units + c * n`` in the counts of the module
    docstring, with ``(a, b, c)`` from ``DEFAULT_CALIBRATION``.  Where inverse-w would fall
    back, its estimate is Lawler-Moore's.  Lawler-Moore comes first, so
    ``min`` breaks a tie in its favour.
    """
    estimates = {}
    for policy, (calls, units, jobs) in _auto_counts(instance).items():
        per_call, per_unit, per_job = DEFAULT_CALIBRATION[policy]
        estimates[policy] = per_call * calls + per_unit * units + per_job * jobs
    estimates.setdefault(SolverPolicy.INVERSE_BY_W, estimates[SolverPolicy.LAWLER_MOORE])
    return estimates


def auto_select(instance: Instance) -> SolverPolicy:
    """The AUTO candidate with the smallest estimate in :func:`auto_estimates`.

    The candidates are Lawler-Moore, concave-p and inverse-w; ties go to the
    earlier one in that order.  On the shapes of ``bench/auto_grid.json``
    only the first and last are ever fastest; concave-p is kept for
    large-weight shapes past them (see the module docstring).  Each estimate
    is ``a * calls + b * units + c * n`` ms in the counts of the module
    docstring, after inverse-w's fallback; ``(a, b, c)`` comes from
    ``DEFAULT_CALIBRATION``, fitted by ``scripts/fit_auto.py`` to
    ``BENCH_auto_grid.json``.
    """
    estimates = auto_estimates(instance)
    return min(estimates, key=estimates.get)


def solve(
    instance: Instance,
    policy: SolverPolicy = SolverPolicy.AUTO,
    *,
    reconstruct: bool = False,
) -> SolveResult:
    """Exact optimum under the given policy; optionally a witness early set.

    The one place that resolves ``AUTO`` (through :func:`auto_select`) and
    the ``INVERSE_BY_W`` fallbacks to Lawler-Moore described above; the
    result's ``policy`` names the policy that ran.  A Lawler-Moore witness
    solve runs the DP once, inside :func:`reconstruct_schedule`.

    Every policy but inverse-w without a witness fills tables over budgets
    up to ``instance.horizon``; if such a table would have more entries
    than this platform can address, it raises ``MemoryError`` first.
    """
    unaddressable = instance.horizon + 1 > _MAX_TABLE
    if policy is SolverPolicy.AUTO:
        weight_indexed = unaddressable and not reconstruct and not _inverse_falls_back(instance)
        policy = SolverPolicy.INVERSE_BY_W if weight_indexed else auto_select(instance)
    if policy is SolverPolicy.INVERSE_BY_W and _inverse_falls_back(instance):
        policy = SolverPolicy.LAWLER_MOORE
    if (reconstruct or policy is not SolverPolicy.INVERSE_BY_W) and unaddressable:
        raise MemoryError(f"a table over the horizon {instance.horizon} has more entries than memory can address")
    early = None
    if policy is SolverPolicy.LAWLER_MOORE and reconstruct:
        early = tuple(reconstruct_schedule(instance))
        chosen = set(early)
        best = sum(job.w for job in instance.jobs if job.id in chosen)
    elif policy is SolverPolicy.LAWLER_MOORE:
        best = lawler_moore(instance).max_early_weight
    elif policy is SolverPolicy.INVERSE_BY_W:
        best = _solve_inverse(instance)
    else:
        for _, acc in forward_states(instance, policy):
            pass
        best = int(acc[-1])
    if reconstruct and early is None:
        early = tuple(reconstruct_schedule(instance, best))
    return SolveResult(instance.w_total - best, best, early, policy)


def reconstruct_schedule(instance: Instance, target_weight: int | None = None) -> list[int]:
    """Recover an early set of the given optimal weight, or of the optimum.

    Runs the Lawler-Moore DP while recording, per bundle of interchangeable
    jobs, the states where taking it strictly improved the table (one bool
    per bundle and budget up to its due date or ``instance.horizon``,
    whichever is smaller), and walks those records back from the first
    optimal state; a taken bundle of t copies contributes t jobs of its
    class.  Without a target the DP's optimum is the target.
    Raises ``ValueError`` if the target is not the DP optimum (a solver
    bug), and ``RuntimeError`` if the recovered set fails verification.
    """
    # the DP runs on instance.classes; this maps each class to its jobs, whose
    # ids the walk-back hands out
    members: dict[tuple[int, int, int], list[Job]] = {}
    for job in instance.jobs:
        members.setdefault((job.d, job.p, job.w), []).append(job)
    taken: list = []
    f = build_solution_vector_dp(instance.classes, instance.horizon, taken)
    best = int(f.max())
    if target_weight is None:
        target_weight = best
    elif target_weight != best:
        raise ValueError(f"no early set of weight {target_weight}: the optimum is {best}")
    k = int(np.argmax(f))
    chosen: list[Job] = []
    for key, t, mask in reversed(taken):
        d, p, _ = key
        if t * p <= k <= d and mask[k - t * p]:
            chosen += members[key][-t:]
            del members[key][-t:]
            k -= t * p
    early_ids = sorted(j.id for j in chosen)
    if sum(j.w for j in chosen) != target_weight or not edd_feasible(chosen):
        raise RuntimeError("reconstructed early set failed verification")
    return early_ids
