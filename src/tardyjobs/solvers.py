"""End-to-end exact solvers for the weighted-tardy-jobs problem.

Two families:

* :func:`lawler_moore` -- the classic O(n * H) dynamic program over jobs
  in due-date order, H = min(d_max, total processing time), used as the
  baseline and as the reconstruction backend.  It runs over the
  instance's (d, p, w) job classes, each split into O(log c) bundles of
  interchangeable jobs.
* the due-date merge -- partition jobs by due date, build a solution
  vector per group, and merge the groups in due-date order with
  (max,+)-convolutions.  After merging group i the accumulator entry k
  holds the best early weight achievable from the first i groups within
  processing budget k, so the last entry of the final accumulator is the
  optimum.  Merge i spans budgets 0..h_i, h_i = min(d_i, P<=i) with P<=i
  the total processing time of the first i groups: no set of them
  finishes later, so a larger budget would only repeat the last entry.
  The policy picks how each merge is computed:

  - ``MAXPLUS_NAIVE``: quadratic convolution per merge.
  - ``PREDICTION``: per merge, build fractional solution vectors for the
    merged prefix, the incoming group, and their union; derive range
    intervals from them and run the range-guided convolution.
  - ``CONCAVE_BY_P``: split each group by processing time and fold the
    step-concave per-class vectors.
  - ``INVERSE_BY_W``: run the whole merge chain in the weight-indexed
    (min,+) mirror, folding per-weight classes, and after each group keep
    only the weight targets its due date reaches; falls back to
    Lawler-Moore when n >= d_max, where the baseline is at least as fast,
    and when the total weight exceeds n * d_max, where the weight-indexed
    vectors would outgrow the baseline's whole table.
  - ``AUTO``: run the candidate with the smallest estimated time.  The
    candidates are the three policies that are fastest on some shape of the
    committed timing grid: Lawler-Moore, concave-p and inverse-w.  Naive and
    prediction build every group with the knapsack DP, as much work as the
    whole Lawler-Moore table, so they run only when asked for.

Every policy returns the exact optimum; they differ only in running time.
:func:`solve` is the entry point: it resolves ``AUTO``, applies the
fallbacks, runs the policy and reports which policy ran.

AUTO's estimate for a candidate is ``a * calls + b * units + c * n`` ms,
counted in what the candidate's loops touch (d_i is the due date of group i);
the per-job term is the Python pass over the jobs that every candidate makes
first (the class table, or the due-date groups and their class lists):

* Lawler-Moore: one numpy row update per bundle of t copies of a (d, p, w)
  class with t * p <= d, over min(d, H) - t * p + 1 cells each;
* concave-p: per group, one kernel call per processing-time class with
  p <= d_i, over (d_i + 1) * log(d_i + 2) units per class;
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
``Instance.classes``, which the instance builds once for AUTO, the
Lawler-Moore DP and the witness alike.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import Enum
from math import log
from typing import Iterator

import numpy as np

from .builders import (
    build_inverse_solution_vector,
    build_solution_vector_concave,
    build_solution_vector_dp,
    bundled_knapsack,
)
from .core import (
    DueDateGrouping,
    Instance,
    Job,
    SolveResult,
    Vector,
    group_by_due_date,
)
from .fractional import fractional_solution_vector
from .maxplus import _FEW_STEPS, bundle_sizes, convolve_naive, convolve_with_ranges, vector_dtype
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


def _lawler_moore_dp(instance: Instance, taken: list | None = None) -> np.ndarray:
    """The Lawler-Moore table: entry k = best weight of a set of jobs that,
    run back to back in EDD order and finishing at time k, are all early.

    The table starts at zero (the empty set finishes anywhere), so its
    maximum is the optimum.  It spans ``instance.horizon``: no set of jobs
    runs past their total processing time, so a larger d_max adds nothing.
    It runs over ``instance.classes`` in due-date order, one row update per
    bundle of interchangeable jobs; see
    :func:`~tardyjobs.builders.bundled_knapsack`, which also fills
    ``taken``.  A bundle can join the set only while its completion time
    stays within its due date, so states above d never gain it.
    """
    return bundled_knapsack(instance.classes, instance.horizon, vector_dtype(instance.w_total), taken)


def lawler_moore(instance: Instance) -> SolveResult:
    """Baseline DP over jobs in due-date order, state = exact early time.

    O(b * H) for b bundles, at most n of them, H = ``instance.horizon``.
    """
    best = int(_lawler_moore_dp(instance).max())
    return SolveResult(instance.w_total - best, best, policy=SolverPolicy.LAWLER_MOORE)


_MERGE_POLICIES = (SolverPolicy.MAXPLUS_NAIVE, SolverPolicy.PREDICTION, SolverPolicy.CONCAVE_BY_P)


def forward_states(instance: Instance, policy: SolverPolicy) -> Iterator[tuple[int, Vector]]:
    """Yield (i, accumulator) after merging each due-date group.

    The accumulator after iteration i is a ``Vector`` spanning budgets
    0..h_i, h_i = min(d^(i), P<=i), the best early weight of the first i
    groups per budget; P<=i, their total processing time, comes from
    ``instance.classes``.  Every vector of merge i, the group's and under
    PREDICTION the fractional vectors of the group and the union, spans the
    same budgets.  Introspection surface for tests and demos; :func:`solve`
    consumes it.  Raises ``ValueError`` for a policy that does not run the
    forward merge.
    """
    if policy not in _MERGE_POLICIES:
        raise ValueError(f"forward merge does not apply to policy {policy}")
    grouping = group_by_due_date(instance)
    time_by_date: defaultdict[int, int] = defaultdict(int)  # due date -> total processing time of its jobs
    for (d, p, _), c in instance.classes:
        time_by_date[d] += p * c
    acc: Vector | None = None
    prefix: tuple[Job, ...] = ()
    prefix_frac = None
    total = 0  # P<=i, the total processing time of the first i groups
    for i, (d_i, grp) in enumerate(zip(grouping.due_dates, grouping.groups), start=1):
        total += time_by_date[d_i]
        h = min(d_i, total)
        if policy is SolverPolicy.CONCAVE_BY_P:
            acc = build_solution_vector_concave(list(grp), h, acc)
        elif acc is None:
            acc = build_solution_vector_dp(list(grp), h)
        elif policy is SolverPolicy.MAXPLUS_NAIVE:
            acc = convolve_naive(acc, build_solution_vector_dp(list(grp), h))
        else:  # PREDICTION
            if prefix_frac is None:
                prefix_frac = fractional_solution_vector(Instance(prefix), len(acc) - 1)
            b_frac = fractional_solution_vector(Instance(grp), h)
            c_frac = fractional_solution_vector(Instance(prefix + grp), h)
            ranges = compute_range_intervals(prefix_frac, b_frac, c_frac, i, instance.w_max)
            acc = convolve_with_ranges(acc, build_solution_vector_dp(list(grp), h), ranges)
            prefix_frac = c_frac  # the union is the next merge's prefix
        prefix += grp
        yield i, acc


def _solve_inverse(grouping: DueDateGrouping) -> int:
    """Weight-indexed (min,+) mirror of the merge chain; the best early weight."""
    acc: Vector = np.zeros(1)
    for d_i, grp in zip(grouping.due_dates, grouping.groups):
        acc = build_inverse_solution_vector(list(grp), acc)
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


def _inverse_falls_back(instance: Instance) -> bool:
    """Whether inverse-w runs Lawler-Moore instead (see the module docstring)."""
    return instance.n >= instance.d_max or instance.w_total > instance.n * instance.d_max


def _auto_counts(instance: Instance) -> dict[SolverPolicy, tuple[int, float, int]]:
    """Per candidate: (calls, units, n), the counts of the module docstring.

    Where inverse-w would fall back, it has no entry.  The counts are
    projections of ``instance.classes``: Lawler-Moore's bundles, the
    distinct (d, p) pairs and the (d, w) pairs with their job counts and the
    total weight per due date.
    """
    bundles = cells = 0
    horizon = instance.horizon
    dp_pairs = set()
    dw_jobs: defaultdict[tuple[int, int], int] = defaultdict(int)  # (d, w) -> number of jobs
    weight: defaultdict[int, int] = defaultdict(int)  # due date -> total weight of its jobs
    for (d, p, w), c in instance.classes:
        if p <= d:  # else no bundle of the class can be early
            dp_pairs.add((d, p))
            top = (d if d < horizon else horizon) + 1  # the table's states up to d
            for t in (1,) if c == 1 else bundle_sizes(c):
                if t * p <= d:
                    bundles += 1
                    cells += top - t * p
        dw_jobs[d, w] += c
        weight[d] += c * w
    p_classes = Counter(d for d, _ in dp_pairs)
    counts = {
        SolverPolicy.LAWLER_MOORE: (bundles, cells, instance.n),
        SolverPolicy.CONCAVE_BY_P: (
            len(dp_pairs),
            sum(c * (d + 1) * log(d + 2) for d, c in p_classes.items()),
            instance.n,
        ),
    }
    if not _inverse_falls_back(instance):
        passes: defaultdict[int, int] = defaultdict(int)  # due date -> step passes of its weight classes
        for (d, _), c in dw_jobs.items():
            # the passes of c distinct processing times; repeated ones take fewer, at any c
            passes[d] += c if c < _FEW_STEPS else _FEW_STEPS
        running = units = 0
        for d in sorted(weight):
            running += weight[d]
            units += passes[d] * running
        counts[SolverPolicy.INVERSE_BY_W] = (len(dw_jobs), units, instance.n)
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

    The candidates are Lawler-Moore, concave-p and inverse-w, the policies
    that are fastest on some shape of ``bench/auto_grid.json``; ties go to
    the earlier one in that order.  Each estimate is ``a * calls + b * units
    + c * n`` ms in the counts of the module docstring, after inverse-w's
    fallback; ``(a, b, c)`` comes from ``DEFAULT_CALIBRATION``, fitted by
    ``scripts/fit_auto.py`` to ``BENCH_auto_grid.json``.
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
    """
    if policy is SolverPolicy.AUTO:
        policy = auto_select(instance)
    if policy is SolverPolicy.INVERSE_BY_W and _inverse_falls_back(instance):
        policy = SolverPolicy.LAWLER_MOORE
    early = None
    if policy is SolverPolicy.LAWLER_MOORE and reconstruct:
        early = tuple(reconstruct_schedule(instance))
        chosen = set(early)
        best = sum(job.w for job in instance.jobs if job.id in chosen)
    elif policy is SolverPolicy.LAWLER_MOORE:
        best = lawler_moore(instance).max_early_weight
    elif policy is SolverPolicy.INVERSE_BY_W:
        best = _solve_inverse(group_by_due_date(instance))
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
    f = _lawler_moore_dp(instance, taken)
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
