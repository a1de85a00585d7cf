"""End-to-end exact solvers for the weighted-tardy-jobs problem.

Two families:

* :func:`lawler_moore` -- the classic O(n * d_max) dynamic program over
  jobs in due-date order, used as the baseline and as the reconstruction
  backend.
* the due-date merge -- partition jobs by due date, build a solution
  vector per group, and merge the groups in due-date order with
  (max,+)-convolutions.  After merging group i the accumulator entry k
  holds the best early weight achievable from the first i groups within
  processing budget k, so the last entry of the final accumulator is the
  optimum.  The policy picks how each merge is computed:

  - ``MAXPLUS_NAIVE``: quadratic convolution per merge.
  - ``PREDICTION``: per merge, build fractional solution vectors for the
    merged prefix, the incoming group, and their union; derive range
    intervals from them and run the range-guided convolution.
  - ``CONCAVE_BY_P``: split each group by processing time and fold the
    step-concave per-class vectors.
  - ``INVERSE_BY_W``: run the whole merge chain in the weight-indexed
    (min,+) mirror, folding per-weight classes, capping entries above each
    group's due date; falls back to Lawler-Moore when n >= d_max, where
    the baseline is at least as fast, and when the total weight exceeds
    n * d_max, where the weight-indexed vectors would outgrow the
    baseline's whole table.
  - ``AUTO``: run the candidate with the smallest estimated time.  The
    candidates are the three policies that are fastest on some shape of the
    committed timing grid: Lawler-Moore, concave-p and inverse-w.  Naive and
    prediction build every group with the knapsack DP, as much work as the
    whole Lawler-Moore table, so they run only when asked for.

Every policy returns the exact optimum; they differ only in running time.
:func:`solve` is the entry point: it resolves ``AUTO``, applies the
fallbacks, runs the policy and reports which policy ran.

AUTO's estimate for a candidate is ``a * calls + b * units`` ms, counted in
what the candidate's loops touch (d_i is the due date of group i):

* Lawler-Moore: n numpy row updates, over sum_j max(0, d_j - p_j + 1) cells;
* concave-p: per group, one kernel call per processing-time class with
  p <= d_i, over (d_i + 1) * log(d_i + 2) units per class;
* inverse-w: per group, one kernel call per weight class, over the running
  total weight of the groups up to and including it per class.

Where inverse-w would fall back, its estimate is Lawler-Moore's.  The
constants ``(a, b)`` are configuration, ``DEFAULT_CALIBRATION``, fitted by
``scripts/fit_auto.py`` to the per-policy medians in ``BENCH_auto_grid.json``.
:func:`auto_estimates` returns the estimates and :func:`auto_select` the
choice.  The counts take a few linear passes over the jobs and no sort.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from math import log
from typing import Iterator

import numpy as np

from .builders import (
    build_inverse_solution_vector,
    build_solution_vector_concave,
    build_solution_vector_dp,
)
from .core import (
    NEG_INF,
    POS_INF,
    DueDateGrouping,
    Instance,
    Job,
    SolveResult,
    Vector,
    group_by_due_date,
)
from .fractional import fractional_solution_vector
from .maxplus import EXACT_FLOAT_BOUND, convolve_naive, convolve_with_ranges
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


def _edd_order(instance: Instance) -> list[Job]:
    """The instance's jobs in due-date order, ties by id."""
    return sorted(instance.jobs, key=lambda j: (j.d, j.id))


def _lawler_moore_dp(instance: Instance, taken: np.ndarray | None = None) -> np.ndarray:
    """The Lawler-Moore table: entry k = best early weight in exactly time k.

    Jobs enter in :func:`_edd_order`.  A job can join the early set only
    while its completion time stays within its due date, so states above
    d_j never gain job j.  With ``taken`` (bool, n x (d_max+1)) given, row i
    records the states where the i-th job strictly improved the table.
    """
    dtype = np.float64 if instance.w_total < EXACT_FLOAT_BOUND else object
    f = np.full(instance.d_max + 1, NEG_INF, dtype=dtype)
    f[0] = 0
    for i, job in enumerate(_edd_order(instance)):
        p, d = job.p, job.d
        if p <= d:  # otherwise it can never be early
            gain = f[: d + 1 - p] + job.w
            if taken is not None:
                taken[i, p : d + 1] = gain > f[p : d + 1]
            np.maximum(f[p : d + 1], gain, out=f[p : d + 1])
    return f


def lawler_moore(instance: Instance) -> SolveResult:
    """Baseline DP over jobs in due-date order, state = exact early time.  O(n * d_max)."""
    best = int(_lawler_moore_dp(instance).max())
    return SolveResult(instance.w_total - best, best, policy=SolverPolicy.LAWLER_MOORE)


_MERGE_POLICIES = (SolverPolicy.MAXPLUS_NAIVE, SolverPolicy.PREDICTION, SolverPolicy.CONCAVE_BY_P)


def forward_states(instance: Instance, policy: SolverPolicy) -> Iterator[tuple[int, Vector]]:
    """Yield (i, accumulator) after merging each due-date group.

    The accumulator after iteration i is a ``Vector`` spanning budgets
    0..d^(i), the best early weight of the first i groups per budget.  Introspection
    surface for tests and demos; :func:`solve` consumes it.  Raises
    ``ValueError`` for a policy that does not run the forward merge.
    """
    if policy not in _MERGE_POLICIES:
        raise ValueError(f"forward merge does not apply to policy {policy}")
    grouping = group_by_due_date(instance)
    acc: Vector | None = None
    prefix: tuple[Job, ...] = ()
    prefix_frac = None
    for i, (d_i, grp) in enumerate(zip(grouping.due_dates, grouping.groups), start=1):
        if policy is SolverPolicy.CONCAVE_BY_P:
            acc = build_solution_vector_concave(list(grp), d_i, acc)
        elif acc is None:
            acc = build_solution_vector_dp(list(grp), d_i)
        elif policy is SolverPolicy.MAXPLUS_NAIVE:
            acc = convolve_naive(acc, build_solution_vector_dp(list(grp), d_i))
        else:  # PREDICTION
            if prefix_frac is None:
                prefix_frac = fractional_solution_vector(Instance(prefix))
            b_frac = fractional_solution_vector(Instance(grp))
            c_frac = fractional_solution_vector(Instance(prefix + grp))
            ranges = compute_range_intervals(prefix_frac, b_frac, c_frac, i, instance.w_max)
            acc = convolve_with_ranges(acc, build_solution_vector_dp(list(grp), d_i), ranges)
            prefix_frac = c_frac  # the union is the next merge's prefix
        prefix += grp
        yield i, acc


def _solve_inverse(grouping: DueDateGrouping) -> int:
    """Weight-indexed (min,+) mirror of the merge chain; the best early weight."""
    acc: Vector = np.zeros(1)
    for d_i, grp in zip(grouping.due_dates, grouping.groups):
        acc = build_inverse_solution_vector(list(grp), acc)
        # entries needing more time than this due date are infeasible from here on
        acc = np.where(acc <= d_i, acc, POS_INF)
    return int(np.flatnonzero(acc != POS_INF)[-1])


# Fitted by scripts/fit_auto.py to the policy medians in BENCH_auto_grid.json
# (shapes from bench/auto_grid.json): per candidate, (ms per call, ms per unit)
# in the counts of _auto_counts.
DEFAULT_CALIBRATION: dict[SolverPolicy, tuple[float, float]] = {
    SolverPolicy.LAWLER_MOORE: (0.00426, 7.7e-07),
    SolverPolicy.CONCAVE_BY_P: (0.513, 4.64e-05),
    SolverPolicy.INVERSE_BY_W: (0.193, 0.000395),
}


def _inverse_falls_back(instance: Instance) -> bool:
    """Whether inverse-w runs Lawler-Moore instead (see the module docstring)."""
    return instance.n >= instance.d_max or instance.w_total > instance.n * instance.d_max


def _auto_counts(instance: Instance) -> dict[SolverPolicy, tuple[int, float]]:
    """Per candidate: (calls, units), the counts of the module docstring.

    Where inverse-w would fall back, it has no entry.  The counts come from
    the jobs' attribute lists and the distinct (d, p) and (d, w) pairs in
    them, with no grouping or sort of the jobs.
    """
    ds = [job.d for job in instance.jobs]
    ps = [job.p for job in instance.jobs]
    pairs = set(zip(ds, ps))
    if all(p <= d for d, p in pairs):
        cells = sum(ds) - sum(ps) + instance.n
    else:  # a job that can never be early touches no cells
        cells = sum(d - p + 1 for d, p in zip(ds, ps) if p <= d)
    p_classes = Counter(d for d, p in pairs if p <= d)
    counts = {
        SolverPolicy.LAWLER_MOORE: (instance.n, cells),
        SolverPolicy.CONCAVE_BY_P: (
            sum(p_classes.values()),
            sum(c * (d + 1) * log(d + 2) for d, c in p_classes.items()),
        ),
    }
    if not _inverse_falls_back(instance):
        dw = Counter(zip(ds, [job.w for job in instance.jobs]))  # (d, w) -> how many jobs
        weight: Counter[int] = Counter()
        w_classes: Counter[int] = Counter()
        for (d, w), c in dw.items():
            weight[d] += c * w
            w_classes[d] += 1
        running = units = 0
        for d in sorted(weight):
            running += weight[d]
            units += w_classes[d] * running
        counts[SolverPolicy.INVERSE_BY_W] = (len(dw), units)
    return counts


def auto_estimates(instance: Instance) -> dict[SolverPolicy, float]:
    """Estimated ms of each AUTO candidate on the instance.

    Each is ``a * calls + b * units`` in the counts of the module docstring,
    with ``(a, b)`` from ``DEFAULT_CALIBRATION``.  Where inverse-w would fall
    back, its estimate is Lawler-Moore's.  Lawler-Moore comes first, so
    ``min`` breaks a tie in its favour.
    """
    estimates = {}
    for policy, (calls, units) in _auto_counts(instance).items():
        per_call, per_unit = DEFAULT_CALIBRATION[policy]
        estimates[policy] = per_call * calls + per_unit * units
    estimates.setdefault(SolverPolicy.INVERSE_BY_W, estimates[SolverPolicy.LAWLER_MOORE])
    return estimates


def auto_select(instance: Instance) -> SolverPolicy:
    """The AUTO candidate with the smallest estimate in :func:`auto_estimates`.

    The candidates are Lawler-Moore, concave-p and inverse-w, the policies
    that are fastest on some shape of ``bench/auto_grid.json``; ties go to
    the earlier one in that order.  Each estimate is ``a * calls + b *
    units`` ms in the counts of the module docstring, after inverse-w's
    fallback; ``(a, b)`` comes from ``DEFAULT_CALIBRATION``, fitted by
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

    Runs the Lawler-Moore DP while recording, per job, the states where
    taking it strictly improved the table (one bool per job and budget), and
    walks those records back from the first optimal state.  Without a target
    the DP's optimum is the target.  Raises ``ValueError`` if the target is
    not the DP optimum (a solver bug), and ``RuntimeError`` if the recovered
    set fails verification.
    """
    taken = np.zeros((instance.n, instance.d_max + 1), dtype=bool)
    f = _lawler_moore_dp(instance, taken)
    best = int(f.max())
    if target_weight is None:
        target_weight = best
    elif target_weight != best:
        raise ValueError(f"no early set of weight {target_weight}: the optimum is {best}")
    k = int(np.argmax(f))
    chosen: list[Job] = []
    for i, job in reversed(list(enumerate(_edd_order(instance)))):
        if taken[i, k]:
            chosen.append(job)
            k -= job.p
    early_ids = sorted(j.id for j in chosen)
    if sum(j.w for j in chosen) != target_weight or not edd_feasible(chosen):
        raise RuntimeError("reconstructed early set failed verification")
    return early_ids
