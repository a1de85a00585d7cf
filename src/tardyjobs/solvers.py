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
  - ``AUTO``: pick a policy from the instance's size parameters.

Every policy returns the exact optimum; they differ only in running time.
:func:`solve` is the entry point: it resolves ``AUTO``, applies the
fallbacks, runs the policy and reports which policy ran.
"""

from __future__ import annotations

from enum import Enum
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
from .maxplus import convolve_naive, convolve_with_ranges
from .oracle import edd_feasible
from .prediction import compute_range_intervals

__all__ = [
    "SolverPolicy",
    "DEFAULT_CALIBRATION",
    "lawler_moore",
    "solve",
    "forward_states",
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
    # float64 sums stay exact only while the total weight is below 2**52
    f = np.full(instance.d_max + 1, NEG_INF, dtype=np.float64 if instance.w_total < 2**52 else object)
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

    The accumulator after iteration i spans budgets 0..d^(i) and holds the
    best early weight of the first i groups per budget.  Introspection
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
    acc: Vector = [0]
    for d_i, grp in zip(grouping.due_dates, grouping.groups):
        acc = build_inverse_solution_vector(list(grp), acc)
        # entries needing more time than this due date are infeasible from here on
        acc = [v if v <= d_i else POS_INF for v in acc]
    return max(k for k, v in enumerate(acc) if v != POS_INF)


DEFAULT_CALIBRATION: dict[SolverPolicy, float] = {
    SolverPolicy.LAWLER_MOORE: 1.0,
    SolverPolicy.MAXPLUS_NAIVE: 1.0,
    SolverPolicy.PREDICTION: 1.0,
    SolverPolicy.CONCAVE_BY_P: 1.0,
    SolverPolicy.INVERSE_BY_W: 1.0,
}


def auto_select(
    instance: Instance, calibration: dict[SolverPolicy, float] | None = None
) -> SolverPolicy:
    """Pick the policy with the smallest estimated operation count.

    Estimates follow each policy's asymptotic cost in the instance
    parameters; the calibration mapping scales them per policy (constant
    factors are configuration, not code).  Ties go to the earlier policy
    in declaration order.
    """
    cal = DEFAULT_CALIBRATION if calibration is None else {**DEFAULT_CALIBRATION, **calibration}
    n, dm, dh = instance.n, instance.d_max, instance.d_hash
    pm, wm = instance.p_max, instance.w_max
    estimates = [
        (SolverPolicy.LAWLER_MOORE, n * dm),
        (SolverPolicy.MAXPLUS_NAIVE, n + dh * dm * dm),
        (SolverPolicy.PREDICTION, dh * n + dh * dh * dm * wm),
        (SolverPolicy.CONCAVE_BY_P, dh * n + dh * dm * pm),
        (
            SolverPolicy.INVERSE_BY_W,
            n * dm if n >= dm else n * n + dm * wm * wm,
        ),
    ]
    best_policy, best_cost = estimates[0][0], cal[estimates[0][0]] * estimates[0][1]
    for policy, est in estimates[1:]:
        cost = cal[policy] * est
        if cost < best_cost:
            best_policy, best_cost = policy, cost
    return best_policy


def solve(
    instance: Instance,
    policy: SolverPolicy = SolverPolicy.AUTO,
    *,
    reconstruct: bool = False,
) -> SolveResult:
    """Exact optimum under the given policy; optionally a witness early set.

    The one place that resolves ``AUTO`` (through :func:`auto_select`) and
    the ``INVERSE_BY_W`` fallbacks to Lawler-Moore described above; the
    result's ``policy`` names the policy that ran.
    """
    if policy is SolverPolicy.AUTO:
        policy = auto_select(instance)
    if policy is SolverPolicy.INVERSE_BY_W and (
        instance.n >= instance.d_max or instance.w_total > instance.n * instance.d_max
    ):
        policy = SolverPolicy.LAWLER_MOORE
    if policy is SolverPolicy.LAWLER_MOORE:
        best = lawler_moore(instance).max_early_weight
    elif policy is SolverPolicy.INVERSE_BY_W:
        best = _solve_inverse(group_by_due_date(instance))
    else:
        for _, acc in forward_states(instance, policy):
            pass
        best = int(acc[-1])
    early = tuple(reconstruct_schedule(instance, best)) if reconstruct else None
    return SolveResult(instance.w_total - best, best, early, policy)


def reconstruct_schedule(instance: Instance, target_weight: int) -> list[int]:
    """Recover an early set of exactly the given optimal weight.

    Re-runs the Lawler-Moore DP while recording, per job, the states where
    taking it strictly improved the table (one bool per job and budget), and
    walks those records back from the first optimal state.  Raises
    ``ValueError`` if the target is not the DP optimum (a solver bug), and
    ``RuntimeError`` if the recovered set fails verification.
    """
    taken = np.zeros((instance.n, instance.d_max + 1), dtype=bool)
    f = _lawler_moore_dp(instance, taken)
    best = int(f.max())
    if target_weight != best:
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
