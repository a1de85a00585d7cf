"""Exact solvers for the single-machine weighted-tardy-jobs problem.

Partition jobs by due date, solve each group as a knapsack, and merge the
per-group solution vectors with (max,+)-convolutions.  Several convolution
engines (naive, step-concave, range-guided, weight-indexed (min,+) mirror)
trade off against each other depending on the instance's size parameters;
the classic due-date-ordered dynamic program is included as the baseline,
and a brute-force oracle certifies everything at small sizes.
"""

from .bench import BenchDisagreement, rows_to_csv, run_bench
from .builders import (
    build_inverse_solution_vector,
    build_solution_vector_concave,
    build_solution_vector_dp,
)
from .core import (
    DueDateGrouping,
    Instance,
    Job,
    SolveResult,
    group_by_due_date,
)
from .fractional import (
    FractionalSolutionVector,
    fractional_solution_vector,
    fractional_union,
)
from .generate import SplitMix64, generate_instance
from .instance_io import parse_instance, serialize_instance
from .maxplus import (
    convolve_naive,
    convolve_sstep_concave,
    convolve_with_ranges,
    minplus_convolve,
)
from .oracle import brute_force, edd_feasible
from .prediction import (
    RangeIntervals,
    compute_range_intervals,
)
from .solvers import (
    DEFAULT_CALIBRATION,
    SolverPolicy,
    auto_estimates,
    auto_select,
    forward_states,
    lawler_moore,
    reconstruct_schedule,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BenchDisagreement",
    "DEFAULT_CALIBRATION",
    "DueDateGrouping",
    "FractionalSolutionVector",
    "Instance",
    "Job",
    "RangeIntervals",
    "SolveResult",
    "SolverPolicy",
    "SplitMix64",
    "auto_estimates",
    "auto_select",
    "brute_force",
    "build_inverse_solution_vector",
    "build_solution_vector_concave",
    "build_solution_vector_dp",
    "compute_range_intervals",
    "convolve_naive",
    "convolve_sstep_concave",
    "convolve_with_ranges",
    "edd_feasible",
    "forward_states",
    "fractional_solution_vector",
    "fractional_union",
    "generate_instance",
    "group_by_due_date",
    "lawler_moore",
    "minplus_convolve",
    "parse_instance",
    "reconstruct_schedule",
    "rows_to_csv",
    "run_bench",
    "serialize_instance",
    "solve",
]
