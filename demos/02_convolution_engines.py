"""The (max,+)-convolution engines behind the solvers.

A solution vector maps a processing-time budget to the best early weight
within that budget.  Merging two job sets is a (max,+)-convolution of
their vectors; this script shows the interchangeable engines agreeing on
the same output.  Vectors are numpy arrays (float64 at these magnitudes).
"""

import numpy as np

from tardyjobs import (
    Instance,
    Job,
    build_solution_vector_dp,
    convolve_naive,
    convolve_sstep_concave,
    minplus_convolve,
)
from tardyjobs.builders import step_concave_class_vector

# Two job groups with due dates 6 and 10.
early_group = [Job(id=0, p=2, w=4, d=6), Job(id=1, p=3, w=5, d=6)]
late_group = [Job(id=2, p=2, w=3, d=10), Job(id=3, p=2, w=6, d=10), Job(id=4, p=5, w=4, d=10)]

# The builders take a group's class table: its ((d, p, w), count) entries.
A = build_solution_vector_dp(Instance(early_group).classes, 6)
B = build_solution_vector_dp(Instance(late_group).classes, 10)
print("A (due 6): ", A)
print("B (due 10):", B)
assert all(v[0] == 0 and (np.diff(v) >= 0).all() for v in (A, B))  # solution vectors start at 0, never fall

merged = convolve_naive(A, B)
print("A merged with B:", merged)
print("best early weight within budget 10:", int(merged[10]))

# When every job in a class shares processing time p, the class vector
# steps at multiples of p with shrinking increments: a p-step concave
# vector, convolvable in near-linear time.
bp = step_concave_class_vector([6, 3], 2, 10)
print("\nclass vector (two p=2 jobs, weights 6 and 3):", bp)
# 2-step concave: the rises between step starts never grow, and every
# other entry copies its step's start.
stride = bp[::2]
rises = np.diff(stride)
print("is 2-step concave:", bool((rises[1:] <= rises[:-1]).all() and (bp == stride[np.arange(len(bp)) // 2]).all()))
assert np.array_equal(convolve_sstep_concave(A, bp, 2), convolve_naive(A, bp))
print("step-concave engine output equals the naive engine")

# Inverse (weight-indexed) vectors use the (min,+) mirror: entry k is the
# least processing time reaching weight k, and targets add across groups.
inv_a = [0, 2, 2, 5]  # e.g. weight 1..3 need 2, 2, 5 time units
inv_b = [0, 1, 4]
print("\n(min,+) merge of inverse vectors:", minplus_convolve(inv_a, inv_b))
