"""Fractional relaxation and the range-guided convolution.

The fractional solution vector (jobs divisible, greedy by weight density)
upper-bounds the integral one within an additive gap of d_hash * w_max.
That gap is tight enough to predict, for each split of a merge, where the
near-optimal counterpart budgets lie; restricting the convolution to those
ranges keeps it exact while skipping most of the split space.
"""

import numpy as np

from tardyjobs import (
    compute_range_intervals,
    convolve_naive,
    convolve_with_ranges,
    fractional_solution_vector,
    fractional_union,
    generate_instance,
    group_by_due_date,
)
from tardyjobs.builders import build_solution_vector_dp

inst = generate_instance(seed=7, n=12, d_hash=3, d_max=24, p_max=6, w_max=6)
print("instance: n=12, 3 distinct due dates, d_max=24")

frac = fractional_solution_vector(inst.classes)
# the Lawler-Moore table over all jobs; its running maximum is the integral vector
integral = np.maximum.accumulate(build_solution_vector_dp(inst.classes, inst.d_max)).astype(int).tolist()
print("fractional vector (first 8):", [str(v) for v in frac.values()[:8]])
print("integral vector   (first 8):", integral[:8])
bound = inst.d_hash * inst.w_max
gap_ok = all(0 <= frac.value(k) - integral[k] <= bound for k in range(len(integral)))
print("gap bound 0 <= frac-integral <= d_hash*w_max holds:", gap_ok)

# Reproduce the due-date chain with range guidance.  The groups are due-date
# slices of the class table; the fractional vectors are the prefix before a
# group, the group, and their union: the merge of the two by rate, which is
# the next prefix.
grouping = group_by_due_date(inst)
dates, groups = grouping.due_dates, grouping.groups
acc = build_solution_vector_dp(groups[0], dates[0])
a_frac = fractional_solution_vector(groups[0])

for i in range(2, len(dates) + 1):
    grp = groups[i - 1]
    b_vec = build_solution_vector_dp(grp, dates[i - 1])
    b_frac = fractional_solution_vector(grp)
    c_frac = fractional_union(a_frac, b_frac, dates[i - 1])

    ranges = compute_range_intervals(a_frac, b_frac, c_frac, i, inst.w_max)
    widths = [y - x + 1 for iv in ranges.intervals if iv is not None for x, y in (iv,)]
    full = len(acc) * len(b_vec)
    print(
        f"\nmerge {i}: certified error {ranges.error}, "
        f"explored {sum(widths)} of {full} splits ({sum(widths) / full:.0%})"
    )

    guided = convolve_with_ranges(acc, b_vec, ranges)
    assert np.array_equal(guided, convolve_naive(acc, b_vec))
    print("  range-guided output equals the naive engine")
    acc, a_frac = guided, c_frac

print("\noptimal early weight:", int(acc[-1]))
