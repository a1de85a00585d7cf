"""Solving weighted-tardy-jobs instances.

Walks through the basic workflow: build an instance, solve it with every
policy, cross-check against brute force, and recover a witness schedule.
"""

from tardyjobs import (
    Instance,
    Job,
    SolverPolicy,
    brute_force,
    generate_instance,
    solve,
)

# A tiny hand-built instance: three jobs on one machine.  Job 2 is hopeless
# (its processing time exceeds its due date), jobs 0 and 1 compete for the
# early slots.
inst = Instance(
    (
        Job(id=0, p=2, w=3, d=2),
        Job(id=1, p=2, w=5, d=3),
        Job(id=2, p=9, w=4, d=4),
    )
)
print("jobs (p, w, d):", [(j.p, j.w, j.d) for j in inst.jobs])
print("total weight:", inst.w_total)

# Every policy returns the same exact optimum; they differ only in speed.
for policy in [
    SolverPolicy.LAWLER_MOORE,
    SolverPolicy.MAXPLUS_NAIVE,
    SolverPolicy.PREDICTION,
    SolverPolicy.CONCAVE_BY_P,
    SolverPolicy.INVERSE_BY_W,
]:
    res = solve(inst, policy)
    print(f"{policy.value:>14}: min tardy weight = {res.min_tardy_weight}")

print("brute force   :", brute_force(inst).min_tardy_weight)

# Reconstruction attaches a feasible early set achieving the optimum.
res = solve(inst, SolverPolicy.AUTO, reconstruct=True)
print("witness early set (job ids):", res.early_set)
print("policy that ran:", res.policy.value)

# Generated instances are deterministic in the seed, which makes results
# reproducible across runs and languages.
gen = generate_instance(seed=42, n=10, d_hash=4, d_max=25, p_max=6, w_max=9)
print("\ngenerated n=10 instance, distinct due dates:", sorted({j.d for j in gen.jobs}))
print("optimum:", solve(gen).min_tardy_weight, " (oracle:", brute_force(gen).min_tardy_weight, ")")
