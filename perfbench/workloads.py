"""The benchmark's workloads and the layers each one is expected to exercise.

Every workload is a seeded set of ``generate_instance`` shapes with
``w_max=10``; README.md gives the reason for each shape.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    shape: dict  # keyword arguments of generate_instance, without the seed
    instances: int  # instances per run, each solved under AUTO
    auto_passes: int  # AUTO solves per instance, and slots per run; instances * auto_passes >= 100
    policy_instances: int  # instances also solved under every policy, repeatedly
    witnesses: int  # instances also solved with reconstruct=True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="many-dates",
            shape=dict(n=200, d_hash=16, d_max=2000, p_max=10, w_max=10),
            instances=34,
            auto_passes=3,
            policy_instances=17,
            witnesses=6,
        ),
        Workload(
            name="small-p",
            shape=dict(n=5000, d_hash=4, d_max=5000, p_max=5, w_max=10),
            instances=25,
            auto_passes=4,
            policy_instances=20,
            witnesses=0,
        ),
    )
}

# Layer -> workloads on which it does most of its work.  A traced run that
# records zero calls for such a layer fails, which catches a renamed or
# rewired function that the tracer no longer reaches.
BUSY = {
    "solvers.auto_select": ("many-dates", "small-p"),
    "solvers.lawler_moore": ("small-p",),
    "solvers.forward_states": ("many-dates",),
    "solvers.reconstruct_schedule": ("many-dates",),
    "builders.build_solution_vector_dp": ("small-p",),
    "builders.step_concave_class_vector": ("small-p",),
    "builders.build_solution_vector_concave": ("small-p",),
    "builders.step_convex_class_vector": ("many-dates",),
    "maxplus.convolve_naive": ("many-dates",),
    "maxplus.convolve_sstep_concave": ("small-p",),
    "maxplus.convolve_with_ranges": ("many-dates",),
    "maxplus.minplus_convolve": ("many-dates",),
    "fractional.fractional_solution_vector": ("small-p", "many-dates"),
    "prediction.compute_range_intervals": ("many-dates",),
    "core.group_by_due_date": ("small-p",),
    "generate.generate_instance": ("many-dates", "small-p"),
}
