"""Benchmarking the solvers on seeded instance grids.

The harness times each (policy, instance, repetition) triple and refuses
to report timings unless every policy agrees on every answer.  Doubling
the number of distinct due dates with everything else fixed roughly
doubles the naive merge chain's runtime.

AUTO's cost constants come from the same harness.  From the root of the
repository, the first command times every shape of bench/auto_grid.json
(minutes) and rewrites the medians in BENCH_auto_grid.json; the second
prints the constants fitted to them, to paste into DEFAULT_CALIBRATION:

    python scripts/fit_auto.py --measure
    python scripts/fit_auto.py
"""

import statistics

from tardyjobs.bench import rows_to_csv, run_bench

config = {
    "policies": ["naive", "lawler-moore"],
    "repetitions": 3,
    "verify": True,
    "grid": [
        {"n": 64, "d_hash": dh, "d_max": 800, "p_max": 10, "w_max": 10, "seeds": [1, 2, 3]}
        for dh in (4, 8, 16)
    ],
}

rows = run_bench(config)
print(rows_to_csv(rows[:4]))
print(f"... {len(rows)} rows total\n")

for policy in ("naive", "lawler-moore"):
    print(f"{policy}: median ms per d_hash")
    for dh in (4, 8, 16):
        per_seed = [
            statistics.median(
                r["nanos"] for r in rows
                if r["policy"] == policy and r["d_hash"] == dh and r["seed"] == s
            )
            for s in (1, 2, 3)
        ]
        print(f"  d_hash={dh:>2}: {statistics.median(per_seed) / 1e6:8.2f} ms")
