"""Benchmark harness: timed solver runs over seeded instance grids.

The config is a JSON-compatible dict:

    {
      "policies": ["naive", "lawler-moore"],
      "repetitions": 5,
      "verify": true,
      "grid": [
        {"n": 64, "d_hash": 4, "d_max": 2000, "p_max": 10, "w_max": 10,
         "seeds": [1, 2, 3]},
        ...
      ]
    }

One CSV row is emitted per (policy, instance, repetition) with the wall
time in nanoseconds.  Repetitions run in rounds that solve the instance
once under every policy, each time on a fresh copy of the instance, so every
timed call is a first solve.  Correctness comes before timing: all policies (plus
an untimed reference solve when ``verify`` is on) must agree on every
instance, otherwise the run aborts with :class:`BenchDisagreement` and no
rows are reported for it.
"""

from __future__ import annotations

import csv
import io
import time
from typing import Iterable

from .core import Instance
from .generate import generate_instance
from .solvers import SolverPolicy, solve

__all__ = ["BenchDisagreement", "run_bench", "rows_to_csv", "CSV_COLUMNS"]

CSV_COLUMNS = ["policy", "seed", "n", "d_hash", "d_max", "p_max", "w_max", "answer", "nanos"]


class BenchDisagreement(RuntimeError):
    """Raised when solver answers differ on a benchmark instance."""


def _reference_policy(policies: list[SolverPolicy]) -> SolverPolicy:
    if SolverPolicy.LAWLER_MOORE not in policies:
        return SolverPolicy.LAWLER_MOORE
    return SolverPolicy.MAXPLUS_NAIVE


def run_bench(config: dict) -> list[dict]:
    """Run the configured grid; return one row dict per timed repetition."""
    policies = [SolverPolicy(name) for name in config.get("policies", ["naive"])]
    if not policies:
        raise ValueError("config lists no policies")
    repetitions = int(config.get("repetitions", 5))
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    verify = bool(config.get("verify", True))
    grid = config.get("grid", [])

    rows: list[dict] = []
    for cell in grid:
        params = {
            "n": int(cell["n"]),
            "d_hash": int(cell["d_hash"]),
            "d_max": int(cell["d_max"]),
            "p_max": int(cell.get("p_max", 10)),
            "w_max": int(cell.get("w_max", 10)),
        }
        distribution = cell.get("distribution", "uniform")
        for seed in cell["seeds"]:
            instance = generate_instance(seed=int(seed), distribution=distribution, **params)
            answers: dict[str, int] = {}
            timings: dict[str, list[int]] = {policy.value: [] for policy in policies}
            # one round per repetition, each policy once per round, so that a
            # slow stretch of a shared machine falls on every policy alike
            for _ in range(repetitions):
                for policy in policies:
                    fresh = Instance(instance.jobs)
                    t0 = time.perf_counter_ns()
                    result = solve(fresh, policy)
                    timings[policy.value].append(time.perf_counter_ns() - t0)
                    answer = answers.setdefault(policy.value, result.min_tardy_weight)
                    if answer != result.min_tardy_weight:
                        raise BenchDisagreement(
                            f"policy {policy.value} is nondeterministic on seed {seed}: "
                            f"{answer} vs {result.min_tardy_weight}"
                        )
            if verify:
                ref = _reference_policy(policies)
                answers[f"reference:{ref.value}"] = solve(instance, ref).min_tardy_weight
            if len(set(answers.values())) != 1:
                raise BenchDisagreement(
                    f"answers disagree on seed {seed} {params}: {answers}"
                )
            for policy in policies:
                for nanos in timings[policy.value]:
                    rows.append(
                        {
                            "policy": policy.value,
                            "seed": int(seed),
                            **params,
                            "answer": answers[policy.value],
                            "nanos": nanos,
                        }
                    )
    return rows


def rows_to_csv(rows: Iterable[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()
