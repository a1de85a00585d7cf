"""Fit AUTO's cost constants to the committed grid of policy medians.

Usage, from the root of the repository:

    python scripts/fit_auto.py --measure   # time the grid, rewrite BENCH_auto_grid.json
    python scripts/fit_auto.py             # print the constants fitted to it
    python scripts/fit_auto.py --check     # exit 1 if DEFAULT_CALIBRATION differs from them

``--measure`` runs ``run_bench`` (what ``tardyjobs bench`` runs) on every
shape of ``bench/auto_grid.json``, one shape at a time, and records each
policy's median wall time in ``BENCH_auto_grid.json``.  It takes minutes and
its numbers depend on the machine, so it is never part of a test run.  The
grid times only AUTO's candidates, and does not cross-check against a
reference solve: the default reference is the quadratic naive merge, and
the three candidates already check one another.

The fit needs no timing.  AUTO estimates a candidate's time as
``a * calls + b * units`` (see ``tardyjobs.solvers``); for each candidate
this finds the non-negative ``(a, b)`` that minimise the squared relative
error over the grid's shapes.  Shapes where inverse-w falls back to
Lawler-Moore are left out of inverse-w's fit, since their median is the
baseline's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tardyjobs import DEFAULT_CALIBRATION, SolverPolicy, auto_select, generate_instance, run_bench  # noqa: E402
from tardyjobs.solvers import _auto_counts  # noqa: E402

CONFIG = ROOT / "bench" / "auto_grid.json"
MEDIANS = ROOT / "BENCH_auto_grid.json"
SHAPE_KEYS = ("n", "d_hash", "d_max", "p_max", "w_max")
DIGITS = 3  # significant digits of the printed constants


def measure() -> None:
    """Time every shape of the grid config and write the medians file."""
    config = json.loads(CONFIG.read_text())
    shapes = []
    for k, cell in enumerate(config["grid"], start=1):
        rows = run_bench({**config, "grid": [cell]})
        for seed in cell["seeds"]:
            medians = {
                policy: statistics.median(
                    r["nanos"] for r in rows if r["policy"] == policy and r["seed"] == seed
                ) / 1e6
                for policy in config["policies"]
            }
            shapes.append({**{key: cell[key] for key in SHAPE_KEYS}, "seed": seed, "median_ms": medians})
        print(f"{k}/{len(config['grid'])} {shapes[-1]}", file=sys.stderr)
    out = {
        "config": str(CONFIG.relative_to(ROOT)),
        "repetitions": config["repetitions"],
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}, "
        f"Python {platform.python_version()}, numpy {np.__version__}",
        "shapes": shapes,
    }
    # one shape per line, so that a refresh diffs line by line
    lines = [f' "{key}": {json.dumps(value)},' for key, value in out.items() if key != "shapes"]
    rows = ",\n".join(f"  {json.dumps(shape)}" for shape in shapes)
    MEDIANS.write_text("{\n" + "\n".join(lines) + '\n "shapes": [\n' + rows + "\n ]\n}\n")


def load() -> list[tuple[object, dict[SolverPolicy, float]]]:
    """(instance, {policy: median ms}) for every shape of the medians file."""
    return [
        (
            generate_instance(seed=s["seed"], **{key: s[key] for key in SHAPE_KEYS}),
            {SolverPolicy(p): ms for p, ms in s["median_ms"].items()},
        )
        for s in json.loads(MEDIANS.read_text())["shapes"]
    ]


def fit(shapes) -> dict[SolverPolicy, tuple[float, float]]:
    """Per candidate, the non-negative (a, b) with the least squared relative error."""
    counts = [(_auto_counts(instance), medians) for instance, medians in shapes]
    constants = {}
    for policy in DEFAULT_CALIBRATION:
        # inverse-w has no counts where it falls back to Lawler-Moore
        rows = [(*c[policy], medians[policy]) for c, medians in counts if policy in c]
        x = np.array([(calls / ms, units / ms) for calls, units, ms in rows])
        ones = np.ones(len(rows))
        candidates = [np.linalg.lstsq(x, ones, rcond=None)[0]]
        for col in (0, 1):  # the best fit with one of the terms dropped
            single = np.zeros(2)
            single[col] = x[:, col] @ ones / (x[:, col] @ x[:, col])
            candidates.append(single)
        best = min((c for c in candidates if (c >= 0).all()), key=lambda c: ((x @ c - 1) ** 2).sum())
        constants[policy] = tuple(float(f"{v:.{DIGITS}g}") for v in best)
    return constants


def report(shapes, constants) -> None:
    """Print each shape's pick against its fastest policy."""
    misses = 0
    for instance, medians in shapes:
        with patch.dict(DEFAULT_CALIBRATION, constants):
            pick = auto_select(instance)
        fastest = min(medians, key=medians.get)
        ratio = medians[pick] / medians[fastest]
        misses += ratio > 1.5
        print(
            f"n={instance.n:<6} d#={instance.d_hash:<3} D={instance.d_max:<8} p={instance.p_max:<4} "
            f"w={instance.w_max:<3} pick {pick.value:<13} {medians[pick]:9.2f} ms  "
            f"fastest {fastest.value:<13} {medians[fastest]:9.2f} ms  x{ratio:.2f}"
        )
    print(f"{len(shapes) - misses} of {len(shapes)} picks within 1.5x of the fastest")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", action="store_true", help="time the grid and rewrite the medians file")
    parser.add_argument("--check", action="store_true", help="fail if DEFAULT_CALIBRATION differs from the fit")
    args = parser.parse_args()
    if args.measure:
        measure()
    shapes = load()
    constants = fit(shapes)
    if args.check:
        # a constant may differ from the fit by about one unit in its last printed digit
        drift = [
            policy.value
            for policy, fitted in constants.items()
            if not all(
                math.isclose(c, f, rel_tol=10 ** (1 - DIGITS)) for c, f in zip(DEFAULT_CALIBRATION[policy], fitted)
            )
        ]
        if drift:
            print(f"DEFAULT_CALIBRATION differs from the fit for {drift}: {constants}", file=sys.stderr)
            return 1
        print("DEFAULT_CALIBRATION matches the fit to BENCH_auto_grid.json")
        return 0
    report(shapes, constants)
    print("DEFAULT_CALIBRATION = {")
    for policy, (a, b) in constants.items():
        print(f"    SolverPolicy.{policy.name}: ({a!r}, {b!r}),")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
