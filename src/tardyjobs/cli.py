"""Command-line interface: solve, generate, and benchmark.

Exit codes: 0 on success, 1 on input/validation errors, 2 on internal
inconsistencies (a solver raises on a parsed instance, its optimum disagrees
with ``--verify``'s check, or the witness of ``--reconstruct`` disagrees
with it or fails its check).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import BenchDisagreement, rows_to_csv, run_bench
from .generate import DISTRIBUTIONS, generate_instance
from .instance_io import parse_instance, serialize_instance
from .oracle import DEFAULT_CAP, brute_force
from .solvers import SolverPolicy, solve

__all__ = ["main"]

_ALGO_NAMES = [p.value for p in SolverPolicy]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tardyjobs",
        description="Exact solvers for minimizing the weighted number of tardy jobs "
        "on a single machine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file (JSON or CSV)")
    p_solve.add_argument("input", help="instance path, or - for stdin")
    p_solve.add_argument("--algo", choices=_ALGO_NAMES, default="auto")
    p_solve.add_argument(
        "--reconstruct", action="store_true", help="also output a witness early set"
    )
    p_solve.add_argument(
        "--verify",
        action="store_true",
        help="re-solve with an independent method and require agreement",
    )

    p_gen = sub.add_parser("gen", help="generate a random instance deterministically")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d-hash", type=int, required=True, help="number of distinct due dates")
    p_gen.add_argument("--d-max", type=int, required=True)
    p_gen.add_argument("--p-max", type=int, default=10)
    p_gen.add_argument("--w-max", type=int, default=10)
    p_gen.add_argument("--distribution", choices=DISTRIBUTIONS, default="uniform")
    p_gen.add_argument("--format", choices=["json", "csv"], default="json")
    p_gen.add_argument("-o", "--out", help="output path (default stdout)")

    p_bench = sub.add_parser("bench", help="run a benchmark grid from a JSON config")
    p_bench.add_argument("--config", required=True, help="JSON config path")
    p_bench.add_argument("-o", "--out", help="CSV output path (default stdout)")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.input == "-":
        instance = parse_instance(sys.stdin)
    else:
        instance = parse_instance(args.input)
    try:
        result = solve(instance, SolverPolicy(args.algo), reconstruct=args.reconstruct)
    except (ValueError, RuntimeError) as exc:  # the instance parsed: a solver is wrong
        print(f"INTERNAL INCONSISTENCY: {args.algo}: {exc}", file=sys.stderr)
        return 2

    if args.verify:
        if instance.n <= DEFAULT_CAP:
            check_name = "brute-force"
            check = brute_force(instance).min_tardy_weight
        else:
            other = (
                SolverPolicy.MAXPLUS_NAIVE
                if result.policy is SolverPolicy.LAWLER_MOORE
                else SolverPolicy.LAWLER_MOORE
            )
            check_name = other.value
            check = solve(instance, other).min_tardy_weight
        if check != result.min_tardy_weight:
            print(
                f"INTERNAL INCONSISTENCY: {result.policy.value} returned "
                f"{result.min_tardy_weight} but {check_name} returned {check}",
                file=sys.stderr,
            )
            return 2

    out = {
        "policy": result.policy.value,
        "min_tardy_weight": result.min_tardy_weight,
        "max_early_weight": result.max_early_weight,
    }
    if args.reconstruct:
        out["early_set"] = list(result.early_set)
    print(json.dumps(out))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(
        seed=args.seed,
        n=args.n,
        d_hash=args.d_hash,
        d_max=args.d_max,
        p_max=args.p_max,
        w_max=args.w_max,
        distribution=args.distribution,
    )
    text = serialize_instance(instance, format=args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = json.loads(Path(args.config).read_text())
    rows = run_bench(config)
    text = rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_bench(args)
    except BenchDisagreement as exc:
        print(f"INTERNAL INCONSISTENCY: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
