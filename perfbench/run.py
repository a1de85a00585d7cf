"""End-to-end and per-layer benchmark of tardyjobs.solve().

Usage, from the root of the repository:

    python3 perfbench/run.py --workload many-dates --seed 1 --seconds 55 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it sits
in, and exits with an error if that package is missing.  One process and one
thread make all the calls, one after another.

``--trace 0`` times the calls untraced and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` wraps the package's layer functions (see
tracer.py), runs one pass of every call, and reports the per-layer metrics;
its spans go to ``.bench_out/spans-<workload>.csv``.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
numbers for people.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import POLICIES, Tracer  # noqa: E402
from workloads import BUSY, WORKLOADS, Workload  # noqa: E402

SETUP_SLOTS = 3  # slots that set up, spread over the run
SETUP_SLOT_S = 0.5  # such a slot sets up at least once, and again until this long
STRATA = 16  # candidate instances drawn per instance kept
PROBE_WEIGHT = 2**62


def import_program():
    """Import tardyjobs from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tardyjobs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tardyjobs package under {src}")
    sys.path.insert(0, str(src))
    import tardyjobs

    return tardyjobs


@dataclass(frozen=True)
class Case:
    instance: object
    reference: int  # min_tardy_weight from lawler_moore


class Ledger:
    """Counts attempted and failed calls; a failure never stops the run.

    ``outcomes`` has one entry per distinct call, keyed by what was called on
    which instance, and is false if any repeat of that call failed.  How many
    entries there are does not depend on how many repeats fit in a run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outcomes: dict[tuple, bool] = {}

    def record(self, key: tuple, error: str | None) -> None:
        self.attempted += 1
        self.outcomes[key] = self.outcomes.get(key, True) and error is None
        if error is not None:
            self.failed += 1
            self.errors.append(error)


def check(tj, case: Case, result, witness: bool) -> str | None:
    """Why the result is wrong, or None.  Witnesses are checked from outside."""
    if result.min_tardy_weight != case.reference:
        return f"min_tardy_weight {result.min_tardy_weight}, reference {case.reference}"
    if result.max_early_weight != case.instance.w_total - case.reference:
        return f"max_early_weight {result.max_early_weight}, reference {case.instance.w_total - case.reference}"
    if not witness:
        return None
    by_id = {job.id: job for job in case.instance.jobs}
    early = result.early_set or ()
    if len(set(early)) != len(early) or not all(i in by_id for i in early):
        return f"witness names unknown or repeated jobs: {early}"
    chosen = [by_id[i] for i in early]
    if sum(job.w for job in chosen) != result.max_early_weight:
        return "witness weights do not sum to max_early_weight"
    if not tj.edd_feasible(chosen):
        return "witness is not EDD-feasible"
    return None


def timed(tj, ledger: Ledger, key: tuple, case: Case, call, witness: bool = False) -> int | None:
    """Run one call, check it, and return its ns, or None if it failed."""
    t0 = time.perf_counter_ns()
    try:
        result = call()
    except Exception as exc:  # counted as a failed call; the run goes on
        ledger.record(key, f"{type(exc).__name__}: {exc}")
        return None
    ns = time.perf_counter_ns() - t0
    error = check(tj, case, result, witness)
    ledger.record(key, error)
    return None if error else ns


GAUGE_ROW = tuple((i * 7919) % 1000 for i in range(150))
GAUGE_MS = 1.0  # what one gauge reading is taken to be worth; see Gauge


class Gauge:
    """Reads the machine's speed off a fixed pure-Python loop.

    A shared machine's other tenants can make the same solve take from 1x
    to 1.7x its quiet time, in stretches that last from seconds to whole
    minutes, so the fastest of several repeats cannot escape a slow minute.
    The loop, a small (max,+) product, slows down with the solves: a call's
    time divided by the mean of the readings taken just before and just
    after it stays within a few percent while its own time swings by half.
    Samples are kept in readings and reported as ms at GAUGE_MS per
    reading: on the 2-core VM the benchmark was tuned on, a run's quietest
    reading took 0.97-1.10 ms, so the figures are close to that VM's quiet
    ms.  A faster program lowers them in proportion; the loop is the
    benchmark's own code, so no change to the program moves it.
    """

    def __init__(self) -> None:
        self.readings: list[int] = []

    def read(self) -> int:
        t0 = time.perf_counter_ns()
        out = [0] * (2 * len(GAUGE_ROW))
        for k, a in enumerate(GAUGE_ROW):
            for j, b in enumerate(GAUGE_ROW):
                if a + b > out[k + j]:
                    out[k + j] = a + b
        ns = time.perf_counter_ns() - t0
        self.readings.append(ns)
        return ns

    def around(self, call):
        """Run call() between two readings: its result and their mean, in ns."""
        before = self.read()
        result = call()
        return result, (before + self.read()) / 2

    def bracket(self, call):
        """Run call() between two readings: its result and its time in readings."""

        def clocked():
            t0 = time.perf_counter_ns()
            result = call()
            return result, time.perf_counter_ns() - t0

        (result, ns), reading = self.around(clocked)
        return result, ns / reading


def instance_seeds(tj, workload: Workload, seed: int) -> list[int]:
    """Instance seeds drawn from the run seed, spread over the due-date total.

    Solve time follows the due dates closely, so a handful of random
    instances makes runs with different seeds disagree.  STRATA candidates are
    drawn per instance kept, sorted by the sum of their due dates, and every
    STRATA-th is kept, so each run covers the generator's range of shapes.
    generate_instance draws the due dates first, so a call with n = d_hash
    yields the same due dates as the full instance, at little cost.
    """
    rng = tj.SplitMix64(seed)
    candidates = [rng.next_u64() for _ in range(STRATA * workload.instances)]
    shape = {**workload.shape, "n": workload.shape["d_hash"]}

    def due_date_total(s: int) -> int:
        return sum({job.d for job in tj.generate_instance(seed=s, **shape).jobs})

    candidates.sort(key=due_date_total)
    return candidates[STRATA // 2 :: STRATA]


class Session:
    """The calls of one run: its cases, ledger, samples and optional tracer."""

    def __init__(self, tj, workload: Workload, gauge: Gauge, tracer: Tracer | None = None) -> None:
        self.tj, self.workload, self.gauge, self.tracer = tj, workload, gauge, tracer
        self.ledger = Ledger()
        self.cases: list[Case] = []
        # time of each successful call in gauge readings (see Gauge), per instance
        self.auto: dict[int, list[float]] = defaultdict(list)
        self.policy: dict[str, dict[int, list[float]]] = {p: defaultdict(list) for p in POLICIES}
        self.witness: dict[int, list[float]] = defaultdict(list)

    def set_up(self, seed: int) -> float:
        """Generate the instances and their Lawler-Moore reference answers.

        Returns the time it took, in gauge readings, each instance timed on
        its own so that the readings follow the machine's speed.  The same
        seed gives the same cases.
        """
        tj = self.tj

        def case(s: int) -> Case:
            instance = tj.generate_instance(seed=s, **self.workload.shape)
            return Case(instance, tj.lawler_moore(instance).min_tardy_weight)

        seeds, total = self.gauge.bracket(partial(instance_seeds, tj, self.workload, seed))
        self.cases = []
        for s in seeds:
            c, readings = self.gauge.bracket(partial(case, s))
            self.cases.append(c)
            total += readings
        return total

    def cross_check(self) -> None:
        """Confirm every reference with the naive (max,+) policy."""
        naive = self.tj.SolverPolicy.MAXPLUS_NAIVE
        for i, case in enumerate(self.cases):
            self._call(("cross-check", i), case, lambda: self.tj.solve(case.instance, naive))

    def _call(self, key: tuple, case: Case, call, witness: bool = False) -> float | None:
        """The call's time in gauge readings, or None if it failed."""
        if self.tracer is not None:
            self.tracer.solve_id += 1
        ns, reading = self.gauge.around(lambda: timed(self.tj, self.ledger, key, case, call, witness))
        return None if ns is None else ns / reading

    def auto_call(self, i: int) -> float | None:
        """solve(instance) under AUTO on instance i; its time, or None if it failed."""
        case = self.cases[i]
        return self._call(("auto", i), case, lambda: self.tj.solve(case.instance))

    def auto_pass(self) -> None:
        """auto_call once per instance."""
        for i in range(len(self.cases)):
            ns = self.auto_call(i)
            if ns is not None:
                self.auto[i].append(ns)

    def extra_calls(self, i: int) -> None:
        """Every policy, and the witness call, if instance i is picked for them.

        The picks are evenly spaced over the cases, which are ordered by
        due-date total.
        """
        tj, case, k = self.tj, self.cases[i], len(self.cases)
        picked = self.workload.policy_instances
        if i * picked % k < picked:
            for policy in POLICIES:
                ns = self._call((policy, i), case, partial(tj.solve, case.instance, tj.SolverPolicy(policy)))
                if ns is not None:
                    self.policy[policy][i].append(ns)
        if i * self.workload.witnesses % k < self.workload.witnesses:
            ns = self._call(("witness", i), case, partial(tj.solve, case.instance, reconstruct=True), witness=True)
            if ns is not None:
                self.witness[i].append(ns)


def probe(tj) -> Ledger:
    """Solve three jobs of weight 2**62 under every policy and AUTO, untimed.

    Known to fail at the numeric edges: naive and prediction overflow int64
    and inverse-w raises.  Only 2**62 is used: inverse-w allocates lists as
    long as a weight class's total weight.
    """
    jobs = tuple(tj.Job(id=i, p=1, w=PROBE_WEIGHT, d=2000) for i in range(3))
    case = Case(tj.Instance(jobs), 0)
    ledger = Ledger()
    for policy in (*POLICIES, "auto"):
        timed(tj, ledger, ("probe", policy), case, lambda: tj.solve(case.instance, tj.SolverPolicy(policy)))
    return ledger


def medians(per_instance: dict[int, list[float]]) -> list[float]:
    """Each instance's median over its repeats, sorted."""
    return sorted(statistics.median(v) for v in per_instance.values())


def percentile(values: list[float], q: int = 50) -> float:
    """Percentile q of the samples; NaN if there are none."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def across_instances(per_instance: dict[int, list[float]]) -> float:
    """Mean of the middle half of the instances' medians; NaN if none.

    The instances are a stratified sample (see instance_seeds), so a mean
    over several of them varies less from seed to seed than the median
    instance; dropping the outer quarters keeps one odd instance from moving it.
    """
    values = medians(per_instance)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut]) if values else float("nan")


def measure(
    tj, workload: Workload, seed: int, seconds: float, gauge: Gauge, import_readings: float
) -> tuple[Ledger, dict, dict]:
    """Untraced run: returns the ledger, the metrics and extra numbers for people.

    The run is cut into one slot per AUTO pass.  SETUP_SLOTS of the slots,
    evenly spaced, set up (more than once where set-up is quick); each slot
    makes its AUTO pass and fills the rest
    of the slot with extra calls, cycling over the instances; the last slot
    goes on until every instance has had its extra calls once.  So every
    metric samples the whole run: the speed of a shared machine can drift by
    a quarter within a few seconds.
    """
    session = Session(tj, workload, gauge)
    setups: list[float] = []  # in gauge readings

    def set_up_slot() -> None:
        spent = 0.0
        while spent < SETUP_SLOT_S:
            t0 = time.perf_counter()
            setups.append(session.set_up(seed))
            spent += time.perf_counter() - t0

    set_up_slot()
    session.cross_check()
    edge = probe(tj)

    t_start = time.perf_counter()
    k, passes, done = len(session.cases), workload.auto_passes, 0
    for r in range(passes):
        if r and r * SETUP_SLOTS % passes < SETUP_SLOTS:
            set_up_slot()
        session.auto_pass()
        slot_end = t_start + seconds * (r + 1) / passes
        while time.perf_counter() < slot_end or (r == passes - 1 and done < k):
            session.extra_calls(done % k)
            done += 1

    # Each distinct call counts once, so one more failing call moves ok_frac
    # by the same amount however many repeats the machine fitted in.
    outcomes = [*session.ledger.outcomes.values(), *edge.outcomes.values()]
    ok_frac = sum(outcomes) / len(outcomes)
    metrics = {
        "solve_ms.p50": percentile(medians(session.auto), 50) * GAUGE_MS,
        "solve_ms.p90": percentile(medians(session.auto), 90) * GAUGE_MS,
        **{f"policy_ms.{p}": across_instances(session.policy[p]) * GAUGE_MS for p in POLICIES},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": (import_readings + statistics.median(setups)) * GAUGE_MS / 1e3,
        "ok_frac": ok_frac,
    }
    extra = {
        "failed_frac": 1 - ok_frac,
        "ok_frac.calls": len(outcomes),
        "repeats.auto": min(map(len, session.auto.values()), default=0),
        "repeats.policy": min((len(v) for p in POLICIES for v in session.policy[p].values()), default=0),
        "gauge.quiet_ms": min(session.gauge.readings) / 1e6,
        "gauge.median_ms": statistics.median(session.gauge.readings) / 1e6,
    }
    if workload.witnesses:
        extra["witness_ms.p50"] = percentile(medians(session.witness)) * GAUGE_MS
    for error in edge.errors:
        print(f"edge probe: {error}")
    return session.ledger, metrics, extra


def measure_traced(tj, workload: Workload, seed: int, gauge: Gauge) -> tuple[Ledger, dict]:
    """Traced run: one round of every call, plus the tracing overhead on AUTO.

    Set-up traces only generate_instance, and the cross-check runs untraced,
    so every other layer's numbers come from the calls the untraced run times.
    """
    tracer = Tracer()
    session = Session(tj, workload, gauge, tracer)
    tracer.install(["generate.generate_instance"])
    try:
        session.set_up(seed)
    finally:
        tracer.uninstall()
    session.cross_check()
    # Each instance is solved untraced, then traced, and the overhead is the
    # median difference: the machine's speed drifts too much between two
    # whole passes for their difference to show the tracer's cost.
    overhead = []
    for i in range(len(session.cases)):
        plain = session.auto_call(i)
        tracer.install()
        try:
            traced = session.auto_call(i)
        finally:
            tracer.uninstall()
        if plain is not None and traced is not None:
            overhead.append(traced - plain)
    tracer.install()
    try:
        for i in range(len(session.cases)):
            session.extra_calls(i)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{workload.name}.csv")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ms"] = statistics.median(overhead) * GAUGE_MS if overhead else float("nan")
    metrics["trace.spans"] = len(tracer.spans)
    return session.ledger, metrics


def idle_layers(workload_name: str, metrics: dict) -> list[str]:
    """Layers expected to be busy on this workload that recorded no calls."""
    return [
        layer
        for layer, names in BUSY.items()
        if workload_name in names and metrics.get(f"{layer}.calls", 0) == 0
    ]


def units(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def report(ledger: Ledger, metrics: dict, extra: dict) -> None:
    for error in ledger.errors:
        print(f"failed call: {error}")
    for name, value in {**metrics, **extra}.items():
        print(f"{name:52s} {value:14.4f} {units(name)}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    gauge = Gauge()
    tj, import_readings = gauge.bracket(import_program)

    if args.trace:
        ledger, metrics = measure_traced(tj, workload, args.seed, gauge)
        idle = idle_layers(workload.name, metrics)
        if idle:
            print(f"perfbench: no calls recorded for {', '.join(idle)}", file=sys.stderr)
            return 3
        report(ledger, metrics, {})
    else:
        ledger, metrics, extra = measure(tj, workload, args.seed, args.seconds, gauge, import_readings)
        report(ledger, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
