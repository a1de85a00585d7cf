"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import BUSY, WORKLOADS, Workload  # noqa: E402

tj = run.import_program()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = Workload(
    name="tiny",
    shape=dict(n=24, d_hash=3, d_max=120, p_max=10, w_max=10),
    instances=3,
    auto_passes=1,
    policy_instances=3,
    witnesses=1,
)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 25, 50, 0, 0],  # overlaps a: the shared part counts once
        ["c", 12, 20, 1, 0],  # grandchild: only a loses its time
        ["d", 90, 120, 0, 0],  # reaches past the end of root
    ]
    assert tracer.self_times(spans) == [100 - 40 - 10, 20 - 8, 25, 8, 30]


def test_tracer_reaches_calls_made_through_imported_names():
    instance = tj.generate_instance(seed=5, n=40, d_hash=4, d_max=300)
    t = tracer.Tracer()
    t.install()
    try:
        tj.solve(instance, tj.SolverPolicy.CONCAVE_BY_P)
        tj.solve(instance, tj.SolverPolicy.PREDICTION)
    finally:
        t.uninstall()
    metrics = t.layer_metrics()
    for layer in (
        "solvers.forward_states",
        "builders.build_solution_vector_concave",  # solvers' binding
        "maxplus.convolve_sstep_concave",  # solvers' and builders' bindings
        "fractional.fractional_solution_vector",
        "maxplus.convolve_with_ranges",
    ):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["solvers.forward_states.merges"] == 2 * (instance.d_hash - 1)
    assert 0 < metrics["maxplus.convolve_with_ranges.range_ratio"] <= 1
    assert tj.solvers.convolve_naive is tj.maxplus.convolve_naive  # uninstalled


def test_wrong_answers_and_exceptions_are_counted_not_raised():
    instance = tj.generate_instance(seed=2, n=8, d_hash=2, d_max=20)
    right = tj.solve(instance, reconstruct=True)
    case = run.Case(instance, right.min_tardy_weight)
    wrong = tj.SolveResult(right.min_tardy_weight + 1, right.max_early_weight - 1)
    wrong_early = tj.SolveResult(right.min_tardy_weight, right.max_early_weight - 1)
    bad_witness = tj.SolveResult(right.min_tardy_weight, right.max_early_weight, early_set=())

    def boom():
        raise OverflowError("injected")

    assert right.max_early_weight > 0  # so the empty witness is wrong
    ledger = run.Ledger()
    assert run.timed(tj, ledger, ("a",), case, lambda: wrong) is None
    assert run.timed(tj, ledger, ("b",), case, lambda: wrong_early) is None
    assert run.timed(tj, ledger, ("c",), case, boom) is None
    assert run.timed(tj, ledger, ("d",), case, lambda: bad_witness, witness=True) is None
    assert run.timed(tj, ledger, ("e",), case, lambda: right, witness=True) is not None
    assert (ledger.attempted, ledger.failed) == (5, 4)
    assert list(ledger.outcomes.values()) == [False, False, False, False, True]


def naive_off_by_one(monkeypatch):
    """Make the naive policy report one more tardy weight than it should."""
    solve = tj.solve

    def off_by_one(instance, policy=tj.SolverPolicy.AUTO, **kwargs):
        result = solve(instance, policy, **kwargs)
        if policy is tj.SolverPolicy.MAXPLUS_NAIVE:
            return tj.SolveResult(result.min_tardy_weight + 1, result.max_early_weight - 1)
        return result

    monkeypatch.setattr(tj, "solve", off_by_one)


def run_tiny(capsys, seconds: str) -> dict:
    assert run.main(["--workload", "tiny", "--seed", "4", "--seconds", seconds]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_injected_wrong_answer_is_reported_as_failed(capsys, monkeypatch):
    naive_off_by_one(monkeypatch)
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    last = run_tiny(capsys, "0")
    # the set-up cross-check and the timed pass each call naive once per instance
    assert last["correct"] is False
    assert last["failed"] == 2 * TINY.instances
    assert last["metrics"]["ok_frac"]["value"] < 1


def test_ok_frac_does_not_depend_on_run_length(capsys, monkeypatch):
    naive_off_by_one(monkeypatch)
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    short, long = run_tiny(capsys, "0"), run_tiny(capsys, "1")
    assert long["failed"] > short["failed"]  # more rounds fitted in one second
    assert long["metrics"]["ok_frac"] == short["metrics"]["ok_frac"]


def test_busy_layer_without_calls_fails_the_traced_run(capsys, monkeypatch):
    assert set(BUSY) == set(tracer.LAYERS)
    assert all(set(names) <= set(WORKLOADS) for names in BUSY.values())
    monkeypatch.setitem(run.WORKLOADS, "tiny", Workload(**{**TINY.__dict__, "witnesses": 0}))
    monkeypatch.setitem(run.BUSY, "solvers.reconstruct_schedule", ("tiny",))
    assert run.main(["--workload", "tiny", "--seed", "4", "--seconds", "0", "--trace", "1"]) == 3
    assert "solvers.reconstruct_schedule" in capsys.readouterr().err


def test_printed_metric_names_match_benchmark_json(capsys, monkeypatch):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


def test_gauge_reports_time_in_readings():
    gauge = run.Gauge()
    result, readings = gauge.bracket(lambda: [gauge.read() for _ in range(3)] and "done")
    assert result == "done"
    assert 1 < readings < 20  # three readings, timed between two more
    assert len(gauge.readings) == 5


def test_edge_probe_makes_six_untimed_calls():
    assert run.probe(tj).attempted == 6
