import io
import json
import subprocess
import sys

import pytest

from tardyjobs import generate_instance, parse_instance, serialize_instance
from tardyjobs.bench import BenchDisagreement, CSV_COLUMNS, rows_to_csv, run_bench
from tardyjobs.cli import main
from tardyjobs.instance_io import parse_instance_csv, parse_instance_json


class TestParsing:
    def test_json_single_job(self):
        inst = parse_instance_json('{"jobs":[{"p":2,"w":3,"d":2}]}')
        assert inst.n == 1
        assert (inst.jobs[0].p, inst.jobs[0].w, inst.jobs[0].d) == (2, 3, 2)

    def test_csv_single_job(self):
        inst = parse_instance_csv("p,w,d\n2,3,2\n")
        assert inst.n == 1
        assert (inst.jobs[0].p, inst.jobs[0].w, inst.jobs[0].d) == (2, 3, 2)

    def test_json_and_csv_agree(self):
        a = parse_instance_json('{"jobs":[{"p":2,"w":3,"d":2},{"p":1,"w":1,"d":5}]}')
        b = parse_instance_csv("p,w,d\n2,3,2\n1,1,5\n")
        assert a == b

    @pytest.mark.parametrize(
        "text,err",
        [
            ('{"jobs":[{"p":0,"w":1,"d":1}]}', "jobs\\[0\\]"),
            ('{"jobs":[]}', "non-empty"),
            ('{"jobs":[{"w":1,"d":1}]}', "missing field"),
            ("not json {", "invalid JSON"),
        ],
    )
    def test_json_errors(self, text, err):
        with pytest.raises(ValueError, match=err):
            parse_instance_json(text)

    @pytest.mark.parametrize(
        "text,err",
        [
            ("", "empty"),
            ("a,b,c\n1,2,3\n", "header"),
            ("p,w,d\n", "no job rows"),
            ("p,w,d\n1,2\n", "line 2"),
            ("p,w,d\n1,-2,3\n", "line 2"),
        ],
    )
    def test_csv_errors(self, text, err):
        with pytest.raises(ValueError, match=err):
            parse_instance_csv(text)

    def test_round_trip_both_formats(self):
        inst = generate_instance(seed=3, n=9, d_hash=4, d_max=25)
        assert parse_instance_json(serialize_instance(inst, "json")) == inst
        assert parse_instance_csv(serialize_instance(inst, "csv")) == inst

    def test_stream_sniffing(self):
        inst = generate_instance(seed=4, n=3, d_hash=2, d_max=9)
        assert parse_instance(io.StringIO(serialize_instance(inst, "json"))) == inst
        assert parse_instance(io.StringIO(serialize_instance(inst, "csv"))) == inst

    def test_path_by_suffix(self, tmp_path):
        inst = generate_instance(seed=5, n=4, d_hash=2, d_max=9)
        p = tmp_path / "inst.csv"
        p.write_text(serialize_instance(inst, "csv"))
        assert parse_instance(p) == inst

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_order_mark_is_skipped(self, tmp_path, fmt):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark
        inst = generate_instance(seed=6, n=4, d_hash=2, d_max=9)
        text = "\ufeff" + serialize_instance(inst, fmt)
        assert parse_instance(io.StringIO(text)) == inst
        for name in (f"inst.{fmt}", "inst.txt"):  # by suffix, and sniffed
            p = tmp_path / name
            p.write_text(text, encoding="utf-8")
            assert parse_instance(p) == inst


class TestGenerate:
    def test_deterministic(self):
        a = generate_instance(seed=11, n=10, d_hash=4, d_max=30)
        b = generate_instance(seed=11, n=10, d_hash=4, d_max=30)
        assert a == b

    def test_exact_distinct_due_dates(self):
        for seed in range(20):
            inst = generate_instance(seed=seed, n=7, d_hash=3, d_max=12)
            assert inst.d_hash == 3

    def test_all_distinct(self):
        inst = generate_instance(seed=2, n=6, d_hash=6, d_max=40)
        assert inst.d_hash == 6

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="d_hash"):
            generate_instance(seed=1, n=3, d_hash=4, d_max=10)
        with pytest.raises(ValueError, match="d_hash"):
            generate_instance(seed=1, n=5, d_hash=4, d_max=3)
        with pytest.raises(ValueError, match="distribution"):
            generate_instance(seed=1, n=3, d_hash=2, d_max=5, distribution="zipf")

    def test_subset_sum_distribution(self):
        inst = generate_instance(seed=9, n=12, d_hash=3, d_max=20, distribution="subset-sum")
        assert all(j.w == min(j.p, 10) for j in inst.jobs)

    def test_bounds_respected(self):
        inst = generate_instance(seed=13, n=40, d_hash=5, d_max=18, p_max=4, w_max=6)
        assert all(1 <= j.p <= 4 and 1 <= j.w <= 6 and 1 <= j.d <= 18 for j in inst.jobs)


class TestBench:
    CONFIG = {
        "policies": ["naive", "lawler-moore"],
        "repetitions": 2,
        "verify": True,
        "grid": [{"n": 10, "d_hash": 3, "d_max": 25, "p_max": 5, "w_max": 5, "seeds": [1, 2]}],
    }

    def test_rows_and_agreement(self):
        rows = run_bench(self.CONFIG)
        # 2 policies x 2 seeds x 2 repetitions
        assert len(rows) == 8
        by_seed = {}
        for r in rows:
            by_seed.setdefault(r["seed"], set()).add(r["answer"])
        assert all(len(v) == 1 for v in by_seed.values())
        assert all(r["nanos"] > 0 for r in rows)

    def test_empty_grid_keeps_header(self):
        text = rows_to_csv(run_bench({"policies": ["naive"], "grid": []}))
        assert text.strip() == ",".join(CSV_COLUMNS)

    def test_csv_columns(self):
        text = rows_to_csv(run_bench(self.CONFIG))
        header = text.splitlines()[0]
        assert header == "policy,seed,n,d_hash,d_max,p_max,w_max,answer,nanos"

    def test_every_timed_solve_is_a_first_solve(self, monkeypatch):
        import tardyjobs.bench as bench_mod

        real = bench_mod.solve
        seen = []

        def recording(instance, policy):
            seen.append((instance, "classes" in instance.__dict__))
            return real(instance, policy)

        monkeypatch.setattr(bench_mod, "solve", recording)
        config = {**self.CONFIG, "policies": ["auto", "lawler-moore"], "verify": False}
        rows = run_bench(config)
        assert len(seen) == len(rows) == 8
        assert not any(built for _, built in seen)
        assert len({id(inst) for inst, _ in seen}) == len(seen)

    def test_disagreement_aborts(self, monkeypatch):
        import tardyjobs.bench as bench_mod

        real = bench_mod.solve

        def broken(instance, policy):
            res = real(instance, policy)
            if policy.value == "naive":
                return type(res)(res.min_tardy_weight + 1, res.max_early_weight)
            return res

        monkeypatch.setattr(bench_mod, "solve", broken)
        with pytest.raises(BenchDisagreement):
            run_bench(self.CONFIG)


class TestCli:
    def _instance_file(self, tmp_path, fmt="json"):
        inst = generate_instance(seed=21, n=8, d_hash=3, d_max=20)
        path = tmp_path / f"inst.{fmt}"
        path.write_text(serialize_instance(inst, fmt))
        return path, inst

    @pytest.mark.parametrize("algo", ["lawler-moore", "naive", "prediction", "concave-p", "inverse-w", "auto"])
    def test_solve_all_algos(self, tmp_path, capsys, algo):
        path, inst = self._instance_file(tmp_path)
        assert main(["solve", str(path), "--algo", algo, "--verify"]) == 0
        out = json.loads(capsys.readouterr().out)
        from tardyjobs import brute_force

        assert out["min_tardy_weight"] == brute_force(inst).min_tardy_weight

    def test_solve_reconstruct(self, tmp_path, capsys):
        path, inst = self._instance_file(tmp_path, "csv")
        assert main(["solve", str(path), "--algo", "naive", "--reconstruct"]) == 0
        out = json.loads(capsys.readouterr().out)
        by_id = {j.id: j for j in inst.jobs}
        assert sum(by_id[i].w for i in out["early_set"]) == out["max_early_weight"]

    @pytest.mark.parametrize(
        "extra", [["--verify"], ["--verify", "--reconstruct"], ["--reconstruct"]]
    )
    def test_wrong_optimum_exits_2(self, tmp_path, capsys, monkeypatch, extra):
        import tardyjobs.solvers as solvers

        real_lawler_moore, real_merge = solvers.lawler_moore, solvers.convolve_naive

        def off_by_one(instance):
            res = real_lawler_moore(instance)
            return type(res)(res.min_tardy_weight + 1, res.max_early_weight - 1, policy=res.policy)

        def off_by_one_merge(A, B):
            return real_merge(A, B) + 1

        if "--reconstruct" in extra:
            # a Lawler-Moore witness solve reads its optimum off the witness,
            # so the fault goes into a policy that computes its own optimum
            monkeypatch.setattr(solvers, "convolve_naive", off_by_one_merge)
            algo = "naive"
        else:
            monkeypatch.setattr(solvers, "lawler_moore", off_by_one)
            algo = "lawler-moore"
        path, _ = self._instance_file(tmp_path)
        assert main(["solve", str(path), "--algo", algo, *extra]) == 2
        captured = capsys.readouterr()
        assert "INTERNAL INCONSISTENCY" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n, error", [(8, RuntimeError), (60, ValueError)], ids=["brute-force", "re-solve"])
    def test_check_that_raises_exits_2(self, tmp_path, capsys, monkeypatch, n, error):
        # --verify checks with brute force up to DEFAULT_CAP jobs and past it
        # by re-solving under another policy; either check raising is a
        # solver fault on a parsed instance, not an input error
        import tardyjobs.cli as cli

        real_solve = cli.solve

        def check_raises(*args, **kwargs):
            raise error("check failed")

        def first_solve_only(instance, policy, **kwargs):
            if policy is cli.SolverPolicy.LAWLER_MOORE:
                raise error("check failed")
            return real_solve(instance, policy, **kwargs)

        monkeypatch.setattr(cli, "brute_force", check_raises)
        monkeypatch.setattr(cli, "solve", first_solve_only)
        inst = generate_instance(seed=21, n=n, d_hash=3, d_max=200)
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(inst, "json"))
        assert main(["solve", str(path), "--algo", "concave-p", "--verify"]) == 2
        captured = capsys.readouterr()
        assert "INTERNAL INCONSISTENCY" in captured.err and "check failed" in captured.err
        assert captured.out == ""

    def test_lawler_moore_witness_runs_the_dp_once(self, tmp_path, capsys, monkeypatch):
        import tardyjobs.solvers as solvers

        calls = []
        real = solvers.build_solution_vector_dp
        monkeypatch.setattr(solvers, "build_solution_vector_dp", lambda *args: calls.append(args) or real(*args))
        inst = generate_instance(seed=1, n=200, d_hash=16, d_max=2000)  # AUTO picks Lawler-Moore
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(inst, "json"))
        assert main(["solve", str(path), "--reconstruct"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["policy"] == "lawler-moore"
        assert len(calls) == 1
        by_id = {j.id: j for j in inst.jobs}
        assert sum(by_id[i].w for i in out["early_set"]) == out["max_early_weight"]

    def test_solve_invalid_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"jobs":[{"p":0,"w":1,"d":1}]}')
        assert main(["solve", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["solve", "/nonexistent/nope.json"]) == 1

    @pytest.mark.parametrize("horizon", [2**70, 2**62])
    @pytest.mark.parametrize("algo", ["lawler-moore", "naive", "prediction", "concave-p", "inverse-w", "auto"])
    def test_huge_horizon_exits_1_unless_weight_indexed(self, tmp_path, capsys, algo, horizon):
        # one job as long as its due date: no table over budgets up to the horizon fits in memory
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"jobs": [{"p": horizon, "w": 1, "d": horizon}, {"p": 1, "w": 1, "d": 1}]}))
        weight_indexed = algo in ("inverse-w", "auto")
        if weight_indexed:  # its vectors are indexed by weight, which is 2 in all; AUTO runs it
            assert main(["solve", str(path), "--algo", algo]) == 0
            out = json.loads(capsys.readouterr().out)
            assert (out["policy"], out["min_tardy_weight"]) == ("inverse-w", 1)
        runs = [["--reconstruct"]] if weight_indexed else [[], ["--reconstruct"]]
        for extra in runs:  # a witness needs the Lawler-Moore table under every policy
            assert main(["solve", str(path), "--algo", algo, *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:") and str(horizon) in captured.err
            assert "Traceback" not in captured.err

    def test_gen_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "gen.json"
        rc = main(
            ["gen", "--seed", "5", "--n", "6", "--d-hash", "2", "--d-max", "15", "-o", str(out_path)]
        )
        assert rc == 0
        inst = parse_instance(out_path)
        assert inst == generate_instance(seed=5, n=6, d_hash=2, d_max=15)

    def test_gen_inconsistent_params_exit_1(self, capsys):
        assert main(["gen", "--seed", "1", "--n", "2", "--d-hash", "5", "--d-max", "9"]) == 1

    def test_bench_command(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(TestBench.CONFIG))
        out_csv = tmp_path / "report.csv"
        assert main(["bench", "--config", str(cfg), "-o", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("policy,seed")
        assert len(lines) == 9

    def test_console_script_end_to_end(self, tmp_path):
        path, _ = self._instance_file(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "tardyjobs.cli", "solve", str(path), "--algo", "auto"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "min_tardy_weight" in proc.stdout

    def test_stdin_solve(self, tmp_path, capsys, monkeypatch):
        inst = generate_instance(seed=33, n=5, d_hash=2, d_max=12)
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_instance(inst, "json")))
        assert main(["solve", "-"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["min_tardy_weight"] + out["max_early_weight"] == inst.w_total


class TestWeightIndexedBound:
    """``tardyjobs solve -`` on instances whose weight-indexed tables are out of reach."""

    @staticmethod
    def _solve_stdin(jobs, *args):
        return subprocess.run(
            [sys.executable, "-m", "tardyjobs.cli", "solve", "-", *args],
            input=json.dumps({"jobs": jobs}),
            capture_output=True,
            text=True,
        )

    def _assert_clean_error(self, proc):
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_auto_without_addressable_table_exits_1(self):
        # the horizon 2**64 rules out every budget table, and the weight 2**63 the weight-indexed one
        proc = self._solve_stdin([{"p": 2**64, "w": 2**63, "d": 2**64}])
        self._assert_clean_error(proc)
        assert "memory can address" in proc.stderr

    def test_inverse_w_falls_back_past_addressable_weights(self):
        # total weight past the addressable table, horizon 7: Lawler-Moore answers
        jobs = [{"p": 6, "w": 5, "d": 20}, {"p": 1, "w": 2**63 + 2, "d": 2**64 + 1}]
        proc = self._solve_stdin(jobs, "--algo", "inverse-w")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert (out["policy"], out["min_tardy_weight"]) == ("lawler-moore", 0)

    def test_addressable_but_unallocatable_weights_exit_1(self):
        # a table of 2**52 + 1 weights can be addressed but not allocated
        self._assert_clean_error(self._solve_stdin([{"p": 2**64, "w": 2**52, "d": 2**64}]))
