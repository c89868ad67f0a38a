"""Experiment protocol, file outputs, verification, and the CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import puboqa

from puboqa.extbp import builtin_instance, to_pubo
from puboqa.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    export_encoding,
    import_polynomial,
    load_instance,
    main,
    run_experiment,
    seed_for_run,
    verify,
    write_rows_csv,
    write_summary_json,
    _resolve_threads,
    build_parser,
)
from puboqa import qaoa
from puboqa.qaoa import BYTES_PER_STATE, QaoaConfig

SMALL = ExperimentConfig(
    instances=("A",),
    formulations=("pubo", "qubo"),
    runs=4,
    master_seed=0,
    qaoa=QaoaConfig(depth=1, n_shots=5, max_evals=15),
    threads=1,
)


class TestSeedRule:
    def test_consecutive_from_master(self):
        assert seed_for_run(0, 5) == 5
        assert seed_for_run(100, 3) == 103


class TestLoadInstance:
    def test_builtin_names(self):
        assert load_instance("a").name == "A"
        assert load_instance("C").name == "C"

    def test_json_file(self, tmp_path):
        inst = builtin_instance("B")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_obj()))
        assert load_instance(str(path)) == inst

    def test_missing_file(self):
        with pytest.raises(ValueError, match="neither"):
            load_instance("no-such-instance.json")


class TestRunExperiment:
    def test_row_layout(self):
        rows, summaries = run_experiment(SMALL)
        assert len(rows) == 8 and len(summaries) == 2
        pubo_rows = [r for r in rows if r["formulation"] == "pubo"]
        qubo_rows = [r for r in rows if r["formulation"] == "qubo"]
        assert [r["run_id"] for r in pubo_rows] == [0, 1, 2, 3]
        assert [r["seed"] for r in pubo_rows] == [0, 1, 2, 3]
        assert all(r["n_qubits"] == 7 for r in pubo_rows)
        assert all(r["n_qubits"] == 15 for r in qubo_rows)
        for r in rows:
            assert set(r) == set(CSV_COLUMNS)
            assert r["n_evals"] == 5 * r["n_iterations"]
            assert len(r["best_bits"]) == r["n_qubits"]
            assert r["classification"] in (
                "Optimal", "FeasibleNonOptimal", "Infeasible"
            )

    def test_summary_consistency(self):
        rows, summaries = run_experiment(SMALL)
        for s in summaries:
            cell = [
                r for r in rows
                if r["instance"] == s.instance and r["formulation"] == s.formulation
            ]
            assert s.prop_optimal + s.prop_feasible_non_optimal + s.prop_infeasible == pytest.approx(1.0)
            assert s.prop_optimal == sum(
                1 for r in cell if r["classification"] == "Optimal"
            ) / len(cell)
            assert s.mean_iterations == pytest.approx(
                sum(r["n_iterations"] for r in cell) / len(cell)
            )

    def test_deterministic_except_wall_time(self):
        rows_a, sums_a = run_experiment(SMALL)
        rows_b, sums_b = run_experiment(SMALL)

        def strip(row):
            return {k: v for k, v in row.items() if k != "wall_ms"}

        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]
        for sa, sb in zip(sums_a, sums_b):
            assert (sa.prop_optimal, sa.prop_feasible_non_optimal, sa.prop_infeasible) == (
                sb.prop_optimal, sb.prop_feasible_non_optimal, sb.prop_infeasible
            )

    def test_master_seed_shifts_runs(self):
        shifted = ExperimentConfig(
            instances=("A",), formulations=("pubo",), runs=2,
            master_seed=7, qaoa=SMALL.qaoa, threads=1,
        )
        rows, _ = run_experiment(shifted)
        assert [r["seed"] for r in rows] == [7, 8]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="runs"):
            ExperimentConfig(runs=0)
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(threads=0)
        with pytest.raises(ValueError, match="formulations"):
            ExperimentConfig(formulations=("ising",))


_POOL_SCRIPT = """
import json
import multiprocessing
import sys

from puboqa.harness import ExperimentConfig, run_experiment

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    cfg = ExperimentConfig(instances=("A",), formulations=("pubo",), runs=4, threads=2)
    rows, _ = run_experiment(cfg)
    print(json.dumps([{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]))
"""


class TestPoolStartMethods:
    """Pool workers get their state through the initializer, not fork inheritance."""

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_pool_matches_serial(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} unavailable on this platform")
        script = tmp_path / "pool_rows.py"
        script.write_text(_POOL_SCRIPT)
        src = str(Path(puboqa.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, str(script), method], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        pooled = json.loads(done.stdout)

        serial, _ = run_experiment(ExperimentConfig(instances=("A",), formulations=("pubo",),
                                                    runs=4, threads=1))
        assert pooled == [{k: v for k, v in row.items() if k != "wall_ms"} for row in serial]


class TestFileOutputs:
    def test_csv_schema_and_round_trip(self, tmp_path):
        rows, summaries = run_experiment(SMALL)
        csv_path = tmp_path / "out.csv"
        write_rows_csv(rows, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)
        loss_col = CSV_COLUMNS.index("best_loss_unconstrained")
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert float(cells[loss_col]) == row["best_loss_unconstrained"]

    def test_csv_identical_modulo_wall_time(self, tmp_path):
        wall = CSV_COLUMNS.index("wall_ms")
        texts = []
        for tag in ("a", "b"):
            rows, _ = run_experiment(SMALL)
            path = tmp_path / f"{tag}.csv"
            write_rows_csv(rows, path)
            texts.append(
                [",".join(line.split(",")[:wall]) for line in path.read_text().splitlines()]
            )
        assert texts[0] == texts[1]

    def test_summary_json(self, tmp_path):
        rows, summaries = run_experiment(SMALL)
        path = tmp_path / "out.summary.json"
        write_summary_json(summaries, SMALL, path)
        payload = json.loads(path.read_text())
        assert payload["master_seed"] == 0 and payload["runs"] == 4
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert {"instance", "formulation", "qubit_count", "prop_optimal"} <= set(cell)


class TestVerify:
    def test_builtin_passes_all_checks(self):
        messages = []
        checks = verify("A", echo=messages.append)
        assert len(checks) == 12
        assert all(ok for _, ok, _ in checks)
        assert all(m.startswith("PASS") for m in messages)

    def test_custom_instance_runs_structural_checks(self, tmp_path):
        obj = {
            "name": "tiny",
            "num_groups": 2,
            "cmax": 1,
            "trains": [
                {"cost": 1.0, "benefit": 2.0, "groups": [0, 1]},
                {"cost": 1.0, "benefit": 1.0, "groups": [1]},
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(obj))
        checks = verify(str(path), echo=lambda _: None)
        assert len(checks) == 6
        assert all(ok for _, ok, _ in checks)


class TestExport:
    def test_round_trip(self):
        enc = to_pubo(builtin_instance("A"))
        payload = export_encoding(enc, "A")
        poly, names = import_polynomial(payload)
        assert poly == enc.poly
        assert names == list(enc.var_names)
        assert payload["qubit_count"] == 7

    def test_serialized_terms_evaluate_identically(self):
        import random

        enc = to_pubo(builtin_instance("B"))
        poly, _ = import_polynomial(export_encoding(enc, "B"))
        rng = random.Random(5)
        for _ in range(100):
            bits = [rng.randint(0, 1) for _ in range(enc.qubit_count)]
            assert poly.evaluate(bits) == enc.poly.evaluate(bits)


class TestCli:
    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--instance", "A"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_instance_exits_2(self, capsys):
        code = main(["solve", "--instance", "Z", "--max-evals", "5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [("cmax", 2.7), ("cmax", True), ("group", 0.9), ("cost", float("nan"))],
        ids=["cmax-fraction", "cmax-bool", "group-fraction", "cost-nan"],
    )
    def test_bad_instance_file_exits_2(self, tmp_path, capsys, field, value):
        obj = builtin_instance("A").to_obj()
        if field == "group":
            obj["trains"][0]["groups"] = [value]
        elif field == "cost":
            obj["trains"][0]["cost"] = value
        else:
            obj[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["verify", "--instance", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solve_prints_classification(self, capsys):
        code = main([
            "solve", "--instance", "A", "--seed", "0",
            "--shots", "5", "--max-evals", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "classification:" in out and "best state" in out

    def test_experiment_writes_both_files(self, tmp_path, capsys):
        prefix = tmp_path / "exp"
        code = main([
            "experiment", "--instance", "A", "--formulation", "pubo",
            "--runs", "2", "--shots", "5", "--max-evals", "10",
            "--seed", "0", "--out", str(prefix), "--threads", "1",
        ])
        assert code == 0
        csv_lines = (tmp_path / "exp.csv").read_text().splitlines()
        assert len(csv_lines) == 3
        summary = json.loads((tmp_path / "exp.summary.json").read_text())
        assert summary["runs"] == 2

    def test_experiment_memory_budget_counts_threads(self, monkeypatch, tmp_path, capsys):
        # Room for one process at A/pubo's 7 qubits, not for two.
        monkeypatch.setattr(qaoa, "_physical_memory", lambda: 3 * (BYTES_PER_STATE << 6))
        argv = ["experiment", "--instance", "A", "--formulation", "pubo", "--runs", "1",
                "--shots", "5", "--max-evals", "5", "--out", str(tmp_path / "x")]
        assert main([*argv, "--threads", "2"]) == 2
        assert "7 qubits x 2 process(es)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert main([*argv, "--threads", "1"]) == 0

    def test_export_stdout_is_valid_json(self, capsys):
        code = main(["export", "--instance", "A", "--formulation", "qubo"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["formulation"] == "qubo"
        assert payload["qubit_count"] == 15

    def test_export_to_file(self, tmp_path, capsys):
        out = tmp_path / "enc.json"
        code = main([
            "export", "--instance", "A", "--formulation", "pubo",
            "--out", str(out),
        ])
        assert code == 0
        poly, _ = import_polynomial(json.loads(out.read_text()))
        assert poly == to_pubo(builtin_instance("A")).poly


class TestThreadResolution:
    def parse(self, extra=()):
        return build_parser().parse_args(
            ["experiment", "--instance", "A", "--runs", "1", *extra]
        )

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("PUBOQA_THREADS", "9")
        assert _resolve_threads(self.parse(["--threads", "2"])) == 2

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("PUBOQA_THREADS", "3")
        assert _resolve_threads(self.parse()) == 3

    @pytest.mark.parametrize(
        "flag,env",
        [("0", None), ("-1", None), (None, "0"), (None, "-3")],
        ids=["flag-0", "flag-neg", "env-0", "env-neg"],
    )
    def test_below_one_rejected(self, monkeypatch, capsys, tmp_path, flag, env):
        if env is None:
            monkeypatch.delenv("PUBOQA_THREADS", raising=False)
        else:
            monkeypatch.setenv("PUBOQA_THREADS", env)
        extra = ["--threads", flag] if flag is not None else []
        with pytest.raises(ValueError, match="PUBOQA_THREADS|--threads"):
            _resolve_threads(self.parse(extra))
        argv = ["experiment", "--instance", "A", "--runs", "1", "--out", str(tmp_path / "x"), *extra]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
