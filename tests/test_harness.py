"""Experiment protocol, file outputs, verification, and the CLI."""

from __future__ import annotations

import csv
import functools
import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
import time
import tracemalloc
import unicodedata
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import puboqa

from puboqa.extbp import EbpInstance, builtin_instance, encode
from puboqa.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    export_encoding,
    load_instance,
    main,
    run_experiment,
    seed_for_run,
    verify,
    write_rows_csv,
    write_summary_json,
    worker_count,
    blas_core,
    build_parser,
)
from puboqa import harness, qaoa, reformulate
from puboqa.pbf import Polynomial
from puboqa.qaoa import BYTES_PER_STATE, QaoaConfig
from puboqa.reformulate import MAX_SYMMETRIC_VARS
from test_extbp import JSON_VALUES, instance_objects


def refused(obj):
    try:
        EbpInstance.from_obj(obj)
    except ValueError:
        return True
    return False


def file_with(text):
    """A temporary file holding text (hypothesis examples cannot use tmp_path)."""
    tmp = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    with tmp:
        tmp.write(text)
    return Path(tmp.name)


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
        with pytest.raises(ValueError, match="master_seed must be non-negative, got -1"):
            ExperimentConfig(master_seed=-1)


# Workers import this script as their main module under every start method,
# so where the compiled kernel is available the numpy mixer is refused in
# them too: the pooled runs must take the compiled path.
_POOL_SCRIPT = """
import json
import multiprocessing
import sys

from puboqa import qaoa
from puboqa.harness import ExperimentConfig, run_experiment

def refuse(*args):
    raise AssertionError("a pool worker fell back to the numpy mixer")

if qaoa.mixer_backend() == "compiled":
    qaoa._layer_numpy = refuse

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    cfg = ExperimentConfig(instances=("A",), formulations=("pubo",), runs=4, threads=2)
    rows, _ = run_experiment(cfg)
    print(qaoa.mixer_backend())
    print(json.dumps([{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]))
"""


class SpyKernel:
    """The layer kernel, recording the thread count of every call."""

    def __init__(self, lib):
        self.lib, self.threads = lib, []

    def puboqa_layer(self, *args):
        self.threads.append(args[-1])
        return self.lib.puboqa_layer(*args)


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
        backend, pooled = done.stdout.splitlines()
        assert backend == qaoa.mixer_backend()
        pooled = json.loads(pooled)

        serial, _ = run_experiment(ExperimentConfig(instances=("A",), formulations=("pubo",),
                                                    runs=4, threads=1))
        assert pooled == [{k: v for k, v in row.items() if k != "wall_ms"} for row in serial]

    def test_workers_run_the_kernel_on_one_thread(self, monkeypatch):
        if qaoa.mixer_backend() != "compiled":
            pytest.skip("the layer kernel cannot be built here")
        cfg = ExperimentConfig(instances=("B",), formulations=("qubo",), runs=1,
                               qaoa=QaoaConfig(max_evals=4))
        (cell,) = harness._cells(cfg, processes=1)
        assert cell.table.num_qubits >= qaoa._THREADED_QUBITS
        spy = SpyKernel(qaoa._layer_kernel())
        monkeypatch.setattr(qaoa, "_kernel", spy)
        monkeypatch.setattr(qaoa, "_kernel_threads", 2)
        monkeypatch.setattr(harness, "_worker_cell", None)
        monkeypatch.setattr(harness, "_single_thread_blas", lambda: None)
        serial = cell.row(0)
        assert set(spy.threads) == {2}
        spy.threads.clear()
        harness._pool_init(cell)
        pooled = harness._pool_row(0)
        assert set(spy.threads) == {1}
        assert pooled | {"wall_ms": 0.0} == serial | {"wall_ms": 0.0}


class TestCellMemory:
    """A cell holds its rows, never its run records: the parent's memory
    grows by at most BYTES_PER_ROW per run, as run_experiment's check counts."""

    RUNS = 20_000
    # The call's fixed costs: encoding, brute force, the cost table and the pool.
    ALLOWANCE = 1 << 20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_grows_by_rows_only(self, monkeypatch, threads):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patched run reaches pool workers only by fork")
        # A real A/pubo record with its whole trace (seed 7 makes about 21
        # evaluations), unpickled anew for every run, so that a held record
        # costs what a real one does.
        enc = encode(builtin_instance("A"), "pubo")
        blob = pickle.dumps(qaoa.run(qaoa.build_cost_table(enc.poly, enc.qubit_count), QaoaConfig(), 7))
        monkeypatch.setattr(harness, "run",
                            lambda table, config, seed: replace(pickle.loads(blob), seed=seed))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        cfg = ExperimentConfig(instances=("A",), formulations=("pubo",), runs=self.RUNS,
                               threads=threads)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows, _ = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert [row["seed"] for row in rows] == list(range(self.RUNS))
        assert peak <= self.RUNS * harness.BYTES_PER_ROW + self.ALLOWANCE


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

    def test_csv_quotes_an_awkward_instance_name(self, tmp_path):
        rows, _ = run_experiment(SMALL)
        name = 'a,b\nc"d'
        for row in rows:
            row["instance"] = name
        path = tmp_path / "out.csv"
        write_rows_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *read = list(csv.reader(fh))
        assert header == CSV_COLUMNS
        assert len(read) == len(rows)
        assert all(len(cells) == len(CSV_COLUMNS) for cells in read)
        assert {cells[CSV_COLUMNS.index("instance")] for cells in read} == {name}

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_every_accepted_name_reads_back_as_one_field(self, name):
        obj = {"name": name, "num_groups": 2, "cmax": 2,
               "trains": [{"cost": 1.0, "benefit": 1.0, "groups": [0]}]}
        if any(unicodedata.category(ch) == "Cc" for ch in name):
            assert refused(obj)
            return
        row = {column: 0 for column in CSV_COLUMNS} | {"instance": EbpInstance.from_obj(obj).name}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            write_rows_csv([row], path)
            with open(path, newline="", encoding="utf-8") as fh:
                header, *read = csv.reader(fh)
        assert header == CSV_COLUMNS
        assert read == [[str(row[column]) for column in CSV_COLUMNS]]

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
        assert payload["mixer"] == qaoa.mixer_backend()
        assert payload["blas_core"] == blas_core()
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            assert {"instance", "formulation", "qubit_count", "prop_optimal"} <= set(cell)
            assert list(cell["wilson_95"]) == list(harness.PROPORTIONS)
            for prop, (low, high) in cell["wilson_95"].items():
                assert 0.0 <= low <= cell[prop] <= high <= 1.0
                assert [low, high] == list(harness.wilson_interval(cell[prop], 4))

    def test_wilson_interval_by_hand(self):
        # B's pubo optimal share of 0.39 over 100 runs: with z = 1.96,
        # (0.39 + z^2/200 -+ z sqrt(0.39 * 0.61 / 100 + z^2 / 40000)) / (1 + z^2/100).
        low, high = harness.wilson_interval(0.39, 100)
        assert low == pytest.approx(0.30017, abs=1e-5)
        assert high == pytest.approx(0.48797, abs=1e-5)
        assert harness.wilson_interval(0.0, 100) == pytest.approx((0.0, 0.03699), abs=1e-5)
        assert harness.wilson_interval(1.0, 100) == pytest.approx((0.96301, 1.0), abs=1e-5)


class TestVerify:
    def test_builtin_passes_all_checks(self):
        checks = verify("A")
        assert len(checks) == 6
        assert all(ok for _, ok, _ in checks)

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
        checks = verify(str(path))
        assert len(checks) == 6
        assert all(ok for _, ok, _ in checks)

    def test_huge_num_groups_verifies_like_the_tight_count(self, tmp_path):
        # Groups no train serves cost nothing: 10^400 of them verify at once.
        obj = {"name": "sparse", "cmax": 1, "trains": [
            {"cost": 1.0, "benefit": 2.0, "groups": [0, 5]},
            {"cost": 1.0, "benefit": 1.0, "groups": [5, 7]},
        ]}
        results = []
        for num_groups in (10**400, 8):
            path = tmp_path / f"{len(str(num_groups))}.json"
            path.write_text(json.dumps(dict(obj, num_groups=num_groups)))
            started = time.perf_counter()
            results.append(verify(str(path)))
            assert time.perf_counter() - started < 1.0
        assert results[0] == results[1]
        assert all(ok for _, ok, _ in results[0])


class TestExport:
    def test_round_trip(self):
        enc = encode(builtin_instance("A"), "pubo")
        payload = export_encoding(enc, "A")
        assert Polynomial.from_obj(payload["terms"]) == enc.poly
        assert payload["var_names"] == list(enc.var_names)
        assert payload["qubit_count"] == 7

    def test_serialized_terms_evaluate_identically(self):
        import random

        enc = encode(builtin_instance("B"), "pubo")
        poly = Polynomial.from_obj(export_encoding(enc, "B")["terms"])
        rng = random.Random(5)
        for _ in range(100):
            bits = [rng.randint(0, 1) for _ in range(enc.qubit_count)]
            assert poly.evaluate(bits) == enc.poly.evaluate(bits)


class TestCli:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(JSON_VALUES, instance_objects()).filter(refused))
    def test_refused_instance_files_exit_2(self, obj):
        path = file_with(json.dumps(obj))
        try:
            for argv in (["verify", "--instance", str(path)],
                         ["export", "--instance", str(path), "--formulation", "pubo"]):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                assert (code, out.getvalue()) == (2, ""), argv
                assert err.getvalue().startswith("error:")
        finally:
            path.unlink()

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "--instance", "A"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        header, *lines = out.splitlines()
        assert header == "verifying A"
        assert len(lines) == 6 and all(line.startswith("PASS  ") for line in lines)

    def test_verify_does_not_import_the_optimizer(self, tmp_path):
        # scipy.optimize takes about 0.4 s to import; only a run that trains needs it.
        code = ("import sys\n"
                "from puboqa.harness import main\n"
                "assert main(['verify', '--instance', 'A']) == 0\n"
                "print('scipy.optimize' in sys.modules)\n")
        src = str(Path(puboqa.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_unknown_instance_exits_2(self, capsys):
        code = main(["solve", "--instance", "Z", "--max-evals", "5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [("cmax", 2.7), ("cmax", True), ("group", 0.9), ("cost", float("nan")),
         ("cost", 10**400), ("cmax", 10**400), ("cmax", 2**53 + 1)],
        ids=["cmax-fraction", "cmax-bool", "group-fraction", "cost-nan",
             "cost-huge-int", "cmax-huge-int", "cmax-above-2^53"],
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
        assert main(["export", "--instance", str(path), "--formulation", "pubo"]) == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def refused_everywhere(path, tmp_path, capsys):
        """Every command exits 2 on the file, before brute force and without a warning."""
        commands = [
            ["verify", "--instance", str(path)],
            ["solve", "--instance", str(path), "--max-evals", "5"],
            ["experiment", "--instance", str(path), "--runs", "1", "--max-evals", "5",
             "--threads", "1", "--out", str(tmp_path / "x")],
            *(["export", "--instance", str(path), "--formulation", route] for route in ("pubo", "qubo")),
        ]
        with warnings.catch_warnings(), mock.patch.object(harness, "brute_force") as brute:
            warnings.simplefilter("error")
            for argv in commands:
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                assert "optimum tolerance" in captured.err
                assert "Infinity" not in captured.out
        assert not brute.called
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_default_weight_exits_2(self, tmp_path, capsys):
        # Costs of 1e308 are valid floats, but their sum overflows to inf,
        # and so would the default penalty weight and brute force's sums.
        obj = {"name": "huge", "num_groups": 2, "cmax": 1,
               "trains": [{"cost": 1e308, "benefit": 1e308, "groups": [0, 1]},
                          {"cost": 1e308, "benefit": 1.0, "groups": [0]}]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        self.refused_everywhere(path, tmp_path, capsys)

    def test_absorbed_costs_exit_2(self, tmp_path, capsys):
        # At 1e300 a unit benefit is absorbed (1e300 + 1 == 1e300), and the
        # qubo table once had minimizers that are not optima.
        obj = {"name": "absorbed", "num_groups": 2, "cmax": 1,
               "trains": [{"cost": 1e300, "benefit": 1e300, "groups": [0, 1]},
                          {"cost": 1e300, "benefit": 1, "groups": [1]}]}
        path = tmp_path / "absorbed.json"
        path.write_text(json.dumps(obj))
        self.refused_everywhere(path, tmp_path, capsys)

    @pytest.mark.parametrize("flag", ["--lambda-uni", "--lambda-capa"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_weight_flag_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "enc.json"
        assert main(["export", "--instance", "A", "--formulation", "pubo", "--out", str(out),
                     f"{flag}={value}"]) == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()
        assert main(["solve", "--instance", "A", "--max-evals", "5", f"{flag}={value}"]) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_oversized_threshold_refused_before_expansion(self, tmp_path, capsys):
        # One train serving MAX_SYMMETRIC_VARS + 1 groups: its capacity
        # penalty would hold about 2^(g + 2) terms, several GiB.
        g = MAX_SYMMETRIC_VARS + 1
        obj = {"name": "wide", "num_groups": g, "cmax": 1,
               "trains": [{"cost": 1.0, "benefit": 1.0, "groups": list(range(g))}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        started = time.perf_counter()
        with mock.patch.object(reformulate, "_expand", side_effect=AssertionError("expanded")):
            assert main(["export", "--instance", str(path), "--formulation", "pubo"]) == 2
            assert f"{MAX_SYMMETRIC_VARS}-variable cap" in capsys.readouterr().err
            assert main(["verify", "--instance", str(path)]) == 2
            assert f"{MAX_SYMMETRIC_VARS}-variable cap" in capsys.readouterr().err
        assert time.perf_counter() - started < 30.0

    def test_encode_wide_term_budget(self, tmp_path, capsys):
        # Two trains serving the same MAX_SYMMETRIC_VARS groups: each capacity
        # penalty fits the per-penalty cap, together they exceed the budget.
        g = MAX_SYMMETRIC_VARS
        obj = {"name": "two-wide", "num_groups": g, "cmax": 1,
               "trains": [{"cost": 1.0, "benefit": 1.0, "groups": list(range(g))}] * 2}
        path = tmp_path / "two-wide.json"
        path.write_text(json.dumps(obj))
        started = time.perf_counter()
        with mock.patch.object(reformulate, "_expand", side_effect=AssertionError("expanded")):
            assert main(["export", "--instance", str(path), "--formulation", "pubo"]) == 2
        assert "terms, more than the 2^21" in capsys.readouterr().err
        assert time.perf_counter() - started < 30.0

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
        argv = ["experiment", "--instance", "A", "--formulation", "pubo", "--runs", "2",
                "--shots", "5", "--max-evals", "5", "--out", str(tmp_path / "x")]
        assert main([*argv, "--threads", "2"]) == 2
        assert "7 qubits x 2 process(es)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert main([*argv, "--threads", "1"]) == 0

    def test_one_run_cells_are_checked_for_one_process(self, monkeypatch, tmp_path):
        # Room for one process at A/pubo's 7 qubits, not for two: a cell of
        # one run runs in this process, whatever --threads says.
        monkeypatch.setattr(qaoa, "_physical_memory", lambda: 3 * (BYTES_PER_STATE << 6))
        checked = []
        real_check = harness.check_register
        monkeypatch.setattr(harness, "check_register",
                            lambda q, processes=1, shots=0: checked.append(processes)
                            or real_check(q, processes, shots))
        argv = ["experiment", "--instance", "A", "--formulation", "pubo", "--runs", "1",
                "--shots", "5", "--max-evals", "5", "--threads", "2", "--out", str(tmp_path / "x")]
        with mock.patch.object(harness, "ProcessPoolExecutor") as pool:
            assert main(argv) == 0
        assert checked == [1]
        assert not pool.called
        assert (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["verify", "solve", "experiment", "export"])
    def test_control_character_in_name_exits_2(self, tmp_path, capsys, command):
        obj = builtin_instance("A").to_obj() | {"name": "a\rb"}
        path = tmp_path / "cr.json"
        path.write_text(json.dumps(obj))
        argv = {"verify": ["verify", "--instance", str(path)],
                "solve": ["solve", "--instance", str(path), "--max-evals", "5"],
                "experiment": ["experiment", "--instance", str(path), "--runs", "1", "--threads", "1",
                               "--out", str(tmp_path / "x")],
                "export": ["export", "--instance", str(path), "--formulation", "pubo"]}[command]
        assert main(argv) == 2
        assert "control character" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_experiment_refuses_before_any_run(self, tmp_path, capsys):
        # The pubo cell has 20 qubits; cmax 2^40 gives each train 41 capacity
        # bits, so the qubo cell needs 102 and is refused. Neither cell runs.
        obj = {"name": "oversize", "num_groups": 18, "cmax": 2**40,
               "trains": [{"cost": 1.0, "benefit": 1.0, "groups": list(range(9))},
                          {"cost": 1.0, "benefit": 1.0, "groups": list(range(9, 18))}]}
        path = tmp_path / "oversize.json"
        path.write_text(json.dumps(obj))
        blocked = tmp_path / "file"
        blocked.write_text("")
        with mock.patch.object(harness, "run") as runs:
            argv = ["experiment", "--instance", str(path), "--runs", "3", "--threads", "1"]
            assert main([*argv, "--out", str(tmp_path / "x")]) == 2
            assert "102 qubits" in capsys.readouterr().err
            # An output directory that cannot be made is refused first too.
            argv = ["experiment", "--instance", "A", "--runs", "3", "--threads", "1"]
            assert main([*argv, "--out", str(blocked / "x")]) == 2
            assert "error:" in capsys.readouterr().err
        assert not runs.called
        assert not list(tmp_path.rglob("*.csv"))

    def test_register_refused_before_brute_force(self, tmp_path, capsys):
        # 3 trains x 9 disjoint groups: 30 bits, which brute force would
        # take seconds to scan, and 30 pubo qubits, above the cap.
        obj = {"name": "wide", "num_groups": 27, "cmax": 9,
               "trains": [{"cost": 1.0, "benefit": 1.0, "groups": list(range(9 * i, 9 * i + 9))}
                          for i in range(3)]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        commands = [
            ["verify", "--instance", str(path)],
            ["experiment", "--instance", str(path), "--runs", "1", "--threads", "1",
             "--out", str(tmp_path / "x")],
        ]
        with mock.patch.object(harness, "brute_force", side_effect=AssertionError("brute force ran")):
            for argv in commands:
                assert main(argv) == 2, argv
                assert "30 qubits exceeds the 26-qubit cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_oversize_shot_count_refused_before_brute_force(self, monkeypatch, tmp_path, capsys,
                                                            command):
        # 1 GiB holds A's registers, but not 10^8 shots of BYTES_PER_SHOT
        # bytes each. Nothing may evolve or draw: the arrays would be real.
        monkeypatch.setattr(qaoa, "_physical_memory", lambda: 1 << 30)
        argv = {"solve": ["solve", "--instance", "A", "--max-evals", "2"],
                "experiment": ["experiment", "--instance", "A", "--runs", "2", "--threads", "1",
                               "--out", str(tmp_path / "x")]}[command]
        with mock.patch.object(harness, "brute_force", side_effect=AssertionError("brute force ran")), \
                mock.patch.object(qaoa, "evolve", side_effect=AssertionError("evolve ran")):
            assert main([*argv, "--shots", "100000000"]) == 2
        assert "per shot of 100000000 shots" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_oversize_run_count_refused_before_brute_force(self, monkeypatch, tmp_path, capsys):
        # 1 GiB holds A's register, and the rows of as many runs as fit at
        # BYTES_PER_ROW bytes each, but not one run more. No row may be built.
        monkeypatch.setattr(qaoa, "_physical_memory", lambda: 1 << 30)
        fit = (1 << 30) // harness.BYTES_PER_ROW
        argv = ["experiment", "--instance", "A", "--formulation", "pubo", "--threads", "1",
                "--out", str(tmp_path / "x")]
        with mock.patch.object(harness, "brute_force", side_effect=AssertionError("brute force ran")):
            assert main([*argv, "--runs", str(fit + 1)]) == 2
            assert f"the rows of {fit + 1} runs per cell need" in capsys.readouterr().err
            with pytest.raises(AssertionError, match="brute force ran"):
                main([*argv, "--runs", str(fit)])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    def test_negative_seed_refused_before_brute_force(self, tmp_path, capsys, command):
        argv = {"solve": ["solve", "--instance", "A", "--max-evals", "2"],
                "experiment": ["experiment", "--instance", "A", "--runs", "2", "--threads", "1",
                               "--out", str(tmp_path / "x")]}[command]
        with mock.patch.object(harness, "brute_force", side_effect=AssertionError("brute force ran")), \
                mock.patch.object(qaoa, "evolve", side_effect=AssertionError("evolve ran")):
            assert main([*argv, "--seed", "-1"]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        poly = Polynomial.from_obj(json.loads(out.read_text())["terms"])
        assert poly == encode(builtin_instance("A"), "pubo").poly


class TestThreadResolution:
    def parse(self, extra=()):
        return build_parser().parse_args(
            ["experiment", "--instance", "A", "--runs", "1", *extra]
        )

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("PUBOQA_THREADS", "9")
        assert worker_count(self.parse(["--threads", "2"]).threads) == 2

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("PUBOQA_THREADS", "3")
        assert worker_count(self.parse().threads) == 3

    def test_default_is_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv("PUBOQA_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count() == 1

    def test_env_variable_not_an_integer(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("PUBOQA_THREADS", "abc")
        with pytest.raises(ValueError, match="PUBOQA_THREADS must be an integer, got 'abc'"):
            worker_count(self.parse().threads)
        argv = ["experiment", "--instance", "A", "--runs", "1", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "error: PUBOQA_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
            worker_count(self.parse(extra).threads)
        argv = ["experiment", "--instance", "A", "--runs", "1", "--out", str(tmp_path / "x"), *extra]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
