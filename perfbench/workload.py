"""Run one benchmark workload in this process and print its result.

run.py starts this file in a fresh process with PYTHONPATH pointing at the
checkout's src/ and the BLAS thread variables removed. A workload repeats
whole rounds of the same operations until the next round would overrun
--seconds (at least one round). Program outputs are checked against
reference.py outside the timed regions. The last line printed is the result
object; the full record, with the environment block, goes to
perfbench/results/.

With --trace 1, untraced and traced rounds alternate (at least one of each),
the per-layer metrics come from the traced rounds, and the tracing overhead
is the difference in round wall time between the two kinds.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
import instances
import reference as ref
import tracing
from puboqa import extbp, harness, qaoa
from run import BLAS_ENV

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
QAOA = qaoa.QaoaConfig()  # the CLI defaults: depth 1, 10 shots, at most 500 evaluations
POOL_WORKERS = 2
EXPERIMENT_RUNS = 4
TIMED_CELL = ("C", "qubo")  # experiment-pool reports the run times of its costliest cell
SERIAL_RUNS = {"qubo-C-serial": 10, "pubo-ABC-serial": 100}
SEED_STRIDE = 1000
P90_MIN_SAMPLES = 40


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Round:
    """Outputs and timings of one round."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float | None = None
    run_phase_s: float = 0.0
    run_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    done: int = 0
    windows: list[tuple[int, int]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    traced: bool = False


def _failed(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc()


class Expectations:
    """Reference results (a) per instance, computed once each."""

    def __init__(self):
        self.optima: dict[str, tuple] = {}

    def add(self, spec: ref.Spec) -> tuple:
        if spec.name not in self.optima:
            self.optima[spec.name] = ref.enumerate_optimum(spec)
        return self.optima[spec.name]


# serial QAOA workloads -------------------------------------------------------


@dataclass
class Cell:
    spec: ref.Spec
    kind: str
    inst: object
    optimum: float
    optima: tuple
    enc: object
    table: object


def set_up_cell(name: str, kind: str) -> Cell:
    """What a user pays before the first run: load, brute force, encode, table."""
    inst = harness.load_instance(name)
    optimum, optima = extbp.brute_force(inst)
    enc = extbp.encode(inst, kind)
    table = qaoa.build_cost_table(enc.poly, enc.qubit_count)
    return Cell(ref.Spec.paper(name), kind, inst, optimum, optima, enc, table)


def check_cell(cell: Cell, expect: Expectations) -> list[str]:
    want = expect.add(cell.spec)
    fails = checks.check_instance(cell.spec, cell.inst)
    fails += checks.check_brute_force(cell.spec, want, cell.optimum, cell.optima)
    fails += checks.check_encoding(cell.spec, cell.kind, cell.enc.qubit_count, cell.enc.lam_uni, cell.enc.lam_capa)
    fails += checks.check_table(cell.spec, cell.kind, cell.table.values, want)
    fails += checks.check_state(cell.spec, cell.kind, qaoa.evolve(checks.CHECK_PARAMS, cell.table))
    return fails


class SerialWorkload:
    """Seeded qaoa.run calls on prepared cells, one after another."""

    def __init__(self, cells: tuple[tuple[str, str], ...], runs: int, seed: int, setup_reps: int):
        self.cells = cells
        self.seeds = [seed * SEED_STRIDE + i for i in range(runs)]
        self.setup_reps = setup_reps
        self.expect = Expectations()
        self.checked_cells: set[tuple[str, str]] = set()
        self.first_outcomes: list | None = None

    def set_up(self) -> None:
        for name, kind in self.cells:
            set_up_cell(name, kind)

    def round(self) -> Round:
        out = Round(setup_s=0.0)
        outcomes = []
        cpu0 = cpu_seconds()
        start = time.perf_counter_ns()
        for name, kind in self.cells:
            t0 = time.perf_counter()
            cell = set_up_cell(name, kind)
            out.setup_s += time.perf_counter() - t0
            for seed in self.seeds:
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    rec = qaoa.run(cell.table, QAOA, seed)
                except Exception:
                    out.failed += 1
                    _failed(f"qaoa.run on {name}/{kind} seed {seed}")
                    continue
                out.run_ms.append((time.perf_counter() - t0) * 1000.0)
                out.done += 1
                outcomes.append((cell, rec))
        end = time.perf_counter_ns()
        out.cpu_s = cpu_seconds() - cpu0
        out.wall_s = (end - start) / 1e9
        out.run_phase_s = out.wall_s - out.setup_s
        out.windows = [(start, end)]
        self._outcomes = outcomes
        return out

    def check(self, out: Round) -> list[str]:
        fails = []
        hits = evals = shots = 0
        for cell, rec in self._outcomes:
            if (cell.spec.name, cell.kind) not in self.checked_cells:
                self.checked_cells.add((cell.spec.name, cell.kind))
                fails += check_cell(cell, self.expect)
            got, label = checks.check_record(
                cell.spec, cell.kind, self.expect.add(cell.spec), QAOA, seed=rec.seed, n_qubits=rec.n_qubits,
                best_state=rec.best_state, best_loss=rec.best_loss, n_iterations=rec.n_iterations,
                n_sampled=rec.n_sampled)
            fails += got
            if len(rec.trace) != rec.n_iterations:
                fails.append(f"{cell.spec.name}/{cell.kind} seed {rec.seed}: trace holds {len(rec.trace)} "
                             f"evaluations, record says {rec.n_iterations}")
            hits += label == ref.OPTIMAL
            evals += rec.n_iterations
            shots += rec.n_sampled
        replay = [(c.spec.name, c.kind, r.seed, r.best_state, r.best_loss, r.trace) for c, r in self._outcomes]
        if self.first_outcomes is None:
            self.first_outcomes = replay
        elif replay != self.first_outcomes:
            fails.append("a repeated round with the same seeds gave different run records")
        out.counts.update(optimal_hits=hits, evals=evals, shots=shots)
        self._outcomes = []
        return fails


# experiment through the harness pool -----------------------------------------


class ExperimentWorkload:
    """harness.run_experiment over A/B/C x pubo/qubo with a process pool."""

    cells = tuple((name, kind) for name in "ABC" for kind in ("pubo", "qubo"))

    def __init__(self, seed: int):
        self.cfg = harness.ExperimentConfig(
            instances=("A", "B", "C"), formulations=("pubo", "qubo"), runs=EXPERIMENT_RUNS,
            master_seed=seed * SEED_STRIDE, qaoa=QAOA, threads=POOL_WORKERS)
        self.setup_reps = 5
        self.expect = Expectations()
        self.cells_checked = False

    def set_up(self) -> None:
        """The preparation run_experiment does before each cell's runs."""
        for name in "ABC":
            inst = harness.load_instance(name)
            extbp.brute_force(inst)
            for kind in ("pubo", "qubo"):
                enc = extbp.encode(inst, kind)
                qaoa.build_cost_table(enc.poly, enc.qubit_count)

    def round(self) -> Round:
        out = Round(attempted=len(self.cells) * self.cfg.runs)
        cpu0 = cpu_seconds()
        start = time.perf_counter_ns()
        try:
            self._result = harness.run_experiment(self.cfg)
        except Exception:
            out.failed = out.attempted
            self._result = None
            _failed("harness.run_experiment")
        end = time.perf_counter_ns()
        out.cpu_s = cpu_seconds() - cpu0
        out.wall_s = (end - start) / 1e9
        out.windows = [(start, end)]
        if self._result is not None:
            rows, summaries = self._result
            out.done = len(rows)
            out.run_ms = [row["wall_ms"] for row in rows if (row["instance"], row["formulation"]) == TIMED_CELL]
            out.run_phase_s = sum(s.wall_ms for s in summaries) / 1000.0
            busy_ms = sum(row["wall_ms"] for row in rows)
            out.counts["pool_busy_ratio"] = busy_ms / (out.run_phase_s * 1000.0 * self.cfg.threads)
        return out

    def check(self, out: Round) -> list[str]:
        fails = []
        if not self.cells_checked:
            self.cells_checked = True
            for name, kind in self.cells:
                fails += check_cell(set_up_cell(name, kind), self.expect)
        if self._result is None:
            return fails
        rows, summaries = self._result
        specs = [ref.Spec.paper(name) for name, _ in self.cells]
        for spec in specs:
            self.expect.add(spec)
        got, hits = checks.check_rows(
            [(spec, kind) for spec, (_, kind) in zip(specs, self.cells)], self.expect.optima, QAOA,
            self.cfg.master_seed, self.cfg.runs, rows, summaries)
        out.counts.update(optimal_hits=hits, evals=sum(r["n_iterations"] for r in rows),
                          shots=sum(r["n_evals"] for r in rows))
        self._result = None
        return fails + got


# compile-only workload -------------------------------------------------------


def compile_instance(path: Path):
    """Load, brute-force, encode both routes, tabulate those within the budget."""
    inst = harness.load_instance(str(path))
    optimum, optima = extbp.brute_force(inst)
    built = []
    for kind in ("pubo", "qubo"):
        enc = extbp.encode(inst, kind)
        table = None
        if enc.qubit_count <= instances.QUBIT_BUDGET:
            table = qaoa.build_cost_table(enc.poly, enc.qubit_count)
        built.append((kind, enc, table))
    return inst, optimum, optima, built


class CompileWorkload:
    """Load, brute-force, encode and tabulate generated wide-train instances."""

    def __init__(self, seed: int, workdir: Path):
        self.files = instances.write(seed, workdir / f"compile-wide-seed{seed}")
        self.setup_reps = 0
        self.expect = Expectations()
        self.first: dict | None = None

    def set_up(self) -> None:
        pass

    def round(self) -> Round:
        out = Round()
        digest: dict = {}
        fails: list[str] = []
        for path, obj in self.files:
            out.attempted += 1
            cpu0 = cpu_seconds()
            start = time.perf_counter_ns()
            try:
                inst, optimum, optima, built = compile_instance(path)
            except Exception:
                out.failed += 1
                _failed(f"compiling {path.name}")
                continue
            end = time.perf_counter_ns()
            out.cpu_s += cpu_seconds() - cpu0
            out.wall_s += (end - start) / 1e9
            out.run_ms.append((end - start) / 1e6)
            out.done += 1
            out.windows.append((start, end))
            fails += self._check_instance(obj, inst, optimum, optima, built, digest, out.counts)
            del built  # free this instance's tables before the next is compiled
        out.setup_s = out.run_phase_s = out.wall_s
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            fails.append("a repeated round gave different compile outputs")
        self._fails = fails
        return out

    def _check_instance(self, obj, inst, optimum, optima, built, digest, counts) -> list[str]:
        spec = ref.Spec.from_obj(obj)
        want = self.expect.add(spec)
        first_time = self.first is None
        fails = []
        if first_time:
            fails += checks.check_instance(spec, inst)
            fails += checks.check_brute_force(spec, want, optimum, optima)
        entry = [optimum, [(a.x, a.y) for a in optima]]
        for kind, enc, table in built:
            counts["poly_terms"] = counts.get("poly_terms", 0) + len(enc.poly.terms)
            counts["qubits"] = counts.get("qubits", 0) + enc.qubit_count
            entry.append((kind, enc.qubit_count, len(enc.poly.terms)))
            if table is None:
                fails += checks.check_encoding(spec, kind, enc.qubit_count, enc.lam_uni, enc.lam_capa)
                continue
            if kind == "qubo":
                counts["qubo_tables"] = counts.get("qubo_tables", 0) + 1
            entry.append(hashlib.sha256(table.values.tobytes()).hexdigest())
            if first_time:
                fails += checks.check_encoding(spec, kind, enc.qubit_count, enc.lam_uni, enc.lam_capa)
                fails += checks.check_table(spec, kind, table.values, want)
        digest[spec.name] = entry
        return fails

    def check(self, out: Round) -> list[str]:
        if not out.counts.get("qubo_tables"):
            self._fails.append("no qubo table fell inside the qubit budget")
        return self._fails


# round loop and metrics -----------------------------------------------------


def make_workload(name: str, seed: int, workdir: Path):
    if name == "qubo-C-serial":
        return SerialWorkload((("C", "qubo"),), SERIAL_RUNS[name], seed, setup_reps=5)
    if name == "pubo-ABC-serial":
        return SerialWorkload((("A", "pubo"), ("B", "pubo"), ("C", "pubo")), SERIAL_RUNS[name], seed,
                              setup_reps=20)
    if name == "experiment-pool":
        return ExperimentWorkload(seed)
    if name == "compile-wide":
        return CompileWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def end_to_end(rounds: list[Round], setups: list[float]) -> dict:
    run_ms = [ms for r in rounds for ms in r.run_ms]
    p90 = float(np.quantile(run_ms, 0.9)) if len(run_ms) >= P90_MIN_SAMPLES else statistics.median(run_ms)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "runs_per_s": (sum(r.done for r in rounds) / sum(r.run_phase_s for r in rounds), "1/s"),
        "run_ms_p50": (statistics.median(run_ms), "ms"),
        "run_ms_p90": (p90, "ms"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def _in_windows(span: dict, windows: list[tuple[int, int]]) -> bool:
    return any(lo <= span["start"] <= hi for lo, hi in windows)


def per_layer(rounds: list[Round], spans: list[dict]) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    by_round = [[s for s in spans if _in_windows(s, r.windows)] for r in traced]
    pooled = [s for group in by_round for s in group]

    def per_call(name: str) -> float:
        got = [tracing.duration_ms(s) for s in pooled if s["name"] == name]
        return statistics.median(got) if got else 0.0

    def per_round_total(name: str, scale: float = 1.0) -> float:
        return statistics.median(
            sum(tracing.duration_ms(s) for s in tracing.outermost(group, name)) for group in by_round) * scale

    def count(key: str) -> float:
        return statistics.median(r.counts.get(key, 0) for r in rounds)

    optimizer = [tracing.self_ms(s) for s in pooled if s["name"] == tracing.OPTIMIZE]
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in plain)
    metrics = {
        "qaoa.evolve_ms": (per_call("qaoa.evolve"), "ms"),
        "qaoa.sample_ms": (per_call("qaoa.sample"), "ms"),
        "qaoa.estimate_loss_ms": (per_call("qaoa.estimate_loss"), "ms"),
        "qaoa.optimizer_self_ms": (statistics.median(optimizer) if optimizer else 0.0, "ms"),
        "qaoa.evals": (count("evals"), "count"),
        "qaoa.shots": (count("shots"), "count"),
        "qaoa.build_cost_table_ms": (per_round_total("qaoa.build_cost_table"), "ms"),
        "extbp.brute_force_ms": (per_round_total("extbp.brute_force"), "ms"),
        "extbp.encode_ms": (per_round_total("extbp.encode"), "ms"),
        "extbp.poly_terms": (count("poly_terms"), "count"),
        "extbp.qubits": (count("qubits"), "count"),
        "reformulate.threshold_ms": (per_round_total("reformulate.threshold"), "ms"),
        "reformulate.slack_ms": (per_round_total("reformulate.slack"), "ms"),
        "reformulate.compose_ms": (per_round_total("reformulate.compose"), "ms"),
        "model.canonicalize_ms": (per_round_total("model.canonicalize"), "ms"),
        "pbf.arith_ms": (per_round_total(tracing.ARITH), "ms"),
        "harness.load_instance_ms": (per_round_total("harness.load_instance"), "ms"),
        "harness.run_experiment_s": (per_round_total("harness.run_experiment", 1e-3), "s"),
        "harness.pool_busy_ratio": (count("pool_busy_ratio"), "ratio"),
        "optimal_hits": (count("optimal_hits"), "count"),
        "trace.overhead_pct": ((traced_wall - plain_wall) / plain_wall * 100.0, "%"),
        "trace.spans_per_round": (statistics.median(len(g) for g in by_round), "count"),
    }
    return metrics


def environment(caller_env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (1 << 20),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "start_method": multiprocessing.get_start_method(),
        "pool_workers": POOL_WORKERS,
        "blas_env_in_caller": caller_env,
        "blas_env_in_workload": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }
    env.update(_openblas_runtime())
    return env


def _openblas_runtime() -> dict:
    """Config string and thread count of the OpenBLAS numpy loaded, if found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return {"openblas_config": config().decode(), "openblas_threads": threads()}
    return {"openblas_config": None, "openblas_threads": None}


def host_calibration_ms() -> float:
    """Median time of a fixed pure-Python and numpy task, to read host speed drift."""
    samples = []
    vec = np.arange(1 << 16, dtype=np.float64)
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        for _ in range(50):
            vec = np.sqrt(vec * vec + 1.0)
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--caller-env", default="{}")
    args = parser.parse_args(argv)

    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = make_workload(args.workload, args.seed, RESULTS / "inputs")
    tracer = tracing.Tracer(RESULTS / f"spill-{os.getpid()}") if args.trace else None

    calibration = [host_calibration_ms()]
    setups = []
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        workload.set_up()
        setups.append(time.perf_counter() - t0)

    rounds: list[Round] = []
    failures: list[str] = []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            out = workload.round()
        finally:
            if traced:
                tracer.remove()
        out.traced = traced
        rounds.append(out)
        if out.setup_s is not None:
            setups.append(out.setup_s)
        failures += workload.check(out)
        spent = sum(r.wall_s for r in rounds)
        need_more_trace = tracer is not None and len(rounds) < 2
        if not need_more_trace and spent + statistics.median(r.wall_s for r in rounds) > args.seconds:
            break

    calibration.append(host_calibration_ms())
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(json.loads(args.caller_env)),
        "rounds": [{k: v for k, v in vars(r).items() if k not in ("run_ms", "windows")} | {"runs": len(r.run_ms)}
                   for r in rounds],
        "setup_samples_s": setups,
        "host_calibration_ms": calibration,
        "failures": failures,
    }
    if tracer is None:
        metrics = end_to_end(rounds, setups)
    else:
        spans = tracer.collect()
        metrics = per_layer(rounds, spans)
        record["span_summary"] = tracing.summary(spans)
        (RESULTS / f"{tag}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
        if tracer.spill_dir.is_dir():
            tracer.spill_dir.rmdir()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for line in failures[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
