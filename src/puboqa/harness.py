"""Command-line front end: solve, experiment, verify, export.

`experiment` reproduces the benchmark protocol: for each (instance,
formulation) cell it builds the encoding with default penalty weights, runs
QAOA `--runs` times with per-run seeds master_seed + run_index, classifies
each run's best state after projecting away slack bits, and writes one CSV
row per run plus a JSON summary of per-cell proportions. Rows are buffered
and emitted in run-index order, so the output does not depend on worker
scheduling; with a fixed master seed every column except wall_ms is
byte-identical across reruns.

`verify` brute-forces an instance and cross-checks both encodings against
it. `export` writes an assembled polynomial as a JSON term list. `solve`
does a single run and prints the outcome.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .extbp import (
    Classification,
    EbpInstance,
    Encoding,
    brute_force,
    builtin_instance,
    classify,
    default_lambda,
    encode,
    objective_polynomial,
)
from .pbf import Polynomial
from .qaoa import CostTable, QaoaConfig, RunRecord, build_cost_table, check_memory, run

THREADS_ENV_VAR = "PUBOQA_THREADS"

CSV_COLUMNS = [
    "run_id",
    "instance",
    "formulation",
    "seed",
    "n_qubits",
    "n_iterations",
    "n_evals",
    "best_bits",
    "best_loss_unconstrained",
    "classification",
    "wall_ms",
]

_EXPECTED_BUILTIN = {
    # optimum, optima count, objective bounds, default lambda, pubo qubits, qubo qubits
    "A": (-1.0, 1, (-4.0, 3.0), 8.0, 7, 15),
    "B": (-2.0, 1, (-6.0, 3.0), 10.0, 9, 17),
    "C": (-2.0, 11, (-8.0, 3.0), 12.0, 11, 20),
}


@dataclass(frozen=True)
class ExperimentConfig:
    instances: tuple[str, ...] = ("A", "B", "C")
    formulations: tuple[str, ...] = ("pubo", "qubo")
    runs: int = 100
    master_seed: int = 0
    qaoa: QaoaConfig = field(default_factory=QaoaConfig)
    lam_uni: float | None = None
    lam_capa: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        bad = set(self.formulations) - {"pubo", "qubo"}
        if bad or not self.formulations:
            raise ValueError(f"formulations must be a nonempty subset of pubo/qubo, got {self.formulations}")


@dataclass(frozen=True)
class SummaryRow:
    instance: str
    formulation: str
    qubit_count: int
    prop_optimal: float
    prop_feasible_non_optimal: float
    prop_infeasible: float
    mean_iterations: float
    wall_ms: float

    def to_obj(self) -> dict:
        return {
            "instance": self.instance,
            "formulation": self.formulation,
            "qubit_count": self.qubit_count,
            "prop_optimal": self.prop_optimal,
            "prop_feasible_non_optimal": self.prop_feasible_non_optimal,
            "prop_infeasible": self.prop_infeasible,
            "mean_iterations": self.mean_iterations,
            "wall_ms": self.wall_ms,
        }


def seed_for_run(master_seed: int, run_index: int) -> int:
    """Per-run seed rule: consecutive integers starting at the master seed."""
    return master_seed + run_index


def load_instance(ref: str) -> EbpInstance:
    """Resolve a builtin name (A/B/C) or a JSON instance file path."""
    if ref.strip().upper() in ("A", "B", "C"):
        return builtin_instance(ref)
    path = Path(ref)
    if not path.exists():
        raise ValueError(f"instance {ref!r} is neither a builtin name nor an existing file")
    with open(path, "r", encoding="utf-8") as fh:
        return EbpInstance.from_obj(json.load(fh))


# experiment ------------------------------------------------------------------

# Set in each pool worker by _pool_init; the parent process never reads it.
_WORKER_CTX: dict = {}


def _pool_init(table: CostTable, qcfg: QaoaConfig) -> None:
    """Worker start-up: keep the cell's table and config, pin BLAS to one thread.

    The arguments reach the worker through the pool's initargs, so this works
    under every multiprocessing start method.
    """
    _WORKER_CTX["table"] = table
    _WORKER_CTX["config"] = qcfg
    _single_thread_blas()


def _single_thread_blas() -> None:
    """Limit numpy's bundled OpenBLAS to one thread; no-op if it is not found.

    The pool already runs one worker per requested thread; BLAS threads
    inside a worker would contend with the other workers for the same cores.
    """
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                setter(1)
                return


def _pool_run(job: tuple[int, int]):
    index, seed = job
    record = run(_WORKER_CTX["table"], _WORKER_CTX["config"], seed)
    return index, record


def _execute_cell(table: CostTable, qcfg: QaoaConfig, seeds: list[int], threads: int) -> list[RunRecord]:
    """All runs of one cell, in run-index order regardless of scheduling."""
    if threads <= 1 or len(seeds) == 1:
        return [run(table, qcfg, s) for s in seeds]
    chunk = max(1, len(seeds) // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads, initializer=_pool_init,
                             initargs=(table, qcfg)) as pool:
        results = list(pool.map(_pool_run, enumerate(seeds), chunksize=chunk))
    results.sort(key=lambda pair: pair[0])
    return [rec for _, rec in results]


def run_experiment(cfg: ExperimentConfig, progress=None) -> tuple[list[dict], list[SummaryRow]]:
    """Execute every (instance, formulation) cell; return CSV rows and summaries."""
    rows: list[dict] = []
    summaries: list[SummaryRow] = []
    for ref in cfg.instances:
        inst = load_instance(ref)
        optimum, _ = brute_force(inst)
        for formulation in cfg.formulations:
            enc = encode(inst, formulation, cfg.lam_uni, cfg.lam_capa)
            check_memory(enc.qubit_count, cfg.threads)
            table = build_cost_table(enc.poly, enc.qubit_count)
            seeds = [seed_for_run(cfg.master_seed, i) for i in range(cfg.runs)]
            cell_start = time.perf_counter()
            records = _execute_cell(table, cfg.qaoa, seeds, cfg.threads)
            cell_ms = (time.perf_counter() - cell_start) * 1000.0
            counts = {c: 0 for c in Classification}
            for i, rec in enumerate(records):
                label = classify(inst, enc.project(rec.best_state), optimum)
                counts[label] += 1
                rows.append(
                    {
                        "run_id": i,
                        "instance": inst.name,
                        "formulation": formulation,
                        "seed": rec.seed,
                        "n_qubits": rec.n_qubits,
                        "n_iterations": rec.n_iterations,
                        "n_evals": rec.n_sampled,
                        "best_bits": rec.best_bits,
                        "best_loss_unconstrained": rec.best_loss,
                        "classification": label.value,
                        "wall_ms": rec.wall_ms,
                    }
                )
            total = len(records)
            summaries.append(
                SummaryRow(
                    instance=inst.name,
                    formulation=formulation,
                    qubit_count=enc.qubit_count,
                    prop_optimal=counts[Classification.OPTIMAL] / total,
                    prop_feasible_non_optimal=counts[Classification.FEASIBLE_NON_OPTIMAL] / total,
                    prop_infeasible=counts[Classification.INFEASIBLE] / total,
                    mean_iterations=sum(r.n_iterations for r in records) / total,
                    wall_ms=cell_ms,
                )
            )
            if progress is not None:
                last = summaries[-1]
                progress(
                    f"{inst.name}/{formulation}: {enc.qubit_count} qubits, "
                    f"optimal {last.prop_optimal:.2f}, feasible {last.prop_feasible_non_optimal:.2f}, "
                    f"infeasible {last.prop_infeasible:.2f} ({cell_ms / 1000.0:.1f} s)"
                )
    return rows, summaries


def write_rows_csv(rows: list[dict], path: Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary_json(summaries: list[SummaryRow], cfg: ExperimentConfig, path: Path) -> None:
    payload = {
        "master_seed": cfg.master_seed,
        "runs": cfg.runs,
        "depth": cfg.qaoa.depth,
        "n_shots": cfg.qaoa.n_shots,
        "max_evals": cfg.qaoa.max_evals,
        "cells": [s.to_obj() for s in summaries],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# verify ----------------------------------------------------------------------


def verify(ref: str, echo=print) -> list[tuple[str, bool, str]]:
    """Cross-check an instance's oracle values and both encodings.

    Structural checks always run: encoding minima equal the brute-force
    optimum, full-hypercube minimizers project onto exactly the constrained
    optima, qubit counts obey the layout formulas. Builtin instances are
    additionally compared against their published aggregates.
    """
    inst = load_instance(ref)
    checks: list[tuple[str, bool, str]] = []

    optimum, optima = brute_force(inst)
    obj = objective_polynomial(inst)
    lam = default_lambda(inst)
    n, q = inst.num_trains, inst.num_y
    r_bits = inst.cmax.bit_length()
    wide_groups = sum(1 for j in range(inst.num_groups) if len(inst.eligible_trains(j)) >= 2)

    expected = _EXPECTED_BUILTIN.get(ref.strip().upper())
    if expected:
        e_opt, e_count, e_bounds, e_lam, e_pq, e_qq = expected
        checks.append(("optimum value", abs(optimum - e_opt) < 1e-9, f"{optimum} vs published {e_opt}"))
        checks.append(("optima count", len(optima) == e_count, f"{len(optima)} vs published {e_count}"))
        checks.append(("objective bounds", obj.interval_bounds() == e_bounds,
                       f"{obj.interval_bounds()} vs published {e_bounds}"))
        checks.append(("default lambda", lam == e_lam, f"{lam} vs published {e_lam}"))

    opt_set = {(a.x, a.y) for a in optima}
    for formulation in ("pubo", "qubo"):
        enc = encode(inst, formulation)
        want_qubits = n + q if formulation == "pubo" else n + q + wide_groups + n * r_bits
        checks.append((f"{formulation} qubit count", enc.qubit_count == want_qubits,
                       f"{enc.qubit_count} vs formula {want_qubits}"))
        if expected:
            e_q = expected[4] if formulation == "pubo" else expected[5]
            checks.append((f"{formulation} qubit count (published)", enc.qubit_count == e_q,
                           f"{enc.qubit_count} vs published {e_q}"))
        table = build_cost_table(enc.poly, enc.qubit_count)
        mins = table.minimizers()
        proj = {(enc.project(int(z)).x, enc.project(int(z)).y) for z in mins}
        checks.append((f"{formulation} minimum equals optimum",
                       abs(table.min_value() - optimum) < 1e-9,
                       f"{table.min_value()} vs {optimum}"))
        checks.append((f"{formulation} minimizers project to optima", proj == opt_set,
                       f"{len(mins)} minimizers over {len(proj)} projections vs {len(opt_set)} optima"))

    for name, passed, detail in checks:
        echo(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return checks


# export ----------------------------------------------------------------------


def export_encoding(enc: Encoding, instance_name: str) -> dict:
    return {
        "instance": instance_name,
        "formulation": enc.kind,
        "qubit_count": enc.qubit_count,
        "lambda_uni": enc.lam_uni,
        "lambda_capa": enc.lam_capa,
        "var_names": list(enc.var_names),
        "terms": enc.poly.to_obj(),
    }


def import_polynomial(obj: dict) -> tuple[Polynomial, list[str]]:
    """Inverse of export_encoding, for round-trips and external consumers."""
    return Polynomial.from_obj(obj["terms"]), list(obj.get("var_names", []))


# CLI -------------------------------------------------------------------------


def _qaoa_config(args) -> QaoaConfig:
    return QaoaConfig(depth=args.depth, n_shots=args.shots, max_evals=args.max_evals)


def _resolve_threads(args) -> int:
    if args.threads is not None:
        threads, source = args.threads, "--threads"
    else:
        env = os.environ.get(THREADS_ENV_VAR)
        if not env:
            return os.cpu_count() or 1
        threads, source = int(env), THREADS_ENV_VAR
    if threads < 1:
        raise ValueError(f"{source} must be at least 1, got {threads}")
    return threads


def _formulations(arg: str) -> tuple[str, ...]:
    if arg == "both":
        return ("pubo", "qubo")
    return (arg,)


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    enc = encode(inst, args.formulation, args.lambda_uni, args.lambda_capa)
    table = build_cost_table(enc.poly, enc.qubit_count)
    record = run(table, _qaoa_config(args), args.seed)
    optimum, _ = brute_force(inst)
    label = classify(inst, enc.project(record.best_state), optimum)
    print(f"instance {inst.name} ({args.formulation}, {enc.qubit_count} qubits), seed {record.seed}")
    print(f"best state {record.best_bits} with unconstrained loss {record.best_loss}")
    print(f"classification: {label.value} (constrained optimum {optimum})")
    print(f"{record.n_iterations} optimizer iterations, {record.n_sampled} sampled states, "
          f"{record.wall_ms:.1f} ms")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        instances=tuple(args.instance) if args.instance else ("A", "B", "C"),
        formulations=_formulations(args.formulation),
        runs=args.runs,
        master_seed=args.seed,
        qaoa=_qaoa_config(args),
        lam_uni=args.lambda_uni,
        lam_capa=args.lambda_capa,
        threads=_resolve_threads(args),
    )
    rows, summaries = run_experiment(cfg, progress=lambda msg: print(msg, file=sys.stderr))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out.with_suffix(".csv")
    json_path = out.with_suffix(".summary.json")
    write_rows_csv(rows, csv_path)
    write_summary_json(summaries, cfg, json_path)
    print(f"wrote {len(rows)} rows to {csv_path} and {len(summaries)} cells to {json_path}")
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    for ref in args.instance or ["A", "B", "C"]:
        print(f"verifying {ref}")
        checks = verify(ref)
        failures += sum(1 for _, ok, _ in checks if not ok)
    return 0 if failures == 0 else 1


def _cmd_export(args) -> int:
    inst = load_instance(args.instance)
    enc = encode(inst, args.formulation, args.lambda_uni, args.lambda_capa)
    payload = export_encoding(enc, inst.name)
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_common(parser: argparse.ArgumentParser, multi_instance: bool) -> None:
    if multi_instance:
        parser.add_argument("--instance", action="append", default=None,
                            help="builtin name (A/B/C) or instance JSON path; repeatable "
                                 "(default: all builtins)")
    else:
        parser.add_argument("--instance", required=True,
                            help="builtin name (A/B/C) or instance JSON path")
    parser.add_argument("--lambda-uni", type=float, default=None,
                        help="uniqueness penalty weight (default: objective width + 1)")
    parser.add_argument("--lambda-capa", type=float, default=None,
                        help="capacity penalty weight (default: objective width + 1)")


def _add_qaoa_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shots", type=int, default=10, help="samples per evaluation (default 10)")
    parser.add_argument("--depth", type=int, default=1, help="QAOA depth p (default 1)")
    parser.add_argument("--max-evals", type=int, default=500,
                        help="optimizer evaluation cap (default 500)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puboqa",
        description="Reformulate constrained bin packing into unconstrained binary "
                    "polynomials and solve with simulated QAOA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="one QAOA run on one instance")
    _add_common(p_solve, multi_instance=False)
    p_solve.add_argument("--formulation", choices=["pubo", "qubo"], default="pubo")
    p_solve.add_argument("--seed", type=int, default=0)
    _add_qaoa_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_exp = sub.add_parser("experiment", help="batch runs with CSV/JSON output")
    _add_common(p_exp, multi_instance=True)
    p_exp.add_argument("--formulation", choices=["pubo", "qubo", "both"], default="both")
    p_exp.add_argument("--runs", type=int, default=100, help="runs per cell (default 100)")
    p_exp.add_argument("--seed", type=int, default=0,
                       help="master seed; run i uses seed master+i (default 0)")
    _add_qaoa_flags(p_exp)
    p_exp.add_argument("--out", default="experiment",
                       help="output prefix; writes <out>.csv and <out>.summary.json")
    p_exp.add_argument("--threads", type=int, default=None,
                       help=f"worker processes (default: ${THREADS_ENV_VAR} or cpu count)")
    p_exp.set_defaults(func=_cmd_experiment)

    p_ver = sub.add_parser("verify", help="brute-force cross-checks of encodings")
    p_ver.add_argument("--instance", action="append", default=None,
                       help="builtin name or file; repeatable (default: all builtins)")
    p_ver.set_defaults(func=_cmd_verify)

    p_exp2 = sub.add_parser("export", help="write an assembled polynomial as JSON")
    _add_common(p_exp2, multi_instance=False)
    p_exp2.add_argument("--formulation", choices=["pubo", "qubo"], required=True)
    p_exp2.add_argument("--out", default=None, help="output file (default: stdout)")
    p_exp2.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
