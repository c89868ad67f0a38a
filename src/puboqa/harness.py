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
it with six structural checks. `export` writes an assembled polynomial as a
JSON term list. `solve` does a single run and prints the outcome.
`experiment` runs worker_count() worker processes: --threads, else
$PUBOQA_THREADS, else the cores this process may run on.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .extbp import (
    BUILTIN_NAMES,
    Classification,
    EbpInstance,
    Encoding,
    brute_force,
    builtin_instance,
    classify,
    encode,
)
from .pbf import OPTIMUM_TOL
from . import qaoa
from .qaoa import (CostTable, QaoaConfig, RunRecord, build_cost_table, check_register,
                   mixer_backend, run, usable_cores)

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

@dataclass(frozen=True)
class ExperimentConfig:
    instances: tuple[str, ...] = BUILTIN_NAMES
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
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
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


def seed_for_run(master_seed: int, run_index: int) -> int:
    """Per-run seed rule: consecutive integers starting at the master seed."""
    return master_seed + run_index


def load_instance(ref: str) -> EbpInstance:
    """Resolve a builtin name (see BUILTIN_NAMES) or a JSON instance file path."""
    if ref.strip().upper() in BUILTIN_NAMES:
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
    """Worker start-up: keep the cell's table and config, pin BLAS and the
    layer kernel to one thread each.

    The arguments reach the worker through the pool's initargs, so this works
    under every multiprocessing start method.
    """
    _WORKER_CTX["table"] = table
    _WORKER_CTX["config"] = qcfg
    _single_thread_blas()
    qaoa._kernel_threads = 1


def _single_thread_blas() -> None:
    """Limit numpy's bundled OpenBLAS to one thread; no-op if it is not found.

    The pool already runs one worker per requested thread; BLAS threads
    inside a worker would contend with the other workers for the same cores.
    """
    setter = _openblas_function("set_num_threads")
    if setter is not None:
        setter.restype, setter.argtypes = None, [ctypes.c_int]
        setter(1)


def blas_core() -> str | None:
    """The kernel family numpy's bundled OpenBLAS picked (say "SkylakeX"), or None."""
    getter = _openblas_function("get_corename")
    if getter is None:
        return None
    getter.restype, getter.argtypes = ctypes.c_char_p, []
    return getter().decode()


def _openblas_function(name: str):
    """openblas_<name> from numpy's bundled OpenBLAS, under any of its symbol
    prefixes and suffixes; None if the library or the symbol is absent."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                       f"openblas_{name}64_", f"openblas_{name}"):
            found = getattr(lib, symbol, None)
            if found is not None:
                return found
    return None


def _pool_run(seed: int) -> RunRecord:
    return run(_WORKER_CTX["table"], _WORKER_CTX["config"], seed)


def _cell_processes(cfg: ExperimentConfig) -> int:
    """Processes that run each cell: a cell of one run runs in this process."""
    return 1 if cfg.runs == 1 else cfg.threads


def _execute_cell(table: CostTable, qcfg: QaoaConfig, seeds: list[int], processes: int) -> list[RunRecord]:
    """All runs of one cell, in run-index order regardless of scheduling
    (the pool's map yields results in input order)."""
    if processes <= 1:
        return [run(table, qcfg, s) for s in seeds]
    chunk = max(1, len(seeds) // (processes * 4))
    with ProcessPoolExecutor(max_workers=processes, initializer=_pool_init,
                             initargs=(table, qcfg)) as pool:
        return list(pool.map(_pool_run, seeds, chunksize=chunk))


def run_experiment(cfg: ExperimentConfig, progress=None) -> tuple[list[dict], list[SummaryRow]]:
    """Execute every (instance, formulation) cell; return CSV rows and summaries.

    Every cell is encoded and its register checked, for the processes that
    will run it and the shots of one evaluation, before the first brute
    force, and every instance is brute-forced before the first run.
    """
    processes = _cell_processes(cfg)
    encoded = []
    for ref in cfg.instances:
        inst = load_instance(ref)
        encs = [encode(inst, formulation, cfg.lam_uni, cfg.lam_capa) for formulation in cfg.formulations]
        for enc in encs:
            check_register(enc.qubit_count, processes, cfg.qaoa.n_shots)
        encoded.append((inst, encs))
    cells = []
    for inst, encs in encoded:
        optimum, _ = brute_force(inst)
        cells += [(inst, optimum, enc) for enc in encs]
    rows: list[dict] = []
    summaries: list[SummaryRow] = []
    for inst, optimum, enc in cells:
        table = build_cost_table(enc.poly, enc.qubit_count)
        seeds = [seed_for_run(cfg.master_seed, i) for i in range(cfg.runs)]
        cell_start = time.perf_counter()
        records = _execute_cell(table, cfg.qaoa, seeds, processes)
        cell_ms = (time.perf_counter() - cell_start) * 1000.0
        counts = {c: 0 for c in Classification}
        for i, rec in enumerate(records):
            label = classify(inst, enc.project(rec.best_state), optimum)
            counts[label] += 1
            rows.append(
                {
                    "run_id": i,
                    "instance": inst.name,
                    "formulation": enc.kind,
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
                formulation=enc.kind,
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
                f"{inst.name}/{enc.kind}: {enc.qubit_count} qubits, "
                f"optimal {last.prop_optimal:.2f}, feasible {last.prop_feasible_non_optimal:.2f}, "
                f"infeasible {last.prop_infeasible:.2f} ({cell_ms / 1000.0:.1f} s)"
            )
    return rows, summaries


def write_rows_csv(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([row[c] for c in CSV_COLUMNS] for row in rows)


# The three per-cell proportions, each given a 95% Wilson interval in the summary.
PROPORTIONS = ("prop_optimal", "prop_feasible_non_optimal", "prop_infeasible")
# The standard normal quantile of 0.975.
_Z95 = 1.959963984540054


def wilson_interval(p: float, n: int) -> tuple[float, float]:
    """The 95% Wilson score interval of a proportion p observed over n runs,
    clipped to [0, 1] against rounding."""
    z = _Z95
    scale = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / scale
    half = z / scale * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def write_summary_json(summaries: list[SummaryRow], cfg: ExperimentConfig, path: Path) -> None:
    """The run settings and each cell's summary, its proportions with 95%
    Wilson intervals over cfg.runs."""
    payload = {
        "master_seed": cfg.master_seed,
        "runs": cfg.runs,
        "depth": cfg.qaoa.depth,
        "n_shots": cfg.qaoa.n_shots,
        "max_evals": cfg.qaoa.max_evals,
        "mixer": mixer_backend(),
        "blas_core": blas_core(),
        "cells": [dict(asdict(s), wilson_95={prop: wilson_interval(getattr(s, prop), cfg.runs)
                                             for prop in PROPORTIONS})
                  for s in summaries],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# verify ----------------------------------------------------------------------


def verify(ref: str) -> list[tuple[str, bool, str]]:
    """Cross-check both encodings of an instance against its brute force.

    Three checks per route, six in all: the qubit count obeys the layout
    formula, the table minimum equals the brute-force optimum within
    OPTIMUM_TOL, and the full-hypercube minimizers project onto exactly the
    constrained optima. The builtins' published values (optima, bounds,
    default weights, qubit counts) are fixed by the code and asserted by the
    acceptance tests, so they are not repeated here.
    """
    inst = load_instance(ref)
    encs = [encode(inst, formulation) for formulation in ("pubo", "qubo")]
    for enc in encs:
        check_register(enc.qubit_count)
    checks: list[tuple[str, bool, str]] = []

    optimum, optima = brute_force(inst)
    n, q = inst.num_trains, inst.num_y
    r_bits = inst.cmax.bit_length()
    served = {j for _, j in inst.y_pairs}
    wide_groups = sum(1 for j in served if len(inst.eligible_trains(j)) >= 2)

    opt_set = {(a.x, a.y) for a in optima}
    for enc in encs:
        want_qubits = n + q if enc.kind == "pubo" else n + q + wide_groups + n * r_bits
        checks.append((f"{enc.kind} qubit count", enc.qubit_count == want_qubits,
                       f"{enc.qubit_count} vs formula {want_qubits}"))
        table = build_cost_table(enc.poly, enc.qubit_count)
        mins = table.minimizers()
        proj = {(enc.project(int(z)).x, enc.project(int(z)).y) for z in mins}
        checks.append((f"{enc.kind} minimum equals optimum",
                       abs(table.min_value() - optimum) <= OPTIMUM_TOL,
                       f"{table.min_value()} vs {optimum}"))
        checks.append((f"{enc.kind} minimizers project to optima", proj == opt_set,
                       f"{len(mins)} minimizers over {len(proj)} projections vs {len(opt_set)} optima"))
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


# CLI -------------------------------------------------------------------------


def _qaoa_config(args) -> QaoaConfig:
    return QaoaConfig(depth=args.depth, n_shots=args.shots, max_evals=args.max_evals)


def worker_count(requested: int | None = None) -> int:
    """Worker processes for an experiment: requested (--threads), else
    $PUBOQA_THREADS, else the cores this process may run on.

    A count below 1 raises ValueError naming where it came from.
    """
    if requested is not None:
        threads, source = requested, "--threads"
    else:
        env = os.environ.get(THREADS_ENV_VAR)
        if not env:
            return usable_cores()
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
        instances=tuple(args.instance) if args.instance else BUILTIN_NAMES,
        formulations=_formulations(args.formulation),
        runs=args.runs,
        master_seed=args.seed,
        qaoa=_qaoa_config(args),
        lam_uni=args.lambda_uni,
        lam_capa=args.lambda_capa,
        threads=worker_count(args.threads),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows, summaries = run_experiment(cfg, progress=lambda msg: print(msg, file=sys.stderr))
    csv_path = out.with_suffix(".csv")
    json_path = out.with_suffix(".summary.json")
    write_rows_csv(rows, csv_path)
    write_summary_json(summaries, cfg, json_path)
    print(f"wrote {len(rows)} rows to {csv_path} and {len(summaries)} cells to {json_path}")
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    for ref in args.instance or BUILTIN_NAMES:
        # Printed once the checks ran, so a refused instance prints nothing.
        checks = verify(ref)
        print(f"verifying {ref}")
        for name, passed, detail in checks:
            print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
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
    what = f"builtin name ({'/'.join(BUILTIN_NAMES)}) or instance JSON path"
    if multi_instance:
        parser.add_argument("--instance", action="append", default=None,
                            help=f"{what}; repeatable (default: all builtins)")
    else:
        parser.add_argument("--instance", required=True, help=what)
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
                       help=f"worker processes (default: ${THREADS_ENV_VAR}, else the "
                            f"cores this process may run on)")
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
