"""Checks of program outputs against the independent computations in reference.

Each check returns a list of failure messages (empty when it passes). The
checks read program outputs as plain values, so the self-tests can hand them
planted faults.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from reference import TOL, Spec

# Fixed parameter vector for check (c): depth 1, (gamma, beta).
CHECK_PARAMS = (0.7, 0.3)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def check_instance(spec: Spec, inst) -> list[str]:
    """The program's loaded instance describes the same data as spec."""
    got = (
        inst.num_groups,
        inst.cmax,
        tuple(t.cost for t in inst.trains),
        tuple(t.benefit for t in inst.trains),
        tuple(tuple(t.groups) for t in inst.trains),
    )
    want = (spec.num_groups, spec.cmax, spec.costs, spec.benefits, spec.groups)
    return [] if got == want else [f"{spec.name}: loaded instance {got} differs from {want}"]


def check_brute_force(spec: Spec, expected, optimum: float, optima) -> list[str]:
    """brute_force's value and optimal set against (a)."""
    want_value, want_set = expected
    fails = []
    if not _close(optimum, want_value):
        fails.append(f"{spec.name}: brute force optimum {optimum} != enumerated {want_value}")
    got_set = {(tuple(a.x), tuple(a.y)) for a in optima}
    if got_set != want_set or len(optima) != len(want_set):
        fails.append(f"{spec.name}: brute force found {len(optima)} optima, enumeration {len(want_set)}")
    return fails


def check_encoding(spec: Spec, kind: str, qubit_count: int, lam_uni: float, lam_capa: float) -> list[str]:
    fails = []
    if qubit_count != spec.qubits(kind):
        fails.append(f"{spec.name}/{kind}: {qubit_count} qubits, layout formula gives {spec.qubits(kind)}")
    if not (_close(lam_uni, spec.lam) and _close(lam_capa, spec.lam)):
        fails.append(f"{spec.name}/{kind}: penalty weights {lam_uni}, {lam_capa} != {spec.lam}")
    return fails


def check_table(spec: Spec, kind: str, values: np.ndarray, expected) -> list[str]:
    """(b) on every basis state; minimum and minimizers against (a)."""
    optimum, optima = expected
    size = 1 << spec.qubits(kind)
    if values.shape != (size,):
        return [f"{spec.name}/{kind}: table shape {values.shape}, expected ({size},)"]
    fails = []
    for lo in range(0, size, ref.CHUNK):
        hi = min(lo + ref.CHUNK, size)
        want = ref.penalized_values(spec, kind, lo, hi)
        bad = np.flatnonzero(np.abs(values[lo:hi] - want) > TOL * np.maximum(1.0, np.abs(want)))
        if bad.size:
            z = lo + int(bad[0])
            fails.append(f"{spec.name}/{kind}: table[{z}] = {values[z]!r}, definition gives {want[bad[0]]!r}"
                         f" ({bad.size} states differ in [{lo}, {hi}))")
            break
    low = float(values.min())
    if not _close(low, optimum):
        fails.append(f"{spec.name}/{kind}: table minimum {low} != constrained optimum {optimum}")
    minimizers = np.flatnonzero(values <= low + TOL)
    projected = {ref.project(spec, int(z)) for z in minimizers}
    if projected != optima:
        fails.append(f"{spec.name}/{kind}: {len(minimizers)} minimizers project onto {len(projected)} "
                     f"assignments, not the {len(optima)} optima")
    return fails


def check_record(spec: Spec, kind: str, expected, config, *, seed: int, n_qubits: int,
                 best_state: int, best_loss: float, n_iterations: int, n_sampled: int) -> tuple[list[str], str]:
    """One QAOA run's outputs; returns (failures, classification from (a))."""
    optimum, _ = expected
    where = f"{spec.name}/{kind} seed {seed}"
    fails = []
    if n_qubits != spec.qubits(kind):
        fails.append(f"{where}: {n_qubits} qubits, expected {spec.qubits(kind)}")
    if not 0 <= best_state < (1 << spec.qubits(kind)):
        return fails + [f"{where}: best state {best_state} outside the register"], ref.INFEASIBLE
    want = ref.penalized_value(spec, kind, best_state)
    if not _close(best_loss, want):
        fails.append(f"{where}: best_loss {best_loss!r} != penalized value {want!r} of state {best_state}")
    if n_sampled != config.n_shots * n_iterations:
        fails.append(f"{where}: {n_sampled} sampled states != {config.n_shots} shots x {n_iterations} evaluations")
    if not 1 <= n_iterations <= config.max_evals:
        fails.append(f"{where}: {n_iterations} evaluations outside [1, {config.max_evals}]")
    return fails, ref.classify(spec, optimum, best_state)


def check_state(spec: Spec, kind: str, psi: np.ndarray, params=CHECK_PARAMS) -> list[str]:
    """(c): the program's statevector against the qubit-by-qubit reference."""
    where = f"{spec.name}/{kind}"
    want = ref.reference_state(ref.all_penalized_values(spec, kind), params)
    if psi.shape != want.shape:
        return [f"{where}: statevector shape {psi.shape}, expected {want.shape}"]
    fails = []
    worst = 0.0
    for lo in range(0, len(want), ref.CHUNK):
        worst = max(worst, float(np.abs(psi[lo:lo + ref.CHUNK] - want[lo:lo + ref.CHUNK]).max()))
    if not worst <= TOL:
        fails.append(f"{where}: statevector differs from the reference by {worst:.3g}")
    norm = float(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= TOL:
        fails.append(f"{where}: statevector norm^2 {norm!r}")
    return fails


def check_rows(cells, expected, config, master_seed: int, runs: int, rows, summaries) -> tuple[list[str], int]:
    """experiment rows: run order, seeds, serial checks, per-cell proportions.

    cells lists (spec, kind) in experiment order. Returns (failures, number
    of rows whose best state is a constrained optimum).
    """
    fails = []
    hits = 0
    if len(rows) != len(cells) * runs or len(summaries) != len(cells):
        return [f"experiment returned {len(rows)} rows and {len(summaries)} cells for "
                f"{len(cells)} cells of {runs} runs"], 0
    for c, (spec, kind) in enumerate(cells):
        cell_rows = rows[c * runs:(c + 1) * runs]
        labels = []
        for i, row in enumerate(cell_rows):
            where = f"{spec.name}/{kind} row {i}"
            if (row["run_id"], row["seed"], row["instance"], row["formulation"]) != (
                    i, master_seed + i, spec.name, kind):
                fails.append(f"{where}: out of order or mislabelled: {row['run_id']}, {row['seed']}, "
                             f"{row['instance']}, {row['formulation']}")
                continue
            bits = row["best_bits"]
            state = sum(1 << k for k, ch in enumerate(bits) if ch == "1")
            got, label = check_record(
                spec, kind, expected[spec.name], config, seed=row["seed"], n_qubits=row["n_qubits"],
                best_state=state, best_loss=row["best_loss_unconstrained"],
                n_iterations=row["n_iterations"], n_sampled=row["n_evals"])
            if len(bits) != row["n_qubits"]:
                got.append(f"{where}: best_bits has {len(bits)} characters for {row['n_qubits']} qubits")
            if row["classification"] != label:
                got.append(f"{where}: classified {row['classification']}, the enumeration gives {label}")
            fails += got
            labels.append(label)
            hits += label == ref.OPTIMAL
        s = summaries[c]
        if (s.instance, s.formulation, s.qubit_count) != (spec.name, kind, spec.qubits(kind)):
            fails.append(f"summary {c} is {s.instance}/{s.formulation} on {s.qubit_count} qubits, "
                         f"expected {spec.name}/{kind} on {spec.qubits(kind)}")
        props = (s.prop_optimal, s.prop_feasible_non_optimal, s.prop_infeasible)
        want = tuple(labels.count(x) / runs for x in (ref.OPTIMAL, ref.FEASIBLE_NON_OPTIMAL, ref.INFEASIBLE))
        if len(labels) == runs and not all(math.isclose(a, b) for a, b in zip(props, want)):
            fails.append(f"{spec.name}/{kind}: summary proportions {props} disagree with rows {want}")
        mean_iter = sum(r["n_iterations"] for r in cell_rows) / runs
        if not math.isclose(s.mean_iterations, mean_iter):
            fails.append(f"{spec.name}/{kind}: summary mean iterations {s.mean_iterations} != rows {mean_iter}")
    return fails, hits
