"""Acceptance gate: one verdict line per criterion, asserted at pinned tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines live;
without -s they still appear in failure reports. The statistical criterion
runs the full 600-run benchmark and dominates the suite's wall time.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import asdict

import numpy as np

from puboqa.extbp import brute_force, builtin_instance, default_lambda, encode
from puboqa.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    blas_core,
    run_experiment,
    worker_count,
    write_rows_csv,
)
from puboqa.model import canonicalize
from puboqa.pbf import Polynomial
from puboqa.qaoa import QaoaConfig, build_cost_table, evolve, mixer_backend, run
from puboqa.reformulate import (
    eq_penalty,
    ge_penalty,
    lambda_default,
    le_penalty,
    product_penalty,
    reduce_to_quadratic,
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_penalty_soundness():
    started = time.perf_counter()
    issues = []

    tables = 0
    for n in range(1, 9):
        z = np.arange(1 << n)
        pop = ((z[:, None] >> np.arange(n)) & 1).sum(axis=1)
        families = [
            ("exactly", eq_penalty, range(0, n + 1)),
            ("at-most", le_penalty, range(0, n)),
            ("at-least", ge_penalty, range(1, n + 1)),
        ]
        for label, fn, cs in families:
            for c in cs:
                values = build_cost_table(fn(range(n), c), n).values
                if label == "exactly":
                    sat = pop == c
                elif label == "at-most":
                    sat = pop <= c
                else:
                    sat = pop >= c
                want = np.where(sat, 0.0, 1.0)
                if not np.all(np.abs(values - want) <= 1e-9):
                    issues.append(f"{label} n={n} c={c}")
                tables += 1

    rng = random.Random(2024)
    cases = 0
    biggest = 0
    while cases < 30:
        k = rng.randint(3, 12)
        coeffs = [
            rng.choice([-2, -1, 1, 2]) if k <= 6 else rng.choice([-1, 1])
            for _ in range(k)
        ]
        rhs = rng.randint(-3, 3)
        rel = rng.choice(["<=", ">="])
        lhs = Polynomial.from_terms(((i,), c) for i, c in enumerate(coeffs))
        (con,) = canonicalize(rel, lhs, rhs)
        ub = sum(abs(int(round(c))) for c in con.lhs.terms.values())
        if ub > 16:
            continue
        cases += 1
        biggest = max(biggest, k)
        pen = build_cost_table(product_penalty(con), k).values
        lhs_vals = build_cost_table(con.lhs, k).values
        sat = lhs_vals <= 1e-9
        if not np.all(np.abs(pen[sat]) <= 1e-9):
            issues.append(f"product case {cases}: nonzero on satisfying state")
        if not np.all(pen[~sat] >= 1.0 - 1e-9):
            issues.append(f"product case {cases}: below 1 on violating state")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        issues.append(f"runtime {elapsed:.1f}s is not under 10s")
    _verdict(
        1,
        "penalty soundness",
        not issues,
        issues[0] if issues else (
            f"{tables} threshold tables exhaustively 0/1-valued and {cases} product "
            f"constraints (up to {biggest} vars) 0/>=1-valued in {elapsed:.1f}s"
        ),
    )


def test_criterion_2_threshold_difference_identity():
    bad = []
    pairs = 0
    for n in range(1, 9):
        vs = range(n)
        for c in range(1, n + 1):
            pairs += 1
            diff = eq_penalty(vs, c) - le_penalty(vs, c)
            if ge_penalty(vs, c) != diff:
                bad.append(f"n={n} c={c}")
    _verdict(
        2,
        "at-least as exact-minus-at-most",
        not bad,
        f"failed for {bad}" if bad else f"{pairs} (n, c) pairs agree coefficient-wise",
    )


def test_criterion_3_benchmark_oracle_values():
    started = time.perf_counter()
    expected = {
        "A": (-1.0, 1, (-4.0, 3.0), 8.0),
        "B": (-2.0, 1, (-6.0, 3.0), 10.0),
        "C": (-2.0, 11, (-8.0, 3.0), 12.0),
    }
    issues = []
    for name, (opt, count, bounds, lam) in expected.items():
        inst = builtin_instance(name)
        best, optima = brute_force(inst)
        enc = encode(inst, "pubo")
        obj_bounds = Polynomial.from_terms(
            [((i,), t.cost) for i, t in enumerate(inst.trains)]
            + [
                ((inst.num_trains + k,), -inst.trains[i].benefit)
                for k, (i, _) in enumerate(inst.y_pairs)
            ]
        ).interval_bounds()
        if abs(best - opt) > 1e-9:
            issues.append(f"{name}: optimum {best} != {opt}")
        if len(optima) != count:
            issues.append(f"{name}: {len(optima)} optima != {count}")
        if obj_bounds != bounds:
            issues.append(f"{name}: bounds {obj_bounds} != {bounds}")
        if default_lambda(inst) != lam or enc.lam_uni != lam:
            issues.append(f"{name}: lambda {default_lambda(inst)} != {lam}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        issues.append(f"runtime {elapsed:.1f}s is not under 5s")
    _verdict(
        3,
        "benchmark oracle values",
        not issues,
        "; ".join(issues) if issues else (
            f"optima -1/-2/-2 with 1/1/11 optimal assignments, bounds and "
            f"default weights match in {elapsed:.2f}s"
        ),
    )


def test_criterion_4_qubit_counts():
    want = {"pubo": {"A": 7, "B": 9, "C": 11}, "qubo": {"A": 15, "B": 17, "C": 20}}
    got = {
        kind: {name: encode(builtin_instance(name), kind).qubit_count for name in "ABC"}
        for kind in ("pubo", "qubo")
    }
    _verdict(
        4,
        "qubit counts",
        got == want,
        f"got {got}" if got != want else "cubic encoding 7/9/11 and quadratic 15/17/20",
    )


def test_criterion_5_encoding_equivalence():
    issues = []
    slow_cell = 0.0
    for name in "ABC":
        inst = builtin_instance(name)
        optimum, optima = brute_force(inst)
        opt_set = {(a.x, a.y) for a in optima}
        for kind in ("pubo", "qubo"):
            cell_start = time.perf_counter()
            enc = encode(inst, kind)
            table = build_cost_table(enc.poly, enc.qubit_count)
            mins = table.minimizers()
            projected = {
                (enc.project(int(z)).x, enc.project(int(z)).y) for z in mins
            }
            cell = time.perf_counter() - cell_start
            if name == "C" and kind == "qubo":
                slow_cell = cell
            if abs(table.min_value() - optimum) > 1e-9:
                issues.append(f"{name}/{kind}: min {table.min_value()} != {optimum}")
            if projected != opt_set:
                issues.append(
                    f"{name}/{kind}: {len(mins)} minimizers project onto "
                    f"{len(projected)} assignments, expected {len(opt_set)}"
                )
    if slow_cell >= 60.0:
        issues.append(f"largest table took {slow_cell:.1f}s, not under 60s")
    _verdict(
        5,
        "encoding equivalence",
        not issues,
        "; ".join(issues) if issues else (
            f"all six tables reach the constrained optimum and their minimizers "
            f"project exactly onto it (largest cell {slow_cell:.1f}s)"
        ),
    )


def test_criterion_6_quadratization():
    poly = encode(builtin_instance("A"), "pubo").poly
    quad, records = reduce_to_quadratic(poly, lambda_default(poly))
    n_orig = max(poly.variables()) + 1
    n_ext = max(quad.variables()) + 1
    issues = []
    if quad.degree > 2:
        issues.append(f"degree {quad.degree} > 2")
    if n_ext > 14:
        issues.append(f"{n_ext} variables exceed the 2^14 budget")
    orig_min = build_cost_table(poly, n_orig).min_value()
    ext_min = build_cost_table(quad, n_ext).min_value()
    if abs(orig_min - ext_min) > 1e-9:
        issues.append(f"minimum changed: {orig_min} vs {ext_min}")
    _verdict(
        6,
        "quadratization",
        not issues,
        "; ".join(issues) if issues else (
            f"{len(records)} substitution(s) give degree {quad.degree} over "
            f"{n_ext} variables with the same minimum {ext_min}"
        ),
    )


# sha256 of the 600-run CSV (master seed 0, 100 runs per cell) with the
# wall_ms column removed, recorded with the earlier two-qubit-pass mixer
# kernel. A kernel change that flips a single sampled index changes it.
GOLDEN_CSV_SHA256 = "3120bc84e5fb517231769bda8b69c708fa776d7a736c1af52017f187773e238f"


def _csv_digest(path) -> str:
    """sha256 of an experiment CSV with its wall_ms column removed."""
    wall = CSV_COLUMNS.index("wall_ms")
    kept = [",".join(cell for i, cell in enumerate(line.split(",")) if i != wall)
            for line in path.read_text(encoding="utf-8").splitlines()]
    return hashlib.sha256(("\n".join(kept) + "\n").encode("utf-8")).hexdigest()


def test_criterion_7_formulation_comparison(tmp_path):
    threads = worker_count()
    cfg = ExperimentConfig(master_seed=0, runs=100, threads=threads)
    started = time.perf_counter()
    rows, summaries = run_experiment(cfg, progress=lambda msg: print(f"    {msg}"))
    elapsed = time.perf_counter() - started
    write_rows_csv(rows, tmp_path / "comparison.csv")
    digest = _csv_digest(tmp_path / "comparison.csv")
    print(f"    CSV digest without wall_ms: {digest}")

    cell = {(s.instance, s.formulation): s for s in summaries}
    issues = []
    if digest != GOLDEN_CSV_SHA256:
        issues.append(f"CSV digest {digest} differs from the golden {GOLDEN_CSV_SHA256} "
                      f"(mixer {mixer_backend()}, BLAS core {blas_core()})")
    pieces = []
    for name in "ABC":
        pubo, qubo = cell[(name, "pubo")], cell[(name, "qubo")]
        if pubo.prop_optimal < 0.35:
            issues.append(f"{name}: cubic optimal {pubo.prop_optimal:.2f} < 0.35")
        if not pubo.prop_optimal > qubo.prop_optimal:
            issues.append(
                f"{name}: cubic optimal {pubo.prop_optimal:.2f} not above "
                f"quadratic {qubo.prop_optimal:.2f}"
            )
        if pubo.prop_infeasible > 0.05:
            issues.append(f"{name}: cubic infeasible {pubo.prop_infeasible:.2f} > 0.05")
        if qubo.prop_infeasible < pubo.prop_infeasible:
            issues.append(
                f"{name}: quadratic infeasible {qubo.prop_infeasible:.2f} below "
                f"cubic {pubo.prop_infeasible:.2f}"
            )
        if qubo.prop_optimal > 0.30:
            issues.append(f"{name}: quadratic optimal {qubo.prop_optimal:.2f} > 0.30")
        pieces.append(
            f"{name} opt {pubo.prop_optimal:.2f}/{qubo.prop_optimal:.2f} "
            f"inf {pubo.prop_infeasible:.2f}/{qubo.prop_infeasible:.2f}"
        )
    print(
        f"    600 runs took {elapsed:.0f}s with {threads} worker(s) "
        f"(target: under 900s on four cores; informational only)"
    )
    _verdict(
        7,
        "formulation comparison",
        not issues,
        "; ".join(issues) if issues else "per instance (cubic/quadratic): " + "; ".join(pieces),
    )


def test_criterion_8_simulator_properties():
    issues = []

    table = build_cost_table(encode(builtin_instance("B"), "pubo").poly, 9)
    rng = np.random.default_rng(99)
    params = np.concatenate(
        [rng.uniform(0, 2 * np.pi, 3), rng.uniform(0, np.pi, 3)]
    )
    psi = evolve(params, table, check_norm=True)
    drift = abs(float(np.vdot(psi, psi).real) - 1.0)
    if drift > 1e-9:
        issues.append(f"norm drift {drift:.2e} above 1e-9")

    for beta in (0.0, 0.37, 1.1):
        flat = evolve([0.0, beta], table)
        probs = np.abs(flat) ** 2
        if not np.all(np.abs(probs - 1.0 / len(probs)) <= 1e-9):
            issues.append(f"zero-gamma state not uniform at beta={beta}")

    states_checked = 0
    for name in "ABC":
        inst = builtin_instance(name)
        for kind in ("pubo", "qubo"):
            enc = encode(inst, kind)
            tab = build_cost_table(enc.poly, enc.qubit_count)
            zs = rng.integers(0, 1 << enc.qubit_count, size=1000)
            for z in zs:
                bits = [(int(z) >> k) & 1 for k in range(enc.qubit_count)]
                if abs(tab.values[int(z)] - enc.poly.evaluate(bits)) > 1e-9:
                    issues.append(f"{name}/{kind}: table disagrees at state {int(z)}")
                    break
            states_checked += len(zs)

    cfg = QaoaConfig(depth=1, n_shots=10, max_evals=60)
    first = asdict(run(table, cfg, seed=7))
    second = asdict(run(table, cfg, seed=7))
    first.pop("wall_ms")
    second.pop("wall_ms")
    if first != second:
        issues.append("replay with the same seed diverged")

    _verdict(
        8,
        "simulator properties",
        not issues,
        "; ".join(issues) if issues else (
            f"norm drift {drift:.1e}, zero-gamma states uniform, "
            f"{states_checked} random table states agree, replay bit-identical"
        ),
    )
