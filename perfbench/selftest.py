"""Self-tests for the benchmark: every check must reject a planted fault.

    python3 perfbench/selftest.py

Prints one PASS/FAIL line per test and exits 1 if any fails. Also checks the
reference enumeration against the paper's published optima, and that a
2-run experiment cell gives the same records with 1 and with 2 workers.
"""

from __future__ import annotations

import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
from puboqa import extbp, harness, qaoa  # noqa: E402

PUBLISHED = {"A": (-1.0, 1), "B": (-2.0, 1), "C": (-2.0, 11)}


def _cell(name: str, kind: str):
    spec = ref.Spec.paper(name)
    inst = harness.load_instance(name)
    enc = extbp.encode(inst, kind)
    return spec, inst, enc, qaoa.build_cost_table(enc.poly, enc.qubit_count), ref.enumerate_optimum(spec)


def test_reference_matches_published_optima():
    for name, (value, count) in PUBLISHED.items():
        optimum, optima = ref.enumerate_optimum(ref.Spec.paper(name))
        assert optimum == value and len(optima) == count, (name, optimum, len(optima))


def test_brute_force_check_rejects_missing_optimum():
    spec, inst, _, _, want = _cell("C", "pubo")
    optimum, optima = extbp.brute_force(inst)
    assert not checks.check_brute_force(spec, want, optimum, optima)
    assert checks.check_brute_force(spec, want, optimum, optima[1:])
    assert checks.check_brute_force(spec, want, optimum + 1.0, optima)


def test_table_check_rejects_perturbed_entry():
    for kind in ("pubo", "qubo"):
        spec, _, enc, table, want = _cell("B", kind)
        assert not checks.check_table(spec, kind, table.values, want)
        for z in (0, len(table.values) // 3, len(table.values) - 1):
            bad = table.values.copy()
            bad[z] += 1e-6
            assert checks.check_table(spec, kind, bad, want), (kind, z)


def test_table_check_rejects_wrong_layout():
    spec, _, enc, table, want = _cell("A", "qubo")
    assert checks.check_table(spec, "pubo", table.values, want)
    assert checks.check_encoding(spec, "pubo", enc.qubit_count, enc.lam_uni, enc.lam_capa)


def test_record_check_rejects_wrong_loss_and_counts():
    spec, _, _, table, want = _cell("A", "pubo")
    rec = qaoa.run(table, qaoa.QaoaConfig(), 3)
    fields = dict(seed=rec.seed, n_qubits=rec.n_qubits, best_state=rec.best_state, best_loss=rec.best_loss,
                  n_iterations=rec.n_iterations, n_sampled=rec.n_sampled)
    fails, label = checks.check_record(spec, "pubo", want, qaoa.QaoaConfig(), **fields)
    assert not fails and label in (ref.OPTIMAL, ref.FEASIBLE_NON_OPTIMAL, ref.INFEASIBLE)
    for key, value in (("best_loss", rec.best_loss + 0.5), ("n_sampled", rec.n_sampled + 1),
                       ("n_iterations", 501), ("n_qubits", rec.n_qubits + 1)):
        planted = dict(fields, **{key: value})
        if key == "n_iterations":
            planted["n_sampled"] = 10 * value
        assert checks.check_record(spec, "pubo", want, qaoa.QaoaConfig(), **planted)[0], key


def test_classification_check_rejects_wrong_label():
    cfg = harness.ExperimentConfig(instances=("A",), formulations=("pubo", "qubo"), runs=3, master_seed=5,
                                   threads=1)
    rows, summaries = harness.run_experiment(cfg)
    spec = ref.Spec.paper("A")
    cells = [(spec, "pubo"), (spec, "qubo")]
    expected = {"A": ref.enumerate_optimum(spec)}
    fails, _ = checks.check_rows(cells, expected, cfg.qaoa, 5, 3, rows, summaries)
    assert not fails, fails
    for i, row in enumerate(rows):
        others = [c for c in (ref.OPTIMAL, ref.FEASIBLE_NON_OPTIMAL, ref.INFEASIBLE) if c != row["classification"]]
        for wrong in others:
            planted = [dict(r) for r in rows]
            planted[i]["classification"] = wrong
            assert checks.check_rows(cells, expected, cfg.qaoa, 5, 3, planted, summaries)[0], (i, wrong)
    swapped = [rows[1], rows[0]] + rows[2:]
    assert checks.check_rows(cells, expected, cfg.qaoa, 5, 3, swapped, summaries)[0]


def test_state_check_rejects_perturbed_amplitude():
    for name, kind in (("A", "pubo"), ("B", "qubo")):
        spec, _, _, table, _ = _cell(name, kind)
        psi = qaoa.evolve(checks.CHECK_PARAMS, table)
        assert not checks.check_state(spec, kind, psi)
        for z in (0, len(psi) // 2 + 1, len(psi) - 1):
            bad = psi.copy()
            bad[z] += 1e-7
            assert checks.check_state(spec, kind, bad), (name, kind, z)
        assert checks.check_state(spec, kind, psi * (1 + 1e-8))
        assert checks.check_state(spec, kind, qaoa.evolve((0.7, 0.31), table))


def test_pool_matches_serial():
    records = []
    for threads in (1, 2):
        cfg = harness.ExperimentConfig(instances=("A",), formulations=("pubo",), runs=2, threads=threads)
        rows, _ = harness.run_experiment(cfg)
        records.append([{k: v for k, v in row.items() if k != "wall_ms"} for row in rows])
    assert records[0] == records[1], records


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL  {name}")
            traceback.print_exc()
        else:
            print(f"PASS  {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
