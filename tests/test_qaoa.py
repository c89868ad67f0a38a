"""Statevector simulation, sampling, and the training loop."""

from __future__ import annotations

import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puboqa import qaoa
from puboqa.extbp import builtin_instance, encode
from puboqa.pbf import COEFF_EPS, Polynomial
from puboqa.qaoa import (
    BYTES_PER_SHOT,
    BYTES_PER_STATE,
    QUBIT_CAP,
    CostTable,
    QaoaConfig,
    _block_matrix,
    bits_string,
    build_cost_table,
    check_register,
    estimate_loss,
    evolve,
    optimize,
    run,
    sample,
)

V = Polynomial.variable


def accumulate_per_monomial(poly, n):
    """Reference table: one strided add per monomial over the sub-hypercube
    where all of its variables are 1, in (degree, variables) order."""
    values = np.zeros(1 << n)
    if n == 0:
        values[0] = poly.constant_term
        return values
    cube = values.reshape((2,) * n)
    for mono, coeff in sorted(poly.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        if not mono:
            values += coeff
            continue
        index: list = [slice(None)] * n
        for v in mono:
            index[n - 1 - v] = 1
        cube[tuple(index)] += coeff
    return values


@st.composite
def sized_polys(draw, coeffs, max_qubits):
    """(n, polynomial over variables < n) with monomials of every degree."""
    n = draw(st.integers(0, max_qubits))
    mono = st.frozensets(st.integers(0, max(n - 1, 0)), max_size=n) if n else st.just(frozenset())
    terms = draw(st.lists(st.tuples(mono, coeffs), max_size=40))
    return n, Polynomial.from_terms((tuple(m), c) for m, c in terms)


DYADIC = st.one_of(
    st.integers(-1000, 1000).map(float),
    st.integers(-(1 << 20), 1 << 20).map(lambda c: c / 64),
)
ANY_FLOAT = st.floats(-100, 100, allow_nan=False).filter(lambda c: abs(c) >= COEFF_EPS)


def check_exact_coefficients(case):
    n, poly = case
    got = build_cost_table(poly, n).values
    assert got.tobytes() == accumulate_per_monomial(poly, n).tobytes()


def check_float_coefficients(case):
    n, poly = case
    values = build_cost_table(poly, n).values
    for z in range(1 << n):
        want = poly.evaluate([(z >> k) & 1 for k in range(n)])
        assert values[z] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestCostTable:
    @settings(deadline=None, max_examples=60)
    @given(sized_polys(DYADIC, 12))
    def test_exact_coefficients_bit_identical_to_per_monomial_sum(self, case):
        check_exact_coefficients(case)

    @settings(deadline=None, max_examples=25)
    @given(sized_polys(ANY_FLOAT, 9))
    def test_float_coefficients_match_evaluation(self, case):
        check_float_coefficients(case)

    def test_blocked_passes_at_many_blocks(self):
        # 18 qubits: four blocks of the low-qubit passes, then two more passes.
        rng = np.random.default_rng(5)
        terms = {tuple(sorted(rng.choice(18, size=d, replace=False).tolist())): float(rng.integers(-9, 10))
                 for d in (0, 1, 2, 3, 5, 8, 13, 18) for _ in range(4)}
        poly = Polynomial(terms)
        got = build_cost_table(poly, 18).values
        assert got.tobytes() == accumulate_per_monomial(poly, 18).tobytes()

    def test_single_variable(self):
        table = build_cost_table(V(0), 1)
        assert table.values.tolist() == [0.0, 1.0]

    def test_two_qubit_example(self):
        poly = 1 + 2 * V(0) - V(1) + 3 * Polynomial({(0, 1): 1.0})
        table = build_cost_table(poly, 2)
        # z = 0, 1 (x0), 2 (x1), 3 (both)
        assert table.values.tolist() == [1.0, 3.0, 0.0, 5.0]

    def test_zero_polynomial(self):
        assert build_cost_table(Polynomial.zero(), 2).values.tolist() == [0.0] * 4

    def test_constant_on_zero_qubits(self):
        table = build_cost_table(Polynomial.constant(7.0), 0)
        assert table.values.tolist() == [7.0]

    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(3)
        n = 6
        terms = {}
        for _ in range(12):
            mono = tuple(sorted(int(v) for v in rng.choice(n, size=rng.integers(1, 4), replace=False)))
            terms[mono] = terms.get(mono, 0.0) + float(rng.integers(-5, 6))
        poly = Polynomial(terms) + 2.5
        table = build_cost_table(poly, n)
        for z in range(1 << n):
            bits = [(z >> k) & 1 for k in range(n)]
            assert table.values[z] == pytest.approx(poly.evaluate(bits), abs=1e-12)

    def test_min_and_minimizers(self):
        table = CostTable(2, np.array([1.0, 0.0, 0.0, 2.0]))
        assert table.min_value() == 0.0
        assert table.minimizers().tolist() == [1, 2]

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            build_cost_table(V(3), 2)

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_cost_table(V(0), QUBIT_CAP + 1)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="expected"):
            CostTable(2, np.zeros(3))


class TestCostTableNumpy(TestCostTable):
    """Every TestCostTable test again, with the passes in numpy."""

    @pytest.fixture(autouse=True)
    def numpy_passes(self, monkeypatch):
        monkeypatch.setattr(qaoa, "_kernel", None)

    # hypothesis runs a property test for one class only, so these two are
    # declared again.
    @settings(deadline=None, max_examples=60)
    @given(sized_polys(DYADIC, 12))
    def test_exact_coefficients_bit_identical_to_per_monomial_sum(self, case):
        check_exact_coefficients(case)

    @settings(deadline=None, max_examples=25)
    @given(sized_polys(ANY_FLOAT, 9))
    def test_float_coefficients_match_evaluation(self, case):
        check_float_coefficients(case)


def coefficients(poly, n):
    """Each coefficient at its monomial's bitmask, as build_cost_table writes them."""
    values = np.zeros(1 << n)
    for mono, coeff in poly.terms.items():
        values[sum(1 << v for v in mono)] = coeff
    return values


def passes_oracle(values, n):
    """values after _subset_sum_passes over qubits 0..n-1, unblocked."""
    out = values.copy()
    qaoa._subset_sum_passes(out, range(n))
    return out


class TestTableKernel:
    """puboqa_table gives the bits of the numpy passes, for any coefficients."""

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    @pytest.mark.parametrize("kind", ["pubo", "qubo"])
    def test_builtin_tables_bit_identical(self, name, kind, compiled):
        enc = encode(builtin_instance(name), kind)
        got = build_cost_table(enc.poly, enc.qubit_count).values
        want = passes_oracle(coefficients(enc.poly, enc.qubit_count), enc.qubit_count)
        assert got.tobytes() == want.tobytes()

    # 0-4 cover the 8-entry step and the passes short of it; 15 and 16 one
    # block of low passes, less than whole and whole; 17 and 20 one group of
    # later passes, of one and of four; 23 two groups.
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 15, 16, 17, 20, 23])
    def test_random_coefficients_bit_identical(self, n, compiled):
        rng = np.random.default_rng(40 + n)
        dense = rng.normal(size=1 << n) * 10.0 ** rng.integers(-3, 4, size=1 << n)
        got = dense.copy()
        assert qaoa._layer_kernel().puboqa_table(got.ctypes.data, n) == 0
        assert got.tobytes() == passes_oracle(dense, n).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 15, 16, 17, 20])
    def test_random_polynomial_bit_identical(self, n, compiled):
        rng = np.random.default_rng(n)
        terms = {}
        for _ in range(60):
            mono = tuple(sorted(rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist()))
            terms[mono] = float(rng.normal() / 3.0)
        poly = Polynomial(terms)
        got = build_cost_table(poly, n).values
        assert got.tobytes() == passes_oracle(coefficients(poly, n), n).tobytes()

    def test_kernel_makes_every_pass(self, compiled, monkeypatch):
        def fail(*args):
            raise AssertionError("the numpy passes ran")

        monkeypatch.setattr(qaoa, "_subset_sum_passes", fail)
        for name in "ABC":
            for kind in ("pubo", "qubo"):
                enc = encode(builtin_instance(name), kind)
                build_cost_table(enc.poly, enc.qubit_count)
        build_cost_table(Polynomial.constant(0.1), 0)
        for n in (1, 16, 17):
            build_cost_table(V(n - 1) + 0.1, n)

    def test_unvectorized_build_gives_the_same_table(self, tmp_path, compiled):
        flags = (*qaoa._KERNEL_FLAGS, "-fno-tree-vectorize")
        scalar = qaoa._bind(qaoa._build_kernel(shutil.which("gcc"), tmp_path, flags))
        for n in (3, 5, 16, 17, 20):
            dense = np.random.default_rng(n).normal(size=1 << n)
            got = dense.copy()
            assert scalar.puboqa_table(got.ctypes.data, n) == 0
            assert got.tobytes() == passes_oracle(dense, n).tobytes()


class TestMemoryBudget:
    @pytest.fixture
    def ten_qubits_of_memory(self, monkeypatch):
        monkeypatch.setattr(qaoa, "_physical_memory", lambda: BYTES_PER_STATE << 10)

    def test_fits(self, ten_qubits_of_memory):
        check_register(10)
        assert build_cost_table(V(0), 10).values.shape == (1 << 10,)

    def test_refused_before_allocating(self, ten_qubits_of_memory):
        with pytest.raises(ValueError, match=r"11 qubits x 1 process.*0\.00 GiB.*physical memory"):
            build_cost_table(V(0), 11)

    def test_scales_with_processes(self, ten_qubits_of_memory):
        check_register(9, processes=2)
        with pytest.raises(ValueError, match="x 3 process"):
            check_register(9, processes=3)

    def test_shots_count_toward_the_budget(self, ten_qubits_of_memory):
        # 9 qubits take half the memory; the shots of one evaluation may take the rest.
        room = (BYTES_PER_STATE << 9) // BYTES_PER_SHOT
        check_register(9, shots=room)
        with pytest.raises(ValueError, match=rf"9 qubits x 1 process.* {room + 1} shots"):
            check_register(9, shots=room + 1)
        with pytest.raises(ValueError, match="x 2 process"):
            check_register(9, processes=2, shots=1)

    def test_unknown_memory_is_not_checked(self, monkeypatch):
        monkeypatch.setattr(qaoa, "_physical_memory", lambda: None)
        check_register(QUBIT_CAP, processes=1000)

    def test_reads_physical_memory(self):
        assert qaoa._physical_memory() > 0


class TestBitsString:
    def test_little_endian(self):
        assert bits_string(1, 3) == "100"
        assert bits_string(4, 3) == "001"
        assert bits_string(6, 4) == "0110"

    def test_round_trip(self):
        for z in range(16):
            s = bits_string(z, 4)
            assert int(s[::-1], 2) == z


def rotation(beta):
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def dense_evolve(params, values):
    """Reference implementation: the phase as a diagonal, the mixer qubit by qubit.

    Up to 8 qubits the mixer is the explicit 2^n x 2^n Kronecker product;
    above that each 2x2 rotation is applied on its own axis of the tensor,
    which is the same operator without the matrix's memory.
    """
    params = np.asarray(params, dtype=float)
    depth = len(params) // 2
    n = int(np.log2(len(values)))
    psi = np.full(len(values), 2.0 ** (-n / 2), dtype=np.complex128)
    for layer in range(depth):
        gamma, beta = params[layer], params[depth + layer]
        psi = np.exp(-1j * gamma * values) * psi
        m1 = rotation(beta)
        if n <= 8:
            psi = reduce(np.kron, [m1] * n) @ psi
            continue
        for q in range(n):
            view = psi.reshape(-1, 2, 1 << q)
            psi = np.einsum("ij,ajb->aib", m1, view).reshape(-1)
    return psi


@pytest.fixture
def compiled():
    if qaoa.mixer_backend() != "compiled":
        pytest.skip("the layer kernel cannot be built here")


def random_table(n):
    rng = np.random.default_rng(17 + n)
    return CostTable(n, rng.integers(-4, 5, size=1 << n).astype(float))


def random_params(seed, depth):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(0, 2 * np.pi, depth), rng.uniform(0, np.pi, depth)])


def blocks(n):
    """The sampler's blocks in a register of n qubits."""
    return (1 << n) // qaoa._SAMPLE_BLOCK


def traced_peak(call):
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvolve:
    """evolve on the default path: the compiled kernel wherever it builds."""

    def table(self, n):
        return random_table(n)

    def test_zero_gamma_keeps_uniform_probabilities(self):
        table = self.table(3)
        psi = evolve([0.0, 0.7], table)
        probs = np.abs(psi) ** 2
        assert np.allclose(probs, 1 / 8, atol=1e-12)

    def test_zero_beta_leaves_pure_phases(self):
        table = self.table(3)
        gamma = 1.3
        psi = evolve([gamma, 0.0], table)
        want = 2.0 ** (-1.5) * np.exp(-1j * gamma * table.values)
        assert np.array_equal(psi, want)

    # n = 1..13 covers every n mod 4, so full and partial top blocks; at
    # n = 17 the numpy layer splits the blocks above qubit 10 into column
    # ranges and the lowest block into 8 chunks.
    @pytest.mark.parametrize("n", [*range(1, 14), 17])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_against_dense_operators(self, n, depth):
        table = self.table(n)
        params = random_params(100 * n + depth, depth)
        got = evolve(params, table, check_norm=True)
        want = dense_evolve(params, table.values)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 14))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_workspace_gives_the_same_state(self, n, depth):
        table = self.table(n)
        params = random_params(7 * n + depth, depth)
        ws = np.empty(1 << n, dtype=np.complex128)
        got = evolve(params, table, workspace=ws)
        assert np.array_equal(got, evolve(params, table))
        assert got is ws

    @pytest.mark.parametrize(
        "ws",
        [
            np.empty(32, dtype=np.complex128),
            np.empty((3, 16), dtype=np.complex128),
            np.empty((2, 16), dtype=np.complex128),
            np.empty(16, dtype=np.complex64),
            np.empty(16, dtype=np.float64),
            np.empty((2, 16), dtype=np.complex128, order="F")[0],
            np.empty(32, dtype=np.complex128)[::2],
            [0j] * 16,
        ],
        ids=["long", "three-rows", "two-rows", "complex64", "float64", "fortran", "strided", "list"],
    )
    def test_bad_workspace_rejected(self, ws):
        with pytest.raises(ValueError, match="workspace"):
            evolve([0.3, 0.4], self.table(4), workspace=ws)

    def test_evaluations_allocate_no_statevector_sized_arrays(self, monkeypatch):
        # numpy reports its data allocations to tracemalloc. Each evaluation
        # after the first (which builds the phase basis) may allocate nothing
        # as large as 2^n float64 values: no fresh state and no full CDF.
        n = 16
        table = self.table(n)
        peaks = []
        real_optimize = qaoa.optimize

        def measured_optimize(loss_fn, theta0, config):
            def measured(theta):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                value = loss_fn(theta)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                return value

            return real_optimize(measured, theta0, config)

        monkeypatch.setattr(qaoa, "optimize", measured_optimize)
        tracemalloc.start()
        try:
            run(table, QaoaConfig(max_evals=6), seed=1)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 6
        assert max(peaks[1:]) < (1 << n) * 8

    @pytest.mark.parametrize("n", [10, 12, 13, 14, 16])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_totals_leave_the_state_alone(self, n, depth):
        table = self.table(n)
        params = random_params(5 * n + depth, depth)
        totals = np.full(blocks(n), np.nan)
        got = evolve(params, table, totals=totals)
        assert got.tobytes() == evolve(params, table).tobytes()
        tol = 4.0 * ((1 << n) + 2) * 2.0 ** -53
        assert np.abs(totals - qaoa._block_totals(got)).max() <= tol

    @pytest.mark.parametrize(
        "make",
        [lambda k: np.empty(k + 1), lambda k: np.empty(k - 1),
         lambda k: np.empty(k, dtype=np.float32), lambda k: np.empty(2 * k)[::2],
         lambda k: np.empty((1, k)), lambda k: [0.0] * k],
        ids=["long", "short", "float32", "strided", "two-dim", "list"],
    )
    def test_bad_totals_rejected(self, make):
        with pytest.raises(ValueError, match="totals"):
            evolve([0.3, 0.4], self.table(14), totals=make(blocks(14)))

    def test_no_totals_below_one_block(self):
        n = qaoa._SAMPLE_BLOCK.bit_length() - 2
        assert blocks(n) == 0
        with pytest.raises(ValueError, match="totals"):
            evolve([0.3, 0.4], self.table(n), totals=np.empty(0))

    def test_one_fresh_row(self):
        # In place, a fresh evolve needs one statevector, not two.
        table = self.table(16)
        table._phase_basis()
        assert traced_peak(lambda: evolve([0.3, 0.9], table)) < 1.5 * (16 << 16)

    def test_run_holds_one_row(self):
        # The run's workspace is one statevector; nothing else it holds
        # comes near that size once the phase basis exists.
        table = self.table(16)
        table._phase_basis()
        assert traced_peak(lambda: run(table, QaoaConfig(max_evals=4), seed=2)) < 1.5 * (16 << 16)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [0.0, 0.37, 1.1, 2.9])
    def test_block_matrix_is_kron_power(self, k, beta):
        want = reduce(np.kron, [rotation(beta)] * k)
        got = _block_matrix(np.cos(beta), np.sin(beta), k)
        assert got.shape == (1 << k, 1 << k)
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_calls_return_distinct_arrays(self):
        table = self.table(9)
        first = evolve([0.4, 1.2, 0.9, 0.3], table)
        kept = first.copy()
        second = evolve([1.7, 0.2, 0.5, 2.1], table)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_norm_preserved(self, n):
        table = self.table(n)
        psi = evolve([0.9, 2.2, 0.4, 1.1], table, check_norm=True)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-9

    def test_single_qubit_exact_solve(self):
        # gamma = pi/2, beta = pi/4 concentrates everything on state 1
        table = build_cost_table(V(0), 1)
        psi = evolve([np.pi / 2, np.pi / 4], table)
        assert abs(psi[0]) < 1e-12
        assert abs(abs(psi[1]) - 1.0) < 1e-12

    def test_separable_cost_factorizes(self):
        single = evolve([0.8, 0.3], build_cost_table(V(0), 1))
        table3 = build_cost_table(V(0) + V(1) + V(2), 3)
        got = evolve([0.8, 0.3], table3)
        want = np.kron(single, np.kron(single, single))
        assert np.allclose(got, want, atol=1e-12)

    def test_odd_parameter_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            evolve([0.1, 0.2, 0.3], self.table(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            evolve([np.nan, 0.1], self.table(2))


class TestEvolveNumpy(TestEvolve):
    """Every TestEvolve test again, on the numpy fallback."""

    @pytest.fixture(autouse=True)
    def numpy_mixer(self, monkeypatch):
        monkeypatch.setattr(qaoa, "_kernel", None)


def butterfly_evolve(params, table):
    """The compiled kernel's arithmetic in numpy, one operation at a time.

    Phases are gathered as evolve computes them; each later layer multiplies
    them in as (ar pr - ai pi, ar pi + ai pr). Qubits 0..n-1 are then
    rotated in order, each pair (a, b) as a' = (c ar + s bi, c ai - s br)
    and b' = (c br + s ai, c bi - s ar), with c and s from math.cos and
    math.sin. Every step is one rounded numpy operation, so this gives the
    kernel's exact bits.
    """
    uniq, inv = table._phase_basis()
    n = table.num_qubits
    depth = len(params) // 2
    re = im = None
    for layer in range(depth):
        phase = np.exp(-1j * params[layer] * uniq)
        if layer == 0:
            phase *= 2.0 ** (-n / 2)
            re, im = phase.real[inv], phase.imag[inv]
        else:
            pr, pi = phase.real[inv], phase.imag[inv]
            re, im = re * pr - im * pi, re * pi + im * pr
        c, s = math.cos(params[depth + layer]), math.sin(params[depth + layer])
        for q in range(n):
            r, i = re.reshape(-1, 2, 1 << q), im.reshape(-1, 2, 1 << q)
            ar, ai, br, bi = r[:, 0].copy(), i[:, 0].copy(), r[:, 1].copy(), i[:, 1].copy()
            r[:, 0], i[:, 0] = c * ar + s * bi, c * ai - s * br
            r[:, 1], i[:, 1] = c * br + s * ai, c * bi - s * ar
    out = np.empty(1 << n, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def numpy_evolve(params, table, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(qaoa, "_kernel", None)
        return evolve(params, table)


def evolve_with(kernel, params, table, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(qaoa, "_kernel", kernel)
        return evolve(params, table)


_BUILD_SCRIPT = """
import sys
from pathlib import Path

import numpy as np

from puboqa import qaoa

kernel = qaoa._load_kernel(Path(sys.argv[1]))
assert kernel is not None
table = qaoa.CostTable(14, np.arange(1 << 14, dtype=float) % 7)
qaoa._kernel = kernel
psi = qaoa.evolve([0.4, 1.1], table, check_norm=True)
qaoa._kernel = None
assert np.allclose(psi, qaoa.evolve([0.4, 1.1], table), rtol=0, atol=1e-15)
print("ok")
"""


def python_env(**extra):
    src = str(Path(qaoa.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **extra)


class TestLayerKernel:
    """The compiled layer kernel: its arithmetic, its build and its fallback."""

    # n = 1..14 covers every pairing of the low qubits and 1 high qubit;
    # 17 and 20 take the high-qubit sweep with 4 and 7 qubits per slab.
    @pytest.mark.parametrize("n", [*range(1, 15), 17, 20])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_the_numpy_mixer(self, n, depth, compiled, monkeypatch):
        table = random_table(n)
        params = random_params(31 * n + depth, depth)
        got = evolve(params, table, check_norm=True)
        want = numpy_evolve(params, table, monkeypatch)
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 14, 15, 17, 20, 21])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_bits_of_the_documented_arithmetic(self, n, depth, compiled):
        table = random_table(n)
        params = random_params(13 * n + depth, depth)
        got = evolve(params, table)
        assert got.tobytes() == butterfly_evolve(params, table).tobytes()

    # 8-13 write totals in the first sweep; 14-20 in the one group of the
    # second sweep; 21 in the second of its two groups.
    @pytest.mark.parametrize("n", range(8, 22))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_totals_match_the_numpy_block_sums(self, n, depth, compiled):
        table = random_table(n)
        params = random_params(19 * n + depth, depth)
        totals = np.full(blocks(n), np.nan)
        psi = evolve(params, table, totals=totals)
        want = qaoa._block_totals(psi)
        tol = 4.0 * ((1 << n) + 2) * 2.0 ** -53  # sample's, for a total near 1
        assert np.abs(totals - want).max() <= tol
        assert np.abs(np.cumsum(totals) - np.cumsum(want)).max() <= tol

    @pytest.mark.parametrize("n", [12, 14, 20])
    def test_totals_draw_the_sequential_indices(self, n, compiled, monkeypatch):
        table = random_table(n)
        totals = np.empty(blocks(n))
        psi = evolve(random_params(n, 2), table, totals=totals)
        probs = psi.real ** 2 + psi.imag ** 2
        last = blocks(n) - 1
        picked = sorted({0, 1, 2, last // 2, last - 1, last})
        # Every block end as the sequential running sum, the kernel's totals
        # and numpy's block sums see it, and one ulp either side of each.
        b = qaoa._SAMPLE_BLOCK
        ends = np.concatenate([np.cumsum(probs)[b - 1::b][picked], np.cumsum(totals)[picked],
                               np.cumsum(qaoa._block_totals(psi))[picked]])
        near = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, 2.0)])
        calls = TestSample.spy_on_fallback(monkeypatch)
        want = sequential_sample(psi, len(near), _StubRng(near))
        assert np.array_equal(sample(psi, len(near), _StubRng(near), totals=totals), want)
        assert calls == [len(near)]
        for d in near:
            got = sample(psi, 1, _StubRng([d]), totals=totals)
            assert got.tolist() == sequential_sample(psi, 1, _StubRng([d])).tolist(), d
        calls.clear()
        draws = np.random.default_rng(n).random(200)
        got = sample(psi, 200, _StubRng(draws), totals=totals)
        assert np.array_equal(got, sequential_sample(psi, 200, _StubRng(draws)))
        assert np.array_equal(got, sample(psi, 200, _StubRng(draws)))
        assert calls == []

    # 16-20 split the first sweep and the one group of the second between
    # two threads, 21 both groups of the second. With the threshold patched
    # away, 1-15 take the split too: at most 13 qubits the first sweep is one
    # chunk, which the calling thread keeps.
    @pytest.mark.parametrize("threshold,n", [(16, 16), (16, 17), (16, 20), (16, 21),
                                             (0, 1), (0, 5), (0, 13), (0, 14), (0, 15)])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_thread_count_changes_no_bit(self, threshold, n, depth, compiled, monkeypatch):
        monkeypatch.setattr(qaoa, "_THREADED_QUBITS", threshold)
        table = random_table(n)
        params = random_params(23 * n + depth, depth)
        got = []
        for threads in (1, 2):
            monkeypatch.setattr(qaoa, "_kernel_threads", threads)
            totals = np.full(blocks(n), np.nan) if blocks(n) else None
            psi = evolve(params, table, totals=totals)
            got.append((psi.tobytes(), None if totals is None else totals.tobytes()))
        assert got[0] == got[1]

    @pytest.mark.parametrize("name,seeds", [("C", range(2)), ("B", range(5))])
    def test_thread_count_changes_no_record(self, name, seeds, compiled, monkeypatch):
        enc = encode(builtin_instance(name), "qubo")
        table = build_cost_table(enc.poly, enc.qubit_count)
        assert table.num_qubits >= qaoa._THREADED_QUBITS
        records = {}
        for threads in (1, 2):
            monkeypatch.setattr(qaoa, "_kernel_threads", threads)
            # repr, unlike ==, tells 0.0 from -0.0.
            records[threads] = [repr(replace(run(table, QaoaConfig(), s), wall_ms=0.0))
                                for s in seeds]
        assert records[1] == records[2]

    def test_unvectorized_build_gives_the_same_bits(self, tmp_path, compiled, monkeypatch):
        # A fused multiply-add in either build would change some bits.
        flags = (*qaoa._KERNEL_FLAGS, "-fno-tree-vectorize")
        scalar = qaoa._bind(qaoa._build_kernel(shutil.which("gcc"), tmp_path, flags))
        for n in (1, 2, 3, 5, 12, 13, 14, 15, 20):
            table = random_table(n)
            for depth in (1, 2):
                params = random_params(n + 50 * depth, depth)
                vector = evolve(params, table).copy()
                assert vector.tobytes() == evolve_with(scalar, params, table, monkeypatch).tobytes()

    def test_build_has_no_fused_multiply_add(self, tmp_path):
        gcc, objdump = shutil.which("gcc"), shutil.which("objdump")
        if gcc is None or objdump is None:
            pytest.skip("needs gcc and objdump")
        library = qaoa._build_kernel(gcc, tmp_path)
        listing = subprocess.run([objdump, "-d", str(library)], capture_output=True, text=True,
                                 check=True).stdout
        assert "puboqa_layer" in listing and "puboqa_table" in listing
        fused = re.findall(r"\bvfn?m(?:add|sub)\w*", listing)
        assert fused == []

    def test_build_is_warning_free(self, tmp_path):
        gcc = shutil.which("gcc")
        if gcc is None:
            pytest.skip("needs gcc")
        source = resources.files("puboqa").joinpath("_mixer.c")
        done = subprocess.run([gcc, *qaoa._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c",
                               str(source), "-o", str(tmp_path / "mixer.so")],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        qaoa._bind(tmp_path / "mixer.so")  # both entry points are there

    def test_without_a_compiler_numpy_takes_over(self, tmp_path):
        code = ("import numpy as np\n"
                "from puboqa import qaoa\n"
                "psi = qaoa.evolve([0.4, 1.1], qaoa.CostTable(3, np.arange(8.0)), check_norm=True)\n"
                "print(qaoa.mixer_backend(), psi.shape[0])\n")
        done = subprocess.run([sys.executable, "-c", code], env=python_env(PATH=""), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["numpy", "8"]

    def test_concurrent_builds_share_one_cache(self, tmp_path, compiled):
        script = tmp_path / "build.py"
        script.write_text(_BUILD_SCRIPT)
        cache = tmp_path / "cache"
        procs = [subprocess.Popen([sys.executable, str(script), str(cache)], env=python_env(),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        assert [p.suffix for p in cache.iterdir()] == [".so"]

    def test_unwritable_cache_builds_privately(self, tmp_path, compiled, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        kernel = qaoa._load_kernel(blocker / "cache")
        assert kernel is not None
        assert list(tmp_path.iterdir()) == [blocker]
        table = random_table(9)
        params = random_params(9, 2)
        assert evolve_with(kernel, params, table, monkeypatch).tobytes() == evolve(params, table).tobytes()

    def test_failed_build_means_numpy(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise subprocess.CalledProcessError(1, "gcc")

        monkeypatch.setattr(qaoa, "_build_kernel", fail)
        assert qaoa._load_kernel(tmp_path) is None
        monkeypatch.setattr(qaoa, "_kernel", qaoa._UNLOADED)
        monkeypatch.setattr(qaoa, "_KERNEL_CACHE", tmp_path)
        assert qaoa.mixer_backend() == "numpy"

    def test_source_ships_with_the_package(self):
        assert resources.files("puboqa").joinpath("_mixer.c").is_file()


class _StubRng:
    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def random(self, n):
        assert n == len(self.draws)
        return self.draws


def sequential_sample(state, n_shots, rng):
    """Reference sampler: inverse CDF over one sequential cumsum of all probabilities."""
    probs = state.real ** 2 + state.imag ** 2
    cdf = np.cumsum(probs)
    draws = rng.random(n_shots)
    idx = np.searchsorted(cdf, draws, side="right")
    return np.minimum(idx, len(cdf) - 1).astype(np.int64)


@st.composite
def sampled_states(draw):
    """States of 2^10..2^16 amplitudes, below and above the two-level search's
    _SAMPLE_MIN_BLOCKS blocks: dense, a few nonzeros, or zero over the
    leading blocks; norm 1 or off by 1e-12."""
    n = draw(st.integers(10, 16))
    kind = draw(st.sampled_from(["dense", "sparse", "leading-zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << n
    state = rng.normal(size=size) + 1j * rng.normal(size=size)
    if kind == "sparse":
        keep = rng.choice(size, size=draw(st.integers(1, 20)), replace=False)
        mask = np.zeros(size, dtype=bool)
        mask[keep] = True
        state[~mask] = 0
    elif kind == "leading-zeros":
        state[: draw(st.integers(0, blocks(n) - 1)) * qaoa._SAMPLE_BLOCK] = 0
        state[-1] = 1.0
    state /= np.linalg.norm(state)
    state *= np.sqrt(1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-12])))
    return state


class TestSample:
    def test_point_mass(self):
        psi = np.zeros(8, dtype=np.complex128)
        psi[5] = 1.0
        out = sample(psi, 50, np.random.default_rng(0))
        assert np.all(out == 5)

    def test_deterministic_under_seed(self):
        psi = np.full(8, 2.0 ** -1.5, dtype=np.complex128)
        a = sample(psi, 100, np.random.default_rng(42))
        b = sample(psi, 100, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_uniform_frequencies(self):
        psi = np.full(4, 0.5, dtype=np.complex128)
        out = sample(psi, 20000, np.random.default_rng(7))
        freqs = np.bincount(out, minlength=4) / 20000
        sigma = np.sqrt(0.25 * 0.75 / 20000)
        assert np.all(np.abs(freqs - 0.25) < 5 * sigma)

    def test_boundary_draws(self):
        # amplitudes 0.5 square to exactly 0.25, so the cdf edges are exact
        psi = np.full(4, 0.5, dtype=np.complex128)
        out = sample(psi, 4, _StubRng([0.0, 0.25, 0.5, 1.0]))
        # a draw equal to a cdf edge falls into the next bin; 1.0 clips back
        assert out.tolist() == [0, 1, 2, 3]

    def test_shot_count_validated(self):
        psi = np.array([1.0 + 0j, 0.0])
        with pytest.raises(ValueError, match="at least 1"):
            sample(psi, 0, np.random.default_rng(0))

    @settings(deadline=None, max_examples=80)
    @given(sampled_states(), st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_matches_sequential_sampler(self, state, n_shots, seed):
        got = sample(state, n_shots, np.random.default_rng(seed))
        want = sequential_sample(state, n_shots, np.random.default_rng(seed))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        # The fallback alone, over as many as sixteen of its chunks.
        draws = np.random.default_rng(seed).random(n_shots)
        assert np.array_equal(qaoa._sample_sequential(state, draws), want)

    @staticmethod
    def spy_on_fallback(monkeypatch):
        calls = []
        real = qaoa._sample_sequential

        def spy(state, draws):
            calls.append(len(draws))
            return real(state, draws)

        monkeypatch.setattr(qaoa, "_sample_sequential", spy)
        return calls

    @pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-12, 1.0 + 1e-12])
    def test_draws_on_cdf_values_fall_back(self, monkeypatch, scale):
        # 2^15 amplitudes: blocks(15) blocks of the two-level search, eight
        # chunks of the sequential fallback.
        rng = np.random.default_rng(21)
        state = rng.normal(size=1 << 15) + 1j * rng.normal(size=1 << 15)
        state *= np.sqrt(scale) / np.linalg.norm(state)
        cdf = np.cumsum(state.real ** 2 + state.imag ** 2)
        b = qaoa._SAMPLE_BLOCK
        edges = [cdf[b - 1], cdf[2 * b - 1], cdf[4 * b - 1], cdf[16384], cdf[-1], cdf[500]]
        near = [np.nextafter(e, side) for e in edges for side in (0.0, 2.0)]
        draws = [*edges, *near, 0.0, 1.0, 1.5]
        calls = self.spy_on_fallback(monkeypatch)
        got = sample(state, len(draws), _StubRng(draws))
        assert calls == [len(draws)]
        assert np.array_equal(got, sequential_sample(state, len(draws), _StubRng(draws)))

    def test_single_draws_at_and_around_cdf_values(self):
        # One draw per call, so no other draw can send the call to the
        # sequential sampler: where the two running sums differ in the last
        # bits, a draw between them must still get the sequential index.
        rng = np.random.default_rng(23)
        state = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        state /= np.linalg.norm(state)
        cdf = np.cumsum(state.real ** 2 + state.imag ** 2)
        picks = np.concatenate([np.arange(1000, 1100), np.arange(2040, 2060), np.arange(4080, 4096),
                                rng.choice(4096, size=100, replace=False)])
        for i in picks:
            for d in (cdf[i], np.nextafter(cdf[i], 0.0), np.nextafter(cdf[i], 2.0)):
                got = sample(state, 1, _StubRng([d]))
                assert got.tolist() == sequential_sample(state, 1, _StubRng([d])).tolist(), (i, d)

    def test_fallback_at_and_around_cdf_values_across_chunks(self):
        # Every running-sum value of the second and third fallback chunks.
        rng = np.random.default_rng(24)
        state = rng.normal(size=1 << 14) + 1j * rng.normal(size=1 << 14)
        state /= np.linalg.norm(state)
        cdf = np.cumsum(state.real ** 2 + state.imag ** 2)
        edges = cdf[4095:12289]
        draws = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
        want = sequential_sample(state, len(draws), _StubRng(draws))
        assert np.array_equal(qaoa._sample_sequential(state, draws), want)

    def test_draws_between_cdf_values_take_two_levels(self, monkeypatch):
        rng = np.random.default_rng(22)
        state = rng.normal(size=8192) + 1j * rng.normal(size=8192)
        state /= np.linalg.norm(state)
        cdf = np.cumsum(state.real ** 2 + state.imag ** 2)
        b = qaoa._SAMPLE_BLOCK
        picks = np.array([3, 4 * b, 8 * b - 1, 5000, 8191])
        draws = (np.concatenate(([0.0], cdf))[picks] + cdf[picks]) / 2
        calls = self.spy_on_fallback(monkeypatch)
        assert sample(state, len(draws), _StubRng(draws)).tolist() == picks.tolist()
        assert calls == []

    def test_totals_of_the_wrong_shape_rejected(self):
        size = qaoa._SAMPLE_MIN_BLOCKS * qaoa._SAMPLE_BLOCK
        state = np.full(size, size ** -0.5, dtype=np.complex128)
        with pytest.raises(ValueError, match="block totals"):
            sample(state, 3, np.random.default_rng(0), totals=np.full(3, 0.25))

    def test_small_and_non_contiguous_states(self, monkeypatch):
        calls = self.spy_on_fallback(monkeypatch)
        size = qaoa._SAMPLE_MIN_BLOCKS * qaoa._SAMPLE_BLOCK
        small = np.full(size // 2, (size // 2) ** -0.5, dtype=np.complex128)
        assert np.array_equal(sample(small, 30, np.random.default_rng(1)),
                              sequential_sample(small, 30, np.random.default_rng(1)))
        assert calls == [30]
        wide = np.zeros(4 * size, dtype=np.complex128)
        wide[::2] = (2 * size) ** -0.5
        got = sample(wide[::2], 30, np.random.default_rng(2))
        assert np.array_equal(got, sequential_sample(wide[::2], 30, np.random.default_rng(2)))
        assert calls == [30]


class TestEstimateLoss:
    def test_mean_of_table_values(self):
        table = CostTable(2, np.array([1.0, 3.0, 0.0, 5.0]))
        assert estimate_loss(np.array([0, 3]), table) == 3.0
        assert estimate_loss(np.array([2, 2, 2]), table) == 0.0

    def test_empty_rejected(self):
        table = CostTable(1, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="zero samples"):
            estimate_loss(np.array([], dtype=int), table)


class TestOptimize:
    def test_converges_on_quadratic(self):
        calls = []

        def loss(theta):
            calls.append(1)
            return float((theta[0] - 1.0) ** 2 + (theta[1] + 2.0) ** 2)

        theta, trace = optimize(loss, [4.0, 4.0], QaoaConfig(max_evals=200))
        assert abs(theta[0] - 1.0) <= 1e-2 and abs(theta[1] + 2.0) <= 1e-2
        assert len(trace) == len(calls) <= 200

    def test_hard_evaluation_cap(self):
        def loss(theta):
            return float(np.sum(np.asarray(theta) ** 2))

        _, trace = optimize(loss, [3.0, -3.0], QaoaConfig(max_evals=5))
        assert len(trace) <= 5

    def test_constant_loss_terminates(self):
        _, trace = optimize(lambda t: 1.0, [0.0, 0.0], QaoaConfig(max_evals=50))
        assert trace and all(v == 1.0 for _, v in trace)

    def test_trace_matches_function(self):
        def loss(theta):
            return float(np.cos(theta[0]) + 0.1 * theta[1] ** 2)

        _, trace = optimize(loss, [1.0, 1.0], QaoaConfig(max_evals=30))
        for theta, value in trace:
            assert value == pytest.approx(loss(theta), abs=1e-12)


class TestRun:
    CFG = QaoaConfig(depth=1, n_shots=5, max_evals=25)

    def table(self):
        return build_cost_table(encode(builtin_instance("A"), "pubo").poly, 7)

    def test_replays_bit_identically(self):
        a = run(self.table(), self.CFG, seed=3)
        b = run(self.table(), self.CFG, seed=3)
        assert a.trace == b.trace
        assert a.final_params == b.final_params
        assert (a.best_state, a.best_loss) == (b.best_state, b.best_loss)
        assert (a.n_iterations, a.n_sampled) == (b.n_iterations, b.n_sampled)

    def test_seeds_change_the_run(self):
        a = run(self.table(), self.CFG, seed=3)
        b = run(self.table(), self.CFG, seed=4)
        assert a.trace[0][0] != b.trace[0][0]

    def test_bookkeeping(self):
        rec = run(self.table(), self.CFG, seed=5)
        assert rec.n_qubits == 7
        assert rec.n_iterations == len(rec.trace) <= self.CFG.max_evals
        assert rec.n_sampled == self.CFG.n_shots * rec.n_iterations
        assert len(rec.final_params) == 2 * self.CFG.depth

    def test_best_state_consistent_with_loss(self):
        table = self.table()
        rec = run(table, self.CFG, seed=5)
        assert table.values[rec.best_state] == rec.best_loss
        assert rec.best_loss <= min(v for _, v in rec.trace) + 1e-9

    def test_best_bits_little_endian(self):
        rec = run(self.table(), self.CFG, seed=6)
        assert len(rec.best_bits) == 7
        assert int(rec.best_bits[::-1], 2) == rec.best_state

    def test_initial_params_inside_documented_ranges(self):
        cfg = replace(self.CFG, depth=3)
        rec = run(self.table(), cfg, seed=11)
        theta0 = rec.trace[0][0]
        assert all(0 <= g < 2 * np.pi for g in theta0[:3])
        assert all(0 <= b < np.pi for b in theta0[3:])

    @pytest.mark.parametrize("n", [11, 12, 14])
    @pytest.mark.parametrize("backend", ["default", "numpy"])
    def test_totals_change_no_record(self, n, backend, monkeypatch):
        # Below 12 qubits (_SAMPLE_MIN_BLOCKS blocks) the sampler is
        # sequential and no totals are kept; from 12 up evolve writes them
        # and sample reads them, on either path. Either way the record is
        # that of sample's own block sums.
        if backend == "numpy":
            monkeypatch.setattr(qaoa, "_kernel", None)
        layers = []
        real_layer = qaoa._layer_numpy
        monkeypatch.setattr(qaoa, "_layer_numpy", lambda *a: layers.append(1) or real_layer(*a))
        seen = []
        real_evolve, real_sample = qaoa.evolve, qaoa.sample

        def spied_evolve(*args, totals=None, **kwargs):
            seen.append(totals)
            return real_evolve(*args, totals=totals, **kwargs)

        def spied_sample(*args, totals=None):
            assert totals is seen[-1]
            return real_sample(*args, totals=totals)

        monkeypatch.setattr(qaoa, "evolve", spied_evolve)
        monkeypatch.setattr(qaoa, "sample", spied_sample)
        table = random_table(n)
        config = QaoaConfig(max_evals=8)
        got = run(table, config, seed=3)
        assert len(seen) == got.n_iterations
        assert all((t is None) == (blocks(n) < qaoa._SAMPLE_MIN_BLOCKS) for t in seen)
        assert (len(layers) > 0) == (backend == "numpy" or qaoa.mixer_backend() == "numpy")
        monkeypatch.setattr(qaoa, "sample", lambda state, n_shots, rng, totals=None:
                            real_sample(state, n_shots, rng))
        assert replace(run(table, config, seed=3), wall_ms=0.0) == replace(got, wall_ms=0.0)

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            run(self.table(), self.CFG)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            run(self.table(), self.CFG, seed=-1)


class TestQaoaConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(depth=0),
            dict(n_shots=0),
            dict(max_evals=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QaoaConfig(**kwargs)
