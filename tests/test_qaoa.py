"""Statevector simulation, sampling, and the training loop."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puboqa import qaoa
from puboqa.extbp import builtin_instance, to_pubo
from puboqa.pbf import COEFF_EPS, Polynomial
from puboqa.qaoa import (
    BYTES_PER_STATE,
    QUBIT_CAP,
    CostTable,
    QaoaConfig,
    _block_matrix,
    bits_string,
    build_cost_table,
    check_memory,
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


class TestCostTable:
    @settings(deadline=None, max_examples=60)
    @given(sized_polys(DYADIC, 12))
    def test_exact_coefficients_bit_identical_to_per_monomial_sum(self, case):
        n, poly = case
        got = build_cost_table(poly, n).values
        assert got.tobytes() == accumulate_per_monomial(poly, n).tobytes()

    @settings(deadline=None, max_examples=25)
    @given(sized_polys(ANY_FLOAT, 9))
    def test_float_coefficients_match_evaluation(self, case):
        n, poly = case
        values = build_cost_table(poly, n).values
        for z in range(1 << n):
            want = poly.evaluate([(z >> k) & 1 for k in range(n)])
            assert values[z] == pytest.approx(want, rel=1e-12, abs=1e-12)

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


class TestMemoryBudget:
    @pytest.fixture
    def ten_qubits_of_memory(self, monkeypatch):
        monkeypatch.setattr(qaoa, "_physical_memory", lambda: BYTES_PER_STATE << 10)

    def test_fits(self, ten_qubits_of_memory):
        check_memory(10)
        assert build_cost_table(V(0), 10).values.shape == (1 << 10,)

    def test_refused_before_allocating(self, ten_qubits_of_memory):
        with pytest.raises(ValueError, match=r"11 qubits x 1 process.*0\.00 GiB.*physical memory"):
            build_cost_table(V(0), 11)

    def test_scales_with_processes(self, ten_qubits_of_memory):
        check_memory(9, processes=2)
        with pytest.raises(ValueError, match="x 3 process"):
            check_memory(9, processes=3)

    def test_unknown_memory_is_not_checked(self, monkeypatch):
        monkeypatch.setattr(qaoa, "_physical_memory", lambda: None)
        check_memory(QUBIT_CAP, processes=1000)

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


class TestEvolve:
    def table(self, n):
        rng = np.random.default_rng(17 + n)
        return CostTable(n, rng.integers(-4, 5, size=1 << n).astype(float))

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
    # n = 17 the lowest block has 8192 rows, two of its 4096-row chunks.
    @pytest.mark.parametrize("n", [*range(1, 14), 17])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_against_dense_operators(self, n, depth):
        table = self.table(n)
        rng = np.random.default_rng(100 * n + depth)
        params = np.concatenate(
            [rng.uniform(0, 2 * np.pi, depth), rng.uniform(0, np.pi, depth)]
        )
        got = evolve(params, table, check_norm=True)
        want = dense_evolve(params, table.values)
        assert np.allclose(got, want, atol=1e-12)

    # Depths 1-3 over n = 1..13 give both parities of the mixer pass count.
    @pytest.mark.parametrize("n", range(1, 14))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_workspace_gives_the_same_state(self, n, depth):
        table = self.table(n)
        rng = np.random.default_rng(7 * n + depth)
        params = np.concatenate([rng.uniform(0, 2 * np.pi, depth), rng.uniform(0, np.pi, depth)])
        ws = np.empty((2, 1 << n), dtype=np.complex128)
        got = evolve(params, table, workspace=ws)
        assert np.array_equal(got, evolve(params, table))
        assert np.shares_memory(got, ws)

    @pytest.mark.parametrize(
        "ws",
        [
            np.empty((2, 32), dtype=np.complex128),
            np.empty((3, 16), dtype=np.complex128),
            np.empty(32, dtype=np.complex128),
            np.empty((2, 16), dtype=np.complex64),
            np.empty((2, 16), dtype=np.float64),
            np.empty((2, 16), dtype=np.complex128, order="F"),
            np.empty((2, 32), dtype=np.complex128)[:, ::2],
            [[0j] * 16] * 2,
        ],
        ids=["long", "three-rows", "flat", "complex64", "float64", "fortran", "strided", "list"],
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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [0.0, 0.37, 1.1, 2.9])
    def test_block_matrix_is_kron_power(self, k, beta):
        want = reduce(np.kron, [rotation(beta)] * k)
        got = _block_matrix(beta, k)
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
    """States of 2^10..2^16 amplitudes (1..64 blocks of 2^10): dense, a few
    nonzeros, or zero over the leading blocks; norm 1 or off by 1e-12."""
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
        blocks = size >> 10
        state[: draw(st.integers(0, blocks - 1)) << 10] = 0
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

    def spy_on_fallback(self, monkeypatch):
        calls = []
        real = qaoa._sample_sequential

        def spy(state, draws):
            calls.append(len(draws))
            return real(state, draws)

        monkeypatch.setattr(qaoa, "_sample_sequential", spy)
        return calls

    @pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-12, 1.0 + 1e-12])
    def test_draws_on_cdf_values_fall_back(self, monkeypatch, scale):
        # 2^15 amplitudes: 32 blocks of the two-level search, eight chunks
        # of the sequential fallback.
        rng = np.random.default_rng(21)
        state = rng.normal(size=1 << 15) + 1j * rng.normal(size=1 << 15)
        state *= np.sqrt(scale) / np.linalg.norm(state)
        cdf = np.cumsum(state.real ** 2 + state.imag ** 2)
        edges = [cdf[1023], cdf[2047], cdf[4095], cdf[16384], cdf[-1], cdf[500]]
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
        picks = np.array([3, 1024, 2047, 5000, 8191])
        draws = (np.concatenate(([0.0], cdf))[picks] + cdf[picks]) / 2
        calls = self.spy_on_fallback(monkeypatch)
        assert sample(state, len(draws), _StubRng(draws)).tolist() == picks.tolist()
        assert calls == []

    def test_small_and_non_contiguous_states(self, monkeypatch):
        calls = self.spy_on_fallback(monkeypatch)
        small = np.full(2048, 2.0 ** -5.5, dtype=np.complex128)
        assert np.array_equal(sample(small, 30, np.random.default_rng(1)),
                              sequential_sample(small, 30, np.random.default_rng(1)))
        assert calls == [30]
        wide = np.zeros(2 * 8192, dtype=np.complex128)
        wide[::2] = 2.0 ** -6.5
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
        return build_cost_table(to_pubo(builtin_instance("A")).poly, 7)

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

    def test_accepts_encoding_directly(self):
        rec = run(to_pubo(builtin_instance("A")), self.CFG, seed=2)
        assert rec.n_qubits == 7

    def test_seed_from_config(self):
        cfg = replace(self.CFG, seed=9)
        a = run(self.table(), cfg)
        b = run(self.table(), cfg, seed=9)
        assert a.trace == b.trace

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            run(self.table(), self.CFG)


class TestQaoaConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(depth=0),
            dict(n_shots=0),
            dict(max_evals=0),
            dict(rho_begin=1e-4, rho_end=1e-3),
            dict(rho_end=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QaoaConfig(**kwargs)
