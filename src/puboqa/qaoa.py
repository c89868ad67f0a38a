"""Depth-p QAOA on a dense simulated statevector, with shot-based training.

The cost operator is diagonal, so it is applied as per-amplitude phases: the
phase of each distinct table value is computed once and gathered through the
table's inverse index. The mixer is the product of single-qubit rotations
[[cos b, -i sin b], [-i sin b, cos b]]; it is fused into blocks of four
qubits, each applied as one 16x16 matrix product between two statevector
buffers (the topmost block covers the n mod 4 qubits left over). The mixer
is the dominant cost at high qubit counts. A run allocates the two buffers
once, as one workspace, and every evaluation prepares its state in it.

Shots are drawn by inverse CDF. On large states a two-level search sums
the probability of each block of amplitudes in one pass and forms running
sums only inside the blocks that the draws land in; it returns exactly the
indices of one sequential running sum over the whole state, falling back
to that sum when a draw lies within its rounding error of a CDF value.

Training follows the shot protocol: every optimizer evaluation prepares the
state for the current parameters, samples a handful of basis states, and
feeds their mean cost to COBYLA. The best state of a run is the sampled
basis state with the smallest cost-table value across all evaluations, ties
going to the earliest. All randomness comes from one numpy Generator seeded
per run, so records replay bit-identically.

Basis-state convention: qubit k is bit k of the state index (little-endian).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .pbf import Polynomial

QUBIT_CAP = 26
# Peak bytes per basis state of one process that builds a cost table and runs
# QAOA on it: the table (8), the statevector workspace (32), the inverse index
# (8) and, when every table value is distinct, the distinct values (8) and the
# phase vector with its temporary (32). A tracemalloc peak over
# build_cost_table plus run() at 17-20 qubits reads at most 88.1 bytes per
# state (50.0 with few distinct values); rounded up.
BYTES_PER_STATE = 90
# The cost table's passes over the low qubits run on blocks of 2^16 entries (512 KiB).
_TABLE_BLOCK_QUBITS = 16


class CostTable:
    """Exact objective values for every basis state of an n-qubit register."""

    __slots__ = ("num_qubits", "values", "_uniq", "_inv")

    def __init__(self, num_qubits: int, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} values for {num_qubits} qubits, "
                f"got shape {values.shape}"
            )
        self.num_qubits = num_qubits
        self.values = values
        self._uniq = None
        self._inv = None

    def min_value(self) -> float:
        return float(self.values.min())

    def minimizers(self, tol: float = 1e-9) -> np.ndarray:
        """Indices of all basis states within tol of the minimum."""
        return np.flatnonzero(self.values <= self.values.min() + tol)

    def _phase_basis(self):
        """Distinct values and the inverse index, cached for fast phases.

        Every value occurs in the sorted distinct values, so searching for
        it finds its own index; this needs one sorted copy, where
        np.unique(return_inverse=True) holds four arrays of the table's size.
        The index is intp: np.take converts any other index dtype to intp,
        into a fresh array, on every call.
        """
        if self._uniq is None:
            self._uniq = np.unique(self.values)
            self._inv = np.searchsorted(self._uniq, self.values)
        return self._uniq, self._inv


def build_cost_table(poly: Polynomial, num_qubits: int) -> CostTable:
    """Evaluate a polynomial on all 2^n basis states.

    Each monomial's coefficient is written at its bitmask index (the constant
    at index 0), then one subset-sum pass per qubit turns entry z into the sum
    of c_S over all monomials S within z. The passes over the low qubits run
    block by block, so each block stays in cache. The table is exact when
    every partial sum is representable, as with integer and dyadic
    coefficients of moderate size; otherwise it equals pointwise evaluation
    up to rounding.
    """
    if num_qubits > QUBIT_CAP:
        raise ValueError(f"{num_qubits} qubits exceeds the {QUBIT_CAP}-qubit table cap")
    check_memory(num_qubits)
    vars_used = poly.variables()
    if vars_used and vars_used[-1] >= num_qubits:
        raise ValueError(
            f"polynomial uses variable {vars_used[-1]} outside [0, {num_qubits})"
        )
    terms = poly.terms
    values = np.zeros(1 << num_qubits)
    masks = np.fromiter((sum(1 << v for v in mono) for mono in terms), np.int64, len(terms))
    values[masks] = np.fromiter(terms.values(), np.float64, len(terms))
    low = min(num_qubits, _TABLE_BLOCK_QUBITS)
    for block in values.reshape(-1, 1 << low):
        _subset_sum_passes(block, range(low))
    _subset_sum_passes(values, range(low, num_qubits))
    return CostTable(num_qubits, values)


def check_memory(num_qubits: int, processes: int = 1) -> None:
    """Refuse a register whose tables and statevectors cannot fit in memory.

    Each of `processes` processes is estimated at BYTES_PER_STATE bytes per
    basis state; a total above the machine's physical memory raises
    ValueError. Where physical memory cannot be read, nothing is checked.
    """
    need = processes * (BYTES_PER_STATE << num_qubits)
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"{num_qubits} qubits x {processes} process(es) need an estimated "
            f"{need / 2**30:.2f} GiB ({BYTES_PER_STATE} bytes per basis state each), "
            f"more than the {have / 2**30:.2f} GiB of physical memory"
        )


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _subset_sum_passes(values: np.ndarray, qubits: range) -> None:
    """In place, add each entry with bit k clear onto its partner with bit k set.

    For k < 3 the pairs are 2^k apart within rows of 2^(k+1) entries, and
    one strided add per offset in the row beats numpy's short inner loops.
    """
    for k in qubits:
        if k < 3:
            rows = values.reshape(-1, 2 << k)
            for j in range(1 << k):
                rows[:, (1 << k) + j] += rows[:, j]
        else:
            pairs = values.reshape(-1, 2, 1 << k)
            pairs[:, 1] += pairs[:, 0]


@dataclass(frozen=True)
class QaoaConfig:
    depth: int = 1
    n_shots: int = 10
    max_evals: int = 500
    rho_begin: float = 0.5
    rho_end: float = 1e-3
    seed: int | None = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.n_shots < 1:
            raise ValueError("n_shots must be at least 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if not (self.rho_begin > self.rho_end > 0):
            raise ValueError("need rho_begin > rho_end > 0")


@dataclass(frozen=True)
class RunRecord:
    """Everything one QAOA run produced.

    n_iterations counts optimizer objective evaluations; n_sampled is the
    total number of measured basis states (n_shots per evaluation).
    best_state is the sampled basis index with the smallest cost-table value
    over the whole run, best_loss that value. The trace holds every evaluated
    parameter vector with its shot-mean loss, in evaluation order.
    """

    seed: int
    n_qubits: int
    n_iterations: int
    n_sampled: int
    best_state: int
    best_loss: float
    final_params: tuple[float, ...]
    trace: tuple[tuple[tuple[float, ...], float], ...]
    wall_ms: float

    @property
    def best_bits(self) -> str:
        return bits_string(self.best_state, self.n_qubits)


def bits_string(state: int, num_qubits: int) -> str:
    """Little-endian 0/1 string: character k is qubit k."""
    return "".join("1" if (state >> k) & 1 else "0" for k in range(num_qubits))


# The mixer is applied this many qubits at a time, as one 16x16 product.
_BLOCK_QUBITS = 4
# Rows per product in the lowest block: one product over the whole register
# makes OpenBLAS grow its per-thread buffers with the operand.
_ROW_CHUNK = 4096
# Hamming distance popcount(i ^ j) between the basis states of one block.
_HAMMING = np.array(
    [[bin(i ^ j).count("1") for j in range(1 << _BLOCK_QUBITS)] for i in range(1 << _BLOCK_QUBITS)]
)


def evolve(params, table: CostTable, check_norm: bool = False, *, workspace=None) -> np.ndarray:
    """Prepare the depth-p QAOA state for params = (g_1..g_p, b_1..b_p).

    Starts from the uniform superposition; each layer multiplies amplitude z
    by exp(-i g values[z]) and then applies the mixer rotation to every
    qubit. With check_norm the squared norm is verified to 1e-9 after each
    operator.

    Without a workspace the result is a freshly allocated complex
    statevector. A workspace is a C-contiguous complex128 array of shape
    (2, 2^n) whose two rows serve as the mixer's two buffers; the state is
    then computed in it without allocating, and the row that the last pass
    leaves the state in is returned. A later call with the same workspace
    overwrites that result. The arithmetic is the same either way, so the
    two give bit-identical states.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 1 or len(params) % 2 != 0:
        raise ValueError("params must be a flat (gammas, betas) vector of even length")
    if not np.all(np.isfinite(params)):
        raise ValueError("params must be finite")
    depth = len(params) // 2
    n = table.num_qubits
    size = 1 << n
    uniq, inv = table._phase_basis()

    if workspace is None:
        first = np.empty(size, dtype=np.complex128)
        second = np.empty_like(first)
    else:
        if not (isinstance(workspace, np.ndarray) and workspace.dtype == np.complex128
                and workspace.shape == (2, size) and workspace.flags.c_contiguous):
            raise ValueError(
                f"workspace must be a C-contiguous complex128 array of shape (2, {size})"
            )
        first, second = workspace
    # Every mixer pass swaps the two buffers; start in the one that the last
    # pass leaves the state in, so the result is the first buffer.
    passes = depth * -(-n // _BLOCK_QUBITS)
    if passes % 2 == 0:
        psi, work = first, second
    else:
        psi, work = second, first
    for layer in range(depth):
        gamma = params[layer]
        beta = params[depth + layer]
        phase = np.exp(-1j * gamma * uniq)
        # The inverse index comes from np.unique, so it is always in range;
        # mode="clip" lets np.take write straight into out.
        if layer == 0:
            phase *= 2.0 ** (-n / 2)
            np.take(phase, inv, out=psi, mode="clip")
        else:
            np.take(phase, inv, out=work, mode="clip")
            psi *= work
        if check_norm:
            _check_norm(psi)
        psi, work = _apply_mixer(psi, work, beta, n)
        if check_norm:
            _check_norm(psi)
    return psi


def _block_matrix(beta: float, k: int) -> np.ndarray:
    """The k-fold Kronecker power of the one-qubit mixer rotation.

    Entry (i, j) is cos(b)^(k-h) (-i sin b)^h with h = popcount(i ^ j); the
    matrix is symmetric.
    """
    h = np.arange(k + 1)
    w = np.cos(beta) ** (k - h) * (-1j * np.sin(beta)) ** h
    return w[_HAMMING[: 1 << k, : 1 << k]]


def _apply_mixer(psi: np.ndarray, work: np.ndarray, beta: float, n: int):
    """Apply exp(-i b X) to every qubit; returns (state, scratch).

    Qubits are taken in blocks of four from qubit 0 up, the last block
    holding the n mod 4 leftovers. Each block is one pass from psi into
    work, after which the two swap roles. The lowest block is a row product
    (-1, 2^k) @ M in chunks of _ROW_CHUNK rows; a block starting at qubit q
    is a batched M @ (-1, 2^k, 2^q) product.
    """
    low = 0
    while low < n:
        k = min(_BLOCK_QUBITS, n - low)
        block = _block_matrix(beta, k)
        if low == 0:
            src = psi.reshape(-1, 1 << k)
            dst = work.reshape(-1, 1 << k)
            for row in range(0, len(src), _ROW_CHUNK):
                rows = slice(row, row + _ROW_CHUNK)
                np.matmul(src[rows], block, out=dst[rows])
        else:
            shape = (-1, 1 << k, 1 << low)
            np.matmul(block, psi.reshape(shape), out=work.reshape(shape))
        psi, work = work, psi
        low += k
    return psi, work


def _check_norm(psi: np.ndarray) -> None:
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > 1e-9:
        raise RuntimeError(f"statevector norm drifted: |psi|^2 = {norm_sq!r}")


# The two-level sampler works on blocks of 2^10 amplitudes, from 4 blocks up.
_SAMPLE_BLOCK = 1 << 10
_SAMPLE_MIN_BLOCKS = 4
# The sequential sampler's running sum is formed 2^12 amplitudes at a time.
_SEQUENTIAL_CHUNK = 1 << 12


def sample(state: np.ndarray, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n_shots basis indices from |amplitude|^2 by inverse CDF.

    The indices are those of the sequential sampler (_sample_sequential):
    draw d picks the first index whose running sum of probabilities exceeds
    d, clipped to the last index. The draws come from one rng.random(n_shots)
    call. The state is read as complex128.

    A state of N >= _SAMPLE_MIN_BLOCKS * _SAMPLE_BLOCK amplitudes takes a
    two-level search. One pass sums the probability of each block of
    _SAMPLE_BLOCK amplitudes; the running sum of these block totals locates
    each draw's block; the running sum of probabilities is then formed only
    inside the drawn blocks, each once, offset by the total before the
    block. Both the sequential running sum and this two-level one lie within
    gamma_(N+2) * total of the exact prefix sums (gamma_k = k u / (1 - k u),
    u = 2^-53; from 4 blocks on, fewer than N + 2 roundings lie behind any
    two-level value). A draw farther than 4 (N + 2) u max(1, total) from
    both neighbouring two-level values therefore gets the same index from
    the sequential sampler. If any draw is that close, or falls in the
    rounding gap between a block's last running sum and the block total,
    the call is answered by the sequential sampler instead.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    state = np.ascontiguousarray(state, np.complex128)
    draws = rng.random(n_shots)
    size = len(state)
    if size < _SAMPLE_MIN_BLOCKS * _SAMPLE_BLOCK:
        return _sample_sequential(state, draws)
    f = state.view(np.float64).reshape(-1, 2 * _SAMPLE_BLOCK)
    ends = np.cumsum(np.einsum("ij,ij->i", f, f))
    tol = 4.0 * (size + 2) * 2.0 ** -53 * max(1.0, ends[-1])
    last = len(ends) - 1
    blocks = np.minimum(np.searchsorted(ends, draws, side="right"), last)
    idx = np.empty(n_shots, dtype=np.int64)
    for b in np.unique(blocks):
        amps = state[b * _SAMPLE_BLOCK:(b + 1) * _SAMPLE_BLOCK]
        cdf = np.cumsum(amps.real ** 2 + amps.imag ** 2)
        start = ends[b - 1] if b else 0.0
        cdf += start
        # Each draw's two neighbouring CDF values: below the block, the total
        # before it; above the block, nothing. A draw past the block's last
        # running sum but below the block total lies in a rounding gap
        # narrower than tol, so it never passes the check below.
        around = np.concatenate(([start if b else -np.inf], cdf, [np.inf]))
        mine = blocks == b
        d = draws[mine]
        local = np.searchsorted(cdf, d, side="right")
        if not np.all((d - around[local] > tol) & (around[local + 1] - d > tol)):
            return _sample_sequential(state, draws)
        idx[mine] = b * _SAMPLE_BLOCK + local
    return np.minimum(idx, size - 1)


def _sample_sequential(state: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse CDF over the sequential running sum of all probabilities.

    The running sum is formed _SEQUENTIAL_CHUNK amplitudes at a time, each
    chunk's sum starting from the last value of the one before, so its
    values are those of one np.cumsum over the whole state while only one
    chunk is held. The running sum never decreases, so a draw's index is the
    number of running-sum values at or below it, counted chunk by chunk.
    """
    idx = np.zeros(len(draws), dtype=np.int64)
    carry = np.zeros(1)
    for lo in range(0, len(state), _SEQUENTIAL_CHUNK):
        amps = state[lo:lo + _SEQUENTIAL_CHUNK]
        cdf = np.cumsum(np.concatenate((carry, amps.real ** 2 + amps.imag ** 2)))
        idx += np.searchsorted(cdf[1:], draws, side="right")
        carry = cdf[-1:]
    return np.minimum(idx, len(state) - 1)


def estimate_loss(samples: np.ndarray, table: CostTable) -> float:
    """Mean cost-table value over the sampled basis states."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("cannot estimate a loss from zero samples")
    return float(np.mean(table.values[samples]))


def optimize(loss_fn, theta0, config: QaoaConfig):
    """COBYLA descent from theta0, tracing every evaluation.

    The trust region shrinks from rho_begin to rho_end; max_evals is a hard
    cap enforced here as well, so the trace never exceeds it even if the
    backend overshoots.
    """
    trace: list[tuple[np.ndarray, float]] = []

    def wrapped(theta):
        if len(trace) >= config.max_evals:
            return trace[-1][1]
        value = float(loss_fn(theta))
        trace.append((np.array(theta, dtype=float), value))
        return value

    result = minimize(
        wrapped,
        np.asarray(theta0, dtype=float),
        method="COBYLA",
        options={
            "rhobeg": config.rho_begin,
            "tol": config.rho_end,
            "maxiter": config.max_evals,
        },
    )
    return np.asarray(result.x, dtype=float), trace


def run(target, config: QaoaConfig = QaoaConfig(), seed: int | None = None) -> RunRecord:
    """One full QAOA run against a CostTable or anything with .poly/.qubit_count.

    The run's generator seeds everything: first all gammas uniform on
    [0, 2pi), then all betas uniform on [0, pi), then the shot draws of each
    evaluation in order. Identical (target, config, seed) triples therefore
    give identical records apart from wall_ms. Every evaluation prepares its
    state in one workspace allocated for the run (see evolve).
    """
    if isinstance(target, CostTable):
        table = target
    else:
        table = build_cost_table(target.poly, target.qubit_count)
    if table.num_qubits > QUBIT_CAP:
        raise ValueError(f"{table.num_qubits} qubits exceeds the {QUBIT_CAP}-qubit cap")
    if seed is None:
        seed = config.seed
    if seed is None:
        raise ValueError("a seed is required, via argument or config.seed")

    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(0.0, 2.0 * np.pi, size=config.depth)
    betas = rng.uniform(0.0, np.pi, size=config.depth)
    theta0 = np.concatenate([gammas, betas])

    best_state = -1
    best_loss = np.inf
    workspace = np.empty((2, 1 << table.num_qubits), dtype=np.complex128)

    def loss(theta):
        nonlocal best_state, best_loss
        psi = evolve(theta, table, workspace=workspace)
        drawn = sample(psi, config.n_shots, rng)
        drawn_values = table.values[drawn]
        k = int(np.argmin(drawn_values))
        if drawn_values[k] < best_loss:
            best_loss = float(drawn_values[k])
            best_state = int(drawn[k])
        return estimate_loss(drawn, table)

    theta_star, trace = optimize(loss, theta0, config)
    wall_ms = (time.perf_counter() - started) * 1000.0

    return RunRecord(
        seed=seed,
        n_qubits=table.num_qubits,
        n_iterations=len(trace),
        n_sampled=config.n_shots * len(trace),
        best_state=best_state,
        best_loss=best_loss,
        final_params=tuple(float(v) for v in theta_star),
        trace=tuple((tuple(float(t) for t in th), float(v)) for th, v in trace),
        wall_ms=wall_ms,
    )
