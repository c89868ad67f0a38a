"""Depth-p QAOA on a dense simulated statevector, with shot-based training.

The cost operator is diagonal, so it is applied as per-amplitude phases: the
phase of each distinct table value is computed once and gathered through the
table's inverse index. The mixer is the product of single-qubit rotations
[[cos b, -i sin b], [-i sin b, cos b]], and is the dominant cost at high
qubit counts. A run allocates its statevector once, as a workspace, and
every evaluation prepares its state in it.

Each layer runs in a compiled kernel, _mixer.c, built with the local gcc on
the first evolve of a process and loaded with ctypes. It works in place on
one statevector: one sweep over cache-sized chunks writes or multiplies the
phases and rotates the low qubits, a second sweep rotates the high qubits
on copied slabs, each qubit as real butterflies on split planes of real
and imaginary parts. While it writes out the last layer, the kernel also
sums the probability of each slab of 2^8 amplitudes, the blocks of the
sampler's two-level search. From 2^16 amplitudes (_THREADED_QUBITS) a
helper thread takes half of each sweep, where the process may use two
cores; pool workers run the kernel on one thread, since their processes
already fill the cores. Every chunk and slab is computed the same way on
whichever thread takes it, so the bits do not depend on the thread count.
The build is cached in the package's
__pycache__ (or, where that is not writable, in a private temporary
directory), named by the sha256 of the source, the flags and the gcc
version. The flags never include -march=native or FMA: every rotation is
then the same multiplies and adds on every x86-64 machine, whichever of the
avx2 and default clones runs, and no BLAS is involved. Without gcc, or if
the build or the load fails, evolve takes the numpy path instead, which
also works in place, chunk by chunk: blocks of four qubits, each one 16x16
matrix product (the topmost block covers the n mod 4 qubits left over).
The two paths agree to rounding, not bit for bit.

Shots are drawn by inverse CDF. On large states a two-level search takes
the probability of each block of amplitudes (summed by the kernel, or in
one numpy pass) and forms running sums only inside the blocks that the
draws land in; it returns exactly the indices of one sequential running
sum over the whole state, falling back to that sum when a draw lies within
its rounding error of a CDF value.

Training follows the shot protocol: every optimizer evaluation prepares the
state for the current parameters, samples a handful of basis states, and
feeds their mean cost to COBYLA. The best state of a run is the sampled
basis state with the smallest cost-table value across all evaluations, ties
going to the earliest. All randomness comes from one numpy Generator seeded
per run, so records replay bit-identically.

Basis-state convention: qubit k is bit k of the state index (little-endian).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .pbf import OPTIMUM_TOL, Polynomial

QUBIT_CAP = 26
# Peak bytes per basis state of one process that builds a cost table and runs
# QAOA on it: the table (8), the statevector workspace (16), the inverse index
# (8) and, when every table value is distinct, the distinct values (8) and the
# phase vector with its temporary (32). A tracemalloc peak over
# build_cost_table plus run() at 17-20 qubits, on either mixer backend, reads
# at most 72.2 bytes per state (34.0 with few distinct values); rounded up.
BYTES_PER_STATE = 73
# Peak bytes per shot of one evaluation: the draws, the drawn blocks and
# indices, the drawn values and numpy's temporaries beside them (np.unique's
# sorted copy, masks). A tracemalloc peak over run() at 8-20 qubits with
# 2 * 10^5 shots reads at most 41.6 bytes per shot above that of one shot;
# rounded up.
BYTES_PER_SHOT = 42
# The cost table's passes over the low qubits run on blocks of 2^16 entries (512 KiB).
_TABLE_BLOCK_QUBITS = 16


def usable_cores() -> int:
    """The cores this process may run on (its CPU affinity where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    def minimizers(self) -> np.ndarray:
        """Indices of all basis states within OPTIMUM_TOL of the minimum."""
        return np.flatnonzero(self.values <= self.values.min() + OPTIMUM_TOL)

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
    check_register(num_qubits)
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


def check_register(num_qubits: int, processes: int = 1, shots: int = 0) -> None:
    """Refuse a register above QUBIT_CAP qubits or too large for memory.

    Each of `processes` processes is estimated at BYTES_PER_STATE bytes per
    basis state, plus BYTES_PER_SHOT bytes per shot of an evaluation that
    draws `shots`; a total above the machine's physical memory raises
    ValueError. Where physical memory cannot be read, only the cap is checked.
    """
    if num_qubits > QUBIT_CAP:
        raise ValueError(f"{num_qubits} qubits exceeds the {QUBIT_CAP}-qubit cap")
    per_shot = f", {BYTES_PER_SHOT} per shot of {shots} shots" if shots else ""
    check_memory(processes * ((BYTES_PER_STATE << num_qubits) + BYTES_PER_SHOT * shots),
                 f"{num_qubits} qubits x {processes} process(es)",
                 f"{BYTES_PER_STATE} bytes per basis state{per_shot} each")


def check_memory(need: int, what: str, rate: str) -> None:
    """Refuse `what`, estimated at `need` bytes (at `rate`), if that is more
    than the machine's physical memory; where that cannot be read, pass."""
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(f"{what} need an estimated {need / 2**30:.2f} GiB ({rate}), "
                         f"more than the {have / 2**30:.2f} GiB of physical memory")


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

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.n_shots < 1:
            raise ValueError("n_shots must be at least 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")


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


# The numpy mixer takes this many qubits at a time, as one 16x16 product.
_BLOCK_QUBITS = 4
# The numpy layer works on chunks of 2^14 amplitudes (256 KiB), so its
# temporaries stay well below a statevector from 16 qubits up.
_CHUNK = 1 << 14
# Hamming distance popcount(i ^ j) between the basis states of one block.
_HAMMING = np.array(
    [[bin(i ^ j).count("1") for j in range(1 << _BLOCK_QUBITS)] for i in range(1 << _BLOCK_QUBITS)]
)


def evolve(params, table: CostTable, check_norm: bool = False, *, workspace=None,
           totals=None) -> np.ndarray:
    """Prepare the depth-p QAOA state for params = (g_1..g_p, b_1..b_p).

    Starts from the uniform superposition; each layer multiplies amplitude z
    by exp(-i g values[z]) and then applies the mixer rotation to every
    qubit. With check_norm the squared norm is verified to 1e-9 after each
    layer; phase and mixer are both unitary, so a drift in either shows
    there.

    Each layer works in place on one statevector: the result is a freshly
    allocated complex statevector, or, with a workspace (a C-contiguous
    complex128 array of shape (2^n,)), the workspace itself, computed
    without allocating. A later call with the same workspace overwrites
    that result. The arithmetic does not depend on the workspace, so with
    and without one the states are bit-identical.

    totals, from _SAMPLE_BLOCK amplitudes up, is a C-contiguous float64
    array of shape (2^n / _SAMPLE_BLOCK,) that receives the probability
    total of each block of _SAMPLE_BLOCK amplitudes of the result, for
    sample(). The compiled kernel sums them while it writes out the last
    layer, the numpy path in one pass afterwards; the state is the same
    either way.

    From _THREADED_QUBITS qubits the compiled kernel runs on
    _kernel_threads threads, with the same bits as on one.
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
    kernel = _layer_kernel()

    if workspace is None:
        workspace = np.empty(size, dtype=np.complex128)
    elif not _is_row(workspace, np.complex128, size):
        raise ValueError(f"workspace must be a C-contiguous complex128 array of shape ({size},)")
    if totals is not None and not (size >= _SAMPLE_BLOCK
                                   and _is_row(totals, np.float64, size // _SAMPLE_BLOCK)):
        raise ValueError(f"totals must be a C-contiguous float64 array of one entry per "
                         f"{_SAMPLE_BLOCK} amplitudes")
    psi = workspace
    totals_ptr = None if totals is None else totals.ctypes.data
    threads = _kernel_threads if n >= _THREADED_QUBITS else 1
    for layer in range(depth):
        beta = params[depth + layer]
        phase = np.exp(-1j * params[layer] * uniq)
        if layer == 0:
            phase *= 2.0 ** (-n / 2)
        c, s = math.cos(beta), math.sin(beta)
        if kernel is None:
            _layer_numpy(psi, n, phase, inv, layer == 0, c, s)
        elif kernel.puboqa_layer(psi.ctypes.data, n, phase.ctypes.data, inv.ctypes.data,
                                 layer == 0, c, s, totals_ptr if layer == depth - 1 else None,
                                 threads):
            raise MemoryError("the layer kernel could not allocate its buffer")
        if check_norm:
            _check_norm(psi)
    if kernel is None and totals is not None:
        _block_totals(psi, totals)
    return psi


def _is_row(a, dtype, length: int) -> bool:
    return (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == (length,)
            and a.flags.c_contiguous)


def _layer_numpy(psi, n, phase, inv, first, c, s) -> None:
    """puboqa_layer of _mixer.c in numpy: one layer in place on psi.

    Amplitude z is set to phase[inv[z]] (first) or multiplied by it, then
    the rotation [[c, -i s], [-i s, c]] is applied to every qubit, in blocks
    of four from qubit 0 up, the last block holding the n mod 4 leftovers.
    The lowest block is a row product (-1, 2^k) @ M; a block starting at
    qubit q is M @ (-1, 2^k, 2^q). Each product runs on _CHUNK amplitudes
    at a time and is written back into psi.
    """
    # The inverse index comes from np.unique, so it is always in range;
    # mode="clip" lets np.take write straight into out.
    if first:
        np.take(phase, inv, out=psi, mode="clip")
    else:
        for lo in range(0, len(psi), _CHUNK):
            psi[lo:lo + _CHUNK] *= np.take(phase, inv[lo:lo + _CHUNK], mode="clip")
    low = 0
    while low < n:
        k = min(_BLOCK_QUBITS, n - low)
        block = _block_matrix(c, s, k)
        if low == 0:
            rows = psi.reshape(-1, 1 << k)
            for row in range(0, len(rows), _CHUNK >> k):
                part = rows[row:row + (_CHUNK >> k)]
                part[...] = part @ block
        else:
            view = psi.reshape(-1, 1 << k, 1 << low)
            # Whole (2^k, 2^low) slices while they fit in a chunk, else
            # chunk-wide column ranges of one slice.
            step = max(1, _CHUNK >> (k + low))
            cols = min(1 << low, _CHUNK >> k)
            for outer in range(0, len(view), step):
                for col in range(0, 1 << low, cols):
                    part = view[outer:outer + step, :, col:col + cols]
                    part[...] = block @ part
        low += k


def _block_matrix(c: float, s: float, k: int) -> np.ndarray:
    """The k-fold Kronecker power of the one-qubit mixer rotation.

    Entry (i, j) is c^(k-h) (-i s)^h with h = popcount(i ^ j), for
    c = cos b and s = sin b; the matrix is symmetric.
    """
    h = np.arange(k + 1)
    w = c ** (k - h) * (-1j * s) ** h
    return w[_HAMMING[: 1 << k, : 1 << k]]


# How the layer kernel is built. No -march=native and no FMA: a fused
# multiply-add rounds once where the source rounds twice, so the bits would
# depend on the build machine.
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
_KERNEL_CACHE = Path(__file__).resolve().parent / "__pycache__"
_UNLOADED = object()
# The layer kernel's threads from _THREADED_QUBITS qubits up: two where this
# process may use two cores. harness._pool_init sets 1 in pool workers, whose
# processes already fill the cores.
_kernel_threads = min(2, usable_cores())
# Below 2^16 amplitudes a second thread costs more than it saves: on 2 cores
# a layer took 119-125 us on one thread and 156-177 us on two at 14 qubits,
# against 518-596 and 352-477 us at 16 and 15.0-18.5 and 7.9-9.7 ms at 20.
_THREADED_QUBITS = 16
# The kernel's library once loaded, None where it cannot be built or loaded.
# (The library, not its function: a ctypes function is unhashable, and tools
# that wrap module attributes look callables up in dicts.)
_kernel = _UNLOADED


def mixer_backend() -> str:
    """Which path evolve takes: "compiled" (the layer kernel) or "numpy"."""
    return "numpy" if _layer_kernel() is None else "compiled"


def _layer_kernel():
    global _kernel
    if _kernel is _UNLOADED:
        _kernel = _load_kernel(_KERNEL_CACHE)
    return _kernel


def _load_kernel(cache: Path):
    """Build the layer kernel into cache unless it is there, and bind it.

    If the cache cannot be written or its build cannot be loaded, the
    kernel is built again in a temporary directory that is removed once the
    library is loaded. Returns None without gcc or if that fails too.
    """
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    try:
        try:
            return _bind(_build_kernel(gcc, cache))
        except OSError:
            with tempfile.TemporaryDirectory() as tmp:
                return _bind(_build_kernel(gcc, Path(tmp)))
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


def _build_kernel(gcc: str, cache: Path, flags=_KERNEL_FLAGS) -> Path:
    """The shared object of _mixer.c built with flags, compiled if not in cache.

    Its name carries the sha256 of the source, the flags and the gcc
    version. gcc writes to a temporary name that then replaces the final
    one, so a process never loads a half-written file, even while another
    builds the same one.
    """
    source = resources.files(__package__).joinpath("_mixer.c").read_bytes()
    version = subprocess.run([gcc, "-dumpfullversion"], capture_output=True, check=True).stdout
    key = hashlib.sha256(b"\0".join((source, " ".join(flags).encode(), version))).hexdigest()
    path = cache / f"_mixer.{key[:16]}.so"
    if path.exists():
        return path
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        subprocess.run([gcc, *flags, "-x", "c", "-", "-o", tmp], input=source,
                       capture_output=True, check=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _bind(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.puboqa_layer.restype = ctypes.c_int
    lib.puboqa_layer.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p,
                                 ctypes.c_int, ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
                                 ctypes.c_int)
    return lib


def _check_norm(psi: np.ndarray) -> None:
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > 1e-9:
        raise RuntimeError(f"statevector norm drifted: |psi|^2 = {norm_sq!r}")


# The two-level sampler works on blocks of 2^8 amplitudes, the layer kernel's
# slabs, from 16 blocks (2^12 amplitudes) up.
_SAMPLE_BLOCK = 1 << 8
_SAMPLE_MIN_BLOCKS = 16
# The sequential sampler's running sum is formed 2^12 amplitudes at a time.
_SEQUENTIAL_CHUNK = 1 << 12


def sample(state: np.ndarray, n_shots: int, rng: np.random.Generator, *,
           totals=None) -> np.ndarray:
    """Draw n_shots basis indices from |amplitude|^2 by inverse CDF.

    The indices are those of the sequential sampler (_sample_sequential):
    draw d picks the first index whose running sum of probabilities exceeds
    d, clipped to the last index. The draws come from one rng.random(n_shots)
    call. The state is read as complex128.

    A state of N >= _SAMPLE_MIN_BLOCKS * _SAMPLE_BLOCK amplitudes takes a
    two-level search. It needs the probability total of each block of
    _SAMPLE_BLOCK amplitudes: totals, as evolve wrote them for this state,
    or else one numpy pass over the state. The running sum of the block
    totals locates each draw's block; the running sum of probabilities is
    then formed only inside the drawn blocks, each once, offset by the
    total before the block. Both the sequential running sum and this
    two-level one lie within gamma_(N+2) * total of the exact prefix sums
    (gamma_k = k u / (1 - k u), u = 2^-53). That holds in whatever order
    a block total adds its terms, numpy's order or the kernel's lanes: a
    total of B = _SAMPLE_BLOCK amplitudes adds 2B squares, so at most 2B
    roundings lie behind each of its terms; the running sum over the N / B
    block totals and the offset add at most N / B more. As N >= 4B (it
    holds from 4 blocks, and the search starts at _SAMPLE_MIN_BLOCKS), at
    most N / 2 + N / 4 < N + 2 lie behind any two-level value (at most
    B + 1 behind a term of the drawn block). A draw farther than
    4 (N + 2) u max(1, total) from both neighbouring two-level values
    therefore gets the same index from the sequential sampler. If any draw
    is that close, or falls in the rounding gap between a block's last
    running sum and the block total, the call is answered by the
    sequential sampler instead.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    state = np.ascontiguousarray(state, np.complex128)
    draws = rng.random(n_shots)
    size = len(state)
    if size < _SAMPLE_MIN_BLOCKS * _SAMPLE_BLOCK:
        return _sample_sequential(state, draws)
    if totals is None:
        totals = _block_totals(state)
    elif np.shape(totals) != (size // _SAMPLE_BLOCK,):
        raise ValueError(f"expected {size // _SAMPLE_BLOCK} block totals, "
                         f"got shape {np.shape(totals)}")
    ends = np.cumsum(totals)
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


def _block_totals(state: np.ndarray, out=None) -> np.ndarray:
    """The probability total of each block of _SAMPLE_BLOCK amplitudes."""
    f = state.view(np.float64).reshape(-1, 2 * _SAMPLE_BLOCK)
    return np.einsum("ij,ij->i", f, f, out=out)


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

    The trust region shrinks from 0.5 to 1e-3; max_evals is a hard cap
    enforced here as well, so the trace never exceeds it even if the
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
            "rhobeg": 0.5,  # the initial trust-region radius
            "tol": 1e-3,  # the final one
            "maxiter": config.max_evals,
        },
    )
    return np.asarray(result.x, dtype=float), trace


def run(table: CostTable, config: QaoaConfig = QaoaConfig(), seed: int | None = None) -> RunRecord:
    """One full QAOA run against a cost table; a non-negative seed is required.

    The run's generator seeds everything: first all gammas uniform on
    [0, 2pi), then all betas uniform on [0, pi), then the shot draws of each
    evaluation in order. Identical (table, config, seed) triples therefore
    give identical records apart from wall_ms. Every evaluation prepares its
    state in one workspace allocated for the run (see evolve); on states
    large enough for the sampler's two-level search, evolve also writes the
    block totals that sample then reads.
    """
    if seed is None:
        raise ValueError("a seed is required")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    check_register(table.num_qubits, shots=config.n_shots)

    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(0.0, 2.0 * np.pi, size=config.depth)
    betas = rng.uniform(0.0, np.pi, size=config.depth)
    theta0 = np.concatenate([gammas, betas])

    best_state = -1
    best_loss = np.inf
    size = 1 << table.num_qubits
    workspace = np.empty(size, dtype=np.complex128)
    totals = np.empty(size // _SAMPLE_BLOCK) if size >= _SAMPLE_MIN_BLOCKS * _SAMPLE_BLOCK else None

    def loss(theta):
        nonlocal best_state, best_loss
        psi = evolve(theta, table, workspace=workspace, totals=totals)
        drawn = sample(psi, config.n_shots, rng, totals=totals)
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
