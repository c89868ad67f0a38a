"""Independent reference computations the benchmark checks the program against.

Nothing here imports puboqa. Every value is derived from the instance
definition and the paper's formulas:

(a) the constrained optimum and the set of optimal (x, y) assignments, by
    enumeration;
(b) the penalized value of any basis state, straight from the definitions
      pubo: f + lam_uni * sum_j [sum_i y_ij > 1]
              + lam_capa * sum_i [(x_i = 0 and sum_j y_ij > 0)
                                  or (x_i = 1 and sum_j y_ij > cmax)]
      qubo: f + lam_uni * sum_{j wide} (sum_i y_ij + s_j - 1)^2
              + lam_capa * sum_i (sum_j y_ij - cmax x_i + sum_l 2^l r_il)^2
    with lam = (sum of costs + sum of boarding benefits) + 1, the width of
    the objective's range plus one;
(c) the QAOA statevector for a fixed parameter vector, applying the phase
    from (b) and then the mixer exp(-i beta X) one qubit at a time.

Layout (the documented convention of the program): qubit k is bit k of a
basis-state index; x_0..x_{n-1}, then y_(i,j) train-major with groups
ascending, then (qubo only) one s_j per group with at least two eligible
trains, ascending j, then r_i_l train-major, least significant bit first.

All whole-hypercube passes run in chunks of CHUNK states, so the checks add
little to the resident set of the process they run in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHUNK = 1 << 15
TOL = 1e-9

OPTIMAL = "Optimal"
FEASIBLE_NON_OPTIMAL = "FeasibleNonOptimal"
INFEASIBLE = "Infeasible"

# The three instances of the paper: unit costs and benefits, cmax 2.
PAPER_INSTANCES = {
    "A": (2, ((0,), (1,), (0, 1))),
    "B": (4, ((0, 1), (2, 3), (0, 3))),
    "C": (5, ((0, 3, 4), (0, 1, 2), (3, 4))),
}


@dataclass(frozen=True)
class Spec:
    """An extended bin packing instance as plain data."""

    name: str
    num_groups: int
    cmax: int
    costs: tuple[float, ...]
    benefits: tuple[float, ...]
    groups: tuple[tuple[int, ...], ...]

    @classmethod
    def paper(cls, name: str) -> Spec:
        m, groups = PAPER_INSTANCES[name]
        n = len(groups)
        return cls(name, m, 2, (1.0,) * n, (1.0,) * n, groups)

    @classmethod
    def from_obj(cls, obj: dict) -> Spec:
        trains = obj["trains"]
        return cls(
            obj["name"],
            obj["num_groups"],
            obj["cmax"],
            tuple(t["cost"] for t in trains),
            tuple(t["benefit"] for t in trains),
            tuple(tuple(t["groups"]) for t in trains),
        )

    @property
    def n(self) -> int:
        return len(self.groups)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, gs in enumerate(self.groups) for j in sorted(gs))

    @property
    def q(self) -> int:
        return len(self.pairs)

    @property
    def wide_groups(self) -> tuple[int, ...]:
        served = [0] * self.num_groups
        for _, j in self.pairs:
            served[j] += 1
        return tuple(j for j in range(self.num_groups) if served[j] >= 2)

    @property
    def lam(self) -> float:
        return sum(self.costs) + sum(self.benefits[i] for i, _ in self.pairs) + 1.0

    def qubits(self, kind: str) -> int:
        base = self.n + self.q
        if kind == "pubo":
            return base
        return base + len(self.wide_groups) + self.n * self.cmax.bit_length()


def _bit(z: np.ndarray, k: int) -> np.ndarray:
    return (z >> k) & 1


def _objective_and_loads(spec: Spec, z: np.ndarray):
    """Objective, per-train loads and per-group boardings on a chunk."""
    n = spec.n
    obj = np.zeros(len(z))
    loads = [np.zeros(len(z), dtype=np.int64) for _ in range(n)]
    boarded = [np.zeros(len(z), dtype=np.int64) for _ in range(spec.num_groups)]
    for i in range(n):
        obj += spec.costs[i] * _bit(z, i)
    for k, (i, j) in enumerate(spec.pairs):
        y = _bit(z, n + k)
        obj -= spec.benefits[i] * y
        loads[i] += y
        boarded[j] += y
    return obj, loads, boarded


def _feasible(spec: Spec, z, loads, boarded) -> np.ndarray:
    ok = np.ones(len(z), dtype=bool)
    for b in boarded:
        ok &= b <= 1
    for i, load in enumerate(loads):
        ok &= load <= spec.cmax * _bit(z, i)
    return ok


def enumerate_optimum(spec: Spec) -> tuple[float, frozenset]:
    """(a): the constrained optimum and every (x, y) attaining it."""
    bits = spec.n + spec.q
    best = math.inf
    winners: list[int] = []
    for lo in range(0, 1 << bits, CHUNK):
        z = np.arange(lo, min(lo + CHUNK, 1 << bits), dtype=np.int64)
        obj, loads, boarded = _objective_and_loads(spec, z)
        vals = np.where(_feasible(spec, z, loads, boarded), obj, math.inf)
        low = float(vals.min())
        if low < best - TOL:
            best, winners = low, []
        if abs(low - best) <= TOL:
            winners.extend(int(v) for v in z[np.abs(vals - best) <= TOL])
    return best, frozenset(project(spec, w) for w in winners)


def project(spec: Spec, z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(x, y) read out of a basis-state index; slack bits are ignored."""
    x = tuple((z >> i) & 1 for i in range(spec.n))
    y = tuple((z >> (spec.n + k)) & 1 for k in range(spec.q))
    return x, y


def classify(spec: Spec, optimum: float, z: int) -> str:
    x, y = project(spec, z)
    za = np.array([sum(b << i for i, b in enumerate(x + y))], dtype=np.int64)
    obj, loads, boarded = _objective_and_loads(spec, za)
    if not _feasible(spec, za, loads, boarded)[0]:
        return INFEASIBLE
    return OPTIMAL if abs(float(obj[0]) - optimum) <= TOL else FEASIBLE_NON_OPTIMAL


def penalized_values(spec: Spec, kind: str, lo: int, hi: int) -> np.ndarray:
    """(b) on basis states lo..hi-1 of the kind's register."""
    z = np.arange(lo, hi, dtype=np.int64)
    obj, loads, boarded = _objective_and_loads(spec, z)
    lam = spec.lam
    uni = np.zeros(len(z))
    capa = np.zeros(len(z))
    if kind == "pubo":
        for b in boarded:
            uni += b > 1
        for i, load in enumerate(loads):
            x = _bit(z, i)
            capa += ((x == 0) & (load > 0)) | ((x == 1) & (load > spec.cmax))
    elif kind == "qubo":
        base = spec.n + spec.q
        for t, j in enumerate(spec.wide_groups):
            uni += (boarded[j] + _bit(z, base + t) - 1.0) ** 2
        base += len(spec.wide_groups)
        width = spec.cmax.bit_length()
        for i, load in enumerate(loads):
            slack = sum((1 << l) * _bit(z, base + i * width + l) for l in range(width))
            capa += (load - spec.cmax * _bit(z, i) + slack) ** 2.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return obj + lam * uni + lam * capa


def penalized_value(spec: Spec, kind: str, z: int) -> float:
    return float(penalized_values(spec, kind, z, z + 1)[0])


def all_penalized_values(spec: Spec, kind: str) -> np.ndarray:
    size = 1 << spec.qubits(kind)
    out = np.empty(size)
    for lo in range(0, size, CHUNK):
        hi = min(lo + CHUNK, size)
        out[lo:hi] = penalized_values(spec, kind, lo, hi)
    return out


def reference_state(values: np.ndarray, params) -> np.ndarray:
    """(c): depth-p QAOA state, mixer applied one qubit at a time."""
    params = [float(p) for p in params]
    depth = len(params) // 2
    size = len(values)
    n = size.bit_length() - 1
    psi = np.full(size, 2.0 ** (-n / 2), dtype=np.complex128)
    for layer in range(depth):
        gamma, beta = params[layer], params[depth + layer]
        for lo in range(0, size, CHUNK):
            psi[lo:lo + CHUNK] *= np.exp(-1j * gamma * values[lo:lo + CHUNK])
        c, s = math.cos(beta), math.sin(beta)
        for k in range(n):
            view = psi.reshape(-1, 2, 1 << k)
            step = max(1, CHUNK >> (k + 1))
            for o in range(0, view.shape[0], step):
                a = view[o:o + step, 0, :]
                b = view[o:o + step, 1, :]
                a_old = a.copy()
                a *= c
                a += (-1j * s) * b
                b *= c
                b += (-1j * s) * a_old
    return psi
