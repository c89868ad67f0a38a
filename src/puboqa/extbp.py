"""Extended bin packing: trains as bins with a usage cost, groups as items.

A group may only board trains that serve it (its eligible set), each group
boards at most one train, and a used train carries at most cmax groups. Using
train i costs c_i; every boarded group on train i earns benefit p_i. The
objective minimizes cost minus benefit, so good solutions switch on few
trains and board many groups.

The module provides the three benchmark instances, a brute-force oracle over
raw assignments, and the two encodings into unconstrained binary polynomials:
a PUBO built from binary-valued threshold penalties, and a QUBO built from
squared slack penalties.

Variable layout shared by both encodings (bit k of a basis-state index is
variable k): x_0..x_{n-1} first, then y_(i,j) train-major with groups
ascending within a train. The QUBO appends one uniqueness slack s_j for every
group with at least two eligible trains (ascending j), then capacity bits
r_i_l train-major, least significant first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import canonicalize
from .pbf import Polynomial
from .reformulate import (
    KIND_BINARY,
    PenaltyTerm,
    compose_unconstrained,
    eq_penalty,
    lambda_default,
    le_penalty,
    slack_penalty,
)

BRUTE_FORCE_CAP = 30
_CHUNK_BITS = 18


class Classification(enum.Enum):
    OPTIMAL = "Optimal"
    FEASIBLE_NON_OPTIMAL = "FeasibleNonOptimal"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class Train:
    cost: float
    benefit: float
    groups: tuple[int, ...]


@dataclass(frozen=True)
class EbpInstance:
    name: str
    num_groups: int
    cmax: int
    trains: tuple[Train, ...]

    def __post_init__(self):
        if isinstance(self.cmax, bool) or not isinstance(self.cmax, int) or self.cmax < 1:
            raise ValueError(f"cmax must be a positive int, got {self.cmax!r}")
        if self.num_groups < 0:
            raise ValueError("num_groups must be non-negative")
        for i, t in enumerate(self.trains):
            if not (math.isfinite(t.cost) and math.isfinite(t.benefit)):
                raise ValueError(f"train {i} has a non-finite cost or benefit")
            if t.cost < 0 or t.benefit < 0:
                raise ValueError(f"train {i} has negative cost or benefit")
            if list(t.groups) != sorted(set(t.groups)):
                raise ValueError(f"train {i} groups must be strictly increasing")
            for g in t.groups:
                if not 0 <= g < self.num_groups:
                    raise ValueError(f"train {i} references group {g} out of range")

    @property
    def num_trains(self) -> int:
        return len(self.trains)

    @property
    def num_y(self) -> int:
        return sum(len(t.groups) for t in self.trains)

    @property
    def y_pairs(self) -> tuple[tuple[int, int], ...]:
        """(train, group) pairs in variable order."""
        return tuple((i, j) for i, t in enumerate(self.trains) for j in t.groups)

    def eligible_trains(self, group: int) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.trains) if group in t.groups)

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "cmax": self.cmax,
            "num_groups": self.num_groups,
            "trains": [
                {"cost": t.cost, "benefit": t.benefit, "groups": list(t.groups)}
                for t in self.trains
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> EbpInstance:
        """Parse the to_obj form; values of the wrong kind are refused, not coerced."""
        try:
            trains = tuple(
                Train(
                    _number(t["cost"], "cost"),
                    _number(t["benefit"], "benefit"),
                    tuple(_whole(g, "group id") for g in t["groups"]),
                )
                for t in obj["trains"]
            )
            return cls(str(obj["name"]), _whole(obj["num_groups"], "num_groups"),
                       _whole(obj["cmax"], "cmax"), trains)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed instance object: {exc}") from exc


def _number(value, what: str) -> float:
    """A JSON number as float; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _whole(value, what: str) -> int:
    """An integer-valued JSON number as int; booleans and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class EbpAssignment:
    """x[i] = train i used; y aligned with EbpInstance.y_pairs."""

    x: tuple[int, ...]
    y: tuple[int, ...]


_BUILTINS = {
    "A": ("A", 2, 2, ((0,), (1,), (0, 1))),
    "B": ("B", 4, 2, ((0, 1), (2, 3), (0, 3))),
    "C": ("C", 5, 2, ((0, 3, 4), (0, 1, 2), (3, 4))),
}


def builtin_instance(name: str) -> EbpInstance:
    """One of the three benchmark instances (unit costs/benefits, cmax 2)."""
    key = name.strip().upper()
    if key not in _BUILTINS:
        raise ValueError(f"unknown builtin instance {name!r}; choose from A, B, C")
    label, m, cmax, group_sets = _BUILTINS[key]
    trains = tuple(Train(1.0, 1.0, gs) for gs in group_sets)
    return EbpInstance(label, m, cmax, trains)


def objective_value(inst: EbpInstance, a: EbpAssignment) -> float:
    _check_shape(inst, a)
    total = sum(t.cost * xi for t, xi in zip(inst.trains, a.x))
    for (i, _), yv in zip(inst.y_pairs, a.y):
        total -= inst.trains[i].benefit * yv
    return total


def is_feasible(inst: EbpInstance, a: EbpAssignment) -> bool:
    _check_shape(inst, a)
    boarded = [0] * inst.num_groups
    carried = [0] * inst.num_trains
    for (i, j), yv in zip(inst.y_pairs, a.y):
        boarded[j] += yv
        carried[i] += yv
    if any(b > 1 for b in boarded):
        return False
    return all(carried[i] <= inst.cmax * a.x[i] for i in range(inst.num_trains))


def classify(inst: EbpInstance, a: EbpAssignment, optimum: float, tol: float = 1e-9) -> Classification:
    if not is_feasible(inst, a):
        return Classification.INFEASIBLE
    if abs(objective_value(inst, a) - optimum) <= tol:
        return Classification.OPTIMAL
    return Classification.FEASIBLE_NON_OPTIMAL


def _check_shape(inst: EbpInstance, a: EbpAssignment) -> None:
    if len(a.x) != inst.num_trains or len(a.y) != inst.num_y:
        raise ValueError(
            f"assignment shape ({len(a.x)}, {len(a.y)}) does not match instance "
            f"({inst.num_trains}, {inst.num_y})"
        )


def brute_force(inst: EbpInstance) -> tuple[float, tuple[EbpAssignment, ...]]:
    """Exhaustive scan of all assignment bit patterns.

    Returns the optimal value and every assignment within 1e-9 of it (the
    all-zero assignment is always feasible, so an optimum exists). The low
    _CHUNK_BITS bits are tabulated once by doubling: the objective, and for
    each constraint its slack (limit minus load). Each pattern of the high
    bits is then one chunk: its objective adds the high weights to the low
    table one at a time, and a state is feasible when every slack covers the
    load the high bits add. Weights are summed in bit order, as a sequential
    sum over the assignment would, and the optimum and the optimal set are
    taken over the whole scan, so the result does not depend on chunking.
    """
    pairs = inst.y_pairs
    n = inst.num_trains
    total_bits = n + len(pairs)
    if total_bits > BRUTE_FORCE_CAP:
        raise ValueError(f"{total_bits} bits exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    weights = [t.cost for t in inst.trains] + [-inst.trains[i].benefit for i, _ in pairs]
    # One row per constraint that some assignment can violate: what each bit
    # adds to its load, against its limit. A group with two or more eligible
    # trains has limit 1; a train with groups has limit 0, and x_i takes off
    # its capacity, clamped to its group count so every slack fits in int8.
    by_group: list[list[int]] = [[] for _ in range(inst.num_groups)]
    by_train: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        by_group[j].append(n + k)
        by_train[i].append(n + k)
    rows = [(None, bits) for bits in by_group if len(bits) > 1]
    rows += [(i, bits) for i, bits in enumerate(by_train) if bits]
    flat: list[int] = []
    limit: list[int] = []
    for i, bits in rows:
        row = [0] * total_bits
        for b in bits:
            row[b] = 1
        if i is not None:
            row[i] = -min(inst.cmax, len(bits))
        flat += row
        limit.append(1 if i is None else 0)
    load = np.array(flat, dtype=np.int8).reshape(len(rows), total_bits)

    low_bits = min(total_bits, _CHUNK_BITS)
    low = np.zeros(1 << low_bits)
    slack = np.empty((len(rows), 1 << low_bits), dtype=np.int8)
    slack[:, 0] = limit
    for k in range(low_bits):
        np.add(low[: 1 << k], weights[k], out=low[1 << k : 2 << k])
        np.subtract(slack[:, : 1 << k], load[:, k, None], out=slack[:, 1 << k : 2 << k])
    high_bits = total_bits - low_bits
    most = slack.max(axis=1, keepdims=True) if high_bits else None

    best = np.inf
    found: list[tuple[np.ndarray, np.ndarray]] = []
    for high in range(1 << high_bits):
        set_bits = [low_bits + b for b in range(high_bits) if high >> b & 1]
        need = 0
        if set_bits:
            need = load[:, set_bits].sum(axis=1, keepdims=True, dtype=np.int8)
            if (need > most).any():
                continue  # some constraint fails whatever the low bits are
        obj = low.copy()
        for b in set_bits:
            obj += weights[b]
        obj[(slack < need).any(axis=0)] = np.inf
        best = min(best, float(obj.min()))
        near = np.flatnonzero(obj - best <= 1e-9)
        found.append((near + (high << low_bits), obj[near]))
    # Chunks run in index order, so the candidates are already sorted.
    index, value = (np.concatenate(parts) for parts in zip(*found))
    optima = tuple(_decode_index(n, len(pairs), z) for z in index[value - best <= 1e-9].tolist())
    return best, optima


def _decode_index(n: int, q: int, z: int) -> EbpAssignment:
    x = tuple((z >> i) & 1 for i in range(n))
    y = tuple((z >> (n + k)) & 1 for k in range(q))
    return EbpAssignment(x, y)


# encodings -------------------------------------------------------------------


@dataclass(frozen=True)
class Encoding:
    """An instance rendered as one unconstrained polynomial over qubits."""

    kind: str
    poly: Polynomial
    var_names: tuple[str, ...]
    qubit_count: int
    num_trains: int
    y_pairs: tuple[tuple[int, int], ...]
    lam_uni: float
    lam_capa: float

    def project(self, z: int) -> EbpAssignment:
        """Read (x, y) out of a basis-state index, dropping any slack bits."""
        n, q = self.num_trains, len(self.y_pairs)
        x = tuple((z >> i) & 1 for i in range(n))
        y = tuple((z >> (n + k)) & 1 for k in range(q))
        return EbpAssignment(x, y)


def objective_polynomial(inst: EbpInstance) -> Polynomial:
    """Cost-minus-benefit objective over the shared x/y variable layout."""
    n = inst.num_trains
    terms = [((i,), t.cost) for i, t in enumerate(inst.trains)]
    terms += [
        ((n + k,), -inst.trains[i].benefit) for k, (i, _) in enumerate(inst.y_pairs)
    ]
    return Polynomial.from_terms(terms)


def default_lambda(inst: EbpInstance) -> float:
    return lambda_default(objective_polynomial(inst))


def _base_names(inst: EbpInstance) -> list[str]:
    names = [f"x_{i}" for i in range(inst.num_trains)]
    names += [f"y_{i}_{j}" for i, j in inst.y_pairs]
    return names


def to_pubo(inst: EbpInstance, lam_uni: float | None = None, lam_capa: float | None = None) -> Encoding:
    """PUBO over n + q qubits from binary-valued threshold penalties.

    Each group contributes an at-most-one penalty over its eligible y bits
    (zero polynomial when fewer than two trains are eligible). Each train i
    contributes (1 - x_i) * [some group boarded] + x_i * [more than cmax
    boarded], which is again 0/1-valued. Omitted lambdas default to the
    objective's interval width + 1.
    """
    if lam_uni is None:
        lam_uni = default_lambda(inst)
    if lam_capa is None:
        lam_capa = default_lambda(inst)
    if not (lam_uni > 0 and lam_capa > 0):
        raise ValueError("penalty weights must be positive")
    n = inst.num_trains
    pairs = inst.y_pairs
    penalties: list[PenaltyTerm] = []
    for j in range(inst.num_groups):
        yv = [n + k for k, (_, jj) in enumerate(pairs) if jj == j]
        penalties.append(le_penalty(yv, 1).with_lambda(lam_uni))
    for i in range(n):
        yv = [n + k for k, (ii, _) in enumerate(pairs) if ii == i]
        none_boarded = eq_penalty(yv, 0).poly
        over_capacity = le_penalty(yv, inst.cmax).poly
        xi = Polynomial.variable(i)
        conditional = (1 - xi) * none_boarded + xi * over_capacity
        penalties.append(PenaltyTerm(conditional, KIND_BINARY, lam=lam_capa))
    poly = compose_unconstrained(objective_polynomial(inst), penalties)
    names = _base_names(inst)
    return Encoding("pubo", poly, tuple(names), n + inst.num_y, n, pairs, lam_uni, lam_capa)


def to_qubo(inst: EbpInstance, lam_uni: float | None = None, lam_capa: float | None = None) -> Encoding:
    """QUBO over n + q + slack qubits from squared slack penalties.

    Groups with at least two eligible trains get (sum y + s_j - 1)^2 with one
    slack bit; groups with fewer are never violated and are elided outright,
    contributing no term and no bit. Every train gets
    (sum y - cmax*x_i + r_i)^2 with r_i on floor(log2 cmax) + 1 bits.
    """
    if lam_uni is None:
        lam_uni = default_lambda(inst)
    if lam_capa is None:
        lam_capa = default_lambda(inst)
    if not (lam_uni > 0 and lam_capa > 0):
        raise ValueError("penalty weights must be positive")
    n = inst.num_trains
    pairs = inst.y_pairs
    names = _base_names(inst)
    next_id = n + inst.num_y
    penalties: list[PenaltyTerm] = []

    for j in range(inst.num_groups):
        yv = [n + k for k, (_, jj) in enumerate(pairs) if jj == j]
        if len(yv) < 2:
            continue
        lhs = Polynomial.from_terms(((v,), 1.0) for v in yv)
        con = canonicalize("<=", lhs, 1)[0]
        term = slack_penalty(con, first_slack_id=next_id)
        penalties.append(term.with_lambda(lam_uni))
        names.extend(f"s_{j}" for _ in term.slack_vars)
        next_id += len(term.slack_vars)

    for i in range(n):
        yv = [n + k for k, (ii, _) in enumerate(pairs) if ii == i]
        lhs = Polynomial.from_terms([((v,), 1.0) for v in yv] + [((i,), -float(inst.cmax))])
        con = canonicalize("<=", lhs, 0)[0]
        term = slack_penalty(con, first_slack_id=next_id)
        penalties.append(term.with_lambda(lam_capa))
        names.extend(f"r_{i}_{b}" for b in range(len(term.slack_vars)))
        next_id += len(term.slack_vars)

    poly = compose_unconstrained(objective_polynomial(inst), penalties)
    return Encoding("qubo", poly, tuple(names), next_id, n, pairs, lam_uni, lam_capa)


def encode(inst: EbpInstance, formulation: str,
           lam_uni: float | None = None, lam_capa: float | None = None) -> Encoding:
    if formulation == "pubo":
        return to_pubo(inst, lam_uni, lam_capa)
    if formulation == "qubo":
        return to_qubo(inst, lam_uni, lam_capa)
    raise ValueError(f"unknown formulation {formulation!r}; choose pubo or qubo")
