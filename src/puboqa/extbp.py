"""Extended bin packing: trains as bins with a usage cost, groups as items.

A group may only board trains that serve it (its eligible set), each group
boards at most one train, and a used train carries at most cmax groups. Using
train i costs c_i; every boarded group on train i earns benefit p_i. The
objective minimizes cost minus benefit, so good solutions switch on few
trains and board many groups.

The module provides the three benchmark instances, a brute-force oracle over
raw assignments, and the two encodings into unconstrained binary polynomials.
Both come from one declaration (`declare`): the instance as a binary
model.Problem with one at-most-one constraint per group that two or more
trains serve, then one capacity constraint sum(y) - cmax*x_i <= 0 per train.
`encode` hands it to reformulate.compile_problem, which builds a PUBO from
binary-valued threshold penalties or a QUBO from squared slack penalties.

Variable layout shared by both encodings (bit k of a basis-state index is
variable k): x_0..x_{n-1} first, then y_(i,j) train-major with groups
ascending within a train. The QUBO appends one uniqueness slack s_j for every
group with at least two eligible trains (ascending j), then capacity bits
r_i_l train-major, least significant first.
"""

from __future__ import annotations

import enum
import math
import unicodedata
from dataclasses import dataclass

import numpy as np

from .model import Problem, canonicalize
from .pbf import OPTIMUM_TOL, Polynomial
from .reformulate import check_weight, compile_problem, lambda_default

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
        if self.cmax > 2**53:  # declare writes -cmax as a float coefficient
            raise ValueError("cmax exceeds 2^53, above which a float coefficient cannot hold it")
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
        # Every objective value, and every sum brute force and the cost tables
        # take of costs and benefits, lies within the width. Where floats are
        # spaced wider than OPTIMUM_TOL, within which values count as optimal,
        # a difference the optimum depends on can be rounded away.
        width = sum(t.cost + t.benefit * len(t.groups) for t in self.trains)
        if not math.ulp(width) <= OPTIMUM_TOL:
            raise ValueError(
                f"costs and benefits sum to {width:g}, where floats are spaced "
                f"{math.ulp(width):g} apart, wider than the {OPTIMUM_TOL:g} optimum tolerance; "
                f"scale them to sum below 2^23"
            )

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
            name = obj["name"]
            if not isinstance(name, str):
                raise ValueError(f"name must be a string, got {name!r}")
            if any(unicodedata.category(ch) == "Cc" for ch in name):
                raise ValueError(f"name must hold no control character, got {name!r}")
            return cls(name, _whole(obj["num_groups"], "num_groups"),
                       _whole(obj["cmax"], "cmax"), trains)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed instance object: {exc}") from exc


def _number(value, what: str) -> float:
    """A JSON number as float; booleans, strings and ints beyond float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


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


# name -> (num_groups, cmax, the groups of each train)
_BUILTINS = {
    "A": (2, 2, ((0,), (1,), (0, 1))),
    "B": (4, 2, ((0, 1), (2, 3), (0, 3))),
    "C": (5, 2, ((0, 3, 4), (0, 1, 2), (3, 4))),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_instance(name: str) -> EbpInstance:
    """One of the three benchmark instances (unit costs/benefits, cmax 2)."""
    key = name.strip().upper()
    if key not in _BUILTINS:
        raise ValueError(f"unknown builtin instance {name!r}; "
                         f"choose from {', '.join(BUILTIN_NAMES)}")
    m, cmax, group_sets = _BUILTINS[key]
    trains = tuple(Train(1.0, 1.0, gs) for gs in group_sets)
    return EbpInstance(key, m, cmax, trains)


def objective_value(inst: EbpInstance, a: EbpAssignment) -> float:
    _check_shape(inst, a)
    total = sum(t.cost * xi for t, xi in zip(inst.trains, a.x))
    for (i, _), yv in zip(inst.y_pairs, a.y):
        total -= inst.trains[i].benefit * yv
    return total


def is_feasible(inst: EbpInstance, a: EbpAssignment) -> bool:
    _check_shape(inst, a)
    boarded: dict[int, int] = {}
    carried = [0] * inst.num_trains
    for (i, j), yv in zip(inst.y_pairs, a.y):
        boarded[j] = boarded.get(j, 0) + yv
        carried[i] += yv
    if any(b > 1 for b in boarded.values()):
        return False
    return all(carried[i] <= inst.cmax * a.x[i] for i in range(inst.num_trains))


def classify(inst: EbpInstance, a: EbpAssignment, optimum: float) -> Classification:
    if not is_feasible(inst, a):
        return Classification.INFEASIBLE
    if abs(objective_value(inst, a) - optimum) <= OPTIMUM_TOL:
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

    Returns the optimal value and every assignment within OPTIMUM_TOL of it
    (the all-zero assignment is always feasible, so an optimum exists). The
    low _CHUNK_BITS bits are tabulated once by doubling: the objective, and
    for each constraint its slack (limit minus load). Each pattern of the high
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
    by_group, by_train = _members(inst)
    rows = [(None, bits) for bits in by_group.values() if len(bits) > 1]
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
        near = np.flatnonzero(obj - best <= OPTIMUM_TOL)
        found.append((near + (high << low_bits), obj[near]))
    # Chunks run in index order, so the candidates are already sorted.
    index, value = (np.concatenate(parts) for parts in zip(*found))
    optima = tuple(_decode_index(n, len(pairs), z) for z in index[value - best <= OPTIMUM_TOL].tolist())
    return best, optima


def _members(inst: EbpInstance) -> tuple[dict[int, list[int]], list[list[int]]]:
    """Variable ids of the y bits of each group and of each train, ascending.

    Only groups that some train serves are keyed, in ascending id order.
    """
    n = inst.num_trains
    by_group: dict[int, list[int]] = {}
    by_train: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(inst.y_pairs):
        by_group.setdefault(j, []).append(n + k)
        by_train[i].append(n + k)
    return dict(sorted(by_group.items())), by_train


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
        return _decode_index(self.num_trains, len(self.y_pairs), z)


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


def declare(inst: EbpInstance) -> tuple[Problem, tuple[int, ...]]:
    """The instance as a binary Problem over the shared x/y layout.

    Constraints, in order: sum(y) <= 1 for every group with at least two
    eligible trains (ascending group id; a group with fewer is never
    violated and is not declared), then sum(y) - cmax*x_i <= 0 for every
    train, including trains that serve no group. Returns the problem and the
    declared groups.
    """
    n = inst.num_trains
    by_group, by_train = _members(inst)
    wide = tuple(j for j, ys in by_group.items() if len(ys) >= 2)
    constraints = []
    for j in wide:
        lhs = Polynomial.from_terms(((v,), 1.0) for v in by_group[j])
        constraints += canonicalize("<=", lhs, 1)
    for i, ys in enumerate(by_train):
        lhs = Polynomial.from_terms([((v,), 1.0) for v in ys] + [((i,), -float(inst.cmax))])
        constraints += canonicalize("<=", lhs, 0)
    return Problem((1,) * (n + inst.num_y), objective_polynomial(inst), tuple(constraints)), wide


def encode(inst: EbpInstance, formulation: str,
           lam_uni: float | None = None, lam_capa: float | None = None) -> Encoding:
    """The instance as one unconstrained polynomial on the pubo or qubo route.

    Uniqueness constraints are weighted lam_uni and capacity constraints
    lam_capa; an omitted weight defaults to the objective's interval width
    + 1. Both must pass check_weight, even one no constraint uses. The pubo route needs n + q qubits. The qubo route appends one slack
    bit s_j per declared group, then the capacity bits r_i_l of each train,
    floor(log2 cmax) + 1 of them, least significant first.
    """
    problem, wide = declare(inst)
    if lam_uni is None or lam_capa is None:
        lam = lambda_default(problem.objective)
        lam_uni = lam if lam_uni is None else lam_uni
        lam_capa = lam if lam_capa is None else lam_capa
    check_weight(lam_uni)
    check_weight(lam_capa)
    weights = [lam_uni] * len(wide) + [lam_capa] * inst.num_trains
    poly, slack = compile_problem(problem, formulation, weights)
    names = [f"x_{i}" for i in range(inst.num_trains)]
    names += [f"y_{i}_{j}" for i, j in inst.y_pairs]
    for j, ids in zip(wide, slack):
        names.extend(f"s_{j}" for _ in ids)
    for i, ids in enumerate(slack[len(wide):]):
        names.extend(f"r_{i}_{b}" for b in range(len(ids)))
    return Encoding(formulation, poly, tuple(names), len(names), inst.num_trains,
                    inst.y_pairs, lam_uni, lam_capa)
