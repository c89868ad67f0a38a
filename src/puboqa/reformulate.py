"""Penalty constructions that fold constraints into the objective.

Every constraint in canonical form lhs <= 0 is replaced by a polynomial that
vanishes exactly on satisfying assignments and is at least 1 on violating
ones (for slack_penalty, once minimized over the slack bits it returns beside
the polynomial). Four constructions are provided:

* threshold penalties (eq_penalty, le_penalty, ge_penalty) for constraints
  that compare a unit-coefficient sum of distinct binary variables against an
  integer threshold; these are binary-valued (0 or 1 everywhere), and each
  is one table of weights w_k expanded as sum_k w_k e_k, with e_k the
  degree-k elementary symmetric polynomial,
* product_penalty for arbitrary integer-coefficient constraints, as a product
  of shifted copies of the lhs,
* slack_penalty, the quadratic squared-slack form used for QUBO targets,
* the linearization gadget used by reduce_to_quadratic to lower polynomial
  degree at the cost of auxiliary variables.

check_weight is the one rule for a penalty weight: positive and finite.

penalty_for reads a canonical lhs once and picks the binary-valued
construction it calls for. compile_problem is the one place an encoding is
assembled: it takes a binary model.Problem and a weight per constraint, gives
each constraint penalty_for (the "pubo" route, whose threshold terms are
counted from the weight tables before any is written) or slack_penalty (the
"qubo" route), and adds the weighted penalties to the objective
(compose_unconstrained). That preserves the constrained minimizers whenever
each weight is at least the objective's range width; lambda_default returns
width + 1.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

from .model import Constraint, Problem
from .pbf import Monomial, Polynomial, VarId, _normalize_key

# A threshold penalty over g variables has about 2^g monomials, and a gated
# one about 2^(g+1). The cap refuses them before they are expanded: a PUBO
# encode of one train serving 20 groups peaks at 1000 MiB under tracemalloc
# on 64-bit CPython 3.11 (about 500 bytes per term), and each further
# variable doubles that. compile_problem also refuses a pubo compile whose
# threshold penalties together would write more than 2^(cap + 1) terms, as
# many as one gated penalty at the cap: the penalties all stay alive until
# they are composed, so their peaks add up.
MAX_SYMMETRIC_VARS = 20
PRODUCT_CAP = 20


def check_weight(lam: float) -> None:
    """Refuse a penalty weight that is not positive and finite."""
    if not 0 < lam < math.inf:
        raise ValueError(f"penalty weight must be positive and finite, got {lam}")


# threshold penalties ---------------------------------------------------------


def eq_penalty(vars: Sequence[VarId], c: int) -> Polynomial:
    """Binary-valued penalty for: exactly c of the given variables are 1.

    For c >= 1 the polynomial is
        1 + sum_{k=c}^{n} (-1)^(k-c+1) C(k,c) e_k
    with e_k the degree-k elementary symmetric polynomial in the variables;
    for c = 0 it is le_penalty(vars, 0). c > n is rejected: no assignment of
    n binary variables sums to more than n, so the constraint cannot be
    satisfied.
    """
    n = _check_threshold_args(vars, c)
    if c > n:
        raise ValueError(f"sum of {n} binary variables can never equal {c}")
    if c == 0:
        return le_penalty(vars, 0)
    weights = {0: 1.0} | {k: float((-1) ** (k - c + 1) * math.comb(k, c)) for k in range(c, n + 1)}
    return _expand(vars, weights)


def le_penalty(vars: Sequence[VarId], c: int) -> Polynomial:
    """Binary-valued penalty for: at most c of the given variables are 1.

        sum_{k=c+1}^{n} (-1)^(k-c+1) C(k-1,c) e_k

    c >= n makes the constraint vacuous and the sum empty, giving the zero
    polynomial; this includes c above the variable count, which occurs when a
    capacity bound exceeds the number of candidates it limits. c < 0 is
    rejected (a sum of binary variables is never negative).
    """
    return _expand(vars, _le_weights(vars, c))


def ge_penalty(vars: Sequence[VarId], c: int) -> Polynomial:
    """Binary-valued penalty for: at least c of the given variables are 1.

        1 + sum_{k=c}^{n} (-1)^(k-c+1) C(k-1,c-1) e_k

    Requires 1 <= c <= n: c = 0 is vacuous (use the zero polynomial instead)
    and c > n is unsatisfiable.
    """
    return _expand(vars, _ge_weights(vars, c))


def _le_weights(vars: Sequence[VarId], c: int) -> dict[int, float]:
    """le_penalty's coefficient of e_k, by degree k."""
    n = _check_threshold_args(vars, c)
    return {k: float((-1) ** (k - c + 1) * math.comb(k - 1, c)) for k in range(c + 1, n + 1)}


def _ge_weights(vars: Sequence[VarId], c: int) -> dict[int, float]:
    """ge_penalty's coefficient of e_k, by degree k."""
    n = _check_threshold_args(vars, c)
    if c == 0:
        raise ValueError("at-least-0 is vacuous; use the zero polynomial")
    if c > n:
        raise ValueError(f"sum of {n} binary variables can never reach {c}")
    return {0: 1.0} | {k: float((-1) ** (k - c + 1) * math.comb(k - 1, c - 1)) for k in range(c, n + 1)}


def _check_threshold_args(vars: Sequence[VarId], c: int) -> int:
    # _expand builds its terms without re-checking the ids; check them here.
    if len(_normalize_key(vars)) != len(vars):
        raise ValueError("threshold penalties need distinct variables")
    if len(vars) > MAX_SYMMETRIC_VARS:
        raise ValueError(
            f"threshold penalty over {len(vars)} variables exceeds the "
            f"{MAX_SYMMETRIC_VARS}-variable cap"
        )
    if not isinstance(c, int) or c < 0:
        raise ValueError(f"threshold must be a non-negative int, got {c!r}")
    return len(vars)


def _expand(vars: Sequence[VarId], weights: dict[int, float]) -> Polynomial:
    """sum_k weights[k] * e_k over the given variables, degrees in table order.

    The monomials of each degree are grown one variable at a time, e_k gaining
    e_{k-1} * v for v ascending, so each is written once and in the same order
    on every call. Degrees above the table's largest are never built.
    """
    top = max(weights, default=0)
    e: list[list[Monomial]] = [[()]]
    for v in sorted(vars):
        e.append([])
        for k in range(min(len(e) - 1, top), 0, -1):
            grown = e[k]
            for mono in e[k - 1]:
                grown.append(mono + (v,))
    return Polynomial._from_normalized({mono: w for k, w in weights.items() for mono in e[k]})


def _terms(vars: Sequence[VarId], weights: dict[int, float]) -> int:
    """How many monomials _expand(vars, weights) writes: C(n, k) per degree k."""
    return sum(math.comb(len(vars), k) for k in weights)


# product penalty -------------------------------------------------------------


def product_penalty(c: Constraint) -> Polynomial:
    """Penalty for an arbitrary integer-coefficient constraint lhs <= 0.

    Multiplies the shifted copies lhs, lhs+1, ..., lhs+UB where UB is the sum
    of absolute coefficient values (constant included). On a satisfying
    assignment lhs lands in [-UB, 0], so one factor vanishes; on a violating
    one every factor is >= 1. The value on violations can be astronomically
    large, which is sound but numerically blunt, hence the cap on UB. The
    coefficients are integers, which Constraint checks.
    """
    ub = sum(abs(int(round(coeff))) for coeff in c.lhs.terms.values())
    if ub > PRODUCT_CAP:
        raise ValueError(
            f"product penalty would multiply {ub + 1} factors, above the cap {PRODUCT_CAP}; "
            "tighten the constraint"
        )
    out = Polynomial.constant(1.0)
    for j in range(ub + 1):
        out = out * (c.lhs + j)
    return out


# slack penalty ---------------------------------------------------------------


def slack_penalty(c: Constraint, first_slack_id: VarId) -> tuple[Polynomial, tuple[VarId, ...]]:
    """Quadratic penalty (lhs + s)^2 with s a base-2 encoded slack variable.

    The slack absorbs how far lhs sits below 0: s ranges over the bit
    combinations of floor(log2(-min lhs)) + 1 fresh bits (none when the
    minimum is already 0). Minimizing over the slack bits gives 0 exactly on
    satisfying assignments; on violating ones lhs >= 1 so lhs + s >= 1 for
    every slack value and the square is >= 1. Slack values overshooting
    -min(lhs) are harmless for the same reason.

    Returns the penalty and its slack bit ids, counted up from
    first_slack_id; callers composing several penalties keep the id ranges
    disjoint.
    """
    lhs = c.lhs
    if lhs.degree > 1:
        raise ValueError("slack penalty needs a linear lhs; quadratize first")
    lo, _ = lhs.interval_bounds()
    lo = int(round(lo))
    if lo > 0:
        raise ValueError("constraint is unsatisfiable: lhs is positive everywhere")
    need = -lo
    width = need.bit_length()
    slack_ids = tuple(first_slack_id + j for j in range(width))
    s_poly = Polynomial.from_terms(((sid,), 1 << j) for j, sid in enumerate(slack_ids))
    return (lhs + s_poly) ** 2, slack_ids


# quadratization --------------------------------------------------------------


def linearization_gadget(a: VarId, b: VarId, y: VarId) -> Polynomial:
    """Penalty that is 0 exactly when y = a*b.

    The polynomial a*b - 2ay - 2by + 3y takes value 1 on (1,1,0), 1 on
    (0,1,1) and (1,0,1), 3 on (0,0,1), and 0 on every consistent triple.
    """
    return Polynomial({(a, b): 1.0, (a, y): -2.0, (b, y): -2.0, (y,): 3.0})


def reduce_to_quadratic(
    p: Polynomial, lam: float
) -> tuple[Polynomial, tuple[tuple[VarId, VarId, VarId], ...]]:
    """Lower a polynomial to degree <= 2 with pair substitutions.

    While any monomial of degree >= 3 remains, the variable pair occurring in
    the most such monomials (ties broken by lexicographically smallest pair)
    is replaced everywhere by a fresh variable y, and lam times the
    linearization gadget for (pair, y) is added. With lam at least the
    interval width of the evolving polynomial the extended minimum equals the
    original minimum; lambda_default(p) is a safe choice. Returns the
    quadratic polynomial and the substitutions in the order they were made:
    each record (a, b, y) states that y stands for the product a*b.
    """
    check_weight(lam)
    current = p
    records: list[tuple[VarId, VarId, VarId]] = []
    next_var = max(p.variables(), default=-1) + 1
    while True:
        counts: Counter[tuple[VarId, VarId]] = Counter()
        for mono in current.terms:
            if len(mono) >= 3:
                for pair in combinations(mono, 2):
                    counts[pair] += 1
        if not counts:
            break
        top = max(counts.values())
        a, b = min(pair for pair, cnt in counts.items() if cnt == top)
        y = next_var
        next_var += 1
        current = _substitute_pair(current, a, b, y) + lam * linearization_gadget(a, b, y)
        records.append((a, b, y))
    return current, tuple(records)


def _substitute_pair(p: Polynomial, a: VarId, b: VarId, y: VarId) -> Polynomial:
    acc: dict[Monomial, float] = {}
    for mono, coeff in p.terms.items():
        if a in mono and b in mono:
            mono = tuple(sorted((set(mono) - {a, b}) | {y}))
        acc[mono] = acc.get(mono, 0.0) + coeff
    return Polynomial(acc)


# assembly --------------------------------------------------------------------


def lambda_default(objective: Polynomial) -> float:
    """Penalty weight that always separates feasible from infeasible points.

    Any weight at least max(objective) - min(objective) works; this returns
    the interval-bounds width plus one, which is cheap to compute and strict.
    """
    lo, hi = objective.interval_bounds()
    return (hi - lo) + 1.0


def compose_unconstrained(
    objective: Polynomial, penalties: Iterable[tuple[float, Polynomial]]
) -> Polynomial:
    """objective + sum of lam * penalty over (lam, penalty) pairs, as one Polynomial.

    Each weight must pass check_weight. The terms are summed into one dict,
    each monomial as acc[m] + lam * c in penalty order; at the end monomials
    whose total is below COEFF_EPS are dropped. The keys are those of the
    polynomials, so none is re-sorted.
    """
    acc = dict(objective.terms)
    for lam, penalty in penalties:
        check_weight(lam)
        lam = float(lam)
        for mono, coeff in penalty.terms.items():
            acc[mono] = acc.get(mono, 0.0) + lam * coeff
    return Polynomial._from_normalized(acc)


def compile_problem(
    problem: Problem, route: str, weights: Sequence[float]
) -> tuple[Polynomial, tuple[tuple[VarId, ...], ...]]:
    """Fold a binary Problem's constraints into its objective.

    On the "pubo" route each constraint gets penalty_for, which needs no
    extra variables. On the "qubo" route each gets slack_penalty, with slack
    bit ids counted up from problem.num_variables in constraint order. Each
    penalty enters with its constraint's weight, which compose_unconstrained
    checks with check_weight.
    Returns the composed polynomial and, per constraint, its slack bit ids
    (empty on the pubo route). Integer programs go through model.binarize
    first.
    """
    if route not in ("pubo", "qubo"):
        raise ValueError(f"unknown formulation {route!r}; choose pubo or qubo")
    if not problem.is_binary():
        raise ValueError("compile_problem needs a binary problem; binarize it first")
    readings = [_read(con) for con in problem.constraints] if route == "pubo" else []
    terms = sum(reading.terms for reading in readings)
    if terms > 1 << (MAX_SYMMETRIC_VARS + 1):
        raise ValueError(
            f"the threshold penalties would expand to {terms} terms, more than the "
            f"2^{MAX_SYMMETRIC_VARS + 1} of one gated penalty at the "
            f"{MAX_SYMMETRIC_VARS}-variable cap"
        )
    penalties, slack = [], []
    next_id = problem.num_variables
    for i, (con, lam) in enumerate(zip(problem.constraints, weights, strict=True)):
        if route == "pubo":
            poly, ids = readings[i].penalty(), ()
        else:
            poly, ids = slack_penalty(con, next_id)
            next_id += len(ids)
        penalties.append((lam, poly))
        slack.append(ids)
    return compose_unconstrained(problem.objective, penalties), tuple(slack)


def penalty_for(c: Constraint) -> Polynomial:
    """Pick the penalty construction a canonical constraint calls for.

    A linear lhs sum(a_v x_v) - b is read by its coefficients:

    * all a_v = 1: sum(x) <= b, an at-most threshold (le_penalty);
    * all a_v = -1: sum(x) >= -b, an at-least threshold (ge_penalty);
    * all a_v = 1 but one gate x with a_x = -g, g >= 1, and b >= 0: the
      gated sum sum(Y) <= b + g*x, split on the gate into
      (1 - x) * le_penalty(Y, b) + x * le_penalty(Y, b + g), which is again
      0/1-valued.

    A vacuous threshold yields the zero polynomial. Everything else, weighted
    sums and nonlinear lhs included, goes through product_penalty. A
    threshold is refused (variable cap, unsatisfiable bound) before any term
    is written.
    """
    return _read(c).penalty()


class _Reading(NamedTuple):
    """A constraint as penalty_for reads it: the monomials its threshold
    expansions write (0 if none), and the call that builds its penalty."""

    terms: int
    penalty: Callable[[], Polynomial]


def _read(c: Constraint) -> _Reading:
    coeffs: dict[VarId, int] = {}
    for mono, coeff in c.lhs.terms.items():
        if len(mono) > 1:
            return _Reading(0, lambda: product_penalty(c))
        if mono:
            coeffs[mono[0]] = int(round(coeff))
    ones = sorted(v for v, a in coeffs.items() if a == 1)
    others = sorted((v, a) for v, a in coeffs.items() if a != 1)
    b = -int(round(c.lhs.constant_term))
    if ones and not others:
        if b < 0:
            raise ValueError("constraint is unsatisfiable: sum below a negative bound")
        return _Reading(_terms(ones, _le_weights(ones, b)), lambda: le_penalty(ones, b))
    if others and not ones and all(a == -1 for _, a in others):
        if b >= 0:
            return _Reading(0, Polynomial.zero)
        ys = [v for v, _ in others]
        return _Reading(_terms(ys, _ge_weights(ys, -b)), lambda: ge_penalty(ys, -b))
    if len(others) == 1 and others[0][1] <= -1 and b >= 0:
        (gate, a), = others
        return _Reading(2 * _terms(ones, _le_weights(ones, b)), lambda: _gated_le_penalty(ones, gate, b, -a))
    return _Reading(0, lambda: product_penalty(c))


def _gated_le_penalty(ys: Sequence[VarId], gate: VarId, b: int, g: int) -> Polynomial:
    """(1 - gate) * le_penalty(ys, b) + gate * le_penalty(ys, b + g).

    Written out term by term: each monomial m of the closed-gate penalty
    keeps its coefficient, and m with the gate gets the open-gate
    coefficient minus the closed one. The open-gate penalty has no monomial
    the closed one lacks.
    """
    closed = le_penalty(ys, b).terms
    opened = le_penalty(ys, b + g).terms
    acc = dict(closed)
    for mono, coeff in closed.items():
        i = bisect_left(mono, gate)
        acc[mono[:i] + (gate,) + mono[i:]] = opened.get(mono, 0.0) - coeff
    return Polynomial._from_normalized(acc)
