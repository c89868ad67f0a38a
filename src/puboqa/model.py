"""Integer-variable polynomial programs and their reduction to binary form.

A Problem holds bounded integer variables, a polynomial objective to
minimize, and polynomial constraints in the canonical form lhs <= 0.
`canonicalize` maps user-facing relations (<=, >=, ==) into that form.
`binarize` replaces every integer variable by its base-2 bit expansion and
rewrites all polynomials over the new bit ids. A binary Problem is what
`reformulate.compile_problem` turns into one unconstrained polynomial; the
penalty each constraint gets is read off its canonical lhs there.

Because the polynomial type is multilinear, model inputs must be multilinear
in each integer variable (degree at most 1 per variable). Cross products of
distinct variables are fine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pbf import Polynomial, VarId

INT_EPS = 1e-9


@dataclass(frozen=True)
class IntVar:
    """A bounded integer decision variable, 0 <= value <= upper."""

    id: VarId
    upper: int

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"variable id must be non-negative, got {self.id}")
        if not isinstance(self.upper, int) or self.upper < 0:
            raise ValueError(f"upper bound must be a non-negative int, got {self.upper!r}")


@dataclass(frozen=True)
class Constraint:
    """A canonical constraint: satisfied exactly when lhs(x) <= 0."""

    lhs: Polynomial

    def __post_init__(self):
        _require_integer_coeffs(self.lhs)

    def is_satisfied(self, assignment) -> bool:
        return self.lhs.evaluate(assignment) <= INT_EPS


@dataclass(frozen=True)
class Problem:
    """A polynomial integer program (minimization)."""

    variables: tuple[IntVar, ...]
    objective: Polynomial
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        ids = [v.id for v in self.variables]
        if ids != list(range(len(ids))):
            raise ValueError("variable ids must be 0..n-1 in declaration order")
        declared = set(ids)
        for poly, what in [(self.objective, "objective")] + [
            (c.lhs, f"constraint {i}") for i, c in enumerate(self.constraints)
        ]:
            undeclared = set(poly.variables()) - declared
            if undeclared:
                raise ValueError(f"{what} uses undeclared variables {sorted(undeclared)}")

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def is_binary(self) -> bool:
        return all(v.upper == 1 for v in self.variables)


def canonicalize(relation: str, lhs: Polynomial, rhs: int) -> list[Constraint]:
    """Turn one user-facing comparison into canonical lhs <= 0 constraints.

    <= and >= each produce one constraint; == produces the pair (lhs - rhs
    and rhs - lhs). Coefficients of lhs must be integers and rhs an integer.
    """
    if relation not in ("<=", ">=", "=="):
        raise ValueError(f"unknown relation {relation!r}; use <=, >= or ==")
    if not isinstance(rhs, int):
        raise ValueError(f"right-hand side must be an int, got {rhs!r}")
    _require_integer_coeffs(lhs)

    if relation == "<=":
        return [Constraint(lhs - rhs)]
    if relation == ">=":
        return [Constraint(rhs - lhs)]
    return [Constraint(lhs - rhs), Constraint(rhs - lhs)]


@dataclass(frozen=True)
class BinCodec:
    """Bookkeeping for one binarization: integer var -> weighted bits.

    spans[i] holds (var_id, ((bit_id, weight), ...)) for the i-th declared
    variable, bits least-significant first. Variables with upper bound 0 get
    an empty span and are fixed to 0.
    """

    spans: tuple[tuple[VarId, tuple[tuple[VarId, int], ...]], ...]

    @property
    def num_bits(self) -> int:
        return sum(len(bits) for _, bits in self.spans)

    def bit_ids(self, var: VarId) -> tuple[VarId, ...]:
        for vid, bits in self.spans:
            if vid == var:
                return tuple(b for b, _ in bits)
        raise ValueError(f"variable {var} not in codec")

    def decode(self, bit_assignment) -> dict[VarId, int]:
        """Map a bit assignment back to integer variable values."""
        out: dict[VarId, int] = {}
        for vid, bits in self.spans:
            total = 0
            for bit_id, weight in bits:
                total += weight * int(_lookup(bit_assignment, bit_id))
            out[vid] = total
        return out

    def encode(self, values: dict[VarId, int]) -> dict[VarId, int]:
        """Map integer variable values to a bit assignment.

        Values must be representable, which holds for any value within the
        original bounds.
        """
        out: dict[VarId, int] = {}
        for vid, bits in self.spans:
            val = values[vid]
            if val < 0:
                raise ValueError(f"variable {vid} has negative value {val}")
            rem = val
            for bit_id, weight in reversed(bits):
                if rem >= weight:
                    out[bit_id] = 1
                    rem -= weight
                else:
                    out[bit_id] = 0
            if rem != 0:
                raise ValueError(f"value {val} not representable for variable {vid}")
        return out


def binarize(problem: Problem) -> tuple[Problem, BinCodec]:
    """Rewrite a Problem over base-2 bit expansions of its variables.

    Each variable with upper bound U >= 1 becomes floor(log2 U) + 1 bits with
    weights 1, 2, 4, ...; binary variables keep a single bit. Bit ids are
    assigned contiguously from 0 in declaration order, least significant
    first. The encoding may overshoot U (the bit range can represent values
    above the bound); constraints of the original problem are what keep
    solutions in range, and penalty constructions remain sound under
    overshoot. Objective and constraints are rewritten by substitution.
    """
    spans = []
    replacement: dict[VarId, Polynomial] = {}
    next_bit = 0
    for var in problem.variables:
        if var.upper == 0:
            spans.append((var.id, ()))
            replacement[var.id] = Polynomial.zero()
            continue
        width = var.upper.bit_length()
        bits = tuple((next_bit + j, 1 << j) for j in range(width))
        next_bit += width
        spans.append((var.id, bits))
        replacement[var.id] = Polynomial.from_terms(
            ((bit_id,), weight) for bit_id, weight in bits
        )

    codec = BinCodec(tuple(spans))
    new_vars = tuple(IntVar(i, 1) for i in range(next_bit))
    new_objective = _rewrite(problem.objective, replacement)
    new_constraints = tuple(Constraint(_rewrite(c.lhs, replacement)) for c in problem.constraints)
    return Problem(new_vars, new_objective, new_constraints), codec


def _rewrite(poly: Polynomial, replacement: dict[VarId, Polynomial]) -> Polynomial:
    """Substitute every variable at once (old and new id spaces may overlap)."""
    out = Polynomial.zero()
    for mono, coeff in poly.terms.items():
        term = Polynomial.constant(coeff)
        for v in mono:
            term = term * replacement[v]
        out = out + term
    return out


def _require_integer_coeffs(poly: Polynomial) -> None:
    for mono, coeff in poly.terms.items():
        if abs(coeff - round(coeff)) > INT_EPS:
            raise ValueError(
                f"constraint coefficients must be integers; monomial {mono} has {coeff}"
            )


def _lookup(assignment, key):
    try:
        return assignment[key]
    except (KeyError, IndexError):
        raise ValueError(f"assignment missing variable {key}") from None
