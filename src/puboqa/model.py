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
class Constraint:
    """A canonical constraint: satisfied exactly when lhs(x) <= 0."""

    lhs: Polynomial

    def __post_init__(self):
        _require_integer_coeffs(self.lhs)


@dataclass(frozen=True)
class Problem:
    """A polynomial integer program (minimization).

    Variable v is the integer 0 <= x_v <= uppers[v]; polynomials refer to it
    by its position v.
    """

    uppers: tuple[int, ...]
    objective: Polynomial
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        for v, upper in enumerate(self.uppers):
            if not isinstance(upper, int) or upper < 0:
                raise ValueError(
                    f"upper bound of variable {v} must be a non-negative int, got {upper!r}"
                )
        for poly, what in [(self.objective, "objective")] + [
            (c.lhs, f"constraint {i}") for i, c in enumerate(self.constraints)
        ]:
            undeclared = [v for v in poly.variables() if v >= len(self.uppers)]
            if undeclared:
                raise ValueError(f"{what} uses undeclared variables {undeclared}")

    @property
    def num_variables(self) -> int:
        return len(self.uppers)

    def is_binary(self) -> bool:
        return all(upper == 1 for upper in self.uppers)


def canonicalize(relation: str, lhs: Polynomial, rhs: int) -> list[Constraint]:
    """Turn one user-facing comparison into canonical lhs <= 0 constraints.

    <= and >= each produce one constraint; == produces the pair (lhs - rhs
    and rhs - lhs). Coefficients of lhs must be integers (Constraint checks
    them) and rhs an integer.
    """
    if relation not in ("<=", ">=", "=="):
        raise ValueError(f"unknown relation {relation!r}; use <=, >= or ==")
    if not isinstance(rhs, int):
        raise ValueError(f"right-hand side must be an int, got {rhs!r}")

    if relation == "<=":
        return [Constraint(lhs - rhs)]
    if relation == ">=":
        return [Constraint(rhs - lhs)]
    return [Constraint(lhs - rhs), Constraint(rhs - lhs)]


@dataclass(frozen=True)
class BinCodec:
    """Bookkeeping for one binarization: integer var -> weighted bits.

    spans[v] holds ((bit_id, weight), ...) for variable v, bits
    least-significant first. Variables with upper bound 0 get an empty span
    and are fixed to 0.
    """

    spans: tuple[tuple[tuple[VarId, int], ...], ...]

    def decode(self, bit_assignment) -> dict[VarId, int]:
        """Map a bit assignment back to integer variable values."""
        out: dict[VarId, int] = {}
        for vid, bits in enumerate(self.spans):
            total = 0
            for bit_id, weight in bits:
                total += weight * int(_lookup(bit_assignment, bit_id))
            out[vid] = total
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
    next_bit = 0
    for upper in problem.uppers:
        width = upper.bit_length()
        spans.append(tuple((next_bit + j, 1 << j) for j in range(width)))
        next_bit += width
    replacement = [Polynomial.from_terms(((bit_id,), weight) for bit_id, weight in bits) for bits in spans]

    new_objective = _rewrite(problem.objective, replacement)
    new_constraints = tuple(Constraint(_rewrite(c.lhs, replacement)) for c in problem.constraints)
    return Problem((1,) * next_bit, new_objective, new_constraints), BinCodec(tuple(spans))


def _rewrite(poly: Polynomial, replacement: list[Polynomial]) -> Polynomial:
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
