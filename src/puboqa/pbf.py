"""Multilinear pseudo-Boolean polynomials over binary variables.

A polynomial is stored as a mapping from monomials to real coefficients,
where a monomial is a strictly sorted tuple of variable ids and the empty
tuple is the constant term. Multilinearity (x * x = x for binary x) is
enforced at construction, so products never grow per-variable degree.

Values are immutable: every operation returns a new Polynomial. Coefficients
with magnitude below COEFF_EPS are dropped during normalization.

OPTIMUM_TOL is the one tolerance within which two objective values count as
the same optimum, wherever optima are found or compared.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Iterable, Union

VarId = int
Monomial = tuple[VarId, ...]

COEFF_EPS = 1e-12
OPTIMUM_TOL = 1e-9

_Number = Union[int, float]


def _normalize_key(key: Iterable[VarId]) -> Monomial:
    vs = sorted(set(key))
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"variable ids must be non-negative ints, got {v!r}")
    return tuple(vs)


class Polynomial:
    """An immutable multilinear polynomial in binary variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Iterable[VarId], _Number] | None = None):
        self._terms = Polynomial.from_terms(terms.items())._terms if terms else {}

    @classmethod
    def _from_normalized(cls, terms: dict[Monomial, float]) -> Polynomial:
        """The polynomial of terms whose keys are already monomials (strictly
        sorted tuples of valid ids) and whose coefficients are floats.

        Only coefficients below COEFF_EPS are dropped; nothing is re-sorted
        or checked. For arithmetic on polynomials, whose keys are monomials
        by construction.
        """
        poly = cls.__new__(cls)
        poly._terms = {m: c for m, c in terms.items() if abs(c) >= COEFF_EPS}
        return poly

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def constant(cls, c: _Number) -> Polynomial:
        return cls({(): c})

    @classmethod
    def variable(cls, v: VarId) -> Polynomial:
        return cls({(v,): 1.0})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Iterable[VarId], _Number]]) -> Polynomial:
        acc: dict[Monomial, float] = {}
        for key, coeff in terms:
            mono = _normalize_key(key)
            acc[mono] = acc.get(mono, 0.0) + float(coeff)
        return cls._from_normalized(acc)

    @property
    def terms(self) -> dict[Monomial, float]:
        """Monomial -> coefficient mapping. Treat as read-only."""
        return self._terms

    @property
    def constant_term(self) -> float:
        return self._terms.get((), 0.0)

    @property
    def degree(self) -> int:
        """Largest monomial size; 0 for constants and the zero polynomial."""
        return max((len(m) for m in self._terms), default=0)

    def variables(self) -> tuple[VarId, ...]:
        """Sorted ids of all variables that appear with nonzero coefficient."""
        seen: set[VarId] = set()
        for m in self._terms:
            seen.update(m)
        return tuple(sorted(seen))

    def is_zero(self) -> bool:
        return not self._terms

    # arithmetic -----------------------------------------------------------

    def __add__(self, other: Polynomial | _Number) -> Polynomial:
        other = _as_poly(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0.0) + c
        return Polynomial._from_normalized(acc)

    __radd__ = __add__

    def __sub__(self, other: Polynomial | _Number) -> Polynomial:
        return self + (-_as_poly(other))

    def __rsub__(self, other: Polynomial | _Number) -> Polynomial:
        return _as_poly(other) + (-self)

    def __neg__(self) -> Polynomial:
        return Polynomial._from_normalized({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: Polynomial | _Number) -> Polynomial:
        if isinstance(other, (int, float)):
            other = float(other)
            return Polynomial._from_normalized({m: c * other for m, c in self._terms.items()})
        acc: dict[Monomial, float] = {}
        for m1, c1 in self._terms.items():
            s1 = set(m1)
            for m2, c2 in other._terms.items():
                key = tuple(sorted(s1 | set(m2)))
                acc[key] = acc.get(key, 0.0) + c1 * c2
        return Polynomial._from_normalized(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = Polynomial.constant(1.0)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "Polynomial(0)"
        parts = []
        for m, c in sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            mono = "*".join(f"x{v}" for v in m) if m else "1"
            parts.append(f"{c:g}*{mono}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # evaluation and analysis ----------------------------------------------

    def evaluate(self, assignment: Mapping[VarId, _Number] | Sequence[_Number]) -> float:
        """Evaluate at a binary assignment.

        The assignment is either a mapping from variable id to value or a
        sequence indexed by variable id. Every variable appearing in the
        polynomial must be covered; a missing variable raises ValueError
        naming the offending id.
        """
        getter = _assignment_getter(assignment)
        total = 0.0
        for m, c in self._terms.items():
            prod = c
            for v in m:
                val = getter(v)
                if val == 0:
                    prod = 0.0
                    break
                prod *= val
            total += prod
        return total

    def interval_bounds(self) -> tuple[float, float]:
        """Cheap enclosure of the range over all binary assignments.

        Returns (lo, hi) with lo = constant + sum of negative coefficients and
        hi = constant + sum of positive coefficients. The true min and max
        always lie inside [lo, hi]; the enclosure is exact for constants.
        """
        lo = hi = self.constant_term
        for m, c in self._terms.items():
            if not m:
                continue
            if c < 0:
                lo += c
            else:
                hi += c
        return lo, hi

    # serialization ---------------------------------------------------------

    def to_obj(self) -> list[dict]:
        """JSON-ready term list, sorted by (degree, variable ids)."""
        out = []
        for m, c in sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            out.append({"vars": list(m), "coeff": c})
        return out

    @classmethod
    def from_obj(cls, obj: Iterable[Mapping]) -> Polynomial:
        return cls.from_terms((rec["vars"], rec["coeff"]) for rec in obj)


def _as_poly(value: Polynomial | _Number) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float)):
        return Polynomial.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def _assignment_getter(assignment):
    if isinstance(assignment, Mapping):
        def get(v):
            try:
                return assignment[v]
            except KeyError:
                raise ValueError(f"assignment missing variable {v}") from None
        return get
    if isinstance(assignment, Sequence):
        def get(v):
            if v >= len(assignment):
                raise ValueError(f"assignment missing variable {v}")
            return assignment[v]
        return get
    raise TypeError("assignment must be a mapping or a sequence")
