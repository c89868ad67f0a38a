"""Algebra tests for the multilinear polynomial type.

The main oracle is pointwise evaluation: operations on polynomials must act
like the corresponding operations on their value tables over {0,1}^n.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puboqa.pbf import COEFF_EPS, Polynomial

MAX_VARS = 6


def poly_strategy(max_vars: int = MAX_VARS):
    mono = st.frozensets(st.integers(0, max_vars - 1), max_size=max_vars)
    term = st.tuples(mono, st.integers(-9, 9))
    return st.lists(term, max_size=8).map(
        lambda ts: Polynomial.from_terms((tuple(m), c) for m, c in ts)
    )


def all_points(n: int):
    return product((0, 1), repeat=n)


class TestConstruction:
    def test_duplicate_vars_collapse(self):
        assert Polynomial({(0, 0, 1): 2.0}) == Polynomial({(0, 1): 2.0})

    def test_key_order_is_normalized(self):
        assert Polynomial({(2, 0): 1.0}) == Polynomial({(0, 2): 1.0})

    def test_merging_terms(self):
        p = Polynomial.from_terms([((0,), 1), ((0,), 2)])
        assert p.terms == {(0,): 3.0}

    def test_tiny_coefficients_dropped(self):
        assert Polynomial({(0,): COEFF_EPS / 10}).is_zero()

    def test_negative_var_id_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(-1,): 1.0})

    def test_bool_var_id_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(True,): 1.0})

    def test_constructors(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.constant(3).constant_term == 3.0
        assert Polynomial.variable(4).terms == {(4,): 1.0}


class TestAccessors:
    def test_degree(self):
        assert Polynomial.zero().degree == 0
        assert Polynomial.constant(5).degree == 0
        assert Polynomial({(0, 3, 4): 1.0, (1,): 2.0}).degree == 3

    def test_variables_sorted(self):
        p = Polynomial({(5,): 1.0, (0, 2): -1.0})
        assert p.variables() == (0, 2, 5)

    def test_equality_with_scalar(self):
        assert Polynomial.constant(2.0) == 2.0
        assert Polynomial.zero() == 0


class TestArithmetic:
    def test_multilinear_square(self):
        x = Polynomial.variable(0)
        assert x * x == x

    def test_scalar_ops(self):
        x = Polynomial.variable(0)
        assert (2 * x + 1) - 1 == x + x
        assert -(x - 1) == 1 - x

    def test_pow(self):
        x0, x1 = Polynomial.variable(0), Polynomial.variable(1)
        assert (x0 + x1) ** 2 == x0 + x1 + 2 * x0 * x1
        assert (x0 + 1) ** 0 == 1

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            Polynomial.variable(0) ** -1

    @settings(deadline=None, max_examples=60)
    @given(poly_strategy(), poly_strategy())
    def test_add_is_pointwise(self, p, q):
        s = p + q
        for bits in all_points(MAX_VARS):
            assert s.evaluate(bits) == pytest.approx(p.evaluate(bits) + q.evaluate(bits))

    @settings(deadline=None, max_examples=60)
    @given(poly_strategy(), poly_strategy())
    def test_mul_is_pointwise(self, p, q):
        m = p * q
        for bits in all_points(MAX_VARS):
            assert m.evaluate(bits) == pytest.approx(p.evaluate(bits) * q.evaluate(bits))


class TestEvaluate:
    def test_mapping_and_sequence_agree(self):
        p = Polynomial({(0, 2): 2.0, (): -1.0})
        assert p.evaluate([1, 0, 1]) == p.evaluate({0: 1, 1: 0, 2: 1}) == 1.0

    def test_missing_variable_named(self):
        p = Polynomial({(3,): 1.0})
        with pytest.raises(ValueError, match="variable 3"):
            p.evaluate([1, 1, 1])
        with pytest.raises(ValueError, match="variable 3"):
            p.evaluate({0: 1})


class TestIntervalBounds:
    @settings(deadline=None, max_examples=60)
    @given(poly_strategy())
    def test_bounds_bracket_range(self, p):
        lo, hi = p.interval_bounds()
        values = [p.evaluate(bits) for bits in all_points(MAX_VARS)]
        assert lo <= min(values) + 1e-12
        assert hi >= max(values) - 1e-12

    def test_bounds_exact_for_linear(self):
        p = 2 * Polynomial.variable(0) - 3 * Polynomial.variable(1) + 1
        assert p.interval_bounds() == (-2.0, 3.0)


class TestSerialization:
    def test_round_trip(self):
        p = Polynomial({(0, 2): -1.5, (1,): 2.0, (): 0.25})
        assert Polynomial.from_obj(p.to_obj()) == p

    def test_term_order_graded_lexicographic(self):
        p = Polynomial({(1,): 1.0, (0, 1): 1.0, (): 1.0, (0,): 1.0})
        assert [rec["vars"] for rec in p.to_obj()] == [[], [0], [1], [0, 1]]
