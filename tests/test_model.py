"""Canonicalization and binarization."""

from __future__ import annotations

from itertools import product

import pytest

from puboqa.model import BinCodec, Constraint, Problem, binarize, canonicalize
from puboqa.pbf import Polynomial
from puboqa.reformulate import le_penalty, penalty_for, product_penalty


def lin(*coeffs, const=0.0):
    terms = [((i,), c) for i, c in enumerate(coeffs) if c]
    if const:
        terms.append(((), const))
    return Polynomial.from_terms(terms)


class TestCanonicalize:
    def test_le_moves_bound(self):
        (c,) = canonicalize("<=", lin(1, 1), 1)
        assert c.lhs == lin(1, 1, const=-1)

    def test_ge_flips_sign(self):
        (c,) = canonicalize(">=", lin(1, 1), 1)
        assert c.lhs == lin(-1, -1, const=1)

    def test_eq_gives_both_sides(self):
        cs = canonicalize("==", lin(1, 1), 1)
        assert len(cs) == 2
        # satisfied exactly on assignments where the sum equals 1
        for bits in product((0, 1), repeat=2):
            want = sum(bits) == 1
            assert all(c.lhs.evaluate(bits) <= 0 for c in cs) == want

    @pytest.mark.parametrize("rel", ["<=", ">=", "=="])
    def test_relation_spellings(self, rel):
        assert canonicalize(rel, lin(1), 0)

    def test_only_the_three_operators(self):
        for rel in ("le", "ge", "eq", "="):
            with pytest.raises(ValueError, match="use <=, >= or =="):
                canonicalize(rel, lin(1), 0)

    def test_unknown_relation(self):
        with pytest.raises(ValueError, match="relation"):
            canonicalize("<", lin(1), 0)

    def test_non_integer_rhs(self):
        with pytest.raises(ValueError):
            canonicalize("<=", lin(1), 1.5)

    def test_non_integer_coefficients(self):
        with pytest.raises(ValueError, match="integer"):
            canonicalize("<=", lin(0.5), 1)


class TestUnitSumTag:
    def test_weighted_sum_is_not_unit(self):
        # 2*x0 + x1 <= 2 keeps its weights, so it is not read as a unit sum:
        # it gets the product penalty, zero exactly on the feasible points.
        (c,) = canonicalize("<=", lin(2, 1), 2)
        assert c.lhs == lin(2, 1, const=-2)
        poly = penalty_for(c)
        assert poly == product_penalty(c)
        for bits in product((0, 1), repeat=2):
            assert (poly.evaluate(bits) == 0) == (c.lhs.evaluate(bits) <= 0)


class TestProblem:
    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            Problem((1,), Polynomial.variable(3))

    def test_is_binary(self):
        p = Problem((1, 2), Polynomial.zero())
        assert not p.is_binary()

    @pytest.mark.parametrize("upper", [-1, 1.5])
    def test_upper_bounds_are_non_negative_ints(self, upper):
        with pytest.raises(ValueError, match="non-negative int"):
            Problem((1, upper), Polynomial.zero())


class TestBinarize:
    def test_bit_widths(self):
        prob = Problem((1, 2, 3, 4), Polynomial.zero())
        binary, codec = binarize(prob)
        assert [len(bits) for bits in codec.spans] == [1, 2, 2, 3]
        assert binary.num_variables == 8

    def test_weights_lsb_first(self):
        prob = Problem((5,), Polynomial.variable(0))
        binary, codec = binarize(prob)
        assert codec.spans == (((0, 1), (1, 2), (2, 4)),)
        assert binary.objective == Polynomial.from_terms([((0,), 1), ((1,), 2), ((2,), 4)])

    def test_linear_example(self):
        # objective 3x with x in [0, 2] becomes 3 b0 + 6 b1
        prob = Problem((2,), 3 * Polynomial.variable(0))
        binary, _ = binarize(prob)
        assert binary.objective == Polynomial.from_terms([((0,), 3), ((1,), 6)])
        assert all(upper == 1 for upper in binary.uppers)

    def test_values_preserved_through_encoding(self):
        uppers = [2, 3]
        obj = Polynomial({(0,): 2.0, (1,): -1.0, (0, 1): 1.0, (): 0.5})
        prob = Problem(tuple(uppers), obj)
        binary, codec = binarize(prob)
        for v0 in range(uppers[0] + 1):
            for v1 in range(uppers[1] + 1):
                bits = {bit: (v >> j) & 1 for v, span in zip((v0, v1), codec.spans)
                        for j, (bit, _) in enumerate(span)}
                assert binary.objective.evaluate(bits) == pytest.approx(
                    obj.evaluate([v0, v1])
                )
                assert codec.decode(bits) == {0: v0, 1: v1}

    def test_zero_upper_fixes_variable(self):
        prob = Problem((0, 1), Polynomial.variable(0) + Polynomial.variable(1))
        binary, codec = binarize(prob)
        assert binary.num_variables == 1
        assert binary.objective == Polynomial.variable(0)
        assert codec.decode({0: 1}) == {0: 0, 1: 1}

    def test_constraint_tags_recomputed(self):
        # The penalty is read off the rewritten lhs: binary uniqueness keeps
        # its threshold penalty, an integer bound becomes a weighted sum.
        prob = Problem(
            (1, 1, 3),
            Polynomial.zero(),
            tuple(
                canonicalize("<=", Polynomial.variable(0) + Polynomial.variable(1), 1)
                + canonicalize("<=", Polynomial.variable(2), 2)
            ),
        )
        binary, _ = binarize(prob)
        uni, cap = binary.constraints
        assert cap.lhs == Polynomial.from_terms([((2,), 1), ((3,), 2), ((), -2)])
        assert penalty_for(uni) == le_penalty([0, 1], 1)
        assert penalty_for(cap) == product_penalty(cap)

    def test_codec_missing_variable(self):
        codec = BinCodec((((0, 1),),))
        with pytest.raises(ValueError, match="missing"):
            codec.decode({})


class TestConstraint:
    def test_integer_coefficients_enforced(self):
        with pytest.raises(ValueError):
            Constraint(lin(1.2))
