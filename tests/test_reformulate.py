"""Penalty constructions: soundness oracles and worked examples."""

from __future__ import annotations

import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puboqa.extbp import EbpInstance, Train, builtin_instance, encode
from puboqa.model import Problem, binarize, canonicalize
from puboqa import reformulate
from puboqa.pbf import Polynomial, _normalize_key
from puboqa.reformulate import (
    MAX_SYMMETRIC_VARS,
    compile_problem,
    compose_unconstrained,
    eq_penalty,
    ge_penalty,
    lambda_default,
    le_penalty,
    linearization_gadget,
    penalty_for,
    product_penalty,
    reduce_to_quadratic,
    slack_penalty,
)

V = Polynomial.variable


def all_assignments(n):
    return product((0, 1), repeat=n)


class TestThresholdSoundness:
    """Each threshold penalty is exactly the 0/1 indicator of violation."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_eq_indicator(self, n):
        for c in range(n + 1):
            poly = eq_penalty(range(n), c)
            for bits in all_assignments(n):
                want = 0.0 if sum(bits) == c else 1.0
                assert poly.evaluate(bits) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_le_indicator(self, n):
        for c in range(n):
            poly = le_penalty(range(n), c)
            for bits in all_assignments(n):
                want = 0.0 if sum(bits) <= c else 1.0
                assert poly.evaluate(bits) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ge_indicator(self, n):
        for c in range(1, n + 1):
            poly = ge_penalty(range(n), c)
            for bits in all_assignments(n):
                want = 0.0 if sum(bits) >= c else 1.0
                assert poly.evaluate(bits) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n,c", [(1, 1), (2, 2), (3, 5), (4, 100)])
    def test_le_vacuous_threshold_is_zero(self, n, c):
        assert le_penalty(range(n), c).is_zero()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_ge_equals_eq_minus_le(self, n):
        for c in range(1, n + 1):
            lhs = ge_penalty(range(n), c)
            rhs = eq_penalty(range(n), c) - le_penalty(range(n), c)
            assert lhs == rhs


class TestThresholdExamples:
    def test_not_gate(self):
        assert eq_penalty([5], 0) == V(5)

    def test_eq_zero_two_vars(self):
        want = Polynomial({(0,): 1.0, (1,): 1.0, (0, 1): -1.0})
        assert eq_penalty([0, 1], 0) == want

    def test_eq_one_two_vars(self):
        want = Polynomial({(): 1.0, (0,): -1.0, (1,): -1.0, (0, 1): 2.0})
        assert eq_penalty([0, 1], 1) == want

    def test_eq_two_three_vars(self):
        want = Polynomial(
            {(): 1.0, (0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0, (0, 1, 2): 3.0}
        )
        assert eq_penalty([0, 1, 2], 2) == want

    def test_and_gate(self):
        assert le_penalty([0, 1], 1) == Polynomial({(0, 1): 1.0})

    def test_le_one_three_vars(self):
        want = Polynomial(
            {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (0, 1, 2): -2.0}
        )
        assert le_penalty([0, 1, 2], 1) == want

    def test_nor_gate(self):
        want = Polynomial({(): 1.0, (0,): -1.0, (1,): -1.0, (0, 1): 1.0})
        assert ge_penalty([0, 1], 1) == want

    def test_variable_order_is_irrelevant(self):
        assert eq_penalty([2, 0, 1], 1) == eq_penalty([0, 1, 2], 1)


class TestThresholdErrors:
    def test_eq_above_count(self):
        with pytest.raises(ValueError, match="never equal"):
            eq_penalty([0, 1], 3)

    def test_ge_above_count(self):
        with pytest.raises(ValueError, match="never reach"):
            ge_penalty([0, 1], 3)

    def test_ge_zero_is_vacuous(self):
        with pytest.raises(ValueError, match="vacuous"):
            ge_penalty([0, 1], 0)

    def test_duplicate_variables(self):
        with pytest.raises(ValueError, match="distinct"):
            le_penalty([0, 0, 1], 1)

    @pytest.mark.parametrize("penalty", [le_penalty, ge_penalty, eq_penalty])
    @pytest.mark.parametrize("ids", [[0, -1], [0, True], [1, 2.0]])
    def test_bad_variable_ids(self, penalty, ids):
        # The penalties' terms skip the Polynomial key checks, so the ids
        # are checked up front.
        with pytest.raises(ValueError, match="non-negative ints"):
            penalty(ids, 1)

    def test_negative_threshold(self):
        with pytest.raises(ValueError, match="non-negative"):
            le_penalty([0, 1], -1)

    def test_variable_cap(self):
        with pytest.raises(ValueError, match="cap"):
            eq_penalty(range(MAX_SYMMETRIC_VARS + 1), 1)


class TestProductPenalty:
    def cases(self):
        rng = random.Random(7)
        out = []
        for _ in range(40):
            n = rng.randint(1, 3)
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            if not any(coeffs):
                coeffs[0] = 1
            rhs = rng.randint(-2, 3)
            rel = rng.choice(["<=", ">="])
            out.append((coeffs, rel, rhs))
        return out

    def test_matches_shifted_product(self):
        for coeffs, rel, rhs in self.cases():
            lhs = Polynomial.from_terms(((i,), c) for i, c in enumerate(coeffs))
            (con,) = canonicalize(rel, lhs, rhs)
            ub = sum(abs(int(round(c))) for c in con.lhs.terms.values())
            poly = product_penalty(con)
            for bits in all_assignments(len(coeffs)):
                val = con.lhs.evaluate(bits)
                want = 1.0
                for j in range(ub + 1):
                    want *= val + j
                assert poly.evaluate(bits) == pytest.approx(want, abs=1e-6)

    def test_zero_iff_satisfied(self):
        for coeffs, rel, rhs in self.cases():
            lhs = Polynomial.from_terms(((i,), c) for i, c in enumerate(coeffs))
            (con,) = canonicalize(rel, lhs, rhs)
            poly = product_penalty(con)
            for bits in all_assignments(len(coeffs)):
                v = poly.evaluate(bits)
                if con.lhs.evaluate(bits) <= 0:
                    assert v == pytest.approx(0.0, abs=1e-6)
                else:
                    assert v >= 1.0 - 1e-6

    def test_nonlinear_lhs_supported(self):
        # x0*x1 - x2 <= 0 holds unless x0 = x1 = 1 and x2 = 0
        (con,) = canonicalize("<=", Polynomial({(0, 1): 1.0}) - V(2), 0)
        poly = product_penalty(con)
        for bits in all_assignments(3):
            violated = bits[0] and bits[1] and not bits[2]
            assert (poly.evaluate(bits) >= 1.0 - 1e-9) == violated

    def test_factor_cap(self):
        lhs = Polynomial.from_terms(((i,), 9) for i in range(4))
        (con,) = canonicalize("<=", lhs, 1)
        with pytest.raises(ValueError, match="cap"):
            product_penalty(con)


class TestSlackPenalty:
    def test_single_variable_example(self):
        # y0 - 1 <= 0 needs one slack bit: (y0 - 1 + s)^2
        (con,) = canonicalize("<=", V(0), 1)
        poly, ids = slack_penalty(con, 1)
        assert ids == (1,)
        want = Polynomial({(): 1.0, (0,): -1.0, (1,): -1.0, (0, 1): 2.0})
        assert poly == want

    def test_min_over_slack_is_violation_square(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 3)
            coeffs = [rng.randint(-4, 4) for _ in range(n)]
            if not any(coeffs):
                coeffs[0] = -1
            rel = rng.choice(["<=", ">="])
            rhs = rng.randint(0, 4)
            lhs = Polynomial.from_terms(((i,), c) for i, c in enumerate(coeffs))
            (con,) = canonicalize(rel, lhs, rhs)
            lo, _ = con.lhs.interval_bounds()
            if lo > 0:
                continue
            poly, ids = slack_penalty(con, first_slack_id=n)
            k = len(ids)
            for bits in all_assignments(n):
                best = min(
                    poly.evaluate(bits + sbits)
                    for sbits in all_assignments(k)
                )
                val = con.lhs.evaluate(bits)
                want = 0.0 if val <= 0 else val * val
                assert best == pytest.approx(want, abs=1e-9)

    def test_no_slack_when_min_is_zero(self):
        (con,) = canonicalize("<=", V(0) + V(1), 0)
        poly, ids = slack_penalty(con, first_slack_id=2)
        assert ids == ()
        assert poly == (con.lhs) ** 2

    def test_explicit_slack_ids(self):
        (con,) = canonicalize("<=", V(0) + V(1) + V(2), 1)
        _, ids = slack_penalty(con, first_slack_id=10)
        assert ids == (10,)

    def test_unsatisfiable_rejected(self):
        (con,) = canonicalize(">=", V(0), 5)
        with pytest.raises(ValueError, match="unsatisfiable"):
            slack_penalty(con, 1)

    def test_nonlinear_lhs_rejected(self):
        (con,) = canonicalize("<=", Polynomial({(0, 1): 1.0}), 0)
        with pytest.raises(ValueError, match="linear"):
            slack_penalty(con, 1)


class TestGadget:
    def test_truth_table(self):
        poly = linearization_gadget(0, 1, 2)
        for a, b, y in all_assignments(3):
            val = poly.evaluate((a, b, y))
            if y == a * b:
                assert val == 0.0
            elif (a, b, y) == (0, 0, 1):
                assert val == 3.0
            else:
                assert val == 1.0


class TestReduceToQuadratic:
    def random_polys(self):
        rng = random.Random(23)
        polys = []
        for _ in range(25):
            n = rng.randint(3, 4)
            terms = {}
            for _ in range(rng.randint(2, 6)):
                size = rng.randint(1, n)
                mono = tuple(sorted(rng.sample(range(n), size)))
                terms[mono] = terms.get(mono, 0) + rng.randint(-4, 4)
            p = Polynomial(terms)
            if p.degree >= 3:
                polys.append(p)
        return polys

    def brute_min(self, poly):
        vs = poly.variables()
        if not vs:
            return poly.constant_term
        width = max(vs) + 1
        return min(poly.evaluate(bits) for bits in all_assignments(width))

    def test_output_degree_at_most_two(self):
        for p in self.random_polys():
            q, _ = reduce_to_quadratic(p, lambda_default(p))
            assert q.degree <= 2

    def test_minimum_preserved(self):
        for p in self.random_polys():
            q, _ = reduce_to_quadratic(p, lambda_default(p))
            assert self.brute_min(q) == pytest.approx(self.brute_min(p), abs=1e-9)

    def test_consistent_assignments_reproduce_values(self):
        for p in self.random_polys():
            q, records = reduce_to_quadratic(p, lambda_default(p))
            n = max(p.variables()) + 1
            for bits in all_assignments(n):
                point = {i: bits[i] for i in range(n)}
                for a, b, y in records:
                    point[y] = point[a] * point[b]
                assert q.evaluate(point) == pytest.approx(p.evaluate(bits), abs=1e-9)

    def test_lexicographic_tie_break(self):
        p = Polynomial({(0, 1, 2): 1.0})
        lam = 2.0
        q, records = reduce_to_quadratic(p, lam)
        assert records == ((0, 1, 3),)
        want = Polynomial(
            {(2, 3): 1.0, (0, 1): lam, (0, 3): -2 * lam, (1, 3): -2 * lam, (3,): 3 * lam}
        )
        assert q == want

    def test_most_frequent_pair_first(self):
        p = Polynomial({(0, 1, 2): 1.0, (0, 1, 3): 1.0})
        _, records = reduce_to_quadratic(p, 2.0)
        assert records[0] == (0, 1, 4)
        assert len(records) == 1

    def test_quadratic_input_untouched(self):
        p = Polynomial({(0, 1): 2.0, (2,): -1.0})
        q, records = reduce_to_quadratic(p, 1.0)
        assert q == p and records == ()

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            reduce_to_quadratic(Polynomial({(0, 1, 2): 1.0}), 0.0)


class TestAssembly:
    def test_lambda_default_is_width_plus_one(self):
        p = Polynomial({(0,): 3.0, (1,): -2.0})
        assert lambda_default(p) == 6.0
        assert lambda_default(Polynomial.constant(5.0)) == 1.0

    def test_compose_sums_weighted_penalties(self):
        obj = V(0)
        out = compose_unconstrained(obj, [(4.0, eq_penalty([0, 1], 1))])
        assert out == obj + 4.0 * eq_penalty([0, 1], 1)

    def test_penalty_term_validation(self):
        # A weighted penalty term is refused for its weight, even on a zero polynomial.
        with pytest.raises(ValueError, match="positive"):
            compose_unconstrained(Polynomial.zero(), [(0.0, Polynomial.zero())])
        with pytest.raises(ValueError, match="finite"):
            compose_unconstrained(Polynomial.zero(), [(float("inf"), Polynomial.zero())])

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
    @pytest.mark.parametrize("entry", ["PenaltyTerm", "with_lambda", "reduce_to_quadratic",
                                       "compile_problem-pubo", "compile_problem-qubo",
                                       "encode-uni", "encode-capa", "encode-unused-uni"])
    def test_one_weight_rule(self, entry, lam):
        # Every entry point refuses the same weights with the same message;
        # encode checks both weights, even one no constraint uses. The
        # "PenaltyTerm" and "with_lambda" ids name the weighted-penalty wrapper
        # and its re-weighting call that (weight, polynomial) pairs replaced:
        # compose_unconstrained checks a lone pair's weight and a later pair's.
        prob = Problem((1, 1), Polynomial.zero(), tuple(canonicalize("<=", V(0) + V(1), 1)))
        lone = EbpInstance("lone", 1, 1, (Train(1.0, 1.0, (0,)),))
        calls = {
            "PenaltyTerm": lambda: compose_unconstrained(V(0), [(lam, le_penalty([0, 1], 1))]),
            "with_lambda": lambda: compose_unconstrained(
                V(0), [(1.0, eq_penalty([0, 1], 1)), (lam, le_penalty([0, 1], 1))]),
            "reduce_to_quadratic": lambda: reduce_to_quadratic(Polynomial({(0, 1, 2): 1.0}), lam),
            "compile_problem-pubo": lambda: compile_problem(prob, "pubo", [lam]),
            "compile_problem-qubo": lambda: compile_problem(prob, "qubo", [lam]),
            "encode-uni": lambda: encode(builtin_instance("A"), "pubo", lam, None),
            "encode-capa": lambda: encode(builtin_instance("A"), "qubo", None, lam),
            "encode-unused-uni": lambda: encode(lone, "pubo", lam, 1.0),
        }
        with pytest.raises(ValueError, match="positive and finite"):
            calls[entry]()


class TestPenaltyRouting:
    def test_unit_le_uses_threshold(self):
        (con,) = canonicalize("<=", V(0) + V(1), 1)
        assert penalty_for(con) == le_penalty([0, 1], 1)

    def test_unit_ge_uses_threshold(self):
        (con,) = canonicalize(">=", V(0) + V(1) + V(2), 2)
        assert penalty_for(con) == ge_penalty([0, 1, 2], 2)

    def test_vacuous_ge_gives_zero(self):
        (con,) = canonicalize(">=", V(0) + V(1), 0)
        assert penalty_for(con).is_zero()

    def test_vacuous_le_gives_zero(self):
        (con,) = canonicalize("<=", V(0) + V(1), 7)
        assert penalty_for(con).is_zero()

    def test_negative_le_bound_rejected(self):
        (con,) = canonicalize("<=", V(0) + V(1), -1)
        with pytest.raises(ValueError, match="unsatisfiable"):
            penalty_for(con)

    def test_weighted_sum_uses_product(self):
        (con,) = canonicalize("<=", 2 * V(0) + V(1), 2)
        assert penalty_for(con) == product_penalty(con)

    def test_equality_children_sum_to_eq(self):
        cs = canonicalize("==", V(0) + V(1) + V(2), 1)
        total = Polynomial.zero()
        for con in cs:
            total = total + penalty_for(con)
        assert total == eq_penalty([0, 1, 2], 1)

    def test_plain_sum(self):
        (con,) = canonicalize("<=", V(0) + V(1) + V(2), 2)
        assert penalty_for(con) == le_penalty([0, 1, 2], 2)

    def test_constant_folds_into_bound(self):
        (con,) = canonicalize("<=", V(0) + V(1) + 1, 2)
        assert penalty_for(con) == le_penalty([0, 1], 1)

    def test_ge_direction(self):
        (con,) = canonicalize(">=", V(0) + V(1), 1)
        assert penalty_for(con) == ge_penalty([0, 1], 1)

    def test_quadratic_uses_product(self):
        (con,) = canonicalize("<=", Polynomial({(0, 1): 1.0}), 1)
        assert penalty_for(con) == product_penalty(con)

    @pytest.mark.parametrize("b", [0, 1])
    def test_gated_sum_splits_on_the_gate(self, b):
        # y1 + y2 + y3 <= b + 2*x0, with the gate's id below the sum's
        (con,) = canonicalize("<=", V(1) + V(2) + V(3) - 2 * V(0), b)
        x = V(0)
        want = (1 - x) * le_penalty([1, 2, 3], b) + x * le_penalty([1, 2, 3], b + 2)
        assert penalty_for(con) == want

    def test_gated_sum_without_members_is_zero(self):
        # A gate with nothing behind it: -3*x <= 0 always holds.
        (con,) = canonicalize("<=", -3 * V(0), 0)
        assert penalty_for(con).is_zero()

    @pytest.mark.parametrize(
        "lhs,rhs",
        [
            (V(1) + V(2) + 2 * V(0), 1),  # positive gate coefficient
            (V(1) + V(2) - 2 * V(0) - 2 * V(3), 0),  # two non-unit variables
            (V(1) + V(2) - 2 * V(0), -1),  # b < 0
            (V(1) + 2 * V(2) - 2 * V(0), 0),  # a weighted member
        ],
    )
    def test_near_miss_gated_shapes_use_product(self, lhs, rhs):
        (con,) = canonicalize("<=", lhs, rhs)
        assert penalty_for(con) == product_penalty(con)


class TestGatedSoundness:
    """sum(Y) - c*x - b <= 0 gets a penalty that is the 0/1 indicator of violation."""

    @pytest.mark.parametrize("size", range(7))
    def test_exhaustive(self, size):
        gate = size // 2
        ys = [v for v in range(size + 1) if v != gate]
        for c in range(1, 5):
            for b in range(3):
                lhs = Polynomial.from_terms([((v,), 1) for v in ys] + [((gate,), -c)])
                (con,) = canonicalize("<=", lhs, b)
                poly = penalty_for(con)
                for bits in all_assignments(size + 1):
                    want = 0.0 if con.lhs.evaluate(bits) <= 0 else 1.0
                    assert poly.evaluate(bits) == want, (size, c, b, bits)


def old_check_threshold_args(vars, c):
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


def old_elementary_symmetric(vars):
    e = [{(): 1.0}]
    for v in sorted(vars):
        e.append({})
        for k in range(len(e) - 1, 0, -1):
            grown = e[k]
            for mono in e[k - 1]:
                grown[mono + (v,)] = 1.0
    return e


def old_combine(e, weights):
    acc = {}
    for k, w in weights.items():
        if w == 0.0:
            continue
        for mono in e[k]:
            acc[mono] = acc.get(mono, 0.0) + w
    return Polynomial._from_normalized(acc)


def old_eq_penalty(vars, c):
    n = old_check_threshold_args(vars, c)
    if c > n:
        raise ValueError(f"sum of {n} binary variables can never equal {c}")
    e = old_elementary_symmetric(vars)
    if c == 0:
        return old_combine(e, {k: float((-1) ** (k + 1)) for k in range(1, n + 1)})
    weights = {k: float((-1) ** (k - c + 1) * math.comb(k, c)) for k in range(c, n + 1)}
    return Polynomial.constant(1.0) + old_combine(e, weights)


def old_le_penalty(vars, c):
    n = old_check_threshold_args(vars, c)
    if c >= n:
        return Polynomial.zero()
    e = old_elementary_symmetric(vars)
    weights = {k: float((-1) ** (k - c + 1) * math.comb(k - 1, c)) for k in range(c + 1, n + 1)}
    return old_combine(e, weights)


def old_ge_penalty(vars, c):
    n = old_check_threshold_args(vars, c)
    if c == 0:
        raise ValueError("at-least-0 is vacuous; use the zero polynomial")
    if c > n:
        raise ValueError(f"sum of {n} binary variables can never reach {c}")
    e = old_elementary_symmetric(vars)
    weights = {k: float((-1) ** (k - c + 1) * math.comb(k - 1, c - 1)) for k in range(c, n + 1)}
    return Polynomial.constant(1.0) + old_combine(e, weights)


def old_gated_le_penalty(ys, gate, b, g):
    closed = old_le_penalty(ys, b).terms
    acc = dict(closed)
    for mono, coeff in closed.items():
        acc[mono + (gate,)] = -coeff
    for mono, coeff in old_le_penalty(ys, b + g).terms.items():
        key = mono + (gate,)
        acc[key] = acc.get(key, 0.0) + coeff
    return Polynomial(acc)


def bits_or_refusal(build, *args):
    """Every term as (monomial, float64 bits) in dict order, or the refusal."""
    try:
        poly = build(*args)
    except ValueError as exc:
        return str(exc)
    return [(mono, coeff.hex()) for mono, coeff in poly.terms.items()]


class TestAgainstTheTermByTermOracle:
    """The weight-table penalties equal the former term-by-term expansion bit
    for bit and in dict order, and refuse the same inputs."""

    @settings(max_examples=120, deadline=None)
    @given(ids=st.lists(st.integers(0, 24), max_size=8, unique=True), gate=st.integers(0, 25))
    @example(ids=[3, 1, 3], gate=0)  # repeated variable
    @example(ids=list(range(1, MAX_SYMMETRIC_VARS + 2)), gate=0)  # over the cap
    def test_thresholds_and_gated_sums(self, ids, gate):
        n = len(ids)
        for c in range(-1, n + 3):
            for new, old in ((eq_penalty, old_eq_penalty), (le_penalty, old_le_penalty),
                             (ge_penalty, old_ge_penalty)):
                assert bits_or_refusal(new, ids, c) == bits_or_refusal(old, ids, c), (new, c)
        if gate in ids or len(set(ids)) < n:
            return
        # The gate's id falls below, among or above the sum's ids.
        for b in range(n + 2):
            for g in range(1, 4):
                lhs = Polynomial.from_terms([((v,), 1) for v in ids] + [((gate,), -g)])
                (con,) = canonicalize("<=", lhs, b)
                got = bits_or_refusal(penalty_for, con)
                assert got == bits_or_refusal(old_gated_le_penalty, sorted(ids), gate, b, g), (b, g)


class TestCompileProblem:
    def problem(self):
        cons = canonicalize("<=", V(0) + V(1) + V(2), 1) + canonicalize("<=", V(0) + V(1) - 2 * V(3), 0)
        obj = Polynomial.from_terms(((i,), -1) for i in range(4))
        return Problem((1,) * 4, obj, tuple(cons))

    def test_pubo_route_composes_penalty_for(self):
        prob = self.problem()
        poly, slack = compile_problem(prob, "pubo", [2.0, 3.5])
        pens = [(w, penalty_for(c)) for c, w in zip(prob.constraints, [2.0, 3.5])]
        assert poly == compose_unconstrained(prob.objective, pens)
        assert slack == ((), ())

    def test_qubo_route_counts_slack_ids_up(self):
        prob = self.problem()
        poly, slack = compile_problem(prob, "qubo", [2.0, 3.5])
        first, first_ids = slack_penalty(prob.constraints[0], first_slack_id=4)
        second, second_ids = slack_penalty(prob.constraints[1], first_slack_id=5)
        assert slack == ((4,), (5, 6))
        assert (first_ids, second_ids) == slack
        want = compose_unconstrained(prob.objective, [(2.0, first), (3.5, second)])
        assert poly == want
        assert poly.degree <= 2

    def test_refuses_integer_problems(self):
        prob = Problem((3,), V(0), tuple(canonicalize("<=", V(0), 2)))
        with pytest.raises(ValueError, match="binarize"):
            compile_problem(prob, "pubo", [1.0])

    @pytest.mark.parametrize(
        "route,weights,msg",
        [
            ("pubo", [1.0], "shorter"),  # one weight per constraint
            ("qubo", [1.0, 0.0], "positive"),
            ("pubo", [-1.0, 1.0], "positive"),
            ("ising", [1.0, 1.0], "formulation"),
            ("qubo", [1.0, float("inf")], "finite"),
            ("pubo", [float("nan"), 1.0], "finite"),
        ],
    )
    def test_bad_arguments(self, route, weights, msg):
        with pytest.raises(ValueError, match=msg):
            compile_problem(self.problem(), route, weights)

    @staticmethod
    def gated_trains(count, groups):
        """count trains x_t, each gating sum(y) <= x_t over its own groups y."""
        cons = []
        for t in range(count):
            ys = range(count + t * groups, count + (t + 1) * groups)
            lhs = Polynomial.from_terms([((v,), 1.0) for v in ys] + [((t,), -1.0)])
            cons += canonicalize("<=", lhs, 0)
        width = count * (groups + 1)
        return Problem((1,) * width, Polynomial.zero(), tuple(cons))

    def test_term_budget_spans_the_whole_encode(self, monkeypatch):
        # A gated penalty at the cap writes 2^21 - 2 terms: one fits the
        # budget and two do not. Nothing is expanded to find that out.
        monkeypatch.setattr(reformulate, "le_penalty",
                            lambda vars, c: Polynomial.zero())
        compile_problem(self.gated_trains(1, MAX_SYMMETRIC_VARS), "pubo", [1.0])
        two = self.gated_trains(2, MAX_SYMMETRIC_VARS)
        with pytest.raises(ValueError, match=rf"{2 * (2 ** 21 - 2)} terms.*2\^21"):
            compile_problem(two, "pubo", [1.0, 1.0])
        # Slack penalties are quadratic and take no part in the budget.
        compile_problem(two, "qubo", [1.0, 1.0])

    @pytest.mark.parametrize("n", range(0, 6))
    @pytest.mark.parametrize("b", range(0, 7))
    def test_term_count_bounds_each_threshold(self, n, b):
        # Exact for plain thresholds; for gated ones some terms may cancel.
        ys = [((v,), 1.0) for v in range(1, n + 1)]
        shapes = [
            (canonicalize("<=", Polynomial.from_terms(ys), b), True),
            (canonicalize(">=", Polynomial.from_terms(ys), b) if 1 <= b <= n else [], True),
            (canonicalize("<=", Polynomial.from_terms(ys + [((0,), -1.0)]), b), False),
        ]
        for cons, exact in shapes:
            for c in cons:
                written = len(penalty_for(c).terms)
                counted = reformulate._read(c).terms
                assert counted == written if exact else written <= counted <= 2 * written + 2

    def test_compose_keeps_the_addition_order(self):
        # Each monomial is summed as acc[m] + lam * c in penalty order:
        # (0.1 + 0.7) + 0.3 is 1.0999999999999999, any other order gives 1.1.
        obj = Polynomial({(0,): 0.1})
        pens = [
            (1.0, Polynomial({(0,): 0.7})),
            (1.0, Polynomial({(0,): 0.3, (1,): 1.0})),
        ]
        out = compose_unconstrained(obj, pens)
        assert out.terms == {(0,): (0.1 + 0.7) + 0.3, (1,): 1.0}
        assert out.terms[(0,)] != 0.1 + (0.7 + 0.3)


class TestEndToEndEquivalence:
    """Composing default-weight penalties preserves the feasible minimizers."""

    def test_random_binary_programs(self):
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 4)
            obj = Polynomial.from_terms(
                ((i,), rng.randint(-3, 3)) for i in range(n)
            )
            cons = []
            for _ in range(rng.randint(1, 2)):
                weighted = rng.random() < 0.4
                coeffs = [
                    (rng.randint(1, 2) if weighted else 1) for _ in range(n)
                ]
                rel = rng.choice(["<=", ">="])
                rhs = rng.randint(0 if rel == "<=" else 1, n)
                lhs = Polynomial.from_terms(((i,), c) for i, c in enumerate(coeffs))
                cons.extend(canonicalize(rel, lhs, rhs))
            prob = Problem(
                (1,) * n, obj, tuple(cons)
            )
            feasible = [
                bits
                for bits in all_assignments(n)
                if all(c.lhs.evaluate(bits) <= 0 for c in prob.constraints)
            ]
            if not feasible:
                continue
            checked += 1
            lam = lambda_default(obj)
            try:
                pens = [(lam, penalty_for(c)) for c in prob.constraints]
            except ValueError:
                continue
            merged = compose_unconstrained(obj, pens)
            best_feasible = min(obj.evaluate(b) for b in feasible)
            vals = {bits: merged.evaluate(bits) for bits in all_assignments(n)}
            assert min(vals.values()) == pytest.approx(best_feasible, abs=1e-9)
            winners = {
                b for b, v in vals.items() if v <= best_feasible + 1e-9
            }
            want = {
                b for b in feasible if obj.evaluate(b) <= best_feasible + 1e-9
            }
            assert winners == want

    @staticmethod
    def random_program(rng):
        n = rng.randint(2, 4)
        obj = Polynomial.from_terms(((i,), rng.randint(-3, 3)) for i in range(n))
        cons = []
        for _ in range(rng.randint(1, 2)):
            shape = rng.choice(["unit", "weighted", "gated"])
            if shape == "gated":
                gate = rng.randrange(n)
                coeffs = [-rng.randint(1, 2) if i == gate else 1 for i in range(n)]
                rel, rhs = "<=", rng.randint(0, 1)
            else:
                coeffs = [rng.randint(1, 2) if shape == "weighted" else 1 for _ in range(n)]
                rel = rng.choice(["<=", ">="])
                rhs = rng.randint(0 if rel == "<=" else 1, n)
            lhs = Polynomial.from_terms(((i,), c) for i, c in enumerate(coeffs))
            cons.extend(canonicalize(rel, lhs, rhs))
        return Problem((1,) * n, obj, tuple(cons))

    @staticmethod
    def minimizers(poly, n, width):
        """Projections onto the first n bits of every minimizer over width bits."""
        vals = {bits: poly.evaluate(bits) for bits in all_assignments(width)}
        low = min(vals.values())
        return low, {b[:n] for b, v in vals.items() if v <= low + 1e-9}

    @pytest.mark.parametrize("route", ["pubo", "qubo"])
    def test_compile_problem_preserves_minimizers(self, route):
        rng = random.Random(47)
        checked = 0
        while checked < 20:
            prob = self.random_program(rng)
            n = prob.num_variables
            feasible = [
                bits for bits in all_assignments(n)
                if all(c.lhs.evaluate(bits) <= 0 for c in prob.constraints)
            ]
            if not feasible:
                continue
            checked += 1
            lam = lambda_default(prob.objective)
            poly, slack = compile_problem(prob, route, [lam] * len(prob.constraints))
            width = n + sum(len(ids) for ids in slack)
            best = min(prob.objective.evaluate(b) for b in feasible)
            low, winners = self.minimizers(poly, n, width)
            assert low == pytest.approx(best, abs=1e-9)
            assert winners == {b for b in feasible if prob.objective.evaluate(b) <= best + 1e-9}

    @pytest.mark.parametrize("route", ["pubo", "qubo"])
    def test_integer_program_through_binarize(self, route):
        # u in [0, 3], v in [0, 2]: maximize 2u + 3v subject to u + v <= 3, u >= 1.
        u, v = V(0), V(1)
        cons = (
            canonicalize("<=", u + v, 3)
            + canonicalize(">=", u, 1)
            + canonicalize("<=", v, 2)
        )
        prob = Problem((3, 2), -2 * u - 3 * v, tuple(cons))
        binary, codec = binarize(prob)
        lam = lambda_default(binary.objective)
        poly, slack = compile_problem(binary, route, [lam] * len(binary.constraints))
        n = binary.num_variables
        _, winners = self.minimizers(poly, n, n + sum(len(ids) for ids in slack))
        assert {tuple(codec.decode(bits).values()) for bits in winners} == {(1, 2)}
