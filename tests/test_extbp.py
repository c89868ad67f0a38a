"""Bin packing instances, oracles, and both binary encodings."""

from __future__ import annotations

import time
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puboqa import extbp

from puboqa.extbp import (
    Classification,
    EbpAssignment,
    EbpInstance,
    Train,
    brute_force,
    builtin_instance,
    classify,
    declare,
    default_lambda,
    encode,
    is_feasible,
    objective_polynomial,
    objective_value,
)
from puboqa.model import canonicalize
from puboqa.pbf import Polynomial
from puboqa.reformulate import eq_penalty, le_penalty, slack_penalty


def bits_of(z, width):
    return tuple((z >> k) & 1 for k in range(width))


def exhaustive_optimum(inst):
    """Minimum and sorted optimal set by is_feasible/objective_value on every pattern."""
    n, q = inst.num_trains, inst.num_y
    seen = []
    for z in range(1 << (n + q)):
        a = EbpAssignment(bits_of(z, n), bits_of(z >> n, q))
        if is_feasible(inst, a):
            seen.append((objective_value(inst, a), a))
    best = min(v for v, _ in seen)
    return best, tuple(a for v, a in seen if v - best <= 1e-9)


@st.composite
def small_instances(draw, max_bits=12):
    """Random instances of at most max_bits assignment bits."""
    num_groups = draw(st.integers(1, 6))
    num_trains = draw(st.integers(1, 4))
    money = st.one_of(st.integers(0, 8).map(lambda v: v / 2), st.floats(0, 10))
    budget = max_bits - num_trains
    trains = []
    for _ in range(num_trains):
        groups = draw(st.sets(st.integers(0, num_groups - 1), max_size=min(num_groups, budget)))
        budget -= len(groups)
        trains.append(Train(draw(money), draw(money), tuple(sorted(groups))))
    cmax = draw(st.sampled_from([1, 2, 3, 10**6]))
    return EbpInstance("drawn", num_groups, cmax, tuple(trains))


# Arbitrary JSON values, with integers past float range and around 2^53.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers() | st.integers(2**53 - 2, 2**53 + 2)
    | st.sampled_from([10**400, -(10**400), 2**1024, -(2**1024)]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def instance_objects(draw):
    """Objects shaped like an instance, each field plausible or arbitrary JSON."""

    def field(plausible):
        return draw(st.one_of(plausible, JSON_VALUES))

    money = st.one_of(st.integers(0, 5), st.floats(0, 5))
    trains = [
        {"cost": field(money), "benefit": field(money),
         "groups": field(st.lists(st.integers(0, 8), max_size=3, unique=True).map(sorted))}
        for _ in range(draw(st.integers(0, 3)))
    ]
    obj = {
        "name": field(st.text(max_size=4)),
        "num_groups": field(st.one_of(st.integers(0, 9), st.just(10**400))),
        "cmax": field(st.integers(1, 3)),
        "trains": [field(st.just(t)) for t in trains],
    }
    for key in draw(st.sets(st.sampled_from(sorted(obj)), max_size=1)):
        del obj[key]
    return obj


class TestInstances:
    def test_builtin_shapes(self):
        a, b, c = (builtin_instance(k) for k in "ABC")
        assert (a.num_trains, a.num_groups, a.num_y, a.cmax) == (3, 2, 4, 2)
        assert (b.num_trains, b.num_groups, b.num_y, b.cmax) == (3, 4, 6, 2)
        assert (c.num_trains, c.num_groups, c.num_y, c.cmax) == (3, 5, 8, 2)
        for inst in (a, b, c):
            assert all(t.cost == 1.0 and t.benefit == 1.0 for t in inst.trains)

    def test_y_pairs_train_major(self):
        a = builtin_instance("A")
        assert a.y_pairs == ((0, 0), (1, 1), (2, 0), (2, 1))

    def test_eligible_trains(self):
        a = builtin_instance("A")
        assert a.eligible_trains(0) == (0, 2)
        assert a.eligible_trains(1) == (1, 2)

    def test_builtin_name_is_case_insensitive(self):
        assert builtin_instance(" b ").name == "B"

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_instance("D")

    def test_json_round_trip(self):
        c = builtin_instance("C")
        assert EbpInstance.from_obj(c.to_obj()) == c

    def test_malformed_object(self):
        with pytest.raises(ValueError, match="malformed"):
            EbpInstance.from_obj({"name": "X"})

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(cmax=0), "cmax"),
            (dict(trains=(Train(-1.0, 1.0, (0,)),)), "negative"),
            (dict(trains=(Train(1.0, 1.0, (1, 0)),)), "increasing"),
            (dict(trains=(Train(1.0, 1.0, (5,)),)), "out of range"),
        ],
    )
    def test_validation(self, kwargs, msg):
        base = dict(name="X", num_groups=2, cmax=2, trains=(Train(1.0, 1.0, (0,)),))
        base.update(kwargs)
        with pytest.raises(ValueError, match=msg):
            EbpInstance(**base)

    @pytest.mark.parametrize(
        "field,value,msg",
        [
            ("cost", float("nan"), "non-finite"),
            ("cost", float("inf"), "non-finite"),
            ("benefit", float("nan"), "non-finite"),
            ("benefit", float("-inf"), "non-finite"),
            ("cost", True, "number"),
            ("cost", "1", "number"),
            ("cmax", 2.7, "cmax must be an integer"),
            ("cmax", True, "cmax must be an integer"),
            ("num_groups", 2.5, "num_groups must be an integer"),
            ("num_groups", False, "num_groups must be an integer"),
            ("group", 0.9, "group id must be an integer"),
            ("group", True, "group id must be an integer"),
            pytest.param("cost", 10**400, "cost is too large", id="cost-huge-int"),
            pytest.param("benefit", -(10**400), "benefit is too large", id="benefit-huge-int"),
            pytest.param("cmax", 10**400, "2\\^53", id="cmax-huge-int"),
            pytest.param("cmax", 2**53 + 1, "2\\^53", id="cmax-above-2^53"),
            pytest.param("cmax", 1e300, "2\\^53", id="cmax-huge-float"),
            pytest.param("name", 5, "name must be a string", id="name-int"),
            pytest.param("name", None, "name must be a string", id="name-null"),
            pytest.param("name", True, "name must be a string", id="name-bool"),
            pytest.param("name", ["A"], "name must be a string", id="name-list"),
            pytest.param("name", "a\rb", "control character", id="name-cr"),
            pytest.param("name", "a\tb", "control character", id="name-tab"),
            pytest.param("name", "a\x00", "control character", id="name-nul"),
            pytest.param("name", "a\x85b", "control character", id="name-c1"),
        ],
    )
    def test_from_obj_refuses_coercion(self, field, value, msg):
        obj = {"name": "X", "num_groups": 2, "cmax": 2,
               "trains": [{"cost": 1.0, "benefit": 1.0, "groups": [0]}]}
        if field in ("cost", "benefit"):
            obj["trains"][0][field] = value
        elif field == "group":
            obj["trains"][0]["groups"] = [value]
        else:
            obj[field] = value
        with pytest.raises(ValueError, match=msg):
            EbpInstance.from_obj(obj)

    def test_width_below_2_23(self):
        # The width counts each benefit once per group it may board.
        EbpInstance("X", 2, 2, (Train(2.0**23 - 3, 1.0, (0, 1)),))
        with pytest.raises(ValueError, match="optimum tolerance"):
            EbpInstance("X", 2, 2, (Train(2.0**23 - 2, 1.0, (0, 1)),))

    def test_from_obj_accepts_integral_floats(self):
        obj = builtin_instance("A").to_obj()
        obj["cmax"] = 2.0
        obj["trains"][0]["groups"] = [0.0]
        assert EbpInstance.from_obj(obj) == builtin_instance("A")

    def test_largest_exact_cmax_is_accepted(self):
        obj = builtin_instance("A").to_obj()
        obj["cmax"] = 2**53
        inst = EbpInstance.from_obj(obj)
        lhs = declare(inst)[0].constraints[-1].lhs
        assert -lhs.terms[(2,)] == 2**53

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, instance_objects()))
    def test_from_obj_accepts_or_raises_value_error(self, obj):
        try:
            inst = EbpInstance.from_obj(obj)
        except ValueError:
            return
        assert EbpInstance.from_obj(inst.to_obj()) == inst
        declare(inst)

    def test_huge_num_groups_costs_nothing_extra(self):
        # Only served groups are visited: 10^400 groups with three served
        # give what the smallest num_groups that fits gives, at once.
        trains = (Train(1.0, 2.0, (0, 5)), Train(1.0, 1.0, (5, 7)), Train(2.0, 2.0, (7,)))
        huge = EbpInstance("huge", 10**400, 1, trains)
        tight = EbpInstance("huge", 8, 1, trains)
        started = time.perf_counter()
        got = (brute_force(huge), exhaustive_optimum(huge),
               [encode(huge, route) for route in ("pubo", "qubo")])
        assert time.perf_counter() - started < 1.0
        assert got == (brute_force(tight), exhaustive_optimum(tight),
                       [encode(tight, route) for route in ("pubo", "qubo")])


class TestFeasibilityAndObjective:
    def setup_method(self):
        self.a = builtin_instance("A")

    def test_all_zero_is_feasible_at_zero(self):
        empty = EbpAssignment((0, 0, 0), (0, 0, 0, 0))
        assert is_feasible(self.a, empty)
        assert objective_value(self.a, empty) == 0.0

    def test_shared_train_carries_both_groups(self):
        best = EbpAssignment((0, 0, 1), (0, 0, 1, 1))
        assert is_feasible(self.a, best)
        assert objective_value(self.a, best) == -1.0

    def test_boarding_unused_train_is_infeasible(self):
        assert not is_feasible(self.a, EbpAssignment((0, 0, 0), (1, 0, 0, 0)))

    def test_double_boarding_is_infeasible(self):
        assert not is_feasible(self.a, EbpAssignment((1, 0, 1), (1, 0, 1, 0)))

    def test_capacity_bound(self):
        inst = EbpInstance(
            "X", 3, 2, (Train(1.0, 1.0, (0, 1, 2)),)
        )
        assert is_feasible(inst, EbpAssignment((1,), (1, 1, 0)))
        assert not is_feasible(inst, EbpAssignment((1,), (1, 1, 1)))

    def test_classify(self):
        best = EbpAssignment((0, 0, 1), (0, 0, 1, 1))
        ok = EbpAssignment((1, 0, 0), (1, 0, 0, 0))
        bad = EbpAssignment((0, 0, 0), (1, 0, 0, 0))
        assert classify(self.a, best, -1.0) is Classification.OPTIMAL
        assert classify(self.a, ok, -1.0) is Classification.FEASIBLE_NON_OPTIMAL
        assert classify(self.a, bad, -1.0) is Classification.INFEASIBLE

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            objective_value(self.a, EbpAssignment((0, 0), (0, 0, 0, 0)))


class TestBruteForce:
    def test_published_optima(self):
        for name, value, count in [("A", -1.0, 1), ("B", -2.0, 1), ("C", -2.0, 11)]:
            best, optima = brute_force(builtin_instance(name))
            assert best == value
            assert len(optima) == count
            for a in optima:
                assert classify(builtin_instance(name), a, value) is Classification.OPTIMAL

    def test_instance_a_optimum(self):
        _, optima = brute_force(builtin_instance("A"))
        assert optima == (EbpAssignment((0, 0, 1), (0, 0, 1, 1)),)

    def test_instance_b_optimum(self):
        _, optima = brute_force(builtin_instance("B"))
        assert optima == (EbpAssignment((1, 1, 0), (1, 1, 1, 1, 0, 0)),)

    def test_matches_exhaustive_python(self):
        inst = builtin_instance("A")
        best, optima = brute_force(inst)
        seen = []
        for xz in product((0, 1), repeat=inst.num_trains):
            for yz in product((0, 1), repeat=inst.num_y):
                a = EbpAssignment(xz, yz)
                if is_feasible(inst, a):
                    seen.append((objective_value(inst, a), a))
        want = min(v for v, _ in seen)
        assert best == want
        assert set(optima) == {a for v, a in seen if v == want}

    def test_cap(self):
        trains = tuple(Train(1.0, 1.0, (g,)) for g in range(16))
        inst = EbpInstance("big", 16, 2, trains)
        with pytest.raises(ValueError, match="cap"):
            brute_force(inst)

    @settings(deadline=None, max_examples=30)
    @given(small_instances())
    def test_matches_exhaustive_scan(self, inst):
        best, optima = brute_force(inst)
        want, want_optima = exhaustive_optimum(inst)
        assert best == want
        assert optima == want_optima

    @settings(deadline=None, max_examples=40)
    @given(small_instances())
    def test_chunking_does_not_change_the_result(self, inst):
        whole = brute_force(inst)
        with mock.patch.object(extbp, "_CHUNK_BITS", 3):
            assert brute_force(inst) == whole

    def test_huge_cmax_does_not_overflow(self):
        trains = (Train(1.0, 1.0, (0, 1, 2, 3, 4)), Train(0.5, 1.0, (0, 1)))
        inst = EbpInstance("roomy", 5, 10**6, trains)
        best, optima = brute_force(inst)
        assert (best, optima) == exhaustive_optimum(inst)
        assert best == -4.0

    def test_optimum_below_tolerance_in_a_later_chunk(self):
        # 21 bits, so the state worth -5e-10 lies beyond the first chunk of 2^18.
        trains = tuple(Train(1.0, 0.0, (g,)) for g in range(9)) + (Train(1.0, 0.50000000025, (9, 10)),)
        inst = EbpInstance("edge", 11, 2, trains)
        lowest = EbpAssignment((0,) * 9 + (1,), (0,) * 9 + (1, 1))
        best, optima = brute_force(inst)
        assert best == objective_value(inst, lowest) == pytest.approx(-5.0e-10, abs=1e-15)
        assert optima == (EbpAssignment((0,) * 10, (0,) * 11), lowest)
        with mock.patch.object(extbp, "_CHUNK_BITS", 21):
            assert brute_force(inst) == (best, optima)


class TestObjectivePolynomial:
    def test_layout_for_a(self):
        poly = objective_polynomial(builtin_instance("A"))
        want = Polynomial(
            {(0,): 1.0, (1,): 1.0, (2,): 1.0, (3,): -1.0, (4,): -1.0, (5,): -1.0, (6,): -1.0}
        )
        assert poly == want

    @pytest.mark.parametrize("name,lam", [("A", 8.0), ("B", 10.0), ("C", 12.0)])
    def test_default_lambda(self, name, lam):
        assert default_lambda(builtin_instance(name)) == lam


class TestPuboEncoding:
    @pytest.mark.parametrize("name,qubits", [("A", 7), ("B", 9), ("C", 11)])
    def test_qubit_count(self, name, qubits):
        enc = encode(builtin_instance(name), "pubo")
        assert enc.qubit_count == qubits
        assert len(enc.var_names) == qubits

    def test_var_names_for_a(self):
        enc = encode(builtin_instance("A"), "pubo")
        assert enc.var_names == ("x_0", "x_1", "x_2", "y_0_0", "y_1_1", "y_2_0", "y_2_1")

    def test_cubic_terms_present(self):
        assert encode(builtin_instance("A"), "pubo").poly.degree == 3

    def test_penalty_decomposes_into_violation_counts(self):
        inst = builtin_instance("A")
        lam_uni, lam_capa = 5.0, 9.0
        enc = encode(inst, "pubo", lam_uni=lam_uni, lam_capa=lam_capa)
        obj = objective_polynomial(inst)
        n, pairs = inst.num_trains, inst.y_pairs
        for z in range(1 << enc.qubit_count):
            bits = bits_of(z, enc.qubit_count)
            boarded = [0] * inst.num_groups
            carried = [0] * n
            for k, (i, j) in enumerate(pairs):
                boarded[j] += bits[n + k]
                carried[i] += bits[n + k]
            uni = sum(1 for b in boarded if b > 1)
            capa = 0
            for i in range(n):
                if bits[i] == 0:
                    capa += 1 if carried[i] >= 1 else 0
                else:
                    capa += 1 if carried[i] > inst.cmax else 0
            want = obj.evaluate(bits) + lam_uni * uni + lam_capa * capa
            assert enc.poly.evaluate(bits) == pytest.approx(want, abs=1e-9)

    def test_default_lambdas_recorded(self):
        enc = encode(builtin_instance("B"), "pubo")
        assert enc.lam_uni == enc.lam_capa == 10.0

    def test_project_reads_x_then_y(self):
        enc = encode(builtin_instance("A"), "pubo")
        z = (1 << 0) | (1 << 4)
        assert enc.project(z) == EbpAssignment((1, 0, 0), (0, 1, 0, 0))


class TestQuboEncoding:
    @pytest.mark.parametrize("name,qubits", [("A", 15), ("B", 17), ("C", 20)])
    def test_qubit_count(self, name, qubits):
        enc = encode(builtin_instance(name), "qubo")
        assert enc.qubit_count == qubits
        assert len(enc.var_names) == qubits

    def test_degree_at_most_two(self):
        for name in "ABC":
            assert encode(builtin_instance(name), "qubo").poly.degree <= 2

    def test_var_names_for_a(self):
        enc = encode(builtin_instance("A"), "qubo")
        assert enc.var_names == (
            "x_0", "x_1", "x_2", "y_0_0", "y_1_1", "y_2_0", "y_2_1",
            "s_0", "s_1",
            "r_0_0", "r_0_1", "r_1_0", "r_1_1", "r_2_0", "r_2_1",
        )

    def test_single_eligible_groups_get_no_slack(self):
        # groups 1 and 2 can only board train 0; only group 0 needs a slack bit
        inst = EbpInstance(
            "X", 3, 2, (Train(1.0, 1.0, (0, 1, 2)), Train(1.0, 1.0, (0,)))
        )
        enc = encode(inst, "qubo")
        s_names = [v for v in enc.var_names if v.startswith("s_")]
        assert s_names == ["s_0"]

    def test_capacity_slack_width_tracks_cmax(self):
        inst = EbpInstance("X", 3, 3, (Train(1.0, 1.0, (0, 1, 2)),))
        enc = encode(inst, "qubo")
        r_names = [v for v in enc.var_names if v.startswith("r_")]
        assert r_names == ["r_0_0", "r_0_1"]
        assert enc.qubit_count == 1 + 3 + 0 + 2

    def test_min_over_slack_matches_feasibility(self):
        inst = EbpInstance("X", 3, 3, (Train(1.0, 1.0, (0, 1, 2)),))
        enc = encode(inst, "qubo")
        obj = objective_polynomial(inst)
        base = inst.num_trains + inst.num_y
        k = enc.qubit_count - base
        for zb in range(1 << base):
            pattern = bits_of(zb, base)
            best = min(
                enc.poly.evaluate(pattern + s) for s in product((0, 1), repeat=k)
            )
            a = enc.project(zb)
            if is_feasible(inst, a):
                assert best == pytest.approx(obj.evaluate(pattern), abs=1e-9)
            else:
                assert best > obj.evaluate(pattern) + 1.0 - 1e-9

    def test_project_drops_slack_bits(self):
        enc = encode(builtin_instance("A"), "qubo")
        z = (1 << 2) | (1 << 9) | (1 << 14)
        assert enc.project(z) == EbpAssignment((0, 0, 1), (0, 0, 0, 0))


def oracle_encoding(inst, kind, lam_uni=None, lam_capa=None):
    """Polynomial, names and qubit count as the encodings were once built by hand.

    The PUBO gives every group le_penalty(eligible y, 1) and every train
    (1 - x_i) * eq_penalty(y, 0) + x_i * le_penalty(y, cmax); the QUBO gives
    (sum y + s_j - 1)^2 to each group that two or more trains serve and
    (sum y - cmax x_i + r_i)^2 to every train. Penalties are added one at a
    time as objective + lam * penalty.
    """
    lam = default_lambda(inst)
    lam_uni = lam if lam_uni is None else lam_uni
    lam_capa = lam if lam_capa is None else lam_capa
    n, pairs = inst.num_trains, inst.y_pairs
    names = [f"x_{i}" for i in range(n)] + [f"y_{i}_{j}" for i, j in pairs]
    next_id = n + inst.num_y
    groups = [[n + k for k, (_, jj) in enumerate(pairs) if jj == j] for j in range(inst.num_groups)]
    trains = [[n + k for k, (ii, _) in enumerate(pairs) if ii == i] for i in range(n)]
    weighted = []
    if kind == "pubo":
        weighted += [(lam_uni, le_penalty(yv, 1)) for yv in groups]
        for i, yv in enumerate(trains):
            xi = Polynomial.variable(i)
            cond = (1 - xi) * eq_penalty(yv, 0) + xi * le_penalty(yv, inst.cmax)
            weighted.append((lam_capa, cond))
    else:
        for j, yv in enumerate(groups):
            if len(yv) < 2:
                continue
            con = canonicalize("<=", Polynomial.from_terms(((v,), 1.0) for v in yv), 1)[0]
            pen, ids = slack_penalty(con, first_slack_id=next_id)
            weighted.append((lam_uni, pen))
            names.extend(f"s_{j}" for _ in ids)
            next_id += len(ids)
        for i, yv in enumerate(trains):
            lhs = Polynomial.from_terms([((v,), 1.0) for v in yv] + [((i,), -float(inst.cmax))])
            pen, ids = slack_penalty(canonicalize("<=", lhs, 0)[0], first_slack_id=next_id)
            weighted.append((lam_capa, pen))
            names.extend(f"r_{i}_{b}" for b in range(len(ids)))
            next_id += len(ids)
    poly = objective_polynomial(inst)
    for w, pen in weighted:
        poly = poly + w * pen
    return poly, tuple(names), len(names)


@st.composite
def encodable_instances(draw):
    """Up to 4 trains serving up to 6 groups each, empty trains and single-eligible groups included."""
    num_groups = draw(st.integers(1, 8))
    half = st.integers(0, 8).map(lambda v: v / 2)
    trains = tuple(
        Train(draw(half), draw(half),
              tuple(sorted(draw(st.sets(st.integers(0, num_groups - 1), max_size=6)))))
        for _ in range(draw(st.integers(1, 4)))
    )
    return EbpInstance("drawn", num_groups, draw(st.integers(1, 3)), trains)


class TestAgainstHandBuiltEncodings:
    @settings(deadline=None, max_examples=60)
    @given(
        encodable_instances(),
        st.sampled_from(["pubo", "qubo"]),
        st.one_of(st.none(), st.integers(1, 40).filter(lambda v: v % 4).map(lambda v: v / 4)),
        st.one_of(st.none(), st.integers(1, 40).filter(lambda v: v % 4).map(lambda v: v / 4)),
    )
    def test_term_for_term(self, inst, kind, lam_uni, lam_capa):
        enc = encode(inst, kind, lam_uni, lam_capa)
        poly, names, qubits = oracle_encoding(inst, kind, lam_uni, lam_capa)
        assert enc.poly.terms == poly.terms
        assert enc.var_names == names
        assert enc.qubit_count == qubits == len(names)

    @pytest.mark.parametrize("name", "ABC")
    @pytest.mark.parametrize("kind", ["pubo", "qubo"])
    def test_builtins(self, name, kind):
        inst = builtin_instance(name)
        enc = encode(inst, kind)
        poly, names, qubits = oracle_encoding(inst, kind)
        assert (enc.poly.terms, enc.var_names, enc.qubit_count) == (poly.terms, names, qubits)


class TestDeclare:
    def test_constraints_of_a(self):
        problem, wide = declare(builtin_instance("A"))
        assert wide == (0, 1)
        assert problem.is_binary() and problem.num_variables == 7
        lhs = [c.lhs for c in problem.constraints]
        V = Polynomial.variable
        assert lhs == [
            V(3) + V(5) - 1,
            V(4) + V(6) - 1,
            V(3) - 2 * V(0),
            V(4) - 2 * V(1),
            V(5) + V(6) - 2 * V(2),
        ]

    def test_single_eligible_groups_and_empty_trains(self):
        inst = EbpInstance("X", 3, 2, (Train(1.0, 1.0, (0, 1, 2)), Train(1.0, 1.0, (0,)), Train(1.0, 1.0, ())))
        problem, wide = declare(inst)
        assert wide == (0,)
        assert len(problem.constraints) == 1 + 3
        assert problem.constraints[-1].lhs == -2 * Polynomial.variable(2)


class TestEncodeDispatcher:
    def test_routes_by_name(self):
        inst = builtin_instance("A")
        assert encode(inst, "pubo").kind == "pubo"
        assert encode(inst, "qubo").kind == "qubo"

    def test_unknown_formulation(self):
        with pytest.raises(ValueError, match="formulation"):
            encode(builtin_instance("A"), "ising")

    def test_nonpositive_lambda_rejected(self):
        inst = builtin_instance("A")
        with pytest.raises(ValueError, match="positive"):
            encode(inst, "pubo", lam_uni=0.0)
        with pytest.raises(ValueError, match="positive"):
            encode(inst, "qubo", lam_capa=-1.0)

    @pytest.mark.parametrize("lam", [float("inf"), float("nan")])
    def test_non_finite_lambda_rejected(self, lam):
        inst = builtin_instance("A")
        with pytest.raises(ValueError, match="finite"):
            encode(inst, "pubo", lam_uni=lam)
        with pytest.raises(ValueError, match="finite"):
            encode(inst, "qubo", lam_capa=lam)
        # A weight no constraint uses is refused all the same.
        lone = EbpInstance("X", 2, 2, (Train(1.0, 1.0, (0, 1)),))
        with pytest.raises(ValueError, match="finite"):
            encode(lone, "pubo", lam_uni=lam)

    @pytest.mark.parametrize("kind", ["pubo", "qubo"])
    def test_nonpositive_lambda_rejected_without_uniqueness_constraints(self, kind):
        inst = EbpInstance("X", 2, 2, (Train(1.0, 1.0, (0, 1)),))
        assert declare(inst)[1] == ()
        with pytest.raises(ValueError, match="positive"):
            encode(inst, kind, lam_uni=0.0)
