"""The assembled encodings and the generic constructions are pinned, bit for bit.

A refactor of model, reformulate or extbp must leave every encoding as it
was. The encoding digest covers A/B/C and the compile-wide benchmark
instances of seed 1, on both routes, at the default weights and at
3.5/7.25: the variable names, both weights and every (monomial,
float.hex(coefficient)) in the polynomial's dict order.

The construction digest covers what compile_problem does not reach on the
benchmark instances: penalty_for and slack_penalty on seeded random linear
constraints (unit sums, at-least sums, gated sums and weighted sums), the
threshold penalties at every valid threshold up to six variables, and
reduce_to_quadratic on seeded random cubic and quartic polynomials. Each
output is hashed as its terms in dict order, with slack ids and
substitution records, or as its refusal message.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from pathlib import Path

from puboqa.extbp import EbpInstance, builtin_instance, encode
from puboqa.model import canonicalize
from puboqa.pbf import Polynomial
from puboqa.reformulate import (
    eq_penalty,
    ge_penalty,
    lambda_default,
    le_penalty,
    penalty_for,
    reduce_to_quadratic,
    slack_penalty,
)

INSTANCES = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
ENCODINGS_SHA256 = "93b6038cbf53afc501fd4cd52132d2cdc1f41f76a5b73261f23f4832d69be97f"
CONSTRUCTIONS_SHA256 = "ae6e1c7e2377c81fd7bce40b8f43018f11d9e481682fe5e61e32fc97c9ef8869"


def load_instances():
    spec = importlib.util.spec_from_file_location("perfbench_instances", INSTANCES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def encodings_digest() -> tuple[int, str]:
    instances = [builtin_instance(name) for name in "ABC"]
    instances += [EbpInstance.from_obj(obj) for obj in load_instances().generate(1)]
    digest = hashlib.sha256()
    count = 0
    for inst in instances:
        for route in ("pubo", "qubo"):
            for lam_uni, lam_capa in ((None, None), (3.5, 7.25)):
                enc = encode(inst, route, lam_uni, lam_capa)
                terms = [(mono, coeff.hex()) for mono, coeff in enc.poly.terms.items()]
                digest.update(repr((enc.var_names, enc.lam_uni.hex(), enc.lam_capa.hex(), terms)).encode())
                count += 1
    return count, digest.hexdigest()


def test_encodings_are_pinned():
    assert encodings_digest() == (68, ENCODINGS_SHA256)


def hexed(poly: Polynomial) -> list:
    return [(mono, coeff.hex()) for mono, coeff in poly.terms.items()]


def outcome(build, *args):
    """What build(*args) returns, with every Polynomial as hexed terms, or its refusal."""
    try:
        out = build(*args)
    except ValueError as exc:
        return str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return [hexed(part) if isinstance(part, Polynomial) else part for part in parts]


def random_constraints(rng: random.Random):
    """Linear constraints over ids 0-7 in each shape penalty_for reads."""
    for shape in ("unit", "at-least", "gated", "weighted"):
        for _ in range(50):
            ids = rng.sample(range(8), rng.randint(1, 6))
            if shape == "gated":
                gate, ys = ids[0], ids[1:]
                lhs = Polynomial.from_terms([((v,), 1) for v in ys] + [((gate,), -rng.randint(1, 3))])
                yield from canonicalize("<=", lhs, rng.randint(0, 2))
                continue
            coeffs = [rng.choice([-2, -1, 1, 2]) if shape == "weighted" else 1 for _ in ids]
            lhs = Polynomial.from_terms(((v,), a) for v, a in zip(ids, coeffs))
            if shape == "at-least":
                yield from canonicalize(">=", lhs, rng.randint(0, len(ids) + 1))
            elif shape == "unit":
                yield from canonicalize("<=", lhs, rng.randint(-1, len(ids) + 1))
            else:
                yield from canonicalize(rng.choice(["<=", ">="]), lhs, rng.randint(-3, 3))


def random_polynomial(rng: random.Random, degree: int) -> Polynomial:
    n = rng.randint(degree, 6)
    terms = {tuple(sorted(rng.sample(range(n), degree))): float(rng.randint(-4, 4) or 1)}
    for _ in range(rng.randint(1, 6)):
        mono = tuple(sorted(rng.sample(range(n), rng.randint(0, degree))))
        terms[mono] = terms.get(mono, 0.0) + rng.randint(-4, 4)
    return Polynomial(terms)


def constructions_digest() -> tuple[int, str]:
    rng = random.Random(15)
    outcomes = []
    for con in random_constraints(rng):
        outcomes.append(outcome(penalty_for, con))
        outcomes.append(outcome(slack_penalty, con, 8))
    for n in range(1, 7):
        ids = sorted(rng.sample(range(12), n))
        for c in range(n + 1):
            outcomes.append(outcome(eq_penalty, ids, c))
            outcomes.append(outcome(le_penalty, ids, c))
            if c:
                outcomes.append(outcome(ge_penalty, ids, c))
    for degree in (3, 4):
        for _ in range(30):
            p = random_polynomial(rng, degree)
            outcomes.append(outcome(reduce_to_quadratic, p, lambda_default(p)))
    return len(outcomes), hashlib.sha256(repr(outcomes).encode()).hexdigest()


def test_constructions_are_pinned():
    assert constructions_digest() == (535, CONSTRUCTIONS_SHA256)
