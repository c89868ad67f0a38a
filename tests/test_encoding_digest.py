"""The assembled encodings are pinned, term for term and bit for bit.

A refactor of model, reformulate or extbp must leave every encoding as it
was. The digest covers A/B/C and the compile-wide benchmark instances of
seed 1, on both routes, at the default weights and at 3.5/7.25: the
variable names, both weights and every (monomial, float.hex(coefficient))
in the polynomial's dict order.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from puboqa.extbp import EbpInstance, builtin_instance, encode

INSTANCES = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
ENCODINGS_SHA256 = "93b6038cbf53afc501fd4cd52132d2cdc1f41f76a5b73261f23f4832d69be97f"


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
