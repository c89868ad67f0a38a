"""The benchmark's tracer finds every program function it wraps."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    traced = load_tracing().TRACED_FUNCTIONS
    assert traced
    missing = [
        f"puboqa.{mod}.{fn}"
        for mod, fn in traced
        if not callable(getattr(importlib.import_module(f"puboqa.{mod}"), fn, None))
    ]
    assert not missing, f"perfbench/tracing.py wraps names puboqa no longer has: {missing}"


def test_tracer_installs_over_the_loaded_program(tmp_path):
    # The tracer looks every callable module attribute up in a dict, so the
    # package may hold no unhashable callables, such as a ctypes function.
    from puboqa import qaoa

    qaoa.mixer_backend()
    original = qaoa.evolve
    tracer = load_tracing().Tracer(tmp_path)
    tracer.install()
    try:
        assert qaoa.evolve.__wrapped__ is original
    finally:
        tracer.remove()
    assert qaoa.evolve is original


def test_every_threshold_constraint_is_traced(tmp_path, monkeypatch):
    # The benchmark's reformulate.threshold span covers threshold expansion
    # only while each one runs inside a module-level le/ge/eq_penalty call.
    from puboqa import reformulate
    from puboqa.extbp import builtin_instance, declare, encode

    inst = builtin_instance("C")
    constraints = declare(inst)[0].constraints
    assert all(reformulate._read(c).terms > 0 for c in constraints)
    tracing = load_tracing()
    tracer = tracing.Tracer(tmp_path)
    monkeypatch.setattr(reformulate, "_expand", tracer.wrap("expand", reformulate._expand))
    tracer.install()
    try:
        encode(inst, "pubo")
    finally:
        tracer.remove()
    spans = tracer.collect()
    assert len(tracing.outermost(spans, "reformulate.threshold")) >= len(constraints)
    expansions = [s for s in spans if s["name"] == "expand"]
    assert expansions
    assert all(s["parent_name"] == "reformulate.threshold" for s in expansions)
