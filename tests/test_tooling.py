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
