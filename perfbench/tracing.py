"""Outside-in tracing: spans around calls into the program's public functions.

The tracer replaces module attributes with timing wrappers and puts the
originals back when it is removed; no program file is changed. Every name
in a puboqa module bound to a traced function is replaced, so calls through
`from .qaoa import run` style imports are seen too.

A span is (name, start_ns, end_ns, parent index, pid). Spans are kept in
memory. Pool workers forked while the tracer is installed inherit the
wrappers; each clears the copied span list after the fork and writes its own
spans to spill_dir when it exits, from where the parent merges them. Under
the spawn or forkserver start methods workers do not inherit the wrappers,
and their spans are absent.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from array import array
from multiprocessing import util as mp_util
from pathlib import Path

# (module, function) -> span name
TRACED_FUNCTIONS = {
    ("harness", "load_instance"): "harness.load_instance",
    ("harness", "run_experiment"): "harness.run_experiment",
    ("extbp", "brute_force"): "extbp.brute_force",
    ("extbp", "encode"): "extbp.encode",
    ("reformulate", "le_penalty"): "reformulate.threshold",
    ("reformulate", "eq_penalty"): "reformulate.threshold",
    ("reformulate", "ge_penalty"): "reformulate.threshold",
    ("reformulate", "slack_penalty"): "reformulate.slack",
    ("reformulate", "compose_unconstrained"): "reformulate.compose",
    ("model", "canonicalize"): "model.canonicalize",
    ("qaoa", "build_cost_table"): "qaoa.build_cost_table",
    ("qaoa", "run"): "qaoa.run",
    ("qaoa", "evolve"): "qaoa.evolve",
    ("qaoa", "sample"): "qaoa.sample",
    ("qaoa", "estimate_loss"): "qaoa.estimate_loss",
}
POLYNOMIAL_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__")
ARITH = "pbf.arith"
OPTIMIZE = "qaoa.optimize"
LOSS_CALLBACK = "qaoa.loss_callback"


class Tracer:
    def __init__(self, spill_dir: Path):
        # Spans live in flat integer arrays: lists of small lists would be
        # scanned by the cyclic garbage collector and slow the traced code.
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _wrap_optimize(self, fn):
        @functools.wraps(fn)
        def optimize(loss_fn, *args, **kwargs):
            return fn(self.wrap(LOSS_CALLBACK, loss_fn), *args, **kwargs)

        return self.wrap(OPTIMIZE, optimize)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from puboqa import qaoa
        from puboqa.pbf import Polynomial

        modules = [m for k, m in sys.modules.items() if k == "puboqa" or k.startswith("puboqa.")]
        targets = {
            getattr(sys.modules[f"puboqa.{mod}"], fn): name for (mod, fn), name in TRACED_FUNCTIONS.items()
        }
        wrappers = {orig: self.wrap(name, orig) for orig, name in targets.items()}
        wrappers[qaoa.optimize] = self._wrap_optimize(qaoa.optimize)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for attr in POLYNOMIAL_ARITH:
            self._patch(Polynomial, attr, self.wrap(ARITH, getattr(Polynomial, attr)))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _after_fork(self) -> None:
        for column in (self.name_of, self.start, self.end, self.parent):
            del column[:]
        self._stack.clear()
        self.pid = os.getpid()
        mp_util.Finalize(self, self._spill, exitpriority=10)

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self._rows()), encoding="utf-8")

    def _rows(self) -> list[list]:
        return [[self.names[n], s, e, p] for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)]

    def collect(self) -> list[dict]:
        """This process's spans plus every spilled worker file, as dicts."""
        out = _as_dicts(self._rows(), self.pid)
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("spans-*.json")):
                pid = int(path.stem.split("-")[1])
                out.extend(_as_dicts(json.loads(path.read_text(encoding="utf-8")), pid))
                path.unlink()
        return out


def _as_dicts(spans: list[list], pid: int) -> list[dict]:
    out = [
        {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "pid": pid, "child_ns": 0}
        for s in spans
    ]
    for span in out:
        if span["parent"] >= 0:
            out[span["parent"]]["child_ns"] += span["end"] - span["start"]
    for span in out:
        span["parent_name"] = out[span["parent"]]["name"] if span["parent"] >= 0 else None
    return out


def duration_ms(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e6


def self_ms(span: dict) -> float:
    """Duration minus the time covered by the span's direct children."""
    return (span["end"] - span["start"] - span["child_ns"]) / 1e6


def outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans of one name that are not nested directly in a span of that name."""
    return [s for s in spans if s["name"] == name and s["parent_name"] != name]


def summary(spans: list[dict]) -> dict:
    """Per span name: calls, total and self milliseconds, median per call."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    return {
        name: {
            "calls": len(group),
            "total_ms": sum(duration_ms(s) for s in outermost(group, name)),
            "self_ms": sum(self_ms(s) for s in group),
            "median_ms": statistics.median(duration_ms(s) for s in group),
        }
        for name, group in sorted(by_name.items())
    }
