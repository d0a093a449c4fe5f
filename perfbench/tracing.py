"""Spans around the calls into the trpca modules, recorded from outside.

The package binds names at import (``from .prox import tsvt``), so a
wrapper only takes effect where the calling module looks the name up.
``traced`` therefore replaces every binding of a wrapped function in every
loaded ``trpca`` module, plus ``numpy.linalg.svd``, and puts the originals
back on exit.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# Modules whose public functions (defined there, name without a leading
# underscore) get a span per call.  For ``cli`` only the entry point
# ``main``, so that its self time covers argument parsing and printing.
LAYERS = {
    "tensor_core": None,
    "t_algebra": None,
    "prox": None,
    "solver": None,
    "synth": None,
    "imaging": None,
    "cli": ["main"],
}

SVD = "numpy.linalg.svd"
# Calls whose argument and result sizes are recorded (computed, not measured
# bytes: cache traffic is not seen).
BYTES_COUNTED = {"t_algebra.dft3", "t_algebra.idft3"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``op`` tags the spans of the operation being traced."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a child of the innermost open span."""
        span = Span(len(self.spans), name, self.clock(), 0.0,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def call(self, name, fn, args, kwargs):
        with self.span(name) as span:
            out = fn(*args, **kwargs)
        if name in BYTES_COUNTED:
            span.info["bytes"] = int(getattr(args[0], "nbytes", 0) + out.nbytes)
        elif name == "solver.solve":
            span.info["iterations"] = out.iterations
            span.info["converged"] = bool(out.converged)
        return out


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def layer_functions() -> dict:
    """Original function object -> span name, for every traced function."""
    import numpy

    targets = {numpy.linalg.svd: SVD}
    for layer, names in LAYERS.items():
        mod = importlib.import_module(f"trpca.{layer}")
        for attr in names if names is not None else list(vars(mod)):
            obj = getattr(mod, attr)
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                targets[obj] = f"{layer}.{attr}"
    return targets


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every binding of the traced functions."""
    import numpy

    # keyed by identity: a module may hold unhashable callables
    wrappers = {id(fn): _wrap(tracer, name, fn) for fn, name in layer_functions().items()}
    namespaces = [numpy.linalg] + [
        mod for modname, mod in list(sys.modules.items())
        if modname == "trpca" or modname.startswith("trpca.")
    ]
    patched = []
    try:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    setattr(ns, attr, wrappers[id(value)])
                    patched.append((ns, attr, value))
        yield tracer
    finally:
        for ns, attr, value in reversed(patched):
            setattr(ns, attr, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
