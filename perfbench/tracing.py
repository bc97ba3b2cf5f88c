"""Spans around the public functions of the six cubicdyn modules.

``Tracer.install`` wraps each public function of ``cli``, ``params``,
``surface``, ``lattice``, ``lines`` and ``counting`` at every binding that
refers to it: the module attribute, the package re-export, and each module
that imported the function by name (``counting`` binds ``cubic_eval``,
``wall_membership``, ``coxeter_star``, ...).  Calls between the modules
therefore go through the wrappers too.  ``uninstall`` puts every original
object back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
import types
from contextlib import contextmanager

PACKAGE = "cubicdyn"
MODULES = ("cli", "params", "surface", "lattice", "lines", "counting")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_ns")

    def __init__(self, id, name, parent, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.child_ns = 0


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._bindings: list = []  # (namespace, name, original)
        self._paused = 0
        self.names: list = []  # qualified names of the wrapped functions

    def _targets(self) -> dict:
        """original function -> qualified name, for each public function."""
        targets = {}
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    targets[obj] = f"{short}.{name}"
        return targets

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        self.names = sorted(targets.values())
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._bindings.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    @property
    def bindings(self) -> list:
        """(module name, attribute, qualified function name) of each wrap."""
        return [(m.__name__, a, f"{o.__module__}.{o.__name__}") for m, a, o in self._bindings]

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the output check, the probes)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, fn, name):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), name, parent.id if parent else None, clock())
            tracer.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def summary(self) -> dict:
        """Per wrapped function: calls, inclusive seconds ``s`` and ``self_s``.

        Self time excludes the wrapped child spans.  Functions never called
        read zero.
        """
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for sp in self.spans:
            row = out[sp.name]
            dur = sp.end - sp.start
            row["calls"] += 1
            row["s"] += dur / 1e9
            row["self_s"] += (dur - sp.child_ns) / 1e9
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON lines, times in ns from the first."""
        t0 = self.spans[0].start if self.spans else 0
        with gzip.open(path, "wt") as fh:
            for sp in self.spans:
                fh.write(json.dumps([sp.id, sp.name, sp.parent, sp.start - t0, sp.end - t0]))
                fh.write("\n")
