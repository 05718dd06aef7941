"""Spans around every call into qpartial's public functions, from outside.

``Tracer`` wraps each public function and class of the loaded qpartial
modules at every binding site: the defining module, and every module or
package namespace that imported the same object by name (for example
``qpartial.verify.state_leq`` or ``qpartial.cli.interpret``). Classes are
traced through ``__init__``. numpy's Hermitian eigensolvers are wrapped
on ``numpy.linalg``, which is where every caller looks them up. The
wrappers are built once; ``install`` and ``uninstall`` swap them in and out.

The wrappers are installed only around traced ops. Each span keeps its name,
op id, parent span and start/end times in flat in-memory arrays; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np
import numpy.linalg

# Data-only modules: exception types and frozen AST nodes.
UNTRACED_MODULES = ("qpartial.errors", "qpartial.qlang.ast")
EIGENSOLVERS = ("numpy.linalg.eigvalsh", "numpy.linalg.eigh")


def short_name(module_name: str) -> str:
    return module_name.removeprefix("qpartial.")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op = -1
        self._patches = self._plan()

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding site of
        every public definition of the loaded qpartial modules."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qpartial" or n.startswith("qpartial.")) and n not in UNTRACED_MODULES
        ]
        patches = []
        wrappers: dict[int, object] = {}
        for mod in modules:
            for obj in list(vars(mod).values()):
                if getattr(obj, "__module__", None) != mod.__name__ or obj.__name__.startswith("_"):
                    continue
                name = f"{short_name(mod.__name__)}.{obj.__qualname__}"
                if inspect.isfunction(obj) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name)
                elif inspect.isclass(obj) and inspect.isfunction(vars(obj).get("__init__")):
                    patches.append((obj, "__init__", obj.__init__, self._wrap(obj.__init__, name)))
        for name in EIGENSOLVERS:
            fn = getattr(numpy.linalg, name.rsplit(".", 1)[1])
            wrappers[id(fn)] = self._wrap(fn, name)
        for mod in modules + [numpy.linalg]:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    patches.append((mod, attr, obj, wrapper))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, self seconds, inclusive seconds)."""
        n = len(self.span_start)
        names = np.frombuffer(self.span_name, dtype=np.int32) if n else np.zeros(0, np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float) if n else np.zeros(0)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        incl_s = np.bincount(names, weights=dur, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]), float(incl_s[i])) for i, name in enumerate(self.names)}
