"""Spans around every public ``usd_kit`` function, installed from outside.

The tracer rebinds each public function of the layer modules in every
``usd_kit`` namespace that binds it (``equivalence`` and ``discrimination``
import ``duality`` names directly), and counts calls to the ``numpy.linalg``
routines that do the LAPACK work.  ``src/`` is never edited.  Spans live in
flat in-memory columns and are written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

import usd_kit

LAYERS = ("linalg", "duality", "equivalence", "discrimination", "scenarios", "io", "cli")
LAPACK_ROUTINES = ("eigh", "eigvalsh", "svd", "inv")


def reachable_nbytes(obj) -> int:
    """``nbytes`` summed over every distinct array reachable from ``obj``."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            todo.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
    return total


def io_kind(name: str) -> str:
    """'parse' for functions that turn text into objects, 'render' for the reverse."""
    short = name.split(".", 1)[1]
    return "parse" if short == "read_json" or short.endswith("_from_doc") else "render"


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; set ``op_id`` per op."""

    def __init__(self):
        self.names: list[str] = []
        self.start, self.end = array("q"), array("q")  # ns
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.op_id = -1
        self.lapack_calls = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.trials_drawn = 0
        self.povm_bytes = None
        self._stack: list[int] = []
        self._povm_type = usd_kit.PovmSet
        self._patches = []

        modules = {layer: importlib.import_module(f"usd_kit.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "usd_kit" or n.startswith("usd_kit.")]
        hooks = self._hooks()
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                qualname = f"{layer}.{attr}"
                wrapper = self._span(qualname, fn, hooks.get(qualname))
                for ns in namespaces:
                    self._patches += [(ns, a, fn, wrapper) for a, v in vars(ns).items() if v is fn]
        for routine in LAPACK_ROUTINES:
            fn = getattr(np.linalg, routine)
            self._patches.append((np.linalg, routine, fn, self._counted(fn)))

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn, _ in self._patches:
            setattr(ns, attr, fn)

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.lapack_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, qualname: str, fn, hook):
        index = len(self.names)
        self.names.append(qualname)
        name_ids, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(name_ids)
            name_ids.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            if self.povm_bytes is None and isinstance(result, self._povm_type):
                self.povm_bytes = reachable_nbytes(result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        """Counts taken from a call's arguments or result, by function."""

        def path_arg(args, kwargs):
            return os.path.getsize(args[0] if args else kwargs["path"])

        def read(args, kwargs, result):
            self.bytes_read += path_arg(args, kwargs)

        def written(args, kwargs, result):
            self.bytes_written += path_arg(args, kwargs)

        def sampled(args, kwargs, result):
            self.trials_drawn += int(np.sum(result.counts))

        return {"io.read_json": read, "io.write_json": written, "discrimination.sample_outcomes": sampled}

    def columns(self) -> dict:
        """The span columns as arrays sharing the recorded memory (call once tracing is done)."""
        return {
            key: np.frombuffer(col, dtype=np.int64 if col.typecode == "q" else np.int32)
            for key, col in (("name", self.name), ("start", self.start), ("end", self.end),
                             ("parent", self.parent), ("op", self.op))
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())

    def totals(self) -> dict:
        """Per function: calls, inclusive ns and self ns (duration minus child spans)."""
        c = self.columns()
        dur = (c["end"] - c["start"]).astype(np.float64)
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(c["name"], minlength=k)
        incl = np.bincount(c["name"], weights=dur, minlength=k)
        own = np.bincount(c["name"], weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(self.names)}
