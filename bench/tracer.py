"""Span tracer that wraps the public functions of a package from outside it.

``Tracer.install`` wraps every public function of each layer module (a
module-level function whose name has no leading underscore and that the module
itself defines, including ``functools.lru_cache`` wrappers) and rebinds the
wrapper in **every** namespace of the package that holds the original: the
defining module, each module that imported the name (``bounds.f21``,
``suites.f21_series``, ``cli.sharp_bound_h``, ...), and the values of
module-level dicts such as ``suites.SUITES``.  Private helpers are not wrapped;
their time is charged to the public function that called them.

Each call records a span (function, start, end, parent span, op id) in flat
arrays kept in memory; ``write`` saves them when the run ends and ``summary``
reduces them.  A span's self time is its duration minus the durations of its
child spans.  The benchmark's harness opens one root span per op, so the self
times of all layers plus the harness account for the traced wall time, up to
the loop between ops.

A generator function's span covers only the call that creates the generator;
its body runs when the consumer iterates, so the body's time, and the parent
of every span it opens, is charged to the consumer (``iter_membership_samples``
is charged to ``verdict_from_margins``).  Items a generator yields are counted.

A ``NumericsError`` is counted once, on the function where it is first seen,
which is the innermost traced function it propagates through.  For cached
functions a call is a build when the cache's miss count rose during it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from typing import Callable

import numpy as np

HARNESS = "harness.op"


class Tracer:
    """Collects spans for the public functions of ``layers`` in ``package``."""

    def __init__(self, package: str, layers: tuple[str, ...],
                 taggers: dict[str, Callable[..., str]] | None = None) -> None:
        self.package = package
        self.layers = layers
        self.taggers = taggers or {}
        self.names: list[str] = [HARNESS]
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.tags: dict[int, int] = {}
        self.labels: list[str] = [""]
        self.builds: list[int] = []
        self.errors: dict[int, int] = {}
        self.yields: dict[int, int] = {}
        self.cached: dict[int, Callable] = {}
        self._charged: list[BaseException] = []
        self._stack = [-1]
        self._op_id = -1
        self._error_type = importlib.import_module(f"{package}.errors").NumericsError

    # ------------------------------------------------------------ installing

    def install(self) -> list[str]:
        """Wrap and rebind every public function; returns their span names."""
        wrapped: dict[int, tuple[Callable, Callable]] = {}
        for layer in self.layers:
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ModuleNotFoundError:  # a layer the package no longer has reads as idle
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(prefix):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]
                    continue
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return self.names[1:]

    def _wrap(self, fn: Callable, qualname: str) -> Callable:
        nid = len(self.names)
        self.names.append(qualname)
        fns, start, end, parent, ops = self.fn, self.start, self.end, self.parent, self.op
        stack, tags, clock = self._stack, self.tags, time.perf_counter_ns
        tagger = self.taggers.get(qualname)
        labels = self.labels
        cached = hasattr(fn, "cache_info")
        if cached:
            self.cached[nid] = fn
        is_gen = inspect.isgeneratorfunction(fn)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            fns.append(nid)
            parent.append(stack[-1])
            ops.append(tracer._op_id)
            end.append(0)
            if tagger is not None:
                label = f"{qualname}:{tagger(*args, **kwargs)}"
                if label not in labels:
                    labels.append(label)
                tags[idx] = labels.index(label)
            if cached:
                misses = fn.cache_info().misses
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except tracer._error_type as exc:
                tracer._charge(exc, nid)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if cached and fn.cache_info().misses != misses:
                tracer.builds.append(idx)
            if is_gen:
                return tracer._count(result, nid)
            return result

        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", qualname)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _charge(self, exc: BaseException, nid: int) -> None:
        if not any(seen is exc for seen in self._charged):
            self._charged.append(exc)
            self.errors[nid] = self.errors.get(nid, 0) + 1

    def _count(self, gen, nid: int):
        counts = self.yields
        counts.setdefault(nid, 0)
        for item in gen:
            counts[nid] += 1
            yield item

    # ------------------------------------------------------------- harness

    def begin_op(self, op_id: int) -> None:
        """Open the harness's root span for op ``op_id``."""
        self._op_id = op_id
        idx = len(self.start)
        self.fn.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())

    def end_op(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter_ns()

    # ------------------------------------------------------------- results

    def write(self, path: str) -> None:
        """Save every span: function name, start/end (ns), parent index, op id."""
        np.savez(path, names=np.array(self.names), fn=np.asarray(self.fn),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), op=np.asarray(self.op))

    def summary(self) -> dict:
        """Per-function calls, self and inclusive seconds, errors, yields and
        cache builds; per tag label, the tagged calls and the self seconds of
        the tagged function's layer below them; the span count and the wall
        time from the first span's start to the last span's end."""
        fn = np.asarray(self.fn, dtype=np.int64)
        start = np.asarray(self.start, dtype=np.int64)
        dur = (np.asarray(self.end, dtype=np.int64) - start) / 1e9
        parent = np.asarray(self.parent, dtype=np.int64)
        n, k = len(fn), len(self.names)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        calls = np.bincount(fn, minlength=k)
        self_s = np.bincount(fn, weights=self_t, minlength=k)
        incl_s = np.bincount(fn, weights=dur, minlength=k)
        build_s = np.bincount(fn[self.builds], weights=dur[self.builds], minlength=k)
        builds = np.bincount(fn[self.builds], minlength=k)
        functions = {
            name: {
                "calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i]),
                "errors": self.errors.get(i, 0), "yields": self.yields.get(i, 0),
                "builds": int(builds[i]), "build_s": float(build_s[i]),
                "cached": self.cached[i].cache_info().currsize if i in self.cached else 0,
            }
            for i, name in enumerate(self.names)
        }
        tagged: dict[str, dict] = {}
        if self.tags:
            tag = np.zeros(n, dtype=np.int64)
            idx = np.fromiter(self.tags.keys(), dtype=np.int64)
            tag[idx] = np.fromiter(self.tags.values(), dtype=np.int64)
            # Children come after their parent, so pulling the parent's tag
            # down once per nesting level tags every span below a tagged one.
            while True:
                pull = (tag == 0) & nested
                pull[pull] = tag[parent[pull]] != 0
                if not pull.any():
                    break
                tag[pull] = tag[parent[pull]]
            layer_of = np.array([name.split(".")[0] for name in self.names])[fn]
            for value, label in enumerate(self.labels[1:], start=1):
                in_layer = layer_of == label.split(".")[0]
                tagged[label] = {
                    "calls": int((tag[idx] == value).sum()),
                    "self_s": float(self_t[(tag == value) & in_layer].sum()),
                }
        end = np.asarray(self.end, dtype=np.int64)
        wall = (int(end.max()) - int(start.min())) / 1e9 if n else 0.0
        return {"functions": functions, "tagged": tagged, "spans": n, "wall_s": wall}
