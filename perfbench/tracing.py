"""Tracing of stripcast's public functions from outside the library.

`Tracer.install` replaces every public function of every loaded stripcast
module with a wrapper, in every module namespace that binds it: modules that
did ``from .model import build_graph`` hold their own reference, so patching
``model`` alone would miss those callers.  Each call appends one span (name,
start, end, parent span, solve id, outcome) to flat in-memory arrays; nothing
is written until `write` runs at the end of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# Span outcomes: returned None, returned a value, raised.
NONE, VALUE, RAISED = 0, 1, 2

# Point predicates called once per pair of points (about 3e5 times in one
# n=800 graph build).  A span each would multiply solve time and span volume,
# so they stay unwrapped and their time counts in their callers' self time.
UNTRACED = frozenset({"model.dist2", "model.in_rect"})
PACKAGE = "stripcast"
_NO_CALLS = {"calls": 0, "raised": 0, "values": 0, "self_ns": 0, "total_ns": 0}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.solve = array("i")
        self.outcome = array("b")
        self.solve_id = -1
        self._stack = [-1]
        self._wrappers: dict[object, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _public_functions(self, module):
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and not inspect.isgeneratorfunction(obj)
                and (obj.__module__ or "").split(".")[0] == PACKAGE
                and not obj.__name__.startswith("_")
                and _span_name(obj) not in UNTRACED
            ):
                yield attr, obj

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, fn in list(self._public_functions(module)):
                wrapper = self._wrappers.get(fn)
                if wrapper is None:
                    wrapper = self._wrap(fn)
                    self._wrappers[fn] = wrapper
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn):
        nid = len(self.names)
        self.names.append(_span_name(fn))
        stack = self._stack
        name, start, end = self.name, self.start, self.end
        parent, solve, outcome = self.parent, self.solve, self.outcome
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            solve.append(self.solve_id)
            outcome.append(NONE)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                outcome[idx] = RAISED
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if result is not None:
                outcome[idx] = VALUE
            return result

        return traced

    @property
    def span_count(self) -> int:
        return len(self.name)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, raised, value-returning calls, self and total time.

        Self time is a span's duration minus the time its child spans cover;
        calls are strictly nested in one thread, so children never overlap.
        Total time adds up the durations of calls not made by the function
        itself, so direct recursion is not counted twice.
        """
        n = len(self.name)
        child_ns = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        totals = {nm: dict(_NO_CALLS) for nm in self.names}
        name = self.name
        for i in range(n):
            t = totals[self.names[name[i]]]
            t["calls"] += 1
            duration = end[i] - start[i]
            t["self_ns"] += duration - child_ns[i]
            p = parent[i]
            if p < 0 or name[p] != name[i]:
                t["total_ns"] += duration
            if self.outcome[i] == RAISED:
                t["raised"] += 1
            elif self.outcome[i] == VALUE:
                t["values"] += 1
        return totals

    def write(self, stem: str) -> None:
        """Spans as ``stem.bin`` (columns back to back) plus a ``stem.json`` index."""
        columns = [
            ("name", self.name),
            ("start_ns", self.start),
            ("end_ns", self.end),
            ("parent", self.parent),
            ("solve", self.solve),
            ("outcome", self.outcome),
        ]
        with open(stem + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        index = {
            "count": self.span_count,
            "names": self.names,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
            "byteorder": sys.byteorder,
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)


Z_RATIO = "geom.z_probes_per_build"


def layer_metric(totals: dict[str, dict[str, float]], metric: str, solves: int) -> float:
    """Value of one per-layer metric name, normalized per traced solve.

    ``<module>.<function>.<stat>`` with stat self_ms, total_ms, calls or
    raised (per solve) or hit_ratio (value-returning share of calls); the one
    derived ratio is ``geom.z_probes_per_build``.  A function that no longer
    exists made no calls, so its metrics read 0.
    """
    if metric == Z_RATIO:
        builds = totals.get("geom.build_z_structure", _NO_CALLS)["calls"]
        probes = totals.get("geom.query_z", _NO_CALLS)["calls"]
        return probes / builds if builds else 0.0
    func, stat = metric.rsplit(".", 1)
    t = totals.get(func, _NO_CALLS)
    if stat in ("self_ms", "total_ms"):
        return t[stat[:-2] + "ns"] / 1e6 / solves
    if stat in ("calls", "raised"):
        return t[stat] / solves
    if stat == "hit_ratio":
        return t["values"] / t["calls"] if t["calls"] else 0.0
    raise ValueError(f"unknown per-layer statistic in {metric!r}")


def missing_functions(totals: dict[str, dict[str, float]], metrics: list[str]) -> list[str]:
    """The metrics among ``metrics`` whose function is no traced public function."""
    return [m for m in metrics if m != Z_RATIO and m.rsplit(".", 1)[0] not in totals]
