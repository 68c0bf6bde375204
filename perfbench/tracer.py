"""Per-layer tracing from outside the program.

install() wraps the public functions of the traced capedit modules in
timing wrappers, replacing every reference to them in every capedit
module namespace (the modules import names directly, e.g.
capedit.cli.construct_corpus and capedit.metrics.dsa_align).  remove()
puts the originals back.  Nothing under src/ changes.

Spans are merged per call path: all calls of one function from the same
parent span form one span record holding the first start, the last end,
the call count, the summed duration and the summed duration of its
child spans.  A function called once per parent (cli.main, read_dataset,
evaluate_corpus) is an ordinary span; a hot leaf such as claim_kinds,
called millions of times, is one record per parent instead of millions.
Memory is bounded by the number of call paths.

A span's self time is its duration minus its children's durations and
minus the wrappers' own cost.  That cost has two parts.  The outer part
(stack push and pop, the record lookup, the bookkeeping after the call)
falls outside the child's timed interval and so would be charged to
the parent: for a parent of a hot leaf such as claim_kinds it would be
most of the parent's self time.  The inner part (the clock call and the
forwarded call) falls inside the child's own interval.
wrapper_cost_ns() measures both on an empty function at the start of
every run, so that the correction is taken at the machine's speed of
the moment (on a shared machine it varies in phases).  The work
counters (COUNTERS) add a little more per call that is not corrected
for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

TRACED_MODULES = (
    "io", "text", "commands", "kernels", "alignment", "metrics", "construction", "cli",
)
# wrapped calls per calibration loop, and loops; about 0.05 s in all
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 9
# private CLI entry points traced under the subcommand's name
_RENAMED = {"_cmd_evaluate": "evaluate", "_cmd_construct": "construct"}


def _cells(args, kwargs, result) -> dict:
    return {"cells": len(args[0]) * len(args[1])}


def _records_out(args, kwargs, result) -> dict:
    return {"records": len(result)}


def _records_in(args, kwargs, result) -> dict:
    return {"records": len(args[1])}


def _samples_out(args, kwargs, result) -> dict:
    return {"samples_out": len(result)}


def _samples_in_out(args, kwargs, result) -> dict:
    return {"samples_in": len(args[0]), "samples_out": len(result)}


# work counters recorded at layer boundaries, by span name
COUNTERS = {
    "kernels.edit_distance": _cells,
    "kernels.lcs_length": _cells,
    "kernels.dsa_ops": _cells,
    "io.read_dataset": _records_out,
    "io.write_dataset": _records_in,
    "construction.build_add_length": _samples_out,
    "construction.build_del_length": _samples_out,
    "construction.degrade": _samples_out,
    "construction.make_attribute_samples": _samples_out,
    "construction.filter_and_balance": _samples_in_out,
}


def _noop():
    return None


def wrapper_cost_ns() -> tuple[float, float]:
    """Median cost, in ns per call, that a wrapper adds outside and
    inside the wrapped call's timed interval, from loops of empty
    iterations, of direct calls to an empty function and of wrapped
    calls to it."""
    probe = Tracer(cost_ns=(0.0, 0.0))
    wrapped = probe.wrap("calibration.noop", _noop)
    clock = time.perf_counter_ns
    calls = CALIBRATION_CALLS
    outer, inner = [], []
    for _ in range(CALIBRATION_REPEATS):
        probe.begin_run()
        root = probe._stack[-1]
        t0 = clock()
        for _ in range(calls):
            pass
        empty = clock() - t0
        t0 = clock()
        for _ in range(calls):
            _noop()
        direct = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        wall = clock() - t0
        inside = probe.child[root]
        outer.append((wall - inside - direct) / calls)
        inner.append((inside - (direct - empty)) / calls)
        probe.end_run()
    return statistics.median(outer), statistics.median(inner)


class Tracer:
    """Merged span records for one or more runs (one run per CLI call)."""

    def __init__(self, cost_ns: tuple[float, float] | None = None) -> None:
        # wrapper cost per call and run, outside (charged to the parent)
        # and inside (charged to the span) the timed interval; measured
        # at each begin_run unless given
        self._fixed_cost = cost_ns
        self.cost_ns: list[tuple[float, float]] = []
        # one entry per span record, in creation order
        self.name: list[str] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.calls: list[int] = []
        self.total: list[int] = []
        self.child: list[int] = []
        self.counts: list[dict | None] = []
        self._children: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.run_id = -1

    def begin_run(self) -> None:
        self.cost_ns.append(self._fixed_cost or wrapper_cost_ns())
        self.run_id += 1
        self._stack.clear()
        self._stack.append(self._new("run", -1))

    def end_run(self) -> None:
        root = self._stack.pop()
        self.end[root] = time.perf_counter_ns()
        self.total[root] = self.end[root] - self.start[root]

    def _new(self, name: str, parent: int) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(parent)
        self.run.append(self.run_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.calls.append(0)
        self.total.append(0)
        self.child.append(0)
        self.counts.append(None)
        self._children.append({})
        if parent >= 0:
            self._children[parent][name] = idx
        return idx

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        children = self._children
        st = self._stack
        clock = time.perf_counter_ns
        calls, total, child, end = self.calls, self.total, self.child, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = st[-1]
            node = children[parent].get(name)
            if node is None:
                node = self._new(name, parent)
            st.append(node)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.pop()
                calls[node] += 1
                total[node] += t1 - t0
                child[parent] += t1 - t0
                end[node] = t1
            if counter is not None:
                acc = self.counts[node]
                if acc is None:
                    acc = self.counts[node] = {}
                for key, value in counter(args, kwargs, result).items():
                    acc[key] = acc.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced public function wherever capedit holds it."""
        traced = [importlib.import_module(f"capedit.{short}") for short in TRACED_MODULES]
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "capedit" or n.startswith("capedit."))
        ]
        wrappers = {}
        for short, module in zip(TRACED_MODULES, traced):
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in _RENAMED:
                    continue
                wrappers[fn] = self.wrap(f"{short}.{_RENAMED.get(attr, attr)}", fn)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def remove(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def self_ns(self) -> list[float]:
        child_calls = [0] * len(self.name)
        for parent, calls in zip(self.parent, self.calls):
            if parent >= 0:
                child_calls[parent] += calls
        return [
            t - c - n * self.cost_ns[r][0] - k * self.cost_ns[r][1]
            for t, c, n, k, r in zip(self.total, self.child, child_calls, self.calls, self.run)
        ]

    def layers(self, run_id: int) -> dict[str, dict]:
        """Per span name, within one run: calls, self_ns and counters."""
        out: dict[str, dict] = {}
        selfs = self.self_ns()
        for i, name in enumerate(self.name):
            if self.run[i] != run_id:
                continue
            agg = out.setdefault(name, {"calls": 0, "self_ns": 0})
            agg["calls"] += self.calls[i]
            agg["self_ns"] += selfs[i]
            for key, value in (self.counts[i] or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path: str) -> None:
        """All span records as tab-separated lines, times in ns from the
        first span's start; self_ns is corrected for the wrapper cost."""
        origin = self.start[0] if self.start else 0
        selfs = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tspan\tparent\tname\tstart_ns\tend_ns\tcalls\ttotal_ns\tself_ns\tcounters\n")
            for i, name in enumerate(self.name):
                counts = ",".join(f"{k}={v}" for k, v in sorted((self.counts[i] or {}).items()))
                fh.write(
                    f"{self.run[i]}\t{i}\t{self.parent[i]}\t{name}\t"
                    f"{self.start[i] - origin}\t{self.end[i] - origin}\t"
                    f"{self.calls[i]}\t{self.total[i]}\t{selfs[i]:.0f}\t{counts}\n"
                )
