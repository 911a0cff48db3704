"""Benchmark-side tracing of the diagnosis layers.

Spans are recorded from the benchmark's own files: :meth:`Tracer.install`
wraps the public functions of each layer (and a few methods on the
layer's classes) in every ``repro`` module namespace that holds them,
for example both ``repro.diagnose.engine.path_trace_counts`` and
``repro.diagnose.tree.path_trace_counts``.  Nothing under ``src/``
changes.

Each span is one row of four in-memory arrays (layer, parent span id,
start, end).  The open-span stack supplies the parent id.  After each
operation :meth:`Tracer.flush` folds the spans into per-layer *self
time*: a span's duration minus the durations of its direct children.
Counters (rows changed, screened survivors, ...) are read from the
arguments and return values at the same boundaries.

Workers of a process pool are not traced.  The sharded workload's
executor hook (:meth:`Tracer.executor`) removes the wrappers while
:func:`repro.parallel.run_shards` forks its pool, times the call and
reads every ``ShardResult.stats``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _len_result(tracer, key):
    def count(args, kwargs, result):
        tracer.counts[key] += len(result)
    return count


class Tracer:
    """Span store plus the wrapper installation it owns."""

    def __init__(self):
        self.active = False
        self.names: list = []
        self._codes: dict = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.spans = 0
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.parallel: dict = defaultdict(float)
        self._patches: list = []     # (owner, attribute, original, wrapper)
        self._op = self.wrap("op", lambda fn: fn())

    # -- spans ---------------------------------------------------------
    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn, count=None):
        code = self.code(name)
        layer, parent, start, end = (self.layer, self.parent, self.start,
                                     self.end)
        stack = self.stack
        now = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(layer)
            layer.append(code)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = now()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def flush(self) -> None:
        """Fold the recorded spans into per-layer self time, then drop
        them (spans live for one operation)."""
        n = len(self.layer)
        if not n:
            return
        layer = np.array(self.layer, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        duration = (np.array(self.end, dtype=np.float64)
                    - np.array(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent],
                            weights=duration[has_parent], minlength=n)
        own = duration - child
        self_s = np.bincount(layer, weights=own,
                             minlength=len(self.names))
        calls = np.bincount(layer, minlength=len(self.names))
        for code, name in enumerate(self.names):
            self.self_s[name] += float(self_s[code])
            self.calls[name] += int(calls[code])
        self.spans += n
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]

    def run(self, fn):
        """Call ``fn()`` as one traced operation under a root ``op``
        span; its self time is the work no layer wrapper covers."""
        self.active = True
        try:
            return self._op(fn)
        finally:
            self.active = False
            self.flush()

    # -- installation --------------------------------------------------
    def _patch_everywhere(self, original, wrapper) -> None:
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if mod_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        """Wrap every layer boundary (the sites are collected once)."""
        if not self._patches:
            self._collect()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _collect(self) -> None:
        from repro.analyze import incremental
        from repro.circuit.lines import LineTable
        from repro.circuit.netlist import Netlist
        from repro.diagnose import (bitlists, candidates, engine,
                                    pathtrace, potential, screening, tree)
        from repro.faults import models
        from repro.sim import logicsim

        counts = self.counts

        def verr(args, kwargs, result):
            counts["screening.verr_pass"] += result is not None

        def prescreen(args, kwargs, result):
            counts["screening.prescreen_dropped"] += result[1]

        def corrections(args, kwargs, result):
            given = args[1] if len(args) > 1 else kwargs["corrections"]
            counts["screening.corrections_in"] += len(given)
            counts["screening.corrections_out"] += len(result)

        functions = (
            (engine, "fast_stuck_at_child", "engine.child", None),
            (engine, "exact_candidates", "engine.expand", None),
            (pathtrace, "path_trace_counts", "pathtrace", None),
            (screening, "prescreen_suspects", "screening.prescreen",
             prescreen),
            (screening, "screen_verr", "screening.verr", verr),
            (screening, "screen_corrections", "screening.corrections",
             corrections),
            (potential, "rank_lines", "potential", None),
            (candidates, "corrections_for_line", "candidates",
             _len_result(self, "candidates.count")),
            (logicsim, "propagate", "sim.propagate",
             _len_result(self, "sim.propagate_rows")),
            (logicsim, "simulate", "sim.simulate", None),
            (models, "apply_correction", "faults.apply", None),
            (incremental, "warm_facts", "analyze.warm", None),
        )
        for module, attr, name, count in functions:
            original = getattr(module, attr)
            self._patch_everywhere(original,
                                   self.wrap(name, original, count))
        methods = (
            (tree.DecisionTree, "expand", "tree.expand"),
            (tree.DecisionTree, "apply", "tree.apply"),
            (bitlists.DiagnosisState, "__init__", "bitlists.state"),
            (bitlists.DiagnosisState, "outcome_of_override",
             "bitlists.override"),
            (Netlist, "copy", "circuit.copy"),
            (LineTable, "__init__", "circuit.linetable"),
        )
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original,
                                  self.wrap(name, original)))

    # -- process-pool executor hook -------------------------------------
    def executor(self):
        """An ``executor=`` for the diagnosis session: runs
        :func:`repro.parallel.run_shards` and accounts its shards."""
        from repro.parallel import run_shards
        parallel = self.parallel

        def run(tasks, jobs, payload=None, context=None,
                wall_deadline=None):
            pooled = jobs > 1 and len(tasks) > 1
            if pooled:
                self.uninstall()     # forked workers start untraced
            t0 = time.perf_counter()
            try:
                results = run_shards(tasks, jobs, payload=payload,
                                     context=context,
                                     wall_deadline=wall_deadline)
            finally:
                wall = time.perf_counter() - t0
                if pooled:
                    self.install()
            busy = [res.stats.total_time for res in results
                    if res.stats is not None]
            parallel["shards"] += len(results)
            parallel["failed_shards"] += sum(res.error is not None
                                             for res in results)
            parallel["busy_s"] += sum(busy)
            parallel["max_shard_s"] = max([parallel["max_shard_s"]]
                                          + busy)
            parallel["wall_s"] += wall
            parallel["slot_s"] += wall * (jobs if pooled else 1)
            return results
        return self.wrap("parallel", run)
