"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only: the tracer wraps the
environment, oracle and model objects handed to the package, and for the
length of a traced call it replaces module attributes such as
``safebandit.algorithms.action_probs`` with timed wrappers. Nothing inside
the package is edited.

Each span has a name, a start, an end, the span open when it began (its
parent) and a replication id. They are kept in flat arrays in memory and
written out once, when the run ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import weakref
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import safebandit
from safebandit import algorithms, analysis, cli, core, environments, harness, oracle

MODULES = (safebandit, algorithms, analysis, cli, core, environments, harness, oracle)

# span name -> (module, attribute) of each package function that gets a span
FUNCTION_SPANS = {
    "cli.main": (cli, "main"),
    "harness.compare_experiments": (harness, "compare_experiments"),
    "harness.run_experiment": (harness, "run_experiment"),
    "harness.run_replications": (harness, "run_replications"),
    "harness.write_trace_csv": (harness, "write_trace_csv"),
    "harness.write_epochs_csv": (harness, "write_epochs_csv"),
    "harness.render_regret_svg": (harness, "render_regret_svg"),
    "analysis.epoch_summaries": (analysis, "epoch_summaries"),
    "analysis.aggregate_runs": (analysis, "aggregate_runs"),
    "algorithms.action_probs": (algorithms, "action_probs"),
}
# One replication: the epoch loop, named after what its self time covers.
LOOP_SPAN = "algorithms.loop"
LOOP_FUNCTIONS = ("run_safe_falcon", "run_falcon_plus")
# Methods of the objects the tracer wraps.
OBJECT_SPANS = ("environments.sample", "core.values", "oracle.fit")
# The benchmark's own spans: the whole timed call, and the output check
# inside it, whose time is excluded from the workload's.
WORKLOAD_SPAN = "bench.workload"
CHECK_SPAN = "bench.check"

SPAN_NAMES = (*FUNCTION_SPANS, LOOP_SPAN, *OBJECT_SPANS, WORKLOAD_SPAN, CHECK_SPAN)


class _Proxy:
    """Forwards every attribute it does not set itself to the wrapped object."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.replication = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._replication = -1
        self._next_replication = 0
        # exact counters
        self.fit_rows = 0
        self.trace_csv_bytes = 0
        self.run_trace_bytes_live = 0
        self.run_trace_bytes_peak = 0

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.replication.append(self._replication)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn):
        nid = self.ids[name]
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    # -- objects handed to the package -----------------------------------

    def env(self, env):
        proxy = _Proxy(env)
        proxy.sample = self.wrap("environments.sample", env.sample)
        return proxy

    def model(self, model):
        proxy = _Proxy(model)
        proxy.values = self.wrap("core.values", model.values)
        return proxy

    def oracle(self, orc):
        fit = self.wrap("oracle.fit", orc.fit)

        def fit_and_wrap(data):
            self.fit_rows += len(data)
            return self.model(fit(data))

        proxy = _Proxy(orc)
        proxy.fit = fit_and_wrap
        return proxy

    # -- counters ---------------------------------------------------------

    def _track_run_trace(self, trace) -> None:
        """Add the trace's array bytes to the live total until it is freed."""
        nbytes = sum(
            v.nbytes
            for v in (getattr(trace, f.name) for f in dataclasses.fields(trace))
            if isinstance(v, np.ndarray)
        )
        self.run_trace_bytes_live += nbytes
        self.run_trace_bytes_peak = max(self.run_trace_bytes_peak, self.run_trace_bytes_live)
        weakref.finalize(trace, self._release, nbytes)

    def _release(self, nbytes: int) -> None:
        self.run_trace_bytes_live -= nbytes

    def _loop(self, fn):
        nid = self.ids[LOOP_SPAN]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._replication = self._next_replication
            self._next_replication += 1
            i = self.open(nid)
            try:
                trace = fn(*args, **kwargs)
            finally:
                self.close(i)
                self._replication = -1
            self._track_run_trace(trace)
            return trace

        return traced

    def _trace_writer(self, fn):
        traced = self.wrap("harness.write_trace_csv", fn)

        @functools.wraps(fn)
        def write(path, traces):
            traced(path, traces)
            self.trace_csv_bytes += os.path.getsize(path)

        return write

    # -- installing ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Replace every binding of the traced package functions, in every
        package module, for the length of the block."""
        saved = []

        def patch(original, replacement):
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, replacement)

        for name, (mod, attr) in FUNCTION_SPANS.items():
            fn = getattr(mod, attr)
            patch(fn, self._trace_writer(fn) if name == "harness.write_trace_csv" else self.wrap(name, fn))
        for attr in LOOP_FUNCTIONS:
            fn = getattr(algorithms, attr)
            patch(fn, self._loop(fn))
        build_environment = harness.build_environment
        patch(build_environment, lambda cfg: self.env(build_environment(cfg)))
        oracle_class = harness.LinearPerArmOracle
        saved.append((harness, "LinearPerArmOracle", oracle_class))
        harness.LinearPerArmOracle = lambda K, dim=1: self.oracle(oracle_class(K, dim))
        zero_model = algorithms.zero_model
        saved.append((algorithms, "zero_model", zero_model))
        algorithms.zero_model = lambda K: self.model(zero_model(K))
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    # -- results ---------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        return (
            np.frombuffer(self.name, dtype=np.int32, count=n),
            np.frombuffer(self.parent, dtype=np.int32, count=n),
            np.frombuffer(self.replication, dtype=np.int32, count=n),
            np.frombuffer(self.start, dtype=np.float64, count=n),
            np.frombuffer(self.end, dtype=np.float64, count=n),
        )

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds.

        Checks first that the spans nest: every span closed, every child
        inside its parent, and siblings disjoint, so the time children cover
        is the sum of their durations.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        name, parent, _, start, end = self.arrays()
        duration = end - start
        child = parent >= 0
        p = parent[child]
        if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
            raise RuntimeError("a child span lies outside its parent")
        order = np.lexsort((start, parent))
        same = parent[order[1:]] == parent[order[:-1]]
        if np.any(end[order[:-1]][same] > start[order[1:]][same]):
            raise RuntimeError("sibling spans overlap")
        covered = np.bincount(p, weights=duration[child], minlength=len(duration))
        own = np.bincount(name, weights=duration - covered, minlength=len(SPAN_NAMES))
        return {n: float(own[i]) for i, n in enumerate(SPAN_NAMES)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(self.arrays()[0], minlength=len(SPAN_NAMES))
        return {n: int(counts[i]) for i, n in enumerate(SPAN_NAMES)}

    def root_seconds(self) -> float:
        name, parent, _, start, end = self.arrays()
        roots = parent < 0
        return float(np.sum(end[roots] - start[roots]))

    def save(self, path: str) -> None:
        name, parent, replication, start, end = self.arrays()
        np.savez(path, names=np.array(SPAN_NAMES), name=name, parent=parent,
                 replication=replication, start=start, end=end)
