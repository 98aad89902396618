"""In-memory spans around calls into the package's layers.

The package itself is not instrumented. While a Tracer is installed, the
public functions and methods listed in LAYERS are replaced, in this
process only, by wrappers that record a span per call: its name, start,
end, parent span and thread. Spans stay in memory and are written out at
the end of the run. Self time, counts and ratios are computed from them.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _cells(args, kwargs, result):
    return {"cells": len(result), "ok_cells": sum(p.status == "ok" for p in result)}


# (span name, module, owner, attribute, counter); owner is a class name, or
# None for a module-level function; a counter maps (args, kwargs, result)
# to counts recorded as "<span name>.<key>"
LAYERS = (
    ("numerics.sign_partition", "numerics", None, "sign_partition", None),
    ("numerics.signed_variation", "numerics", None, "signed_variation", None),
    ("transfer.deriv", "transfer", "TransferFunction", "deriv", _points),
    ("transfer.eval", "transfer", "TransferFunction", "eval", _points),
    ("transfer.piecewise.deriv", "transfer", "PiecewiseFunction", "deriv", None),
    ("transfer.hfunc", "transfer", "HFunction", "__call__", _points),
    ("distributions.quantile", "distributions", "WindowedDistribution", "quantile", _points),
    ("distributions.density_quantile", "distributions", "WindowedDistribution",
     "density_quantile", _points),
    ("distributions.sample", "distributions", "WindowedDistribution", "sample", None),
    ("estimators.sample_pairs", "estimators", "SamplePairs", "__post_init__", None),
    ("estimators.empirical_index", "estimators", None, "empirical_index", None),
    ("estimators.noisy_outputs", "estimators", None, "noisy_outputs", None),
    ("rng.mix_seed", "rng", None, "mix_seed", None),
    ("simulation.run_experiment", "simulation", None, "run_experiment", _cells),
    ("simulation.write_csv", "simulation", None, "write_trajectory_csv", None),
    ("theoretical.theoretical_index", "theoretical", None, "theoretical_index", None),
    ("theoretical.theoretical_index_via_H", "theoretical", None, "theoretical_index_via_H", None),
)
# one span per task a simulation thread pool runs
REPLICATION = "simulation.replication"


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    thread: int
    start: int  # perf_counter_ns
    end: int


class Tracer:
    """Records spans and counts from any thread; install() wires it in."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[tuple[int, array, Counter]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.pools: list[tuple[int, int]] = []  # (parent span, worker count)

    def _thread(self):
        local = self._local
        if not hasattr(local, "records"):
            local.stack = []
            local.records = array("q")
            local.counts = Counter()
            with self._lock:
                self._buffers.append((len(self._buffers), local.records, local.counts))
        return local

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def current(self) -> int:
        stack = self._thread().stack
        return stack[-1] if stack else -1

    def count(self, name: str, k: int = 1) -> None:
        self._thread().counts[name] += k

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        """A span around the block; parent defaults to the innermost open
        span of this thread, and is given explicitly across threads."""
        local = self._thread()
        name_id = self._name_id(name)
        sid = next(self._ids)
        if parent is None:
            parent = local.stack[-1] if local.stack else -1
        local.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            local.stack.pop()
            local.records.extend((sid, parent, name_id, start, end))

    def wrap(self, name: str, fn, counter=None):
        """fn inside a span per call. The body repeats span() inline
        because the piecewise route makes ~10^5 calls a pass, where a
        context manager per call would add to the tracing overhead."""
        name_id = self._name_id(name)
        thread = self._thread
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            local = thread()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.records.extend((sid, parent, name_id, start, end))
            if counter is not None:
                for key, k in counter(args, kwargs, result).items():
                    local.counts[f"{name}.{key}"] += k
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> list[Span]:
        out = []
        for slot, records, _ in self._buffers:
            for i in range(0, len(records), 5):
                sid, parent, name_id, start, end = records[i:i + 5]
                out.append(Span(sid, parent, self.names[name_id], slot, start, end))
        return out

    def counts(self) -> Counter:
        total = Counter()
        for _, _, counts in self._buffers:
            total.update(counts)
        return total

    @contextlib.contextmanager
    def install(self):
        """Wrap every LAYERS target, and the simulation thread pool, for
        the duration of the block; restores the originals afterwards."""
        package = sys.modules["monotone_index"]
        modules = [m for name, m in list(sys.modules.items())
                   if name == "monotone_index" or name.startswith("monotone_index.")]
        undo = []

        def rebind(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for name, module, owner, attr, counter in LAYERS:
            mod = getattr(package, module)
            if owner is None:
                original = getattr(mod, attr)
                traced = self.wrap(name, original, counter)
                for m in modules:  # every module that imported the function by name
                    for key, value in list(vars(m).items()):
                        if value is original:
                            rebind(m, key, traced)
            else:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                traced = self.wrap(name, original, counter)
                for key, value in list(vars(cls).items()):  # aliases such as __call__ = eval
                    if value is original:
                        rebind(cls, key, traced)
        rebind(package.simulation, "ThreadPoolExecutor", self._pool_class())
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each task in a span whose parent is the span that
            created the pool, so worker time nests under its caller."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._parent = tracer.current()
                with tracer._lock:
                    tracer.pools.append((self._parent, self._max_workers))

            def submit(self, fn, /, *args, **kwargs):
                def task():
                    local = tracer._thread()
                    saved, local.stack = local.stack, []
                    try:
                        with tracer.span(REPLICATION, parent=self._parent):
                            return fn(*args, **kwargs)
                    finally:
                        local.stack = saved

                return super().submit(task)

        return TracedPool

    def write(self, path: str) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,thread,start_ns,end_ns\n")
            for s in self.spans():
                fh.write(f"{s.id},{s.parent},{s.name},{s.thread},{s.start},{s.end}\n")


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its duration minus the part of its
    interval that the union of its child spans covers. Children on other
    threads may overlap each other; their union counts once."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    spans = tracer.spans()
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_s = Counter()
    calls = Counter()
    for s in spans:
        self_s[s.name] += own[s.id] / 1e9
        calls[s.name] += 1
    counts = tracer.counts()

    busy = sum(s.end - s.start for s in spans if s.name == REPLICATION)
    capacity = sum((by_id[p].end - by_id[p].start) * workers
                   for p, workers in tracer.pools if p in by_id)

    out = {}
    for name in ("numerics.sign_partition", "numerics.signed_variation", "transfer.deriv",
                 "distributions.sample", "transfer.eval", "estimators.noisy_outputs",
                 "estimators.empirical_index", "estimators.sample_pairs",
                 "simulation.run_experiment", "simulation.write_csv"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("numerics.sign_partition", "transfer.deriv", "transfer.piecewise.deriv",
                 "rng.mix_seed"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("transfer.deriv", "transfer.hfunc", "distributions.quantile",
                 "distributions.density_quantile", "transfer.eval"):
        out[f"{name}.points"] = (counts[f"{name}.points"], "count")
    cells = counts["simulation.run_experiment.cells"]
    out["simulation.cells"] = (cells, "count")
    out["simulation.ok_ratio"] = (
        counts["simulation.run_experiment.ok_cells"] / cells if cells else 0.0, "ratio")
    out["simulation.thread_busy_ratio"] = (busy / capacity if capacity else 0.0, "ratio")
    out["theoretical.self_s"] = (
        self_s["theoretical.theoretical_index"] + self_s["theoretical.theoretical_index_via_H"], "s")
    out["cli.ingest.self_s"] = (self_s["cli.estimate"], "s")
    out["cli.bytes_in"] = (counts["cli.bytes_in"], "bytes")
    return out
