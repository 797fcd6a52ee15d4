"""Spans around the calls into each layer, recorded from outside the program.

The traced run wraps named functions in the program's own namespaces for
the length of one pass and restores them afterwards; no program file is
changed. Two kinds of span:

- nested spans (``Tracer.span``): a region with a parent, e.g. one pass,
  one comparator call, one dip-test call;
- chained spans (``Tracer.chain`` / ``Tracer.link``): the AdaWave stages.
  Spark is lazy, so a stage's Spark work runs after its function returns.
  Each link therefore lasts from its own call to the next link's call, and
  the links of one AdaWave call partition its wall time.

Every chained span runs its Spark jobs under a job group of its own, so
jobs, executor run time and shuffle bytes can be read back per span from
Spark's status store after the pass.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# module -> {attribute: span name}. Chained: AdaWave stages, looked up by
# adawave() in its own module namespace at call time.
CHAINED = {
    "repro.core.adawave": {
        "fit_grid": "quantize.fit_grid",
        "assign_cells": "quantize.assign_cells",
        "grid_densities": "quantize.grid_densities",
        "dwt_spark": "wavelet.dwt_spark",
        "elbow_threshold": "threshold.elbow_threshold",
        "connected_components": "components.connected_components",
    },
}
# Nested: the dip kernel as each comparator imports it.
NESTED = {
    "repro.baselines.skinnydip": {"diptest": "stats.diptest"},
    "repro.baselines.dipmeans": {"dip": "stats.dip", "dip_pvalue": "stats.dip_pvalue"},
}

# chained span names, in pipeline order (entry and label join are opened
# by the benchmark around its own call and collect)
CHAIN_SPANS = (
    ("adawave.entry",)
    + tuple(CHAINED["repro.core.adawave"].values())
    + ("adawave.label_join",)
)
NESTED_SPANS = tuple(n for names in NESTED.values() for n in names.values())


@dataclass
class Span:
    call_id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None
    group: str | None = None  # Spark job group of a chained span

    def as_dict(self) -> dict:
        return {
            "call_id": self.call_id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Records spans in memory; ``installed`` wraps the program's names.

    ``sc`` is the SparkContext whose job group each chained span sets; it
    may be None for code that runs no Spark jobs.
    """

    def __init__(self, sc=None, prefix: str = "pb"):
        self.sc = sc
        self.prefix = prefix
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._link: Span | None = None
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str, parent: int | None) -> Span:
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        return s

    def _parent(self) -> int | None:
        return self._stack[-1].call_id if self._stack else None

    @contextmanager
    def span(self, name: str):
        s = self._open(name, self._parent())
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    @contextmanager
    def chain(self, first: str):
        """Open a chain of linked spans whose first link is ``first``."""
        if self._link is not None:
            raise RuntimeError("chained spans do not nest")
        self.link(first)
        try:
            yield
        finally:
            self._link.end = time.perf_counter()
            self._link = None
            if self.sc is not None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def link(self, name: str) -> None:
        """End the open link, start ``name`` under a fresh Spark job group."""
        now = time.perf_counter()
        if self._link is not None:
            self._link.end = now
        s = self._open(name, self._parent())
        s.start = now
        s.group = f"{self.prefix}-{s.call_id}"
        if self.sc is not None:
            self.sc.setJobGroup(s.group, name)
        self._link = s

    # -- wrapping ------------------------------------------------------------
    def _wrap_chained(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._link is None:  # called outside a traced AdaWave call
                return fn(*args, **kwargs)
            self.link(name)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_nested(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced name for the length of the block, then restore.

        A name that no longer exists is an error: a silent zero would hide
        a refactor of the program.
        """
        if self._originals:
            raise RuntimeError("tracer already installed")
        targets = [(m, a, n, self._wrap_chained) for m, names in CHAINED.items() for a, n in names.items()]
        targets += [(m, a, n, self._wrap_nested) for m, names in NESTED.items() for a, n in names.items()]
        resolved = []
        for mod_name, attr, span_name, wrap in targets:
            mod = importlib.import_module(mod_name)
            if not callable(getattr(mod, attr, None)):
                raise AttributeError(
                    f"traced name {mod_name}.{attr} no longer exists; "
                    "update perfbench/tracing.py to the program's new layout"
                )
            resolved.append((mod, attr, span_name, wrap))
        try:
            for mod, attr, span_name, wrap in resolved:
                orig = getattr(mod, attr)
                self._originals.append((mod, attr, orig))
                setattr(mod, attr, wrap(orig, span_name))
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._originals:
            mod, attr, orig = self._originals.pop()
            setattr(mod, attr, orig)


class NullTracer:
    """Stand-in for untraced passes: records nothing, wraps nothing."""

    @contextmanager
    def chain(self, first: str):
        yield

    def link(self, name: str) -> None:
        pass

    @contextmanager
    def span(self, name: str):
        yield None


def spark_group_stats(sc, group: str) -> dict:
    """Jobs, executor run time (s) and shuffle MB written for one job group.

    Reads Spark's status store; call after the listener bus is drained.
    """
    store = sc._jsc.sc().statusStore()
    jobs = list(sc.statusTracker().getJobIdsForGroup(group))
    stages = set()
    for j in jobs:
        info = sc.statusTracker().getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    task_ms = 0
    shuffle_bytes = 0
    for s in stages:
        sd = store.lastStageAttempt(s)
        task_ms += sd.executorRunTime()
        shuffle_bytes += sd.shuffleWriteBytes()
    return {"jobs": len(jobs), "task_s": task_ms / 1e3, "shuffle_mb": shuffle_bytes / 1e6}


def drain_listener_bus(sc) -> None:
    """Wait until Spark's status store has seen every finished job."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()
