"""Spans around the calls a paper harness makes into each pipeline layer.

The program has no tracing of its own, so the benchmark wraps the layer
functions where the harness modules look them up (``module.name``) for
the length of one traced harness call. Each wrapper

- records a span (layer, function, start, end, parent, run id);
- runs the layer's Spark jobs under a job group of its own, so jobs,
  stages and tasks can be read per layer from ``statusTracker()``;
- materializes every DataFrame the layer returns (``cache`` + ``count``),
  so a lazy layer's work runs inside its own span and the layer that
  consumes it reads the cached result instead of recomputing it.

The caches taken here are released when the traced call ends; caches the
program takes itself are left alone.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from contextlib import contextmanager

from pyspark.sql import DataFrame

#: (module, function) → layer: the layer functions the benchmark's two
#: harnesses call, in the module each is called from.
LAYER_CALLS = {
    ("repro.eval.experiments", "sb_lake"): "lakes.gen",
    ("repro.eval.experiments", "tus_lake"): "lakes.gen",
    ("repro.lakes.tus_inject", "definition2_truth"): "lakes.truth",
    ("repro.eval.experiments", "remove_homographs"): "lakes.clean",
    ("repro.eval.experiments", "inject_homographs"): "lakes.inject",
    ("repro.eval.experiments", "rank_homographs"): "pipeline",
    ("repro.core.pipeline", "build_graph"): "graph",
    ("repro.core.pipeline", "csr_from_edges"): "csr",
    ("repro.core.pipeline", "betweenness_spark"): "bc",
    ("repro.core.pipeline", "lcc_scores"): "lcc",
    ("repro.core.pipeline", "attach_labels"): "rank",
    ("repro.core.pipeline", "rank_values"): "rank",
    ("repro.eval.experiments", "topk_curve"): "metrics",
    ("repro.eval.experiments", "metrics_at_k"): "metrics",
    ("repro.eval.experiments", "hits_in_topk"): "metrics",
    ("repro.eval.experiments", "discover_domains"): "d4",
}

#: Span name of the harness call itself; jobs the harness runs between
#: layer calls are counted under it.
ROOT = "harness"


@dataclasses.dataclass
class Span:
    run_id: str
    span_id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and Spark job groups of one traced harness call."""

    def __init__(self, spark, run_id: str):
        self.sc = spark.sparkContext
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._cached: list[DataFrame] = []
        #: the last CSR handed to ``betweenness_spark`` (for the kernel
        #: baseline) and the sources all its calls ran.
        self.bc_csr = None
        self.bc_sources = 0
        #: sizes of the last graph built and the last CSR collected.
        self.graph_sizes: dict[str, int] = {}
        self.csr_bytes = 0

    # ----------------------------------------------------------- spans
    def group(self, layer: str) -> str:
        return f"perfbench-{self.run_id}-{layer}"

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(self.run_id, len(self.spans), parent.span_id if parent else None,
                 layer, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        self.sc.setJobGroup(self.group(layer), f"{layer}:{name}")
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.sc.setJobGroup(self.group(parent.layer), f"{parent.layer}:{parent.name}")
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                self.sc.setLocalProperty("spark.job.description", None)

    def _materialize(self, result):
        """Run every DataFrame in ``result`` now, keeping it cached."""
        if isinstance(result, DataFrame):
            if not result.is_cached:
                result.cache()
                self._cached.append(result)
            result.count()
        elif isinstance(result, tuple):
            for r in result:
                self._materialize(r)
        elif isinstance(getattr(result, "cells", None), DataFrame):
            # Lake and injection results; ``build_graph`` caches and
            # counts the graph's frames itself.
            self._materialize(result.cells)

    def _observe(self, layer: str, args, kwargs, result) -> None:
        if layer == "graph":
            self.graph_sizes = {"n_nodes": result.n_nodes, "n_edges": result.n_edges}
        elif layer == "csr":
            self.csr_bytes = int(result.indptr.nbytes + result.indices.nbytes)
        elif layer == "bc":
            # ``value_scores`` calls betweenness_spark(spark, csr, n_samples=…);
            # no sample count means exact BC from every node.
            csr, n_samples = args[1], kwargs.get("n_samples")
            self.bc_csr = csr
            self.bc_sources += csr.n if n_samples is None else min(n_samples, csr.n)

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__):
                result = fn(*args, **kwargs)
                self._materialize(result)
            self._observe(layer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every layer function of :data:`LAYER_CALLS` for the
        duration of the block; restore them and drop the caches the
        wrappers took afterwards."""
        saved = []
        for (mod_name, fn_name), layer in LAYER_CALLS.items():
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, fn_name)
            saved.append((mod, fn_name, fn))
            setattr(mod, fn_name, self.wrap(layer, fn))
        try:
            with self.span(ROOT, ROOT):
                yield self
        finally:
            for mod, fn_name, fn in saved:
                setattr(mod, fn_name, fn)
            for df in self._cached:
                df.unpersist()
            self._cached.clear()

    # --------------------------------------------------------- results
    def self_seconds(self) -> dict[str, float]:
        """Per layer: the summed span time not covered by child spans."""
        child = {s.span_id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - child[s.span_id]
        return out

    def spark_counts(self) -> dict[str, dict[str, int]]:
        """Per layer: Spark jobs, stages run and tasks completed."""
        _drain_listener_bus(self.sc)
        tracker = self.sc.statusTracker()
        out = {}
        for layer in {s.layer for s in self.spans}:
            jobs = tracker.getJobIdsForGroup(self.group(layer))
            stage_ids = set()
            for j in jobs:
                info = tracker.getJobInfo(j)
                if info is not None:
                    stage_ids.update(info.stageIds)
            stages = tasks = 0
            for sid in stage_ids:
                st = tracker.getStageInfo(sid)
                if st is not None and st.numCompletedTasks > 0:
                    stages += 1
                    tasks += st.numCompletedTasks
            out[layer] = {"jobs": len(jobs), "stages": stages, "tasks": tasks}
        return out


def _drain_listener_bus(sc) -> None:
    """Wait until the status store has seen every finished job."""
    sc._jsc.sc().listenerBus().waitUntilEmpty(30_000)
