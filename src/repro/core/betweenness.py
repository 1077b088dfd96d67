"""Betweenness centrality (paper §3.3, Hypothesis 3.5).

Exact BC is Brandes' algorithm (O(nm), Brandes 2001): one BFS + one
dependency-accumulation pass per source node. The approximation is the
source-sampling estimator used by the paper's Networkit setup: run
Brandes from ``s`` uniformly sampled sources and scale the summed
dependencies by ``n / s``.

Distribution: Brandes is embarrassingly parallel over sources. The CSR
adjacency is broadcast, a DataFrame of source ids is fanned out with
``mapInPandas`` (each task runs the numpy kernel for its sources and
emits its partial dependency vector sparsely), and the collected
partials are summed on the driver with ``np.bincount``.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.csr import CSR


def _expand(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """All (src, neighbor) pairs for edges leaving ``frontier`` nodes."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offs = np.arange(total, dtype=np.int64) - np.repeat(counts.cumsum() - counts, counts)
    idx = np.repeat(starts, counts) + offs
    return np.repeat(frontier, counts), indices[idx]


def brandes_dependencies(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> np.ndarray:
    """Dependency vector ``delta_source(v)`` of one Brandes iteration.

    ``delta[source]`` is forced to 0 (the source accumulates predecessor
    contributions during the sweep but does not count toward its own BC).
    Level-synchronous and numpy-vectorized: per BFS level, edges are
    gathered via CSR slices; ``sigma`` updates and dependency pushes use
    ``np.add.at`` so duplicate targets within a level accumulate.
    """
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    d = 0
    while frontier.size:
        srcs, nbrs = _expand(indptr, indices, frontier)
        new = np.unique(nbrs[dist[nbrs] == -1])
        dist[new] = d + 1
        on_dag = dist[nbrs] == d + 1
        np.add.at(sigma, nbrs[on_dag], sigma[srcs[on_dag]])
        frontier = new
        if frontier.size:
            levels.append(frontier)
        d += 1

    delta = np.zeros(n, dtype=np.float64)
    for frontier in reversed(levels[:-1] if len(levels) > 1 else []):
        srcs, nbrs = _expand(indptr, indices, frontier)
        on_dag = dist[nbrs] == dist[srcs] + 1
        s_sel, n_sel = srcs[on_dag], nbrs[on_dag]
        np.add.at(delta, s_sel, sigma[s_sel] / sigma[n_sel] * (1.0 + delta[n_sel]))
    delta[source] = 0.0
    return delta


def betweenness_exact(csr: CSR, *, normalized: bool = True) -> np.ndarray:
    """Exact BC for every node (single-process reference kernel).

    Raw scores sum dependencies over *ordered* source–target pairs (the
    undirected-graph Brandes convention); ``normalized`` divides by
    ``(n - 1)(n - 2)`` so scores are comparable across graph sizes.
    """
    bc = np.zeros(csr.n, dtype=np.float64)
    for s in range(csr.n):
        bc += brandes_dependencies(csr.indptr, csr.indices, s)
    return _normalize(bc, csr.n) if normalized else bc


def sample_sources(csr: CSR, n_samples: int, *, seed: int = 0) -> np.ndarray:
    """Sample ``min(n_samples, n)`` distinct source nodes uniformly."""
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = np.random.default_rng(seed)
    return rng.choice(csr.n, size=min(n_samples, csr.n), replace=False)


def betweenness_spark(
    spark: SparkSession,
    csr: CSR,
    *,
    sources: Iterable[int] | None = None,
    n_samples: int | None = None,
    seed: int = 0,
    normalized: bool = True,
    parallelism: int | None = None,
) -> np.ndarray:
    """Distributed (approximate or exact) BC of every node, indexed by id.

    ``sources=None, n_samples=None`` runs every node (exact BC).
    With ``n_samples`` the estimator scales by ``n / s`` so sampled and
    exact scores are on the same scale (and identical when ``s = n``).
    """
    if sources is None:
        if n_samples is None:
            sources = np.arange(csr.n, dtype=np.int64)
        else:
            sources = sample_sources(csr, n_samples, seed=seed)
    sources = np.asarray(list(sources), dtype=np.int64)
    n, s = csr.n, len(sources)
    if s == 0:
        return np.zeros(n, dtype=np.float64)
    scale = 1.0 if s == n else n / s
    sc = spark.sparkContext
    bcast = sc.broadcast((csr.indptr, csr.indices))
    parallelism = parallelism or sc.defaultParallelism

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        indptr, indices = bcast.value
        acc = np.zeros(len(indptr) - 1, dtype=np.float64)
        for pdf in batches:
            for src in pdf["src"].to_numpy():
                acc += brandes_dependencies(indptr, indices, int(src))
        nz = np.flatnonzero(acc)
        yield pd.DataFrame({"node_id": nz, "partial": acc[nz]})

    src_df = spark.createDataFrame(
        pd.DataFrame({"src": sources}), schema="src long"
    ).repartition(min(parallelism, s))
    try:
        partials = src_df.mapInPandas(
            compute, schema="node_id long, partial double"
        ).toPandas()
    finally:
        bcast.destroy()
    bc = np.bincount(
        partials["node_id"].to_numpy(np.int64),
        weights=partials["partial"].to_numpy(np.float64),
        minlength=n,
    ) * scale
    return _normalize(bc, n) if normalized else bc


def _normalize(bc: np.ndarray, n: int) -> np.ndarray:
    return bc / float((n - 1) * (n - 2)) if n > 2 else bc
