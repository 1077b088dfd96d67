"""End-to-end DomainNet pipeline (paper Fig. 4).

(1) construct the bipartite graph from a lake's collected incidences,
(2) compute a centrality measure for every value node,
(3) rank values in the measure's homograph direction.

Measure ``"bc"`` is betweenness centrality (exact when
``n_samples=None``, source-sampled otherwise); ``"lcc"`` is the
bipartite local clustering coefficient. One graph serves every measure.

Spark runs only the reduction of the lake to its incidences
(:func:`repro.core.graph.incidences`, before this module) and the BC
fan-out; the graph, LCC and the ranking live on the driver.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.betweenness import betweenness_spark
from repro.core.graph import BipartiteGraph, build_graph
from repro.core.lcc import lcc_scores
from repro.core.ranking import MEASURE_ASCENDING, attach_labels, rank_values
from repro.graph.csr import csr_from_edges


def value_scores(
    spark: SparkSession,
    graph: BipartiteGraph,
    *,
    measure: str = "bc",
    n_samples: int | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """``(label, <measure>)`` for every value node of ``graph``."""
    if measure == "bc":
        csr = csr_from_edges(graph)
        scores = betweenness_spark(spark, csr, n_samples=n_samples, seed=seed)
        return attach_labels(graph, scores, score_col="bc")
    if measure == "lcc":
        return attach_labels(graph, lcc_scores(graph), score_col="lcc")
    raise ValueError(f"unknown measure {measure!r} (expected 'bc' or 'lcc')")


def rank_homographs(
    spark: SparkSession,
    inc: pd.DataFrame,
    *,
    measures: tuple[str, ...] = ("bc",),
    n_samples: int | None = None,
    seed: int = 0,
    prune_unique: bool = True,
) -> tuple[BipartiteGraph, dict[str, pd.DataFrame]]:
    """Full pipeline: lake incidences → ranked homograph candidates.

    ``inc`` is the lake's :func:`~repro.core.graph.incidences` frame.
    Builds the graph once and ranks its values by every measure in
    ``measures``. Returns the graph and, per measure, a ``(label,
    <measure>, rank)`` pandas frame in rank order, rank 1 = strongest
    homograph candidate.
    """
    graph = build_graph(inc, prune_unique=prune_unique)
    ranked = {}
    for measure in measures:
        labeled = value_scores(
            spark, graph, measure=measure, n_samples=n_samples, seed=seed
        )
        ranked[measure] = rank_values(
            labeled, score_col=measure, ascending=MEASURE_ASCENDING[measure]
        )
    return graph, ranked
