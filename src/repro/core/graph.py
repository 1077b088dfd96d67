"""DomainNet bipartite graph construction (paper §3.2, Fig. 4 step 1).

Nodes are data values and attributes; an edge ``(v, a)`` exists iff
normalized value ``v`` occurs in attribute ``a``. Each distinct value is
one node no matter how many attributes it occurs in.

Spark reduces the lake to its distinct incidences in one query and one
collect (:func:`incidences`); the graph itself lives on the driver as
numpy arrays:

- ``labels``: node labels indexed by node id. Value nodes take ids
  ``[0, n_values)``, attribute nodes ``[n_values, n_values + n_attrs)``;
  within each side ids follow label order (code-point order), so they
  are dense and do not depend on Spark's row order.
- ``value_id`` / ``attr_id``: one entry per distinct (value, attribute)
  incidence, sorted by ``(value_id, attr_id)``.

Paper §5 pre-processing: values occurring in a single attribute cannot be
homographs; ``prune_unique=True`` (default) removes them after the
collect, shrinking the graph (≈3% of nodes on TUS, ≈30% on SB per the
paper).

Everything downstream of :func:`incidences` — the graph, D4-lite and the
TUS-I labeling, removal and injection — takes the collected frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.normalize import ATTR_COL, VALUE_COL, normalize_cells


@dataclass(frozen=True)
class BipartiteGraph:
    """The DomainNet graph on the driver.

    ``n_values`` + ``n_attrs`` = total node count; ``n_edges`` counts
    undirected value–attribute edges once.
    """

    labels: np.ndarray
    value_id: np.ndarray
    attr_id: np.ndarray
    n_values: int

    @property
    def n_attrs(self) -> int:
        return len(self.labels) - self.n_values

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.value_id)

    def value_labels(self) -> np.ndarray:
        """Labels of the value nodes, indexed by node id."""
        return self.labels[: self.n_values]

    def value_degrees(self) -> np.ndarray:
        """Number of attributes per value node, indexed by node id."""
        return np.bincount(self.value_id, minlength=self.n_values)


def incidences(cells: DataFrame) -> pd.DataFrame:
    """Distinct normalized ``(attr, value)`` incidences of a lake, computed
    in Spark and collected to the driver (rows in Spark's order)."""
    return normalize_cells(cells).select(ATTR_COL, VALUE_COL).distinct().toPandas()


def build_graph(inc: pd.DataFrame, *, prune_unique: bool = True) -> BipartiteGraph:
    """Construct the DomainNet bipartite graph from a lake's incidences.

    ``inc`` is the distinct ``(attr, value)`` frame of :func:`incidences`
    (or one derived from it); ids, pruning and the edge order are worked
    out here, on the driver. ``prune_unique`` drops value nodes whose
    degree is 1 (they cannot be homographs — paper §5). Attribute nodes
    are kept even if all their values were pruned, mirroring the paper's
    attribute-node universe (so attribute ids are stable across prune
    settings of one lake).
    """
    value_labels, value_id = np.unique(
        inc[VALUE_COL].to_numpy(dtype=object), return_inverse=True
    )
    attr_labels, attr_id = np.unique(
        inc[ATTR_COL].to_numpy(dtype=object), return_inverse=True
    )
    if prune_unique:
        keep = np.bincount(value_id, minlength=len(value_labels)) >= 2
        is_edge = keep[value_id]
        value_labels = value_labels[keep]
        value_id = (np.cumsum(keep) - 1)[value_id[is_edge]]
        attr_id = attr_id[is_edge]
    n_values = len(value_labels)
    attr_id = attr_id + n_values
    order = np.lexsort((attr_id, value_id))
    return BipartiteGraph(
        labels=np.concatenate([value_labels, attr_labels]),
        value_id=value_id[order].astype(np.int64),
        attr_id=attr_id[order].astype(np.int64),
        n_values=n_values,
    )
