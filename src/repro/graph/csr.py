"""CSR adjacency substrate for the graph kernels.

The DomainNet graphs at reproduction scale (10^4–10^6 nodes) fit
comfortably in driver memory as two int arrays; the CSR is built from the
driver-resident edge arrays of :mod:`repro.core.graph`, broadcast to
executors, and indexed by the dense node ids assigned there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.graph import BipartiteGraph


@dataclass(frozen=True)
class CSR:
    """Undirected adjacency in compressed-sparse-row form.

    ``indptr`` has length ``n + 1``; neighbors of node ``u`` are
    ``indices[indptr[u]:indptr[u + 1]]``. Every undirected edge is stored
    in both directions.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_undirected_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def csr_from_arrays(src: np.ndarray, dst: np.ndarray, n: int) -> CSR:
    """Build a CSR from one-direction edge endpoint arrays (each edge
    listed once; both directions are added here)."""
    u = np.concatenate([src, dst]).astype(np.int64, copy=False)
    v = np.concatenate([dst, src]).astype(np.int64, copy=False)
    order = np.argsort(u, kind="stable")
    u, v = u[order], v[order]
    counts = np.bincount(u, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSR(indptr=indptr, indices=v)


def csr_from_edges(graph: BipartiteGraph) -> CSR:
    """CSR over every node of a DomainNet graph (values and attributes)."""
    return csr_from_arrays(graph.value_id, graph.attr_id, graph.n_nodes)
