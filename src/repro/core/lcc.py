"""Bipartite local clustering coefficient (paper §3.3, Hypothesis 3.4).

For a value node ``u`` with attribute set ``A(u)``, and value-neighbors
``N(u)`` (distinct values sharing ≥1 attribute with ``u``):

    c_uv  = |A(u) ∩ A(v)| / |A(u) ∪ A(v)|          (pairwise coefficient)
    LCC(u) = mean over v ∈ N(u) of c_uv            (Equation 1)

This is the Latapy-style bipartite LCC; as the paper notes, it reduces to
the average Jaccard similarity between attribute sets, and it reproduces
the paper's Example 3.6 values (0.36 / 0.43 / 0.46) exactly.

Computed on the driver over twin classes, the distinct rows of the
value×attribute matrix ``B`` (values with the same attribute set have
the same LCC). With ``Bc`` those rows as dense float32, ``Bc[block] @
Bc.T`` gives the shared-attribute counts of a block of classes against
all classes (exact: counts stay far below 2**24). Then, for ``u`` in
class ``C``,

    LCC(u) = [(|C| - 1) + Σ_{C' ≠ C, I > 0} |C'| J(C, C')]
             / [(|C| - 1) + Σ_{C' ≠ C, I > 0} |C'|]

Blocks are sized so their temporaries stay under :data:`BLOCK_BYTES`.
"""
import numpy as np

from repro.core.graph import BipartiteGraph

#: Cap on one block's float64 ``(rows, n_classes)`` temporaries.
BLOCK_BYTES = 256 * 1024


def lcc_scores(graph: BipartiteGraph) -> np.ndarray:
    """LCC of every value node, indexed by node id.

    Each class's weighted Jaccard terms are summed in ascending order,
    one after the other, so equal LCCs are bit-identical and ties rank
    by label, not by float rounding.

    Value nodes with no value-neighbors (sole occupant of their
    attributes) have an undefined mean; they get LCC = 1.0, the
    "maximally clustered" end of the scale, since the measure is ranked
    ascending and such nodes carry no homograph evidence.
    """
    n = graph.n_values
    b = np.zeros((n, graph.n_attrs), dtype=bool)
    b[graph.value_id, graph.attr_id - n] = True
    rows_b, cls, size = np.unique(b, axis=0, return_inverse=True, return_counts=True)
    bc = rows_b.astype(np.float32)
    c = len(bc)
    deg = bc.sum(axis=1, dtype=np.float64)
    out = np.ones(c, dtype=np.float64)
    rows = max(1, BLOCK_BYTES // (8 * max(c, 1)))
    for lo in range(0, c, rows):
        hi = min(lo + rows, c)
        inter = (bc[lo:hi] @ bc.T).astype(np.float64)
        jac = inter / (deg[lo:hi, None] + deg[None, :] - inter)
        # Neighbors per class: all members of a sharing class, except u
        # itself in its own class (J(C, C) = 1).
        weight = np.where(inter > 0, size.astype(np.float64), 0.0)
        weight[np.arange(hi - lo), np.arange(lo, hi)] -= 1.0
        count = weight.sum(axis=1)
        # Zero terms sort first and add exactly nothing to a sequential sum.
        total = np.cumsum(np.sort(weight * jac, axis=1), axis=1)[:, -1]
        has = count > 0
        out[lo:hi][has] = total[has] / count[has]
    return out[cls.reshape(-1)]
