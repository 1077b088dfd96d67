"""Score ranking (paper Fig. 4 step 3).

Attaches centrality scores to value labels and orders them in the
measure's homograph direction: BC descending, LCC ascending.
"""
import numpy as np
import pandas as pd

from repro.core.graph import BipartiteGraph

#: Per-measure sort direction: True = ascending = homographs first.
MEASURE_ASCENDING = {"bc": False, "lcc": True}


def attach_labels(
    graph: BipartiteGraph, scores: np.ndarray, *, score_col: str
) -> pd.DataFrame:
    """``(label, score)`` for every value node of the graph.

    ``scores`` is indexed by node id; entries past the value nodes
    (attribute-node BC) are ignored.
    """
    return pd.DataFrame(
        {
            "label": graph.value_labels(),
            score_col: np.asarray(scores, dtype=np.float64)[: graph.n_values],
        }
    )


def rank_values(
    labeled: pd.DataFrame, *, score_col: str, ascending: bool
) -> pd.DataFrame:
    """Sort in the measure's direction and add a dense 1-based ``rank``
    column, ties broken by label."""
    out = labeled.sort_values(
        [score_col, "label"], ascending=[ascending, True], kind="stable"
    ).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out
