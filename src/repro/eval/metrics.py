"""Evaluation metrics (paper §5 "Measures of success").

Precision / recall / F1 of the k top-ranked homograph candidates, and the
full top-k curve of Figure 7. A ranking has one row per value node of the
graph, so it is driver-sized and these run in pandas.
"""
from typing import Collection, Iterable

import numpy as np
import pandas as pd


def topk_curve(ranked: pd.DataFrame, homographs: Collection[str]) -> pd.DataFrame:
    """Cumulative precision/recall/F1 at every rank.

    ``ranked`` has one row per candidate value in rank order, as
    :func:`repro.core.ranking.rank_values` returns it, with a ``label``
    column; ``homographs`` holds the true homograph labels. Recall is
    relative to the homographs among the candidates. Returns ``ranked``
    with ``rank``, ``is_homograph``, ``tp``, ``precision``, ``recall``
    and ``f1`` columns.
    """
    truth = ranked["label"].isin(homographs).to_numpy(dtype=bool)
    rank = np.arange(1, len(ranked) + 1, dtype=np.int64)
    tp = np.cumsum(truth, dtype=np.int64)
    precision = tp / rank
    recall = tp / max(int(truth.sum()), 1)
    denom = precision + recall
    f1 = np.divide(
        2 * precision * recall, denom, out=np.zeros(len(ranked)), where=denom > 0
    )
    return ranked.reset_index(drop=True).assign(
        rank=rank, is_homograph=truth, tp=tp, precision=precision, recall=recall, f1=f1
    )


def metrics_at_k(curve: pd.DataFrame, k: int) -> dict:
    """Precision/recall/F1 at rank ``k`` from a :func:`topk_curve` result.

    If the curve has fewer than ``k`` rows (fewer candidates than ``k``),
    the last row is used and precision is re-based on ``k`` slots — the
    paper's convention when an algorithm returns fewer than k results
    (D4 on SB returns 21 candidates, scored against 55 slots).
    """
    top = curve[curve["rank"] <= k]
    if top.empty:
        return {"k": k, "precision": 0.0, "recall": 0.0, "f1": 0.0, "tp": 0}
    r = top.iloc[-1]
    tp = int(r["tp"])
    precision = tp / k
    recall = float(r["recall"])
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"k": k, "precision": precision, "recall": recall, "f1": f1, "tp": tp}


def best_f1(curve: pd.DataFrame) -> dict:
    """Rank with the highest F1 on the curve (paper §5.3 reports it);
    the smallest such rank on ties."""
    r = curve.iloc[int(curve["f1"].to_numpy().argmax())]
    return {
        "k": int(r["rank"]),
        "precision": float(r["precision"]),
        "recall": float(r["recall"]),
        "f1": float(r["f1"]),
        "tp": int(r["tp"]),
    }


def hits_in_topk(curve: pd.DataFrame, k: int, targets: Iterable[str]) -> int:
    """How many of ``targets`` (labels) rank in the top ``k`` — the
    Table 2 / Table 3 measure for injected homographs."""
    top = curve.loc[curve["rank"] <= k, "label"]
    return int(top.isin(set(targets)).sum())
