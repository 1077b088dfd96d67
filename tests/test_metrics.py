"""Tests for repro.eval.metrics (top-k curves, P/R/F1)."""
import pandas as pd
import pytest

from repro.core.ranking import rank_values
from repro.eval.metrics import best_f1, hits_in_topk, metrics_at_k, topk_curve

HOMOGRAPHS = {"a", "b", "d"}


@pytest.fixture(scope="module")
def scored():
    """A ranking in rank order."""
    pdf = pd.DataFrame(
        {
            "label": ["a", "b", "c", "d", "e", "f"],
            "score": [0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
        }
    )
    return pdf


def test_curve_ranks_descending(scored):
    curve = topk_curve(scored, HOMOGRAPHS)
    assert list(curve.label) == ["a", "b", "c", "d", "e", "f"]
    assert list(curve["rank"]) == [1, 2, 3, 4, 5, 6]


def test_cumulative_precision_recall(scored):
    curve = topk_curve(scored, HOMOGRAPHS).set_index("rank")
    assert curve.loc[1, "precision"] == 1.0
    assert curve.loc[3, "precision"] == pytest.approx(2 / 3)
    assert curve.loc[4, "precision"] == pytest.approx(3 / 4)
    assert curve.loc[4, "recall"] == pytest.approx(1.0)
    assert curve.loc[6, "recall"] == pytest.approx(1.0)


def test_f1_definition(scored):
    curve = topk_curve(scored, HOMOGRAPHS).set_index("rank")
    p, r = curve.loc[3, "precision"], curve.loc[3, "recall"]
    assert curve.loc[3, "f1"] == pytest.approx(2 * p * r / (p + r))


def test_metrics_at_k(scored):
    curve = topk_curve(scored, HOMOGRAPHS)
    m = metrics_at_k(curve, 3)
    assert m == {
        "k": 3,
        "precision": pytest.approx(2 / 3),
        "recall": pytest.approx(2 / 3),
        "f1": pytest.approx(2 / 3),
        "tp": 2,
    }


def test_metrics_at_k_beyond_candidates(scored):
    # k beyond list size: precision re-based on k slots (paper's D4@55).
    curve = topk_curve(scored, HOMOGRAPHS)
    m = metrics_at_k(curve, 10)
    assert m["tp"] == 3
    assert m["precision"] == pytest.approx(3 / 10)
    assert m["recall"] == pytest.approx(1.0)


def test_best_f1(scored):
    b = best_f1(topk_curve(scored, HOMOGRAPHS))
    assert b["k"] == 4  # P=3/4, R=1 → F1 = 6/7, the max
    assert b["f1"] == pytest.approx(6 / 7)


def test_hits_in_topk(scored):
    curve = topk_curve(scored, HOMOGRAPHS)
    assert hits_in_topk(curve, 2, ["a", "d"]) == 1
    assert hits_in_topk(curve, 4, ["a", "d"]) == 2
    assert hits_in_topk(curve, 6, ["nope"]) == 0


def test_tie_broken_by_label():
    pdf = pd.DataFrame(
        {
            "label": ["z", "y"],
            "score": [0.5, 0.5],
        }
    )
    curve = topk_curve(rank_values(pdf, score_col="score", ascending=False), {"y"})
    assert list(curve.label) == ["y", "z"]
    assert list(curve.is_homograph) == [True, False]


def test_empty_truth_zero_recall():
    pdf = pd.DataFrame(
        {"label": ["a"], "score": [1.0]}
    )
    curve = topk_curve(pdf, set())
    m = metrics_at_k(curve, 1)
    assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0
