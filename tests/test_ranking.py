"""Tests for score→label attachment and ranking (repro.core.ranking)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.graph import build_graph, incidences
from repro.core.ranking import MEASURE_ASCENDING, attach_labels, rank_values
from repro.lakes.datalake import lake_from_tables
from tests.fixtures import EXAMPLE31_TABLES


@pytest.fixture(scope="module")
def g31(spark):
    return build_graph(
        incidences(lake_from_tables(spark, EXAMPLE31_TABLES)), prune_unique=False
    )


def test_measure_directions():
    assert MEASURE_ASCENDING == {"bc": False, "lcc": True}


def test_attach_labels_fills_missing(g31):
    # BC scores cover every node; attribute-node entries are dropped.
    scores = np.zeros(g31.n_nodes)
    scores[[0, 1]] = [0.5, 0.25]
    scores[g31.n_values :] = 9.0
    out = attach_labels(g31, scores, score_col="bc")
    assert len(out) == g31.n_values
    assert list(out.label) == list(g31.value_labels())
    assert (out.bc == 0.0).sum() == g31.n_values - 2


def test_attach_labels_fill_value(g31):
    scores = np.ones(g31.n_values)
    scores[0] = 0.3
    out = attach_labels(g31, scores, score_col="lcc")
    assert set(out.lcc.round(6)) == {0.3, 1.0}
    assert out.lcc.iloc[0] == 0.3


def test_rank_descending_and_ascending():
    pdf = pd.DataFrame({"label": ["a", "b", "c"], "s": [0.1, 0.3, 0.2]})
    desc = rank_values(pdf, score_col="s", ascending=False)
    assert list(desc.sort_values("rank").label) == ["b", "c", "a"]
    asc = rank_values(pdf, score_col="s", ascending=True)
    assert list(asc.sort_values("rank").label) == ["a", "c", "b"]


def test_rank_tiebreak_by_label():
    pdf = pd.DataFrame({"label": ["z", "a"], "s": [0.5, 0.5]})
    out = rank_values(pdf, score_col="s", ascending=False)
    assert list(out.sort_values("rank").label) == ["a", "z"]


def test_ranks_dense_one_based():
    pdf = pd.DataFrame({"label": list("abcde"), "s": [5.0, 4.0, 3.0, 2.0, 1.0]})
    out = rank_values(pdf, score_col="s", ascending=False)
    assert sorted(out["rank"]) == [1, 2, 3, 4, 5]
