"""End-to-end pipeline tests (repro.core.pipeline) on the paper's
running example, degenerate lakes and a small SB instance — the
integration layer."""
import numpy as np
import pandas as pd
import pytest

from repro.core import pipeline
from repro.core.pipeline import rank_homographs, value_scores
from repro.core.graph import build_graph, incidences
from repro.core.lcc import lcc_scores
from repro.core.ranking import MEASURE_ASCENDING, attach_labels, rank_values
from repro.eval.metrics import best_f1, hits_in_topk, metrics_at_k, topk_curve
from repro.lakes.datalake import lake_from_tables
from repro.lakes.sb import sb_lake
from tests.fixtures import EXAMPLE31_TABLES, FIGURE1_TABLES, spark_jobs_run


def test_figure1_bc_ranks_jaguar_first(spark):
    lake = incidences(lake_from_tables(spark, EXAMPLE31_TABLES))
    _, ranked = rank_homographs(spark, lake, prune_unique=False)
    ranked = ranked["bc"]
    assert list(ranked.label[:2]) == ["JAGUAR", "PUMA"]
    assert list(ranked["rank"]) == list(range(1, len(ranked) + 1))


def test_figure1_lcc_ranks_jaguar_first(spark):
    lake = incidences(lake_from_tables(spark, EXAMPLE31_TABLES))
    _, ranked = rank_homographs(spark, lake, measures=("lcc",), prune_unique=False)
    assert ranked["lcc"].label.iloc[0] == "JAGUAR"


def test_unknown_measure_raises(spark):
    lake = incidences(lake_from_tables(spark, EXAMPLE31_TABLES))
    g = build_graph(lake, prune_unique=False)
    with pytest.raises(ValueError, match="unknown measure"):
        value_scores(spark, g, measure="pagerank")


def test_prune_shrinks_candidates(spark):
    lake = incidences(lake_from_tables(spark, EXAMPLE31_TABLES))
    g_full, _ = rank_homographs(spark, lake, prune_unique=False)
    g_pruned, ranked = rank_homographs(spark, lake, prune_unique=True)
    assert g_pruned.n_values < g_full.n_values
    assert len(ranked["bc"]) == g_pruned.n_values


#: (lake, prune_unique, n_values, n_attrs, expected ranking per measure)
DEGENERATE_LAKES = {
    "empty": ({}, True, 0, 0, {"bc": [], "lcc": []}),
    "all-pruned": (
        {"T": {"x": ["a", "b"], "y": ["c", " C "]}}, True, 0, 2,
        {"bc": [], "lcc": []},
    ),
    # one attribute: every value is a leaf of the same attribute node.
    "one-attribute": (
        {"T": {"x": ["c", "a", "b"]}}, False, 3, 1,
        {"bc": ["A", "B", "C"], "lcc": ["A", "B", "C"]},
    ),
    # two components: {A, B} over x, y, z (A also in z) and a 4-cycle
    # P, Q over u, v. Raw BC: A 7, B 1, P 1, Q 1; LCC: A = B = 2/3,
    # P = Q = 1.
    "disconnected": (
        {
            "T1": {"x": ["a", "b"], "y": ["a", "b"], "z": ["a"]},
            "T2": {"u": ["p", "q"], "v": ["q", "p"]},
        },
        True, 4, 5,
        {"bc": ["A", "B", "P", "Q"], "lcc": ["A", "B", "P", "Q"]},
    ),
}


@pytest.mark.parametrize("measure", ["bc", "lcc"])
@pytest.mark.parametrize("name", sorted(DEGENERATE_LAKES))
def test_degenerate_lakes_rank(spark, name, measure):
    tables, prune, n_values, n_attrs, expected = DEGENERATE_LAKES[name]
    lake = incidences(lake_from_tables(spark, tables))
    graph, ranked = rank_homographs(
        spark, lake, measures=(measure,), prune_unique=prune
    )
    ranked = ranked[measure]
    assert (graph.n_values, graph.n_attrs) == (n_values, n_attrs)
    assert list(ranked.columns) == ["label", measure, "rank"]
    assert list(ranked.label) == expected[measure]
    assert list(ranked["rank"]) == list(range(1, n_values + 1))
    assert np.isfinite(ranked[measure]).all()
    if name == "disconnected":
        got = dict(zip(ranked.label, ranked[measure]))
        if measure == "lcc":
            assert got == pytest.approx({"A": 2 / 3, "B": 2 / 3, "P": 1.0, "Q": 1.0})
        else:
            assert got["B"] == got["P"] == got["Q"] == pytest.approx(got["A"] / 7)
    curve = topk_curve(ranked, {"A"})
    assert metrics_at_k(curve, 1)["tp"] == int("A" in expected[measure])


def test_driver_layers_run_no_spark_jobs(spark):
    """LCC, ranking and the metrics run on the driver: zero Spark jobs."""
    graph = build_graph(incidences(lake_from_tables(spark, FIGURE1_TABLES)))
    labeled = {"bc": value_scores(spark, graph, measure="bc")}
    homs = {"JAGUAR", "PUMA"}

    def driver_layers():
        labeled["lcc"] = attach_labels(graph, lcc_scores(graph), score_col="lcc")
        for measure, scores in labeled.items():
            asc = MEASURE_ASCENDING[measure]
            ranked = rank_values(scores, score_col=measure, ascending=asc)
            curve = topk_curve(ranked, homs)
            metrics_at_k(curve, len(homs))
            best_f1(curve)
            hits_in_topk(curve, len(homs), homs)

    assert spark_jobs_run(spark, "driver-layers", driver_layers) == 0
    # The guard sees jobs when there are some.
    assert spark_jobs_run(spark, "control", lambda: spark.range(3).count()) >= 1


def test_measures_share_one_graph(spark, monkeypatch):
    lake = incidences(lake_from_tables(spark, FIGURE1_TABLES))
    single = {
        m: rank_homographs(spark, lake, measures=(m,))[1][m] for m in ("bc", "lcc")
    }
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(1)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_graph", counting_build)
    _, both = rank_homographs(spark, lake, measures=("bc", "lcc"))
    assert len(builds) == 1
    assert list(both) == ["bc", "lcc"]
    for m in ("bc", "lcc"):
        pd.testing.assert_frame_equal(both[m], single[m])


@pytest.fixture(scope="module")
def sb_small(spark):
    return sb_lake(spark, scale=0.15, seed=0)


@pytest.fixture(scope="module")
def sb_bc_curve(spark, sb_small):
    _, ranked = rank_homographs(spark, incidences(sb_small.cells))
    return topk_curve(ranked["bc"], set(sb_small.homographs))


def test_sb_bc_finds_most_homographs(sb_bc_curve):
    m = metrics_at_k(sb_bc_curve, 55)
    # paper: 38/55 = 0.69 on Mockaroo SB; the synthetic SB is cleaner, so
    # require at least the paper's level.
    assert m["precision"] >= 0.69


def test_sb_bc_beats_lcc(spark, sb_small, sb_bc_curve):
    _, lcc_ranked = rank_homographs(
        spark, incidences(sb_small.cells), measures=("lcc",)
    )
    lcc_curve = topk_curve(lcc_ranked["lcc"], set(sb_small.homographs))
    bc_m = metrics_at_k(sb_bc_curve, 55)
    lcc_m = metrics_at_k(lcc_curve, 55)
    assert bc_m["precision"] > lcc_m["precision"]


def test_sampled_bc_close_to_exact_on_sb(spark, sb_small, sb_bc_curve):
    _, sampled = rank_homographs(
        spark, incidences(sb_small.cells), n_samples=800, seed=1
    )
    curve = topk_curve(sampled["bc"], set(sb_small.homographs))
    exact_p = metrics_at_k(sb_bc_curve, 55)["precision"]
    approx_p = metrics_at_k(curve, 55)["precision"]
    assert approx_p >= exact_p - 0.25
