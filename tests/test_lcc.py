"""LCC tests (repro.core.lcc) — including the paper's Example 3.6 exact
values and a full DuckDB-oracle re-derivation of the measure in SQL."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.graph import build_graph, incidences
from repro.core.lcc import lcc_scores
from repro.lakes.datalake import lake_from_tables
from repro.lakes.sb import sb_lake
from repro.oracle import assert_equivalent
from tests.fixtures import EXAMPLE31_TABLES, EXAMPLE36_LCC


@pytest.fixture(scope="module")
def g31(spark):
    return build_graph(
        incidences(lake_from_tables(spark, EXAMPLE31_TABLES)), prune_unique=False
    )


@pytest.fixture(scope="module")
def lcc31(g31):
    return dict(zip(g31.value_labels(), lcc_scores(g31)))


@pytest.mark.parametrize("label,expected", sorted(EXAMPLE36_LCC.items()))
def test_example36_exact_values(lcc31, label, expected):
    """Paper Example 3.6: LCC(Jaguar)=0.36, Puma=0.43, Toyota=Panda=0.46."""
    assert lcc31[label] == pytest.approx(expected, abs=1e-9)


def test_homographs_have_lowest_lcc(lcc31):
    """Hypothesis 3.4 on the running example."""
    assert lcc31["JAGUAR"] < lcc31["PUMA"] < lcc31["TOYOTA"]


def test_all_value_nodes_scored(g31):
    assert lcc_scores(g31).shape == (g31.n_values,)


def test_lcc_range(g31):
    scores = lcc_scores(g31)
    assert ((scores >= 0) & (scores <= 1)).all()


def test_isolated_value_filled_with_one(spark):
    # value "solo" shares its only attribute with nobody.
    lake = lake_from_tables(
        spark, {"A": {"x": ["solo"]}, "B": {"y": ["a", "b"], "z": ["a", "b"]}}
    )
    g = build_graph(incidences(lake), prune_unique=False)
    got = dict(zip(g.value_labels(), lcc_scores(g)))
    assert got["SOLO"] == 1.0
    # a and b share both attributes: Jaccard 1 → LCC 1.
    assert got["A"] == pytest.approx(1.0)
    assert got["B"] == pytest.approx(1.0)


def test_lcc_oracle_sql(spark, g31):
    """Re-derive Equation (1) in DuckDB SQL over the edge list."""
    got = pd.DataFrame({"node_id": np.arange(g31.n_values), "lcc": lcc_scores(g31)})
    edges = pd.DataFrame({"value_id": g31.value_id, "attr_id": g31.attr_id})
    assert_equivalent(
        got,
        """
        WITH deg AS (
            SELECT value_id, COUNT(*) AS d FROM edges GROUP BY value_id
        ),
        pairs AS (
            SELECT a.value_id AS v, b.value_id AS w, COUNT(*) AS inter
            FROM edges a JOIN edges b ON a.attr_id = b.attr_id
            WHERE a.value_id < b.value_id
            GROUP BY 1, 2
        ),
        jac AS (
            SELECT p.v, p.w,
                   CAST(p.inter AS DOUBLE) / (dv.d + dw.d - p.inter) AS j
            FROM pairs p
            JOIN deg dv ON dv.value_id = p.v
            JOIN deg dw ON dw.value_id = p.w
        ),
        sym AS (
            SELECT v AS node_id, j FROM jac
            UNION ALL
            SELECT w AS node_id, j FROM jac
        )
        SELECT d.value_id AS node_id,
               ROUND(COALESCE(AVG(s.j), 1.0), 6) AS lcc
        FROM deg d LEFT JOIN sym s ON s.node_id = d.value_id
        GROUP BY d.value_id
        """,
        edges=edges,
    )


def test_lcc_oracle_sql_sb(spark):
    """Equation (1) in DuckDB over a whole SB graph, to 1e-12."""
    g = build_graph(incidences(sb_lake(spark, scale=0.05, seed=3).cells))
    edges = pd.DataFrame({"value_id": g.value_id, "attr_id": g.attr_id})
    con = duckdb.connect()
    try:
        con.register("edges", edges)
        ref = con.execute(
            """
            WITH deg AS (SELECT value_id, COUNT(*) AS d FROM edges GROUP BY 1),
            pairs AS (
                SELECT a.value_id AS v, b.value_id AS w, COUNT(*) AS inter
                FROM edges a JOIN edges b ON a.attr_id = b.attr_id
                WHERE a.value_id <> b.value_id GROUP BY 1, 2
            )
            SELECT d.value_id AS node_id,
                   COALESCE(AVG(CAST(p.inter AS DOUBLE) / (d.d + dw.d - p.inter)), 1.0) AS lcc
            FROM deg d
            LEFT JOIN pairs p ON p.v = d.value_id
            LEFT JOIN deg dw ON dw.value_id = p.w
            GROUP BY 1 ORDER BY 1
            """
        ).fetchdf()
    finally:
        con.close()
    assert list(ref.node_id) == list(range(g.n_values))
    np.testing.assert_allclose(lcc_scores(g), ref.lcc, rtol=1e-12, atol=0)


def test_equal_lccs_are_bit_identical(spark):
    """Values whose Jaccard terms form the same multiset tie exactly, so
    the ranking breaks their tie by label, not by summation order."""
    g = build_graph(incidences(sb_lake(spark, scale=0.3, seed=11).cells))
    lcc = lcc_scores(g)
    distinct_exact = len(np.unique(lcc))
    distinct_math = len(np.unique(np.round(lcc, 12)))
    assert distinct_exact == distinct_math
