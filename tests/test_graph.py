"""Tests for bipartite graph construction (repro.core.graph, paper §3.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.graph import build_graph, incidences
from repro.lakes.datalake import lake_from_tables
from repro.lakes.sb import sb_lake
from repro.oracle import assert_equivalent
from tests.fixtures import EXAMPLE31_TABLES, FIGURE1_TABLES


@pytest.fixture(scope="module")
def fig1(spark):
    return lake_from_tables(spark, FIGURE1_TABLES)


@pytest.fixture(scope="module")
def g31(spark):
    return build_graph(
        incidences(lake_from_tables(spark, EXAMPLE31_TABLES)), prune_unique=False
    )


def test_incidences_oracle(spark, fig1):
    got = incidences(fig1)
    assert_equivalent(
        got,
        """
        SELECT DISTINCT table_id || '.' || col_id AS attr,
               UPPER(TRIM(value)) AS value
        FROM cells
        WHERE value IS NOT NULL AND TRIM(value) <> ''
        """,
        cells=fig1.toPandas(),
    )


def test_example31_counts(g31):
    # 8 distinct values, 4 attributes, 14 incidences (paper Fig. 3b).
    assert g31.n_values == 8
    assert g31.n_attrs == 4
    assert g31.n_edges == 14
    assert g31.n_nodes == 12


def test_value_and_attr_id_ranges(g31):
    assert len(g31.labels) == g31.n_nodes
    assert sorted(set(g31.value_id)) == list(range(g31.n_values))
    assert sorted(set(g31.attr_id)) == list(
        range(g31.n_values, g31.n_values + g31.n_attrs)
    )
    assert set(g31.labels[g31.n_values :]) == {"T1.At Risk", "T2.name", "T3.C2", "T4.Name"}


def test_node_ids_deterministic_by_label(g31):
    vals = list(g31.value_labels())
    assert vals == sorted(vals)
    attrs = list(g31.labels[g31.n_values :])
    assert attrs == sorted(attrs)


def test_each_value_is_single_node(g31):
    # JAGUAR occurs in all four attributes but is one node (paper §3.2).
    assert (g31.labels == "JAGUAR").sum() == 1
    jid = int(np.flatnonzero(g31.labels == "JAGUAR")[0])
    assert (g31.value_id == jid).sum() == 4


def test_edges_oracle(spark, fig1):
    graph = build_graph(incidences(fig1), prune_unique=False)
    got = pd.DataFrame(
        {"attr": graph.labels[graph.attr_id], "value": graph.labels[graph.value_id]}
    )
    assert_equivalent(
        got,
        """
        SELECT DISTINCT table_id || '.' || col_id AS attr,
               UPPER(TRIM(value)) AS value
        FROM cells
        WHERE value IS NOT NULL AND TRIM(value) <> ''
        """,
        cells=fig1.toPandas(),
    )


def test_value_degrees_oracle(spark, fig1):
    graph = build_graph(incidences(fig1), prune_unique=False)
    got = pd.DataFrame(
        {"value": graph.value_labels(), "degree": graph.value_degrees()}
    )
    assert_equivalent(
        got,
        """
        SELECT value, COUNT(*) AS degree FROM (
            SELECT DISTINCT table_id || '.' || col_id AS attr,
                   UPPER(TRIM(value)) AS value
            FROM cells WHERE value IS NOT NULL AND TRIM(value) <> ''
        ) GROUP BY value
        """,
        cells=fig1.toPandas(),
    )


def test_prune_unique_keeps_only_multi_attribute_values(spark, fig1):
    pruned = build_graph(incidences(fig1), prune_unique=True)
    labels = set(pruned.value_labels())
    # the full Figure-1 lake's multi-attribute values ("2" repeats only
    # within T2.num, so it is pruned):
    assert labels == {"JAGUAR", "PUMA", "PANDA", "TOYOTA"}
    assert pruned.n_attrs == 12  # attribute universe unchanged
    assert (pruned.value_degrees() >= 2).all()
    full = build_graph(incidences(fig1), prune_unique=False)
    assert list(pruned.labels[pruned.n_values :]) == list(full.labels[full.n_values :])


def test_pruned_graph_oracle_sb(spark):
    cells = sb_lake(spark, scale=0.1, seed=5).cells
    graph = build_graph(incidences(cells))
    incidences_sql = """
        SELECT DISTINCT table_id || '.' || col_id AS attr,
               UPPER(TRIM(value)) AS value
        FROM cells
        WHERE value IS NOT NULL AND TRIM(value) <> ''
    """
    cells_pdf = cells.toPandas()
    assert sorted(set(graph.value_id)) == list(range(graph.n_values))
    assert_equivalent(
        pd.DataFrame(
            {"attr": graph.labels[graph.attr_id], "value": graph.labels[graph.value_id]}
        ),
        f"""
        WITH inc AS ({incidences_sql})
        SELECT attr, value FROM inc WHERE value IN (
            SELECT value FROM inc GROUP BY value HAVING COUNT(DISTINCT attr) >= 2
        )
        """,
        cells=cells_pdf,
    )
    assert_equivalent(
        pd.DataFrame({"attr": graph.labels[graph.n_values :]}),
        f"SELECT DISTINCT attr FROM ({incidences_sql})",
        cells=cells_pdf,
    )


def test_prune_false_keeps_all(spark, fig1):
    full = build_graph(incidences(fig1), prune_unique=False)
    assert full.n_values == 37


def test_edges_reference_valid_nodes(g31):
    assert g31.value_id.dtype == g31.attr_id.dtype == np.int64
    assert (g31.value_id >= 0).all()
    assert (g31.value_id < g31.n_values).all()
    assert (g31.attr_id >= g31.n_values).all()
    assert (g31.attr_id < g31.n_nodes).all()


def test_edges_distinct(g31):
    e = pd.DataFrame({"v": g31.value_id, "a": g31.attr_id})
    assert len(e) == len(e.drop_duplicates())


def test_build_graph_idempotent_counts(spark, fig1):
    g1 = build_graph(incidences(fig1), prune_unique=False)
    g2 = build_graph(incidences(fig1), prune_unique=False)
    assert (g1.n_values, g1.n_attrs, g1.n_edges) == (
        g2.n_values,
        g2.n_attrs,
        g2.n_edges,
    )
    assert np.array_equal(g1.labels, g2.labels)
    assert np.array_equal(g1.value_id, g2.value_id)
    assert np.array_equal(g1.attr_id, g2.attr_id)
