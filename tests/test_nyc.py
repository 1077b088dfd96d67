"""Tests for the scalability lake + subgraph extraction (repro.lakes.nyc)."""
import numpy as np
import pytest

from repro.core.graph import build_graph, incidences
from repro.graph.csr import csr_from_arrays
from repro.lakes.datalake import lake_stats
from repro.lakes.nyc import attribute_induced_subgraph, nyc_lake


@pytest.fixture(scope="module")
def small_nyc(spark):
    return nyc_lake(spark, sf=0.01, seed=1)


def test_nyc_lake_generates(spark, small_nyc):
    stats = lake_stats(small_nyc.cells)
    assert stats["n_values"] > 100
    assert stats["n_attrs"] > 10


def test_nyc_scales_with_sf(spark, small_nyc):
    bigger = nyc_lake(spark, sf=0.03, seed=1)
    assert lake_stats(bigger.cells)["n_values"] > lake_stats(small_nyc.cells)["n_values"]


@pytest.fixture(scope="module")
def graph(spark, small_nyc):
    return build_graph(incidences(small_nyc.cells), prune_unique=True)


@pytest.mark.parametrize("target", [50, 200])
def test_subgraph_reaches_target_edges(graph, target):
    csr = attribute_induced_subgraph(graph, target, seed=0)
    # within the margin of the last attribute added (footnote 9)
    max_attr = np.bincount(graph.attr_id).max()
    assert target <= csr.n_undirected_edges <= target + max_attr


def test_subgraph_is_valid_csr(graph):
    csr = attribute_induced_subgraph(graph, 100, seed=1)
    assert csr.indptr[-1] == len(csr.indices)
    assert (csr.indices < csr.n).all()
    # symmetric: total degree is twice the edge count
    assert csr.degrees().sum() == 2 * csr.n_undirected_edges


def test_subgraph_deterministic(graph):
    a = attribute_induced_subgraph(graph, 100, seed=2)
    b = attribute_induced_subgraph(graph, 100, seed=2)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def test_subgraph_larger_target_more_edges(graph):
    small = attribute_induced_subgraph(graph, 50, seed=3)
    large = attribute_induced_subgraph(graph, 500, seed=3)
    assert large.n_undirected_edges > small.n_undirected_edges
