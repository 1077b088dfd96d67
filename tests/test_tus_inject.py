"""Tests for homograph removal + injection (repro.lakes.tus_inject, §4.3)."""
import pandas as pd
import pytest

from repro.core.graph import build_graph, incidences
from repro.core.normalize import ATTR_COL, VALUE_COL
from repro.lakes.tus import definition2_truth, tus_lake
from repro.lakes.tus_inject import inject_homographs, remove_homographs
from repro.oracle import assert_equivalent
from tests.fixtures import shuffle_partitions, spark_jobs_run

SF = 0.08


@pytest.fixture(scope="module")
def lake(spark):
    return tus_lake(spark, sf=SF, seed=4)


@pytest.fixture(scope="module")
def clean(lake):
    return remove_homographs(lake)[0]


@pytest.fixture(scope="module")
def columns(lake):
    return lake.columns


def test_removal_leaves_no_homographs(clean, columns):
    residual = definition2_truth(clean, columns).is_homograph.sum()
    assert residual == 0


def test_removal_only_drops_homographs(lake, clean, columns):
    before = incidences(lake.cells)
    truth = definition2_truth(before, columns)
    n_hom_incidences = before[VALUE_COL].isin(truth.label[truth.is_homograph]).sum()
    assert len(before) - len(clean) == n_hom_incidences


def test_remove_homographs_oracle(lake, clean):
    assert_equivalent(
        clean,
        """
        SELECT attr, value FROM inc WHERE value NOT IN (
            SELECT value FROM inc JOIN cols USING (attr)
            GROUP BY value HAVING COUNT(DISTINCT domain) >= 2
        )
        """,
        inc=incidences(lake.cells),
        cols=lake.columns[["attr", "domain"]],
    )


def test_injected_tokens_have_exact_meanings(clean, columns):
    inj = inject_homographs(clean, columns, n=5, meanings=3, min_cardinality=0, seed=1)
    assert len(inj.injected) == 5
    col_dom = dict(zip(columns[ATTR_COL], columns["domain"]))
    inc = inj.incidences.assign(domain=inj.incidences[ATTR_COL].map(col_dom))
    doms = inc.groupby(VALUE_COL)["domain"].nunique()
    for token in inj.injected:
        assert doms[token] == 3, token


def test_replaced_values_disappear(clean, columns):
    inj = inject_homographs(clean, columns, n=4, meanings=2, min_cardinality=0, seed=2)
    remaining = inj.incidences[VALUE_COL].isin(inj.plan.replaced_value).sum()
    assert remaining == 0


def test_injection_preserves_incidence_count(clean, columns):
    # Each clean value lives in one domain and each token's values come
    # from distinct domains, so no two replacements meet in one column.
    inj = inject_homographs(clean, columns, n=4, meanings=2, min_cardinality=0, seed=3)
    assert len(inj.incidences) == len(clean)


def test_injected_are_new_definition2_homographs(clean, columns):
    inj = inject_homographs(clean, columns, n=6, meanings=2, min_cardinality=0, seed=4)
    truth = definition2_truth(inj.incidences, columns)
    homs = set(truth.label[truth.is_homograph])
    assert set(inj.injected) <= homs


def test_cardinality_threshold_respected(clean, columns):
    thr = 30
    inj = inject_homographs(
        clean, columns, n=5, meanings=2, min_cardinality=thr, seed=5
    )
    col_card = clean.groupby(ATTR_COL)[VALUE_COL].nunique()
    # every replaced value must occur in ≥1 column with cardinality ≥ thr
    for v in inj.plan.replaced_value:
        cols = clean.loc[clean[VALUE_COL] == v, ATTR_COL]
        assert max(col_card[c] for c in cols) >= thr, v


@pytest.mark.parametrize("thr", [0, 30])
def test_inject_homographs_oracle(clean, columns, thr):
    inj = inject_homographs(
        clean, columns, n=8, meanings=2, min_cardinality=thr, seed=11
    )
    tables = {"inc": clean, "cols": columns[["attr", "domain"]], "plan": inj.plan}
    # every replaced value is an eligible (domain, value) pick
    assert_equivalent(
        inj.plan[["domain", "replaced_value"]],
        f"""
        WITH card AS (SELECT attr, COUNT(*) AS cardinality FROM inc GROUP BY attr),
        eligible AS (
            SELECT DISTINCT domain, value
            FROM inc JOIN card USING (attr) JOIN cols USING (attr)
            WHERE cardinality >= {thr} AND length(value) >= 3
              AND NOT regexp_full_match(value, '[0-9.,\\- ]+')
        )
        SELECT domain, replaced_value FROM plan WHERE EXISTS (
            SELECT 1 FROM eligible e
            WHERE e.domain = plan.domain AND e.value = plan.replaced_value
        )
        """,
        **tables,
    )
    assert_equivalent(
        inj.incidences,
        """
        SELECT DISTINCT attr, COALESCE(token, value) AS value
        FROM inc LEFT JOIN plan ON inc.value = plan.replaced_value
        """,
        **tables,
    )


def test_replaced_values_are_strings(clean, columns):
    inj = inject_homographs(clean, columns, n=5, meanings=2, min_cardinality=0, seed=6)
    assert (inj.plan.replaced_value.str.len() >= 3).all()
    assert not inj.plan.replaced_value.str.fullmatch(r"[0-9.,\- ]+").any()


def test_plan_domains_distinct_per_token(clean, columns):
    inj = inject_homographs(clean, columns, n=8, meanings=2, min_cardinality=0, seed=7)
    assert (inj.plan.groupby("token")["domain"].nunique() == 2).all()
    # no original value replaced twice
    assert inj.plan.replaced_value.is_unique


def test_impossible_meanings_raises(clean, columns):
    n_dom = columns["domain"].nunique()
    with pytest.raises(ValueError):
        inject_homographs(
            clean, columns, n=1, meanings=n_dom + 1, min_cardinality=0, seed=8
        )


def test_deterministic_in_seed(clean, columns):
    a = inject_homographs(clean, columns, n=3, meanings=2, seed=9)
    b = inject_homographs(clean, columns, n=3, meanings=2, seed=9)
    assert a.plan.equals(b.plan)


def test_plan_independent_of_spark_row_order(spark, lake, columns):
    plans = []
    for n in (64, 8):
        with shuffle_partitions(spark, n):
            inc, _ = remove_homographs(lake)
        plans.append(inject_homographs(inc, columns, n=20, meanings=2, seed=10).plan)
    pd.testing.assert_frame_equal(plans[0], plans[1])


def test_no_spark_jobs_after_the_collect(spark, lake, clean, columns):
    collect = spark_jobs_run(spark, "tusi-incidences", lambda: incidences(lake.cells))
    remove = spark_jobs_run(spark, "tusi-remove", lambda: remove_homographs(lake))
    assert 1 <= remove <= collect
    inc = incidences(lake.cells)

    def driver_steps():
        definition2_truth(inc, columns)
        inj = inject_homographs(clean, columns, n=5, meanings=2, seed=12)
        build_graph(inj.incidences)

    assert spark_jobs_run(spark, "tusi-driver", driver_steps) == 0
