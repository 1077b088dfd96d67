"""TUS-I: homograph removal and controlled injection — paper §4.3.

The paper builds TUS-I from TUS in two steps: (1) remove **all** 26,035
Definition-2 homographs, leaving a lake whose every value has a single
meaning; (2) inject artificial homographs: pick ``m`` values from ``m``
pairwise-non-unionable columns whose attribute cardinality is at least a
threshold, restrict to string values of ≥3 characters, and replace every
occurrence of each picked value with a fresh token
``INJECTEDHOMOGRAPH<k>`` — so the injected token has exactly ``m``
meanings and its BC behaviour can be studied as a function of the
cardinality threshold (Table 2) and of ``m`` (Table 3).

Both steps work on the lake's distinct ``(attr, value)`` incidences,
collected once (:func:`repro.core.graph.incidences`); everything after
that collect runs on the driver.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.graph import incidences
from repro.core.normalize import ATTR_COL, VALUE_COL
from repro.lakes.tus import TUSLake, definition2_truth

#: Values that look numeric are never picked for replacement.
_NUMERIC_RE = re.compile(r"[0-9.,\- ]+")


def remove_homographs(lake: TUSLake) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Drop every Definition-2 homograph from the lake.

    Collects the lake's incidences (its one Spark step) and returns
    ``(clean_incidences, truth)`` where ``truth`` is the labeling that
    was applied. After this step the lake contains only single-meaning
    values (the paper's TUS-I starting point).
    """
    inc = incidences(lake.cells)
    truth = definition2_truth(inc, lake.columns)
    homs = truth.loc[truth["is_homograph"], "label"]
    return inc[~inc[VALUE_COL].isin(homs)].reset_index(drop=True), truth


@dataclass(frozen=True)
class Injection:
    """Result of :func:`inject_homographs`."""

    #: distinct ``(attr, value)`` incidences of the modified lake.
    incidences: pd.DataFrame
    #: the injected tokens, e.g. ``INJECTEDHOMOGRAPH0`` … — the ground
    #: truth homograph set of the modified lake.
    injected: list[str]
    #: (token, domain, replaced_value) provenance, one row per meaning.
    plan: pd.DataFrame


def inject_homographs(
    inc: pd.DataFrame,
    columns: pd.DataFrame,
    *,
    n: int = 50,
    meanings: int = 2,
    min_cardinality: int = 0,
    seed: int = 0,
) -> Injection:
    """Inject ``n`` homographs with ``meanings`` meanings each into the
    lake whose incidences are ``inc``; ``columns`` maps each attribute to
    its domain (:attr:`TUSLake.columns`).

    For each injected token, ``meanings`` distinct domains are drawn; in
    each, a random string value (≥3 chars, not numeric-looking) is picked
    from a column with distinct-value cardinality ≥ ``min_cardinality``
    — then **all** occurrences of each picked value are replaced by the
    token, lake-wide. Raises if the lake cannot supply enough distinct
    eligible (domain, value) picks.
    """
    values = inc[VALUE_COL]
    cardinality = inc.groupby(ATTR_COL)[VALUE_COL].transform("size")
    is_string = np.array(
        [len(v) >= 3 and _NUMERIC_RE.fullmatch(v) is None for v in values],
        dtype=bool,
    )
    eligible = (
        inc[is_string & (cardinality >= int(min_cardinality)).to_numpy()]
        .merge(columns[[ATTR_COL, "domain"]], on=ATTR_COL)[["domain", VALUE_COL]]
        .drop_duplicates()
    )
    rng = np.random.default_rng(seed)
    # Pools are sorted before the shuffle, so the picks do not depend on
    # the row order of the collected incidences.
    pools = {
        d: list(rng.permutation(np.sort(g[VALUE_COL].unique())))
        for d, g in eligible.groupby("domain")
    }
    used: set[str] = set()
    plan_rows = []
    for k in range(n):
        # Draw from domains that still have un-replaced eligible values;
        # the same original value is never replaced by two tokens.
        live = [d for d, pool in pools.items() if pool]
        if len(live) < meanings:
            raise ValueError(
                f"only {len(live)} domains still have eligible values; "
                f"cannot inject homograph {k} with {meanings} meanings"
            )
        doms = rng.choice(np.array(live, dtype=object), size=meanings, replace=False)
        token = f"INJECTEDHOMOGRAPH{k}"
        for dom in doms:
            value = pools[dom].pop()
            while value in used and pools[dom]:
                value = pools[dom].pop()
            if value in used:
                raise ValueError(f"domain {dom} ran out of eligible values")
            used.add(value)
            plan_rows.append((token, dom, value))
    plan = pd.DataFrame(plan_rows, columns=["token", "domain", "replaced_value"])

    replaced = values.map(dict(zip(plan["replaced_value"], plan["token"])))
    return Injection(
        incidences=inc.assign(**{VALUE_COL: replaced.fillna(values)}).drop_duplicates(
            ignore_index=True
        ),
        injected=sorted(plan["token"].unique()),
        plan=plan,
    )
