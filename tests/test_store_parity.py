"""One market, one rendering: every dataset source a run can name
renders byte-identical artefacts.

* The resident market (the generator's rows: month-major, grouped by
  contract type within a month), the same contracts reordered
  type-major, and the month-partitioned store render the same bytes:
  rankings break ties on their keys, never on row order.
* Sorting contracts and posts by ``(created_at, id)``, the order a
  :class:`~repro.core.dataset.MarketDataset` keeps, changes the
  within-month order too; every artefact but the four latent-class ones
  renders the same bytes.  The §5.1 user-month panel keys each month's
  users by first appearance, so the latent fit sees its rows in another
  order (:data:`ROW_ORDER_DEPENDENT`).
* A market loaded back from the cache, as fixed-width column tables,
  renders what the freshly generated one renders.

Each goes through the run path every command uses
(:mod:`repro.runs.runner`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columns import CTYPE_ORDER
from repro.core.lazy import ColumnBackedDataset
from repro.report.experiments import EXPERIMENTS
from repro.runs import Market, context_for, open_market, run_results
from repro.synth import SimulationConfig
from repro.synth.cache import save_result
from repro.synth.marketsim import _TYPES, result_from_tables

#: seed -> the artefacts whose bytes depended on the store at scale 0.02
#: while ties were broken by first appearance.
ORDER_SENSITIVE = {
    1: ("fig11",),
    2: ("fig12",),
    3: ("disputes", "fig13"),
    11: ("fig12", "table8"),
    123: ("disputes", "fig11", "table8"),
}

#: The latent-class artefacts, whose fit reads each month's users in the
#: order their first contract of the month appears.
ROW_ORDER_DEPENDENT = ("table6", "table8", "fig12", "fig13")


def _texts(context, market):
    results = run_results(context, market)
    assert all(result.ok for result in results)
    return {result.experiment_id: result.text() for result in results}


def _reordered(market, orders):
    """``market`` with each ``{prefix: row order}`` applied to its tables."""
    tables = dict(market.result.dataset.tables)
    for prefix, order in orders.items():
        assert not np.array_equal(order, np.arange(len(order)))
        for key in [k for k in tables if k.startswith(prefix)]:
            tables[key] = tables[key][order]
    return Market(market.config, False,
                  result=result_from_tables(tables, market.config))


def _type_major(market):
    """Contracts grouped by type across months; within a month the rows
    keep their order, since the generator already groups them by type."""
    tables = market.result.dataset.tables
    position = np.asarray([_TYPES.index(c) for c in CTYPE_ORDER])
    order = np.argsort(position[tables["c_type"]], kind="stable")
    return _reordered(market, {"c_": order})


def _chronological(market):
    tables = market.result.dataset.tables
    return _reordered(market, {
        "c_": np.lexsort((tables["c_id"], tables["c_created_us"])),
        "p_": np.lexsort((tables["p_id"], tables["p_created_us"])),
    })


def _render(seed, ids, cache_dir, chronological=False):
    """{source: texts} for the resident market, its reorderings and the
    partitioned store."""
    config = SimulationConfig(scale=0.02, seed=seed)
    rendered = {}
    for store in ("resident", "partitioned"):
        context = context_for("report", config, ids, store=store)
        market = open_market(context, cache_dir=cache_dir)
        rendered[store] = _texts(context, market)
        if store == "resident":
            rendered["type-major"] = _texts(context, _type_major(market))
            if chronological:
                rendered["chronological"] = _texts(
                    context, _chronological(market)
                )
    return rendered


@pytest.mark.parametrize("seed", sorted(ORDER_SENSITIVE))
def test_stores_render_order_sensitive_artefacts_alike(seed, tmp_path):
    rendered = _render(seed, ORDER_SENSITIVE[seed], str(tmp_path))
    assert rendered["resident"] == rendered["type-major"] \
        == rendered["partitioned"]


def test_stores_render_every_artefact_alike(tmp_path):
    ids = list(EXPERIMENTS)
    rendered = _render(7, ids, str(tmp_path), chronological=True)
    resident = rendered["resident"]
    assert sorted(resident) == sorted(ids)
    assert resident == rendered["type-major"] == rendered["partitioned"]
    chronological = rendered["chronological"]
    for experiment_id in ids:
        if experiment_id not in ROW_ORDER_DEPENDENT:
            assert chronological[experiment_id] == resident[experiment_id]


def test_cached_market_renders_like_the_fresh_one(sim_small, tmp_path):
    save_result(sim_small, str(tmp_path))
    context = context_for("report", sim_small.config, list(EXPERIMENTS))
    loaded = open_market(context, cache_dir=str(tmp_path))
    assert loaded.hit
    assert isinstance(loaded.result.dataset, ColumnBackedDataset)
    assert loaded.result.dataset.tables["c_terms"].dtype != object
    fresh = Market(sim_small.config, False, result=sim_small)
    assert _texts(context, loaded) == _texts(context, fresh)
