"""One market, one rendering: every dataset source a run can name
renders byte-identical artefacts.

* A fastgen market read from the resident cache (cohort-major tables)
  and from the month-partitioned store (month-major) renders the same
  bytes: rankings break ties on their keys, never on row order.
* An object-engine market loaded back from the cache, as lazy column
  tables, renders what the freshly generated objects render.

Both go through the run path every command uses
(:mod:`repro.runs.runner`).
"""

from __future__ import annotations

import pytest

from repro.core.lazy import ColumnBackedDataset
from repro.report.experiments import EXPERIMENTS
from repro.runs import Market, context_for, open_market, run_results
from repro.synth import SimulationConfig
from repro.synth.cache import save_result

#: seed -> the artefacts whose bytes depended on the store at scale 0.02
#: while ties were broken by first appearance.
ORDER_SENSITIVE = {
    1: ("fig11",),
    2: ("fig12",),
    3: ("disputes", "fig13"),
    11: ("fig12", "table8"),
    123: ("disputes", "fig11", "table8"),
}


def _texts(context, market):
    results = run_results(context, market)
    assert all(result.ok for result in results)
    return {result.experiment_id: result.text() for result in results}


def _render(seed, ids, store, cache_dir):
    config = SimulationConfig(scale=0.02, seed=seed, engine="fastgen")
    context = context_for("report", config, ids, store=store)
    return _texts(context, open_market(context, cache_dir=cache_dir))


@pytest.mark.parametrize("seed", sorted(ORDER_SENSITIVE))
def test_stores_render_order_sensitive_artefacts_alike(seed, tmp_path):
    ids = ORDER_SENSITIVE[seed]
    resident = _render(seed, ids, "resident", str(tmp_path))
    assert resident == _render(seed, ids, "partitioned", str(tmp_path))


def test_stores_render_every_artefact_alike(tmp_path):
    ids = list(EXPERIMENTS)
    resident = _render(7, ids, "resident", str(tmp_path))
    assert sorted(resident) == sorted(ids)
    assert resident == _render(7, ids, "partitioned", str(tmp_path))


def test_cached_object_market_renders_like_the_fresh_one(sim_small, tmp_path):
    assert sim_small.config.resolved_engine == "object"
    save_result(sim_small, str(tmp_path))
    context = context_for("report", sim_small.config, list(EXPERIMENTS))
    loaded = open_market(context, cache_dir=str(tmp_path))
    assert loaded.hit
    assert isinstance(loaded.result.dataset, ColumnBackedDataset)
    fresh = Market(sim_small.config, False, result=sim_small)
    assert _texts(context, loaded) == _texts(context, fresh)
