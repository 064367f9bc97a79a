"""The market generator (repro.synth.fastgen).

Four contracts are under test:

* **Structure** — the tables use the cache column schema, ids are
  referentially intact, enum codes are in range, and the model's
  invariants (disputed => public, completed only when COMPLETE, ratings
  only on public rows) hold on the arrays.
* **Determinism** — same (scale, seed, config) gives identical tables
  run-to-run, whatever ``workers`` a caller passes.
* **Calibration** — on fixed seeds the market follows the config's
  curves: the monthly profile tracks ``created_per_month``, the type mix
  the type-share curves, completion and visibility Table 1's status
  distribution and the public-share curve, and preferential attachment
  concentrates degree beyond what a market without it shows.
* **Integration** — ``cached_generate`` round-trips results through the
  month-partitioned cache as lazy column-backed datasets, saving one
  counts its rows without building objects, and the lazy truth/object views
  materialize on demand.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.columns import (
    CTYPE_ORDER, NAT_US, STATUS_ORDER, month_index_of, month_indexes_of,
)
from repro.core.entities import ContractStatus, Visibility
from repro.core.eras import all_months
from repro.core.lazy import RATING_SENTINEL, ColumnBackedDataset
from repro.obs import disable_tracing, enable_tracing
from repro.synth import SimulationConfig
from repro.synth import config as cfg
from repro.synth.cache import cached_generate, save_result
from repro.synth.config import interpolate_curve
from repro.synth.engine import generate_market, run_engine
from repro.synth.marketsim import _TYPES

PARITY_SCALE = 0.1
PARITY_SEEDS = (7, 99)
_MONTHS = all_months()

_COMPLETE = STATUS_ORDER.index(ContractStatus.COMPLETE)
_DISPUTED = STATUS_ORDER.index(ContractStatus.DISPUTED)
_PUBLIC = tuple(Visibility).index(Visibility.PUBLIC)


@pytest.fixture(scope="module")
def fast_small():
    """One market shared by the structure tests."""
    return generate_market(scale=0.05, seed=11)


@pytest.fixture(scope="module")
def parity_markets():
    """One market per seed at calibration scale."""
    return {
        seed: generate_market(scale=PARITY_SCALE, seed=seed)
        for seed in PARITY_SEEDS
    }


def _by_month(created_us: np.ndarray) -> np.ndarray:
    """Rows per calendar month of the generator's grid."""
    idx = month_indexes_of(created_us)
    return np.asarray([(idx == month_index_of(m)).sum() for m in _MONTHS])


def _curve(curve) -> np.ndarray:
    values = interpolate_curve(curve, _MONTHS)
    return np.asarray([values[m] for m in _MONTHS], dtype=float)


def _tables_equal(a, b) -> None:
    assert sorted(a) == sorted(b)
    for key in a:
        left, right = a[key], b[key]
        assert len(left) == len(right), key
        if left.dtype == object or right.dtype == object:
            assert all(x == y for x, y in zip(left, right)), key
        else:
            assert np.array_equal(left, right), key


# --------------------------------------------------------------------- #
# structure
# --------------------------------------------------------------------- #


class TestStructure:
    def test_dataset_is_column_backed(self, fast_small):
        assert isinstance(fast_small.dataset, ColumnBackedDataset)

    def test_ids_are_referentially_intact(self, fast_small):
        t = fast_small.dataset.tables
        users = set(t["user_id"].tolist())
        assert len(users) == len(t["user_id"])
        assert set(t["c_maker"].tolist()) <= users
        assert set(t["c_taker"].tolist()) <= users
        assert set(t["p_author"].tolist()) <= users
        assert set(t["r_ratee"].tolist()) <= users
        threads = set(t["t_id"].tolist())
        assert set(t["p_thread"].tolist()) <= threads
        linked = t["c_thread"][t["c_thread"] >= 0]
        assert set(linked.tolist()) <= threads

    def test_makers_never_self_deal(self, fast_small):
        t = fast_small.dataset.tables
        assert not np.any(t["c_maker"] == t["c_taker"])

    def test_enum_codes_in_range(self, fast_small):
        t = fast_small.dataset.tables
        assert t["c_type"].min() >= 0
        assert t["c_type"].max() < len(CTYPE_ORDER)
        assert t["c_status"].min() >= 0
        assert t["c_status"].max() < len(STATUS_ORDER)
        assert set(np.unique(t["c_visibility"]).tolist()) <= {0, 1}

    def test_disputed_contracts_are_public(self, fast_small):
        t = fast_small.dataset.tables
        disputed = t["c_status"] == _DISPUTED
        assert np.all(t["c_visibility"][disputed] == _PUBLIC)

    def test_completion_timestamps_match_status(self, fast_small):
        # Only COMPLETE rows may carry a
        # completion timestamp (and not all do — completion-time is only
        # modelled for some types), and it always follows creation.
        t = fast_small.dataset.tables
        complete = t["c_status"] == _COMPLETE
        assert np.all(t["c_completed_us"][~complete] == NAT_US)
        done = t["c_completed_us"][complete]
        assert np.any(done != NAT_US)
        dated = done[done != NAT_US]
        assert np.all(dated > t["c_created_us"][complete][done != NAT_US])

    def test_obligations_only_on_public_rows(self, fast_small):
        t = fast_small.dataset.tables
        public = t["c_visibility"] == _PUBLIC
        has_text = np.asarray([bool(s) for s in t["c_maker_obligation"]])
        assert np.array_equal(has_text, public)

    def test_rating_value_domain(self, fast_small):
        # Contract b-ratings are thumbs (+1/-1) or the None sentinel;
        # private contracts are rated too.
        t = fast_small.dataset.tables
        for key in ("c_maker_rating", "c_taker_rating"):
            values = set(np.unique(t[key]).tolist())
            assert values <= {-1, 1, RATING_SENTINEL}, key
        assert set(np.unique(t["r_score"]).tolist()) <= {-1, 1}

    def test_ledger_matches_txhash_columns(self, fast_small):
        t = fast_small.dataset.tables
        hashes = [h for h in t["c_btc_txhash"] if h]
        ledger_hashes = {tx.txhash for tx in fast_small.ledger}
        # VERIFY_MIX deliberately omits/mismatches most receipts, so the
        # containment is partial — but the ledger itself is non-trivial
        # and every ledger row carries a positive amount.
        assert ledger_hashes
        assert len(ledger_hashes & set(hashes)) > 0.25 * len(hashes)
        assert all(tx.btc_amount > 0 for tx in fast_small.ledger)

    def test_lazy_object_view_matches_tables(self, fast_small):
        t = fast_small.dataset.tables
        contracts = fast_small.dataset.contracts
        assert len(contracts) == len(t["c_id"])
        probe = len(contracts) // 2
        assert contracts[probe].contract_id == int(t["c_id"][probe])
        assert contracts[probe].maker_id == int(t["c_maker"][probe])

    def test_lazy_truth_materializes(self, fast_small):
        truth = fast_small.truth
        classes = truth.user_class
        assert len(classes) == len(fast_small.dataset.tables["user_id"])
        assert truth.specs  # public contracts carry obligation specs
        some_spec = next(s for s in truth.specs.values() if s is not None)
        assert some_spec.maker_text and some_spec.categories

    def test_columnstore_builds_without_objects(self):
        # Fresh dataset: the shared fixture's object views may already
        # be materialized by other tests.
        result = generate_market(scale=0.02, seed=3)
        store = result.dataset.columns()
        assert store.n == len(result.dataset.tables["c_id"])
        # building the store must not have materialized entity lists
        assert "contracts" not in result.dataset._materialized


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_same_seed_same_tables(self):
        a = generate_market(scale=0.02, seed=5)
        b = generate_market(scale=0.02, seed=5)
        _tables_equal(a.dataset.tables, b.dataset.tables)

    def test_different_seeds_differ(self):
        a = generate_market(scale=0.02, seed=5)
        b = generate_market(scale=0.02, seed=6)
        assert len(a.dataset.tables["c_id"]) != len(b.dataset.tables["c_id"]) \
            or not np.array_equal(
                a.dataset.tables["c_created_us"],
                b.dataset.tables["c_created_us"],
            )

    def test_worker_count_does_not_change_output(self):
        # run_engine keeps its ``workers`` parameter for callers that pass
        # it; generation is one stream in one process either way.
        config = SimulationConfig(scale=0.02, seed=5)
        serial = run_engine(config, workers=1)
        forked = run_engine(config, workers=3)
        _tables_equal(serial.dataset.tables, forked.dataset.tables)
        assert [tx.txhash for tx in serial.ledger] == [
            tx.txhash for tx in forked.ledger
        ]


# --------------------------------------------------------------------- #
# calibration against the config's curves
# --------------------------------------------------------------------- #


class TestParity:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_entity_counts(self, parity_markets, seed):
        t = parity_markets[seed].dataset.tables
        expected = _curve(cfg.CREATED_PER_MONTH).sum() * PARITY_SCALE
        assert len(t["c_id"]) == pytest.approx(expected, rel=0.03)
        assert 0 < len(t["user_id"]) < len(t["c_id"])
        public = t["c_visibility"] == _PUBLIC
        linked = float(np.mean(t["c_thread"][public] >= 0))
        assert linked == pytest.approx(cfg.THREAD_LINK_PROB, abs=0.04)
        marketplace = float(np.mean(t["p_marketplace"]))
        assert marketplace == pytest.approx(cfg.MARKETPLACE_POST_SHARE, abs=0.02)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_rate_parity(self, parity_markets, seed):
        # Completion follows Table 1's per-type rows (the inflation
        # offsets the demotions) under the realised type mix; visibility
        # follows the public-share curve on the rows its boost spares.
        t = parity_markets[seed].dataset.tables
        expected_complete = sum(
            cfg.STATUS_PROBS[ctype][ContractStatus.COMPLETE]
            * np.mean(t["c_type"] == CTYPE_ORDER.index(ctype))
            for ctype in _TYPES
        )
        f_complete = float(np.mean(t["c_status"] == _COMPLETE))
        assert f_complete == pytest.approx(expected_complete, abs=0.03)
        plain = (t["c_status"] != _COMPLETE) & (t["c_status"] != _DISPUTED)
        base = _curve(cfg.PUBLIC_SHARE)
        expected_public = float(
            (_by_month(t["c_created_us"][plain]) * base).sum()
        )
        observed_public = int((t["c_visibility"][plain] == _PUBLIC).sum())
        assert observed_public == pytest.approx(expected_public, rel=0.1)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_type_mix_parity(self, parity_markets, seed):
        t = parity_markets[seed].dataset.tables
        volume = _curve(cfg.CREATED_PER_MONTH)
        shares = np.stack([_curve(cfg.TYPE_SHARES[ctype]) for ctype in _TYPES])
        expected = (shares / shares.sum(axis=0) * volume).sum(axis=1)
        expected /= expected.sum()
        observed = np.asarray([
            np.mean(t["c_type"] == CTYPE_ORDER.index(ctype)) for ctype in _TYPES
        ])
        assert np.all(np.abs(observed - expected) < 0.02)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_monthly_profile_parity(self, parity_markets, seed):
        counts = _by_month(parity_markets[seed].dataset.tables["c_created_us"])
        expected = _curve(cfg.CREATED_PER_MONTH) * PARITY_SCALE
        assert np.corrcoef(counts, expected)[0, 1] > 0.98
        assert np.all(np.abs(counts - expected) < 0.25 * expected)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_degree_concentration_parity(self, parity_markets, seed):
        # Preferential attachment shapes the degree tail: the top decile
        # of participants holds clearly more contract endpoints than in
        # the same market drawn without attachment (alpha = 0).

        def top_decile_share(tables):
            degrees = np.bincount(
                np.concatenate([tables["c_maker"], tables["c_taker"]])
            )
            degrees = np.sort(degrees[degrees > 0])[::-1]
            top = max(1, len(degrees) // 10)
            return degrees[:top].sum() / degrees.sum()

        flat = generate_market(
            scale=PARITY_SCALE, seed=seed, attachment_alpha=0.0,
            generate_posts=False,
        )
        attached = top_decile_share(parity_markets[seed].dataset.tables)
        assert attached > top_decile_share(flat.dataset.tables) + 0.05
        assert 0.5 < attached < 0.7


# --------------------------------------------------------------------- #
# cache integration
# --------------------------------------------------------------------- #


class TestCacheIntegration:
    def test_round_trip_is_lazy_and_equal(self, tmp_path):
        fresh, hit = cached_generate(
            scale=0.02, seed=5, cache_dir=str(tmp_path),
        )
        assert not hit
        loaded, hit = cached_generate(
            scale=0.02, seed=5, cache_dir=str(tmp_path),
        )
        assert hit
        assert isinstance(loaded.dataset, ColumnBackedDataset)
        t_fresh, t_loaded = fresh.dataset.tables, loaded.dataset.tables
        assert sorted(t_fresh) == sorted(t_loaded)
        for key in t_fresh:
            left = t_fresh[key]
            if left.dtype == object:
                left = left.astype(np.str_)
            assert np.array_equal(left, t_loaded[key]), key
        assert [tx.txhash for tx in fresh.ledger] == [
            tx.txhash for tx in loaded.ledger
        ]

    def test_save_counts_without_materializing(self, tmp_path):
        result = run_engine(SimulationConfig(scale=0.02, seed=5))
        tracer = enable_tracing()
        try:
            entry = save_result(result, str(tmp_path))
        finally:
            disable_tracing()
        assert tracer.counters.get("lazy.materializations", 0) == 0
        with open(os.path.join(entry, "manifest.json"), encoding="utf-8") as handle:
            months = json.load(handle)["months"]
        tables = result.dataset.tables
        for kind, key in (("contracts", "c_id"), ("posts", "p_id"),
                          ("ratings", "r_contract")):
            assert sum(m["counts"][kind] for m in months) == len(tables[key])
