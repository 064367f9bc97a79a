"""The columnar generation engine (repro.synth.fastgen).

Four contracts are under test:

* **Structure** — the merged tables use the cache column schema, ids are
  referentially intact, enum codes are in range, and the invariants the
  object engine guarantees (disputed => public, completed only when
  COMPLETE, ratings only on public rows) hold on the arrays.
* **Determinism** — same (scale, seed, config) gives identical tables
  run-to-run *and at any worker count*: sharding is by ``n_cohorts``
  (structural, fingerprinted), workers only map shards to processes.
  Cache keys are therefore worker-count-independent.
* **Statistical parity** — fastgen implements the same generative model
  as :class:`~repro.synth.marketsim.MarketSimulator`, so on fixed seeds
  the two engines agree on aggregate shape (monthly profile, type mix,
  completion/public rates, degree concentration) within tolerance.
  Parity is statistical, never bitwise: the engines draw in different
  orders.  Post volume gets a looser bound — each cohort keeps at least
  one member per class roster alive, a finite-size floor that inflates
  posting slightly at tiny scales (documented in docs/architecture.md).
* **Integration** — ``cached_generate`` round-trips fastgen results
  through the npz cache as lazy column-backed datasets, saving one counts
  its entities without building objects, and the lazy truth/object views
  materialize on demand.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.columns import CTYPE_ORDER, NAT_US, STATUS_ORDER
from repro.core.entities import ContractStatus, Visibility
from repro.core.lazy import RATING_SENTINEL, ColumnBackedDataset
from repro.obs import disable_tracing, enable_tracing
from repro.synth import SimulationConfig
from repro.synth.cache import cached_generate, config_fingerprint, save_result
from repro.synth.engine import run_engine
from repro.synth.fastgen import FastMarketSimulator, generate_market_fast
from repro.synth.marketsim import MarketSimulator

PARITY_SCALE = 0.1
PARITY_SEEDS = (7, 99)

_COMPLETE = STATUS_ORDER.index(ContractStatus.COMPLETE)
_DISPUTED = STATUS_ORDER.index(ContractStatus.DISPUTED)
_PUBLIC = tuple(Visibility).index(Visibility.PUBLIC)


@pytest.fixture(scope="module")
def fast_small():
    """One fastgen market shared by the structure tests."""
    return generate_market_fast(scale=0.05, seed=11)


@pytest.fixture(scope="module")
def parity_pair():
    """(fastgen result, object result) per seed at parity scale."""
    pairs = {}
    for seed in PARITY_SEEDS:
        fast = generate_market_fast(scale=PARITY_SCALE, seed=seed)
        obj = MarketSimulator(
            SimulationConfig(scale=PARITY_SCALE, seed=seed)
        ).run()
        pairs[seed] = (fast, obj)
    return pairs


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
        # Like the object engine, only COMPLETE rows may carry a
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
        # Contract b-ratings are thumbs (+1/-1) or the None sentinel —
        # matching the object engine, which rates private contracts too.
        t = fast_small.dataset.tables
        for key in ("c_maker_rating", "c_taker_rating"):
            values = set(np.unique(t[key]).tolist())
            assert values <= {-1, 1, RATING_SENTINEL}, key
        assert set(np.unique(t["r_score"]).tolist()) <= {-1, 1}

    def test_ledger_matches_txhash_columns(self, fast_small):
        t = fast_small.dataset.tables
        hashes = [h for h in t["c_btc_txhash"] if h]
        ledger_hashes = {tx.txhash for tx in fast_small.ledger}
        # VERIFY_MIX deliberately omits/mismatches most receipts (the
        # object engine verifies ~40% of stated hashes too), so the
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
        result = generate_market_fast(scale=0.02, seed=3)
        store = result.dataset.columns()
        assert store.n == len(result.dataset.tables["c_id"])
        # building the store must not have materialized entity lists
        assert "contracts" not in result.dataset._materialized


# --------------------------------------------------------------------- #
# determinism / worker independence
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_same_seed_same_tables(self):
        a = generate_market_fast(scale=0.02, seed=5)
        b = generate_market_fast(scale=0.02, seed=5)
        _tables_equal(a.dataset.tables, b.dataset.tables)

    def test_different_seeds_differ(self):
        a = generate_market_fast(scale=0.02, seed=5)
        b = generate_market_fast(scale=0.02, seed=6)
        assert len(a.dataset.tables["c_id"]) != len(b.dataset.tables["c_id"]) \
            or not np.array_equal(
                a.dataset.tables["c_created_us"],
                b.dataset.tables["c_created_us"],
            )

    def test_worker_count_does_not_change_output(self):
        config = SimulationConfig(scale=0.02, seed=5, engine="fastgen")
        serial = FastMarketSimulator(config).run(workers=1)
        forked = FastMarketSimulator(config).run(workers=3)
        _tables_equal(serial.dataset.tables, forked.dataset.tables)
        assert [tx.txhash for tx in serial.ledger] == [
            tx.txhash for tx in forked.ledger
        ]

    def test_cohorts_are_structural(self):
        # n_cohorts changes the dataset (and the fingerprint); workers
        # never do.  Guard the fingerprint contract both ways.
        base = SimulationConfig(scale=0.02, seed=5, engine="fastgen")
        other = SimulationConfig(
            scale=0.02, seed=5, engine="fastgen", n_cohorts=2
        )
        assert config_fingerprint(base) != config_fingerprint(other)

    def test_engine_is_fingerprinted(self):
        obj = SimulationConfig(scale=0.02, seed=5)
        fast = SimulationConfig(scale=0.02, seed=5, engine="fastgen")
        assert config_fingerprint(obj) != config_fingerprint(fast)


# --------------------------------------------------------------------- #
# statistical parity vs the object engine
# --------------------------------------------------------------------- #


class TestParity:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_entity_counts(self, parity_pair, seed):
        fast, obj = parity_pair[seed]
        t = fast.dataset.tables
        assert len(t["c_id"]) == pytest.approx(
            len(obj.dataset.contracts), rel=0.05
        )
        assert len(t["user_id"]) == pytest.approx(
            len(obj.dataset.users), rel=0.08
        )
        assert len(t["t_id"]) == pytest.approx(
            len(obj.dataset.threads), rel=0.15
        )
        # Post volume carries the per-cohort roster floor: ~+10% at this
        # scale with four cohorts, shrinking as scale grows.
        assert len(t["p_id"]) == pytest.approx(
            len(obj.dataset.posts), rel=0.30
        )

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_rate_parity(self, parity_pair, seed):
        fast, obj = parity_pair[seed]
        t = fast.dataset.tables
        contracts = obj.dataset.contracts
        f_complete = float(np.mean(t["c_status"] == _COMPLETE))
        o_complete = sum(
            1 for c in contracts if c.status is ContractStatus.COMPLETE
        ) / len(contracts)
        assert f_complete == pytest.approx(o_complete, abs=0.03)
        f_public = float(np.mean(t["c_visibility"] == _PUBLIC))
        o_public = sum(
            1 for c in contracts if c.visibility is Visibility.PUBLIC
        ) / len(contracts)
        assert f_public == pytest.approx(o_public, abs=0.03)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_type_mix_parity(self, parity_pair, seed):
        fast, obj = parity_pair[seed]
        t = fast.dataset.tables
        contracts = obj.dataset.contracts
        f_mix = np.bincount(t["c_type"], minlength=len(CTYPE_ORDER)) / len(
            t["c_type"]
        )
        counts = {ctype: 0 for ctype in CTYPE_ORDER}
        for c in contracts:
            counts[c.ctype] += 1
        o_mix = np.asarray(
            [counts[ctype] / len(contracts) for ctype in CTYPE_ORDER]
        )
        assert np.all(np.abs(f_mix - o_mix) < 0.03)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_monthly_profile_parity(self, parity_pair, seed):
        fast, obj = parity_pair[seed]
        day_us = 86_400_000_000
        f_months = np.bincount(
            (fast.dataset.tables["c_created_us"] // (30 * day_us)).astype(int)
        )
        o_days = np.asarray(
            [
                int(np.datetime64(c.created_at, "us").astype(np.int64))
                for c in obj.dataset.contracts
            ]
        )
        o_months = np.bincount((o_days // (30 * day_us)).astype(int))
        width = max(len(f_months), len(o_months))
        f_months = np.pad(f_months, (0, width - len(f_months)))
        o_months = np.pad(o_months, (0, width - len(o_months)))
        corr = np.corrcoef(f_months, o_months)[0, 1]
        assert corr > 0.98

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_degree_concentration_parity(self, parity_pair, seed):
        # Preferential attachment shapes both engines' degree tails the
        # same way: compare the contract share of the top decile of
        # participants.
        fast, obj = parity_pair[seed]

        def top_decile_share(maker_ids, taker_ids):
            degrees = np.bincount(
                np.concatenate([maker_ids, taker_ids])
            )
            degrees = np.sort(degrees[degrees > 0])[::-1]
            top = max(1, len(degrees) // 10)
            return degrees[:top].sum() / degrees.sum()

        t = fast.dataset.tables
        f_share = top_decile_share(t["c_maker"], t["c_taker"])
        o_share = top_decile_share(
            np.asarray([c.maker_id for c in obj.dataset.contracts]),
            np.asarray([c.taker_id for c in obj.dataset.contracts]),
        )
        assert f_share == pytest.approx(o_share, abs=0.08)


# --------------------------------------------------------------------- #
# cache integration
# --------------------------------------------------------------------- #


class TestCacheIntegration:
    def test_round_trip_is_lazy_and_equal(self, tmp_path):
        fresh, hit = cached_generate(
            scale=0.02, seed=5, cache_dir=str(tmp_path), engine="fastgen",
            gen_workers=2,
        )
        assert not hit
        loaded, hit = cached_generate(
            scale=0.02, seed=5, cache_dir=str(tmp_path), engine="fastgen",
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

    def test_gen_workers_never_changes_the_cache_key(self, tmp_path):
        _, hit = cached_generate(
            scale=0.02, seed=5, cache_dir=str(tmp_path), engine="fastgen",
            gen_workers=1,
        )
        assert not hit
        _, hit = cached_generate(
            scale=0.02, seed=5, cache_dir=str(tmp_path), engine="fastgen",
            gen_workers=4,
        )
        assert hit

    def test_save_counts_without_materializing(self, tmp_path):
        result = run_engine(SimulationConfig(scale=0.02, seed=5, engine="fastgen"))
        tracer = enable_tracing()
        try:
            entry = save_result(result, str(tmp_path))
        finally:
            disable_tracing()
        assert tracer.counters.get("lazy.materializations", 0) == 0
        with open(os.path.join(entry, "meta.json"), encoding="utf-8") as handle:
            counts = json.load(handle)["counts"]
        tables = result.dataset.tables
        assert counts == {
            "users": len(tables["user_id"]),
            "contracts": len(tables["c_id"]),
            "threads": len(tables["t_id"]),
            "posts": len(tables["p_id"]),
            "ratings": len(tables["r_contract"]),
            "transactions": len(result.ledger),
        }

    def test_engines_use_distinct_entries(self, tmp_path):
        _, hit = cached_generate(
            scale=0.02, seed=5, cache_dir=str(tmp_path), engine="fastgen",
        )
        assert not hit
        _, hit = cached_generate(scale=0.02, seed=5, cache_dir=str(tmp_path))
        assert not hit  # object engine missed: different fingerprint
