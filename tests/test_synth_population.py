"""Tests for the population / roster model.

``TestSpawnAndAcquire`` and ``TestRosterLifecycle`` check the population
the generator leaves behind after a whole market, and the roster
operations the month loop calls; ``TestArrayPopulation`` drives
:class:`ArrayPopulation` directly in a few hand-built months.
"""

import numpy as np
import pytest

from repro.core.columns import NAT_US
from repro.synth import SimulationConfig
from repro.synth import config as cfg
from repro.synth.fastgen import MarketSimulator
from repro.synth.population import AliasSampler, ArrayPopulation

_US_PER_DAY = 86_400_000_000
_MONTH_US = 0  # month_first_day_us only shifts join timestamps


def _codes(tier):
    return [cfg.CLASS_NAMES.index(name) for name in cfg.CLASS_NAMES
            if cfg.CLASS_TIERS[name] == tier]


@pytest.fixture(scope="module")
def run():
    """A generator after a whole 2%-scale market: (simulator, result)."""
    simulator = MarketSimulator(
        SimulationConfig(scale=0.02, seed=17, generate_posts=False)
    )
    return simulator, simulator.run()


@pytest.fixture(scope="module")
def market(run):
    """(simulator, tables) of that market."""
    simulator, result = run
    return simulator, result.dataset.tables


class TestSpawnAndAcquire:
    def test_acquire_creates_users(self, run):
        # acquire hands back users of the class asked for: every contract
        # party's class is the class its side was drawn from.
        simulator, result = run
        tables = result.dataset.tables
        names = np.asarray(cfg.CLASS_NAMES)[simulator.pop.class_code]
        assert len(names) == len(tables["user_id"])
        for side, drawn in (("c_maker", result.truth.maker_class),
                            ("c_taker", result.truth.taker_class)):
            expected = [drawn[int(cid)] for cid in tables["c_id"]]
            assert names[tables[side] - 1].tolist() == expected, side

    def test_zero_count(self):
        pop = ArrayPopulation(np.random.default_rng(0))
        pop.acquire("C", 30, 0, _MONTH_US, 0, 0.0)
        counts = pop.rosters["C"].contract_counts.copy()
        users = pop.n_users
        assert len(pop.acquire("C", 0, 0, _MONTH_US, 0, 0.0)) == 0
        assert pop.n_users == users
        assert np.array_equal(pop.rosters["C"].contract_counts, counts)

    def test_user_ids_unique_and_positive(self, market):
        _, tables = market
        ids = tables["user_id"]
        assert np.array_equal(ids, np.arange(1, len(ids) + 1))
        for key in ("c_maker", "c_taker", "r_ratee"):
            assert tables[key].min() >= 1 and tables[key].max() <= len(ids)

    def test_power_tier_reuses_heavily(self, market):
        simulator, tables = market
        codes = simulator.pop.class_code
        degree = np.bincount(
            np.concatenate([tables["c_maker"], tables["c_taker"]]) - 1,
            minlength=len(codes),
        )
        power = np.isin(codes, _codes("power"))
        single = np.isin(codes, _codes("single"))
        assert degree[power].mean() > 10 * degree[single].mean()

    def test_single_tier_churns(self, market):
        # Single-tier users live ~4 months, power users ~20: singles make
        # up most of the users but a small share of contract endpoints.
        simulator, tables = market
        codes = simulator.pop.class_code
        single = np.isin(codes, _codes("single"))
        degree = np.bincount(
            np.concatenate([tables["c_maker"], tables["c_taker"]]) - 1,
            minlength=len(codes),
        )
        assert single.mean() > 0.5
        assert degree[single].sum() < 0.5 * degree.sum()

    def test_attachment_concentrates_activity(self):
        # The top decile of a mid-tier roster takes far more of its
        # contracts under attachment (alpha = 1) than without (alpha = 0).
        def top_decile_share(alpha):
            pop = ArrayPopulation(np.random.default_rng(1), attachment_alpha=alpha)
            picks = []
            for month_index in range(8):
                pop.begin_month(month_index)
                picks.append(pop.acquire("A", 60, month_index, _MONTH_US, 1, 0.5))
            counts = np.sort(np.bincount(np.concatenate(picks)))[::-1]
            counts = counts[counts > 0]
            return counts[: max(1, len(counts) // 10)].sum() / counts.sum()

        assert top_decile_share(1.0) > 1.5 * top_decile_share(0.0)

    def test_scam_propensity_assigned(self, market):
        simulator, _ = market
        scam = simulator.pop.scam_propensity
        assert len(scam) == simulator.pop.n_users
        assert np.all((scam >= 0.0) & (scam < 1.0))
        assert scam.mean() == pytest.approx(0.6 / 20.6, rel=0.15)  # Beta(0.6, 20)

    def test_non_completer_flags_power_exempt(self, market):
        simulator, _ = market
        power = np.isin(simulator.pop.class_code, _codes("power"))
        assert power.any()
        assert not simulator.pop.non_completer[power].any()

    def test_non_completer_flags_present_for_singles(self, market):
        simulator, _ = market
        single = np.isin(simulator.pop.class_code, _codes("single"))
        share = simulator.pop.non_completer[single].mean()
        assert share == pytest.approx(cfg.NON_COMPLETER_PROB["single"], abs=0.05)


class TestRosterLifecycle:
    def test_cull_removes_expired(self):
        pop = ArrayPopulation(np.random.default_rng(0))
        for month_index in range(6):
            pop.begin_month(month_index)
            pop.acquire("C", 30, month_index, _MONTH_US, 0, 0.0)
        pop.begin_month(8)
        assert np.all(pop.rosters["C"].expiry > 8)

    def test_active_user_ids(self, market):
        # After the last month every roster member is a live user of the
        # roster's class, and no user sits on two rosters.
        simulator, _ = market
        pop = simulator.pop
        members = []
        for name, roster in pop.rosters.items():
            ids = roster.user_ids
            assert np.all(pop.class_code[ids] == cfg.CLASS_NAMES.index(name))
            members.append(ids)
        members = np.concatenate(members)
        assert len(members) >= 2
        assert len(np.unique(members)) == len(members)

    def test_resolve_collision_avoids_forbidden(self):
        pop = ArrayPopulation(np.random.default_rng(0))
        ids = pop.acquire("C", 10, 0, _MONTH_US, 0, 0.0)
        users = pop.n_users
        maker = np.full(20, ids[0])
        taker = maker.copy()
        taker_class = np.full(20, cfg.CLASS_NAMES.index("C"), dtype=np.int8)
        fixed = pop.resolve_collisions(maker, taker, taker_class, 0, _MONTH_US, 0)
        assert not np.any(fixed == ids[0])
        assert pop.n_users == users  # the roster had others to pick

    def test_resolve_collision_spawns_when_empty(self):
        # class L roster empty -> must spawn a fresh L user
        pop = ArrayPopulation(np.random.default_rng(0))
        maker = pop.acquire("C", 1, 0, _MONTH_US, 0, 0.0)
        taker_class = np.full(1, cfg.CLASS_NAMES.index("L"), dtype=np.int8)
        fixed = pop.resolve_collisions(
            maker, maker.copy(), taker_class, 0, _MONTH_US, 0
        )
        assert fixed[0] != maker[0]
        assert pop.class_code[fixed[0]] == cfg.CLASS_NAMES.index("L")

    def test_setup_users_have_forum_history(self):
        # SET-UP spawns join the forum up to 400 days before their first
        # contract; later eras mostly within the month before.
        setup = ArrayPopulation(np.random.default_rng(4))
        setup.acquire("C", 200, 0, _MONTH_US, 0, 0.0)
        stable = ArrayPopulation(np.random.default_rng(4))
        stable.acquire("C", 200, 0, _MONTH_US, 1, 0.0)
        setup_days = -setup.joined_us // _US_PER_DAY
        stable_days = -stable.joined_us // _US_PER_DAY
        assert setup_days.max() > 100
        assert np.median(setup_days) > 100
        assert np.median(stable_days) < 30
        assert np.all(setup.joined_us != NAT_US)


class TestAliasSampler:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasSampler(np.empty(0))

    def test_draws_match_weights(self):
        rng = np.random.default_rng(0)
        weights = np.asarray([1.0, 2.0, 7.0])
        sampler = AliasSampler(weights)
        draws = sampler.draw(rng, 100_000)
        freq = np.bincount(draws, minlength=3) / len(draws)
        assert np.allclose(freq, weights / weights.sum(), atol=0.01)

    def test_uniform_weights(self):
        rng = np.random.default_rng(1)
        sampler = AliasSampler(np.ones(5))
        draws = sampler.draw(rng, 50_000)
        freq = np.bincount(draws, minlength=5) / len(draws)
        assert np.allclose(freq, 0.2, atol=0.01)

    def test_deterministic_given_rng(self):
        weights = np.asarray([3.0, 1.0, 2.0])
        a = AliasSampler(weights).draw(np.random.default_rng(7), 100)
        b = AliasSampler(weights).draw(np.random.default_rng(7), 100)
        assert np.array_equal(a, b)


class TestArrayPopulation:
    def _pop(self, seed=0):
        return ArrayPopulation(np.random.default_rng(seed))

    def test_acquire_returns_count_indices(self):
        pop = self._pop()
        ids = pop.acquire("C", 20, 0, _MONTH_US, 0, 0.0)
        assert len(ids) == 20
        assert pop.n_users >= 1
        code = cfg.CLASS_NAMES.index("C")
        assert np.all(pop.class_code[ids] == code)

    def test_acquire_zero_is_empty(self):
        pop = self._pop()
        assert len(pop.acquire("C", 0, 0, _MONTH_US, 0, 0.0)) == 0

    def test_power_tier_reuses_heavily(self):
        pop = self._pop()
        for month_index in range(6):
            pop.begin_month(month_index)
            pop.acquire("K", 50, month_index, _MONTH_US, 0, 0.5)
        k_users = int((pop.class_code == cfg.CLASS_NAMES.index("K")).sum())
        assert k_users < 60  # 300 slots served by few distinct users

    def test_single_tier_churns(self):
        pop = self._pop()
        for month_index in range(6):
            pop.begin_month(month_index)
            pop.acquire("C", 50, month_index, _MONTH_US, 0, 0.5)
        c_users = int((pop.class_code == cfg.CLASS_NAMES.index("C")).sum())
        assert c_users > 60

    def test_attachment_concentrates_activity(self):
        pop = ArrayPopulation(np.random.default_rng(1), attachment_alpha=1.0)
        counts = {}
        for month_index in range(8):
            pop.begin_month(month_index)
            for user in pop.acquire("L", 40, month_index, _MONTH_US, 1, 0.5):
                counts[int(user)] = counts.get(int(user), 0) + 1
        assert max(counts.values()) > 320 / len(counts)

    def test_bootstrap_spawns_only_binomial_share(self):
        # On an empty roster the "reuse" draws come from the fresh batch
        # instead of forcing an all-new spawn: a sharded run bootstraps
        # every cohort, and per-cohort all-spawn batches would inflate
        # the population with the cohort count.
        pop = ArrayPopulation(np.random.default_rng(2))
        ids = pop.acquire("K", 40, 0, _MONTH_US, 0, 0.9)
        assert len(ids) == 40
        assert pop.n_users < 30  # far fewer distinct users than slots

    def test_cull_removes_expired(self):
        pop = self._pop()
        pop.acquire("C", 30, 0, _MONTH_US, 0, 0.0)
        before = len(pop.rosters["C"])
        pop.begin_month(50)  # far future: everyone expired
        assert len(pop.rosters["C"]) < before

    def test_cull_noop_when_nothing_expired(self):
        pop = self._pop()
        pop.acquire("C", 30, 0, _MONTH_US, 0, 0.0)
        roster = pop.rosters["C"]
        ids_before = roster.user_ids.copy()
        pop.begin_month(0)  # minimum expiry is month 1: everyone alive
        assert np.array_equal(roster.user_ids, ids_before)

    def test_resolve_collisions_replaces_self_deals(self):
        pop = self._pop()
        ids = pop.acquire("C", 10, 0, _MONTH_US, 0, 0.0)
        maker = ids[:5].copy()
        taker = maker.copy()  # every row collides
        taker_class = np.full(5, cfg.CLASS_NAMES.index("C"), dtype=np.int8)
        fixed = pop.resolve_collisions(maker, taker, taker_class, 0, _MONTH_US, 0)
        assert not np.any(fixed == maker)

    def test_non_completer_power_exempt(self):
        pop = self._pop(seed=2)
        pop.acquire("K", 200, 0, _MONTH_US, 0, 0.0)
        k_rows = pop.class_code == cfg.CLASS_NAMES.index("K")
        assert not pop.non_completer[k_rows].any()

    def test_scam_propensity_in_range(self):
        pop = self._pop()
        pop.acquire("C", 50, 0, _MONTH_US, 0, 0.0)
        assert np.all(pop.scam_propensity >= 0.0)
        assert np.all(pop.scam_propensity < 1.0)

    def test_deterministic_per_seed(self):
        runs = []
        for _ in range(2):
            pop = ArrayPopulation(np.random.default_rng(5))
            batches = [
                pop.acquire("C", 25, m, _MONTH_US, 0, 0.3) for m in range(4)
            ]
            runs.append(np.concatenate(batches))
        assert np.array_equal(runs[0], runs[1])
