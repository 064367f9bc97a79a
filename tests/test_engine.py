"""Generator entry points: ``"auto"`` and ``"fastgen"`` both name the one
generator, ``"object"`` is refused, run_engine is the single entry, and
every spelling shares one cache fingerprint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import disable_tracing, enable_tracing
from repro.synth import SimulationConfig, generate_market
from repro.synth.cache import cached_partitioned_store, config_fingerprint
from repro.synth.engine import run_engine


@pytest.fixture(autouse=True)
def _reset_tracer():
    disable_tracing()
    yield
    disable_tracing()


class TestResolution:
    def test_auto_is_the_default(self):
        assert SimulationConfig().engine == "auto"

    def test_at_crossover_resolves_fastgen(self):
        assert SimulationConfig(scale=0.05).resolved_engine == "fastgen"

    def test_above_crossover_resolves_fastgen(self):
        assert SimulationConfig(scale=1.0).resolved_engine == "fastgen"

    def test_explicit_engine_wins_over_scale(self):
        assert SimulationConfig(
            scale=0.001, engine="fastgen"
        ).resolved_engine == "fastgen"
        assert SimulationConfig(scale=0.001).resolved_engine == "fastgen"

    def test_object_engine_is_refused(self):
        with pytest.raises(ValueError, match="object"):
            SimulationConfig(scale=0.004, engine="object")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(engine="warp")


class TestDispatch:
    def test_explicit_fastgen_runs_columnar_engine(self):
        tracer = enable_tracing()
        result = run_engine(SimulationConfig(scale=0.01, seed=9,
                                             engine="fastgen"))
        snapshot = tracer.snapshot()
        counters = snapshot["counters"]
        tables = result.dataset.tables
        assert counters["synth.contracts.generated"] == len(tables["c_id"])
        assert counters["synth.users.created"] == len(tables["user_id"])
        assert counters["synth.posts.generated"] == len(tables["p_id"])
        assert not any(name.startswith("gen.engine") for name in counters)

    def test_generate_market_builds_the_market_its_config_names(self):
        built = generate_market(scale=0.05, seed=3, generate_posts=False)
        expected = run_engine(SimulationConfig(
            scale=0.05, seed=3, generate_posts=False))
        assert len(built.dataset) == len(expected.dataset)
        tables = expected.dataset.tables
        assert sorted(built.dataset.tables) == sorted(tables)
        for name, column in tables.items():
            assert np.array_equal(built.dataset.tables[name], column), name


class TestFingerprint:
    @pytest.mark.parametrize("scale, engine", [(1.0, "fastgen"), (0.02, "fastgen")])
    def test_auto_shares_its_resolved_engines_fingerprint(self, scale, engine):
        auto = config_fingerprint(SimulationConfig(scale=scale))
        spelled = config_fingerprint(SimulationConfig(scale=scale, engine=engine))
        assert auto == spelled

    @pytest.mark.parametrize("scale, engine", [(0.05, "fastgen"), (0.004, "fastgen")])
    def test_store_built_under_one_spelling_hits_under_the_other(
        self, scale, engine, tmp_path
    ):
        market = dict(scale=scale, seed=9, cache_dir=str(tmp_path),
                      generate_posts=False)
        _, hit = cached_partitioned_store(engine=engine, **market)
        assert not hit
        _, hit = cached_partitioned_store(engine="auto", **market)
        assert hit
