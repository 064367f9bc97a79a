"""Engine dispatch: the ``"auto"`` default, the measured scale
crossover, run_engine's single point of resolution, and one cache
fingerprint per resolved engine whatever its spelling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import disable_tracing, enable_tracing
from repro.synth import SimulationConfig, generate_market
from repro.synth.cache import cached_partitioned_store, config_fingerprint
from repro.synth.config import ENGINE_AUTO_CROSSOVER
from repro.synth.engine import run_engine


@pytest.fixture(autouse=True)
def _reset_tracer():
    disable_tracing()
    yield
    disable_tracing()


class TestResolution:
    def test_auto_is_the_default(self):
        assert SimulationConfig().engine == "auto"

    def test_below_crossover_resolves_object(self):
        config = SimulationConfig(scale=ENGINE_AUTO_CROSSOVER / 2)
        assert config.resolved_engine == "object"

    def test_at_crossover_resolves_fastgen(self):
        config = SimulationConfig(scale=ENGINE_AUTO_CROSSOVER)
        assert config.resolved_engine == "fastgen"

    def test_above_crossover_resolves_fastgen(self):
        assert SimulationConfig(scale=1.0).resolved_engine == "fastgen"

    def test_explicit_engine_wins_over_scale(self):
        assert SimulationConfig(
            scale=1.0, engine="object"
        ).resolved_engine == "object"
        assert SimulationConfig(
            scale=0.001, engine="fastgen"
        ).resolved_engine == "fastgen"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(engine="warp")


class TestDispatch:
    def test_auto_small_scale_runs_object_engine(self):
        tracer = enable_tracing()
        result = run_engine(SimulationConfig(scale=0.004, seed=9,
                                             generate_posts=False))
        counters = tracer.snapshot()["counters"]
        assert counters.get("gen.engine.object") == 1
        assert "gen.engine.fastgen" not in counters
        assert len(result.dataset.contracts) > 0

    def test_explicit_fastgen_runs_columnar_engine(self):
        tracer = enable_tracing()
        result = run_engine(SimulationConfig(scale=0.01, seed=9,
                                             engine="fastgen"))
        counters = tracer.snapshot()["counters"]
        assert counters.get("gen.engine.fastgen") == 1
        assert result.dataset.tables is not None

    def test_generate_market_builds_the_market_its_config_names(self):
        # At the crossover "auto" resolves to fastgen, so the convenience
        # wrapper must return run_engine's columnar market; a market from
        # the other engine would be cached under fastgen's fingerprint.
        built = generate_market(scale=ENGINE_AUTO_CROSSOVER, seed=3,
                                generate_posts=False)
        expected = run_engine(SimulationConfig(
            scale=ENGINE_AUTO_CROSSOVER, seed=3, generate_posts=False))
        assert len(built.dataset) == len(expected.dataset)
        tables = expected.dataset.tables
        assert sorted(built.dataset.tables) == sorted(tables)
        for name, column in tables.items():
            assert np.array_equal(built.dataset.tables[name], column), name


class TestFingerprint:
    @pytest.mark.parametrize("scale, engine", [(1.0, "fastgen"), (0.02, "object")])
    def test_auto_shares_its_resolved_engines_fingerprint(self, scale, engine):
        auto = config_fingerprint(SimulationConfig(scale=scale))
        spelled = config_fingerprint(SimulationConfig(scale=scale, engine=engine))
        assert auto == spelled
        for other in ("object", "fastgen"):
            if other != engine:
                assert auto != config_fingerprint(
                    SimulationConfig(scale=scale, engine=other)
                )

    @pytest.mark.parametrize("scale, engine", [(0.05, "fastgen"), (0.004, "object")])
    def test_store_built_under_one_spelling_hits_under_the_other(
        self, scale, engine, tmp_path
    ):
        market = dict(scale=scale, seed=9, cache_dir=str(tmp_path),
                      generate_posts=False)
        _, hit = cached_partitioned_store(engine=engine, **market)
        assert not hit
        _, hit = cached_partitioned_store(engine="auto", **market)
        assert hit
