"""Engine dispatch: one place that maps a config onto a simulator.

``SimulationConfig.engine`` accepts three values — ``"object"``,
``"fastgen"`` and ``"auto"`` (the default).  ``"auto"`` resolves by
scale at the measured crossover
(:data:`repro.synth.config.ENGINE_AUTO_CROSSOVER`): tiny runs take the
object engine (lower fixed costs), paper-scale runs take the columnar
engine.  Every generation entry point — :func:`generate_market`,
:func:`cached_generate`, the CLI, the partitioned store builder —
funnels through :func:`run_engine` so the resolution logic exists
exactly once, and a market always comes from the engine its config
fingerprint names.
"""

from __future__ import annotations

from ..obs.tracer import get_tracer
from .config import DEFAULT_CONFIG, SimulationConfig
from .marketsim import MarketSimulator, SimulationResult

__all__ = ["run_engine", "generate_market"]


def run_engine(config: SimulationConfig, workers: int = 1) -> SimulationResult:
    """Generate a market with the engine ``config`` resolves to.

    ``workers`` is a runtime knob for the fastgen path (cohort shards
    across forked processes); the object engine ignores it.  The chosen
    engine is recorded as a ``gen.engine.<name>`` counter so traces show
    what ``"auto"`` picked.
    """
    engine = config.resolved_engine
    get_tracer().count(f"gen.engine.{engine}")
    if engine == "fastgen":
        from .fastgen import FastMarketSimulator

        return FastMarketSimulator(config).run(workers=workers)
    return MarketSimulator(config).run()


def generate_market(
    scale: float = 1.0, seed: int = DEFAULT_CONFIG.seed, **overrides
) -> SimulationResult:
    """Convenience wrapper: build a config, run its engine, return all.

    ``overrides`` are forwarded to :class:`SimulationConfig` (e.g.
    ``generate_posts=False`` for faster experiment-only runs, or
    ``engine="object"`` to pin the reference engine at any scale).
    """
    return run_engine(SimulationConfig(scale=scale, seed=seed, **overrides))
