"""Generation entry points: one place that maps a config onto a market.

Every market comes from one generator,
:class:`~repro.synth.fastgen.MarketSimulator`.  :func:`run_engine` is
the call every entry point funnels through — :func:`generate_market`,
:func:`~repro.synth.cache.cached_generate`, the CLI and the run
runner — so a market always comes from the config its fingerprint
names.
"""

from __future__ import annotations

from .config import DEFAULT_CONFIG, SimulationConfig
from .marketsim import SimulationResult

__all__ = ["run_engine", "generate_market"]


def run_engine(config: SimulationConfig, workers: int = 1) -> SimulationResult:
    """Generate the resident market ``config`` describes.

    ``workers`` is accepted and ignored: generation is one RNG stream
    in one process.
    """
    # Imported here: a process that only reads cached markets (a warm
    # ``repro stream``) never loads the generator.
    from .fastgen import MarketSimulator

    return MarketSimulator(config).run()


def generate_market(
    scale: float = 1.0, seed: int = DEFAULT_CONFIG.seed, **overrides
) -> SimulationResult:
    """Convenience wrapper: build a config, generate, return all.

    ``overrides`` are forwarded to :class:`SimulationConfig` (e.g.
    ``generate_posts=False`` for faster experiment-only runs).
    """
    return run_engine(SimulationConfig(scale=scale, seed=seed, **overrides))
