"""Shared fixtures: small synthetic markets reused across the test suite.

Simulations are session-scoped — they are deterministic (fixed seeds), and
most tests only read from them.
"""

from __future__ import annotations

import os

import pytest

from repro.synth import SimulationConfig, MarketSimulator


@pytest.fixture(scope="session", autouse=True)
def _isolated_runs_store(tmp_path_factory):
    """Point the persistent run store at a session temp dir.

    ``repro report`` / ``repro stream`` record into the run store by
    default; without this, CLI tests would write under the real
    ``~/.cache/repro/runs``.
    """
    previous = os.environ.get("REPRO_RUNS_DIR")
    os.environ["REPRO_RUNS_DIR"] = str(tmp_path_factory.mktemp("runs-store"))
    yield
    if previous is None:
        os.environ.pop("REPRO_RUNS_DIR", None)
    else:
        os.environ["REPRO_RUNS_DIR"] = previous


@pytest.fixture(scope="session")
def sim_small():
    """A ~2% scale market (~4k contracts): enough for aggregate shape."""
    return MarketSimulator(SimulationConfig(scale=0.02, seed=123)).run()


@pytest.fixture(scope="session")
def sim_tiny():
    """A ~0.8% scale market: for expensive statistical pipelines."""
    return MarketSimulator(SimulationConfig(scale=0.008, seed=321)).run()


#: Seeds of the small markets that claims about the market's shape are
#: stated over, instead of over one draw.
SEED_MARKETS = tuple(range(1, 13))


@pytest.fixture(scope="session")
def seed_markets():
    """Twelve ~2% scale markets, seeds 1 to 12, sim_small's config."""
    return [
        MarketSimulator(SimulationConfig(scale=0.02, seed=seed)).run().dataset
        for seed in SEED_MARKETS
    ]


@pytest.fixture(scope="session")
def dataset(sim_small):
    return sim_small.dataset


@pytest.fixture(scope="session")
def tiny_dataset(sim_tiny):
    return sim_tiny.dataset
