"""repro — reproduction of "Turning Up the Dial" (IMC 2020).

A full Python reimplementation of the analysis stack behind Vu et al.'s
study of the HACK FORUMS contract marketplace, plus a calibrated synthetic
market generator standing in for the access-restricted CrimeBB dataset.

Quickstart::

    from repro import generate_market, ExperimentContext, run_experiment

    result = generate_market(scale=0.05, seed=42)
    ctx = ExperimentContext(result)
    run_experiment("table1", ctx).print()

The names below load on first access (:mod:`repro._exports`), so
``import repro`` itself imports no subpackage.  See DESIGN.md for the
system inventory and the per-experiment index.
"""

from typing import TYPE_CHECKING

from ._exports import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "COVID19",
    "ERAS",
    "SETUP",
    "STABLE",
    "Contract",
    "ContractStatus",
    "ContractType",
    "Era",
    "MarketDataset",
    "Month",
    "Post",
    "Rating",
    "Thread",
    "User",
    "Visibility",
    "era_of",
    "load_dataset",
    "month_of",
    "save_dataset",
    "EXPERIMENTS",
    "ExperimentContext",
    "ExperimentReport",
    "run_experiment",
    "MarketSimulator",
    "SimulationConfig",
    "SimulationResult",
    "generate_market",
    "__version__",
]

if TYPE_CHECKING:
    from .core import (
        COVID19,
        ERAS,
        SETUP,
        STABLE,
        Contract,
        ContractStatus,
        ContractType,
        Era,
        MarketDataset,
        Month,
        Post,
        Rating,
        Thread,
        User,
        Visibility,
        era_of,
        load_dataset,
        month_of,
        save_dataset,
    )
    from .report import EXPERIMENTS, ExperimentContext, ExperimentReport, run_experiment
    from .synth import MarketSimulator, SimulationConfig, SimulationResult, generate_market
else:
    __getattr__, __dir__ = lazy_exports(globals(), {
        "core": (
            "COVID19", "ERAS", "SETUP", "STABLE", "Contract", "ContractStatus",
            "ContractType", "Era", "MarketDataset", "Month", "Post", "Rating",
            "Thread", "User", "Visibility", "era_of", "load_dataset",
            "month_of", "save_dataset",
        ),
        "report": (
            "EXPERIMENTS", "ExperimentContext", "ExperimentReport",
            "run_experiment",
        ),
        "synth": (
            "MarketSimulator", "SimulationConfig", "SimulationResult",
            "generate_market",
        ),
    })
