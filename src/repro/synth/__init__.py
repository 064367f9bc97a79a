"""Calibrated synthetic market generator (the CrimeBB substitute).

Every name below loads its submodule on first access
(:mod:`repro._exports`).
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

__all__ = [
    "CLASS_LABELS",
    "CLASS_NAMES",
    "CLASS_TIERS",
    "DEFAULT_CONFIG",
    "MAKE_RATES",
    "TAKE_RATES",
    "SimulationConfig",
    "interpolate_curve",
    "MarketSimulator",
    "SimulationResult",
    "SimulationTruth",
    "generate_market",
    "run_engine",
    "FastMarketSimulator",
    "generate_market_fast",
    "stream_partitioned",
    "ObligationGenerator",
    "ObligationSpec",
    "AliasSampler",
    "ArrayPopulation",
    "ClassRoster",
    "Population",
    "CalibrationCheck",
    "CalibrationReport",
    "score_calibration",
    "flat_market_scenario",
    "no_covid_scenario",
    "no_mandate_scenario",
]

if TYPE_CHECKING:
    from .config import (
        CLASS_LABELS,
        CLASS_NAMES,
        CLASS_TIERS,
        DEFAULT_CONFIG,
        MAKE_RATES,
        TAKE_RATES,
        SimulationConfig,
        interpolate_curve,
    )
    from .marketsim import MarketSimulator, SimulationResult, SimulationTruth
    from .engine import generate_market, run_engine
    from .fastgen import FastMarketSimulator, generate_market_fast
    from .streamgen import stream_partitioned
    from .obligations import ObligationGenerator, ObligationSpec
    from .population import AliasSampler, ArrayPopulation, ClassRoster, Population
    from .calibration import CalibrationCheck, CalibrationReport, score_calibration
    from .scenarios import (
        flat_market_scenario,
        no_covid_scenario,
        no_mandate_scenario,
    )
else:
    __getattr__, __dir__ = lazy_exports(globals(), {
        "config": (
            "CLASS_LABELS", "CLASS_NAMES", "CLASS_TIERS", "DEFAULT_CONFIG",
            "MAKE_RATES", "TAKE_RATES", "SimulationConfig",
            "interpolate_curve",
        ),
        "marketsim": ("MarketSimulator", "SimulationResult", "SimulationTruth"),
        "engine": ("run_engine", "generate_market"),
        "fastgen": ("FastMarketSimulator", "generate_market_fast"),
        "streamgen": ("stream_partitioned",),
        "obligations": ("ObligationGenerator", "ObligationSpec"),
        "population": (
            "AliasSampler", "ArrayPopulation", "ClassRoster", "Population",
        ),
        "calibration": (
            "CalibrationCheck", "CalibrationReport", "score_calibration",
        ),
        "scenarios": (
            "flat_market_scenario", "no_covid_scenario", "no_mandate_scenario",
        ),
    })
