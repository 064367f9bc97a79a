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
    "stream_partitioned",
    "ObligationSpec",
    "AliasSampler",
    "ArrayPopulation",
    "ClassRoster",
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
    from .fastgen import MarketSimulator
    from .marketsim import SimulationResult, SimulationTruth
    from .engine import generate_market, run_engine
    from .streamgen import stream_partitioned
    from .obligations import ObligationSpec
    from .population import AliasSampler, ArrayPopulation, ClassRoster
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
        "fastgen": ("MarketSimulator",),
        "marketsim": ("SimulationResult", "SimulationTruth"),
        "engine": ("run_engine", "generate_market"),
        "streamgen": ("stream_partitioned",),
        "obligations": ("ObligationSpec",),
        "population": ("AliasSampler", "ArrayPopulation", "ClassRoster"),
        "calibration": (
            "CalibrationCheck", "CalibrationReport", "score_calibration",
        ),
        "scenarios": (
            "flat_market_scenario", "no_covid_scenario", "no_mandate_scenario",
        ),
    })
