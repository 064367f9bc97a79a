"""Counterfactual market scenarios.

The calibrated default reproduces the observed history.  These scenario
builders modify the driving curves to ask "what if":

* :func:`no_covid_scenario` — the pandemic never happens: the COVID-19
  months continue STABLE's gentle decline instead of spiking.
* :func:`no_mandate_scenario` — contracts never become mandatory: the
  March-2019 policy jump is flattened into continued SET-UP-style growth.
* :func:`flat_market_scenario` — a null market with constant volume and
  composition, useful as a baseline for detecting era effects.

Each returns a ready :class:`~repro.synth.config.SimulationConfig`; run
it through :class:`~repro.synth.fastgen.MarketSimulator` (or any entry
point that takes a config) and compare against the default with the
standard analyses.
"""

from __future__ import annotations

from typing import List, Tuple

from .config import CREATED_PER_MONTH, PUBLIC_SHARE, SimulationConfig

__all__ = [
    "no_covid_scenario",
    "no_mandate_scenario",
    "flat_market_scenario",
]

Curve = List[Tuple[str, float]]


def no_covid_scenario(scale: float = 1.0, seed: int = 20201027) -> SimulationConfig:
    """The COVID-19 spike replaced by STABLE's continued slow decline."""
    curve: Curve = []
    for key, value in CREATED_PER_MONTH:
        if key >= "2020-03":
            continue
        curve.append((key, value))
    # continue the ~-400/month STABLE drift through the spring
    curve.extend(
        [("2020-03", 7800), ("2020-04", 7600), ("2020-05", 7400), ("2020-06", 7200)]
    )
    return SimulationConfig(scale=scale, seed=seed, created_per_month=curve)


def no_mandate_scenario(scale: float = 1.0, seed: int = 20201027) -> SimulationConfig:
    """Contracts stay optional: no March-2019 jump, no visibility crash.

    Volume keeps SET-UP's organic growth rate (~+250 contracts/month) and
    the public share continues its gradual decline instead of halving
    overnight.
    """
    curve: Curve = [(key, value) for key, value in CREATED_PER_MONTH if key < "2019-03"]
    base = curve[-1][1]
    months = [
        "2019-03", "2019-04", "2019-05", "2019-06", "2019-07", "2019-08",
        "2019-09", "2019-10", "2019-11", "2019-12", "2020-01", "2020-02",
        "2020-03", "2020-04", "2020-05", "2020-06",
    ]
    for index, key in enumerate(months, start=1):
        curve.append((key, base + 250 * index))

    public: Curve = [(key, value) for key, value in PUBLIC_SHARE if key < "2019-03"]
    public.extend([("2019-03", 0.15), ("2020-06", 0.10)])
    return SimulationConfig(
        scale=scale, seed=seed, created_per_month=curve, public_share=public
    )


def flat_market_scenario(
    scale: float = 1.0, seed: int = 20201027, monthly_volume: float = 7500.0
) -> SimulationConfig:
    """A stationary null market: constant volume throughout the window."""
    curve: Curve = [("2018-06", monthly_volume), ("2020-06", monthly_volume)]
    return SimulationConfig(scale=scale, seed=seed, created_per_month=curve)
