"""Ablations of the simulated market's design choices and of the paper's
era attribution, on generated markets.

* Preferential attachment: Figure 7's heavy-tailed degree distributions
  come from reusing takers with weight ``(1 + past_contracts) ** alpha``.
  With ``alpha = 1`` (the default) the maximum inbound degree must be far
  larger than under uniform reuse (``alpha = 0``), and the tail must beat
  an exponential fit.
* Counterfactual histories: the era effects the paper attributes to
  external events must disappear when those events are removed from the
  driving curves.  Without COVID-19, April 2020 is no longer a volume
  peak; without the March 2019 mandate, that month loses its jump.
* Era bounds: the eras are defined deductively by external events.
  Shifting the STABLE/COVID-19 boundary by a month either way must keep
  the COVID-era surge: at every shift, the COVID-19 era's monthly rate
  relative to STABLE's stays clearly above the same ratio in the
  no-COVID counterfactual of the same scale and seed.
* Sybil timing (§7): "Spurious negative reviews and other forms of Sybil
  attack are best targeted in the early days of market formation".  The
  same attack budget spent 45 days into each era must do at least as
  much damage in SET-UP as in STABLE.
"""

import datetime as dt

import pytest

from repro import generate_market
from repro.core.eras import COVID19, STABLE, Era
from repro.core.timeutils import Month
from repro.interventions import era_vulnerability
from repro.network.degrees import degree_distributions
from repro.network.powerlaw import fit_power_law, loglik_ratio_vs_exponential
from repro.synth import MarketSimulator, no_covid_scenario, no_mandate_scenario


@pytest.fixture(scope="module")
def factual():
    """The factual scale-0.05 market the era-level ablations read."""
    return generate_market(scale=0.05, seed=20201027).dataset


def _attachment_market(alpha: float):
    return generate_market(
        scale=0.02, seed=5, generate_posts=False, attachment_alpha=alpha,
    ).dataset


def test_attachment_creates_hubs():
    with_attachment = degree_distributions(_attachment_market(1.0).contracts)
    without_attachment = degree_distributions(_attachment_market(0.0).contracts)
    assert (with_attachment.max_degree["inbound"]
            > 1.5 * without_attachment.max_degree["inbound"])

    degrees = [
        d for d, c in with_attachment.histogram["raw"].items() for _ in range(c)
    ]
    ratio, _ = loglik_ratio_vs_exponential(degrees, fit_power_law(degrees))
    assert ratio > 0


def _monthly(dataset):
    return {
        month: len(contracts)
        for month, contracts in dataset.contracts_by_created_month().items()
    }


def _ratio(series, a, b):
    return series.get(Month(*a), 0) / max(1, series.get(Month(*b), 0))


def test_counterfactual_histories(factual):
    no_covid = _monthly(
        MarketSimulator(no_covid_scenario(scale=0.03, seed=21)).run().dataset
    )
    no_mandate = _monthly(
        MarketSimulator(no_mandate_scenario(scale=0.03, seed=21)).run().dataset
    )
    observed = _monthly(factual)
    assert (_ratio(observed, (2020, 4), (2020, 2))
            > _ratio(no_covid, (2020, 4), (2020, 2)) + 0.2)
    assert (_ratio(observed, (2019, 3), (2019, 2))
            > _ratio(no_mandate, (2019, 3), (2019, 2)) + 0.5)


def _monthly_rate(dataset, era: Era) -> float:
    count = sum(1 for c in dataset.contracts if era.contains(c.created_at))
    return count / (era.days / 30.44)


def test_era_boundary_sensitivity(factual):
    # By the curves, the factual market's COVID/STABLE rate ratios at
    # shifts of -30, 0 and +30 days are 0.942, 0.965 and 0.903, the
    # no-COVID market's 0.748, 0.746 and 0.751.
    no_covid = MarketSimulator(
        no_covid_scenario(scale=0.05, seed=20201027)
    ).run().dataset
    for shift in (-30, 0, 30):
        covid = Era(COVID19.name, COVID19.short,
                    COVID19.start + dt.timedelta(days=shift), COVID19.end)
        stable = Era(STABLE.name, STABLE.short, STABLE.start,
                     covid.start - dt.timedelta(days=1))

        def ratio(dataset):
            return _monthly_rate(dataset, covid) / _monthly_rate(dataset, stable)

        # the COVID stimulus survives +/- one month of boundary shift
        assert ratio(factual) > ratio(no_covid) + 0.05, shift


def test_sybil_attack_timing(factual):
    impacts = era_vulnerability(factual, budget=400, targets=20)
    assert set(impacts) == {"SET-UP", "STABLE", "COVID-19"}
    assert impacts["SET-UP"].distortion >= impacts["STABLE"].distortion
