"""Ablations of the §5.2 ZIP specification on one scale-0.05 market.

Both fit the STABLE-era cold-start records with the Table 9 design.

* ZIP vs plain Poisson: §5.2 justifies ZIP via Vuong tests.  ZIP nests
  Poisson, so its maximum-likelihood fit cannot be meaningfully worse,
  and the Vuong test must not favour plain Poisson.
* ZIP vs hurdle Poisson: reviewers' standard follow-up to a ZIP
  specification is "does a hurdle model tell the same story?".  The
  substantive conclusion (first-timers complete fewer contracts) must
  not depend on which zero-handling specification is used.
"""

import pytest

from repro import generate_market
from repro.analysis.coldstart import _design, cold_start_records
from repro.core.eras import STABLE
from repro.stats.hurdle import fit_hurdle
from repro.stats.poisson_glm import fit_poisson
from repro.stats.vuong import vuong_test
from repro.stats.zip_model import fit_zip


@pytest.fixture(scope="module")
def stable_design():
    """Table 9's STABLE design on the scale-0.05 market."""
    dataset = generate_market(scale=0.05, seed=20201027).dataset
    records = cold_start_records(dataset, STABLE)
    return _design(records, include_first_time=True)


@pytest.fixture(scope="module")
def zip_fit(stable_design):
    X, Z, y, count_names, zero_names = stable_design
    return fit_zip(X, y, Z, count_names=count_names, zero_names=zero_names)


def test_zip_vs_poisson(stable_design, zip_fit):
    X, Z, y, count_names, _ = stable_design
    poisson = fit_poisson(X, y, names=count_names)
    vuong = vuong_test(
        zip_fit.loglik_terms(X, Z, y),
        poisson.loglik_terms(X, y),
        zip_fit.n_params,
        len(poisson.coef),
    )
    assert zip_fit.log_likelihood >= poisson.log_likelihood - 1.0
    assert vuong.statistic > -2.0


def test_zip_vs_hurdle(stable_design, zip_fit):
    X, Z, y, count_names, zero_names = stable_design
    hurdle = fit_hurdle(X, y, Z, count_names=count_names, hurdle_names=zero_names)
    index = count_names.index("First-Time Contract Users") + 1  # + intercept
    zip_first = float(zip_fit.count_coef[index])
    hurdle_first = float(hurdle.count_coef[index])
    # The substantive effect must agree in direction across specifications.
    assert (zip_first <= 0.1) == (hurdle_first <= 0.1) or abs(
        zip_first - hurdle_first
    ) < 0.5
