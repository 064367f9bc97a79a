"""Ablations of the §5.1 latent-class model on one scale-0.05 market.

* Class count: the paper keeps 12 classes as "the most accurate and
  parsimonious (per AIC and BIC)".  Sweeping k on the user-month panel,
  multi-class models must beat the one-class baseline decisively and
  BIC must favour a rich class structure.
* Overdispersion: §5.1 uses Poisson emissions "due to non-overdispersed
  count data".  The user-month counts are overdispersed *marginally*
  (class mixing), but within each recovered latent class the dispersion
  index returns towards 1, the condition under which a Poisson mixture
  is the right model.
"""

import numpy as np
import pytest

from repro import generate_market
from repro.analysis.latent import FEATURE_NAMES, user_month_profiles
from repro.stats.mixture import fit_poisson_mixture
from repro.stats.overdispersion import dispersion_index, within_class_dispersion


@pytest.fixture(scope="module")
def user_months():
    """The pooled user-month count matrix of the scale-0.05 market."""
    dataset = generate_market(scale=0.05, seed=20201027).dataset
    return user_month_profiles(dataset).counts


def test_lca_class_count_sweep(user_months):
    scores = {}
    for k in (1, 2, 4, 6, 8, 10, 12):
        model = fit_poisson_mixture(
            user_months, k, n_init=2, seed=k, feature_names=list(FEATURE_NAMES)
        )
        scores[k] = model.bic
    best = min(scores, key=scores.get)
    assert scores[1] > scores[6]  # structure clearly beats one class
    assert best >= 6              # rich class structure, as in the paper


def test_overdispersion_structure(user_months):
    Y = user_months
    marginal = float(np.mean([
        dispersion_index(Y[:, j]) for j in range(Y.shape[1]) if Y[:, j].mean() > 0.05
    ]))
    model = fit_poisson_mixture(Y, 10, seed=2, n_init=2)
    within = float(np.median(list(within_class_dispersion(Y, model).values())))
    assert marginal > 1.3        # mixing creates marginal overdispersion
    assert within < marginal     # classes absorb it
    assert within < 3.0
