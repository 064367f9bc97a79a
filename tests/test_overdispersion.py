"""Tests for the overdispersion diagnostics."""

import numpy as np
import pytest

from repro.stats.mixture import fit_poisson_mixture
from repro.stats.overdispersion import (
    cameron_trivedi_test,
    dispersion_index,
    within_class_dispersion,
)


class TestDispersionIndex:
    def test_poisson_near_one(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(3.0, size=5000)
        assert dispersion_index(counts) == pytest.approx(1.0, abs=0.1)

    def test_negative_binomial_above_one(self):
        rng = np.random.default_rng(1)
        lam = rng.gamma(2.0, 2.0, size=5000)  # mixed Poisson -> overdispersed
        counts = rng.poisson(lam)
        assert dispersion_index(counts) > 1.5

    def test_constant_zero(self):
        assert dispersion_index([0, 0, 0, 0]) == pytest.approx(0.0)

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            dispersion_index([1])


class TestCameronTrivedi:
    def test_poisson_not_flagged(self):
        rng = np.random.default_rng(2)
        mu = np.exp(rng.normal(0.5, 0.4, size=4000))
        y = rng.poisson(mu)
        test = cameron_trivedi_test(y, mu)
        assert not test.overdispersed

    def test_overdispersed_flagged(self):
        rng = np.random.default_rng(3)
        mu = np.exp(rng.normal(0.5, 0.4, size=4000))
        lam = mu * rng.gamma(2.0, 0.5, size=4000)  # extra variance
        y = rng.poisson(lam)
        test = cameron_trivedi_test(y, mu)
        assert test.overdispersed
        assert test.alpha > 0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            cameron_trivedi_test([1, 2], [1.0])

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            cameron_trivedi_test([1, 2], [1.0, 0.0])


class TestWithinClassDispersion:
    def test_mixture_within_class_equidispersed(self):
        """A Poisson mixture is overdispersed marginally but ~1 per class
        — the paper's justification for the Poisson LCA."""
        rng = np.random.default_rng(4)
        Y = np.vstack([
            rng.poisson((6.0, 0.5), size=(800, 2)),
            rng.poisson((0.5, 3.0), size=(500, 2)),
        ]).astype(float)
        # marginal: clearly overdispersed
        assert dispersion_index(Y[:, 0]) > 1.5
        model = fit_poisson_mixture(Y, 2, seed=0)
        per_class = within_class_dispersion(Y, model)
        assert per_class
        for ratio in per_class.values():
            assert ratio == pytest.approx(1.0, abs=0.25)

    def test_user_month_panel_supports_poisson_choice(self, tiny_dataset):
        from repro.analysis.latent import user_month_profiles

        Y = user_month_profiles(tiny_dataset).counts
        model = fit_poisson_mixture(Y, 8, seed=1, n_init=2)
        per_class = within_class_dispersion(Y, model)
        assert per_class
        # within recovered classes, dispersion stays moderate
        median = float(np.median(list(per_class.values())))
        assert median < 2.5
