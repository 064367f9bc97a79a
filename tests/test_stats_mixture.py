"""Tests for the Poisson mixture (LCA) and latent transition model."""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from repro.analysis.latent import user_month_profiles
from repro.stats.ltm import fit_latent_transitions
from repro.stats.mixture import fit_poisson_mixture, select_poisson_mixture


def two_class_counts(seed=0, n1=600, n2=300, lam1=(5.0, 0.5), lam2=(0.5, 3.0)):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.poisson(lam1, size=(n1, 2)), rng.poisson(lam2, size=(n2, 2))]
    ).astype(float)


class TestPoissonMixture:
    def test_recovers_rates(self):
        Y = two_class_counts()
        model = fit_poisson_mixture(Y, 2, seed=0)
        rates = model.rates[np.argsort(model.rates[:, 0])]
        assert rates[0] == pytest.approx([0.5, 3.0], abs=0.35)
        assert rates[1] == pytest.approx([5.0, 0.5], abs=0.35)

    def test_recovers_weights(self):
        Y = two_class_counts()
        model = fit_poisson_mixture(Y, 2, seed=0)
        assert sorted(model.weights) == pytest.approx([1 / 3, 2 / 3], abs=0.06)

    def test_weights_sorted_descending(self):
        Y = two_class_counts()
        model = fit_poisson_mixture(Y, 2, seed=0)
        assert model.weights[0] >= model.weights[1]

    def test_assignment_accuracy(self):
        Y = two_class_counts()
        model = fit_poisson_mixture(Y, 2, seed=0)
        labels = model.assign(Y)
        # first block should mostly share one label
        first = np.bincount(labels[:600]).max()
        assert first > 560

    def test_responsibilities_sum_to_one(self):
        Y = two_class_counts(n1=50, n2=50)
        model = fit_poisson_mixture(Y, 2, seed=0)
        resp = model.responsibilities(Y)
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_loglik_improves_with_true_k(self):
        Y = two_class_counts()
        one = fit_poisson_mixture(Y, 1, seed=0)
        two = fit_poisson_mixture(Y, 2, seed=0)
        assert two.log_likelihood > one.log_likelihood + 50

    def test_n_params(self):
        Y = two_class_counts(n1=40, n2=40)
        model = fit_poisson_mixture(Y, 3, seed=0)
        assert model.n_params == 3 * 2 + 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_poisson_mixture(np.array([1.0, 2.0]), 2)  # 1-D
        with pytest.raises(ValueError):
            fit_poisson_mixture(-np.ones((5, 2)), 2)  # negative
        with pytest.raises(ValueError):
            fit_poisson_mixture(np.ones((5, 2)), 0)
        for bad in (np.nan, np.inf):
            Y = np.random.default_rng(0).poisson(2.0, size=(50, 3)).astype(float)
            Y[7, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                fit_poisson_mixture(Y, 2)
            with pytest.raises(ValueError, match="finite"):
                select_poisson_mixture(Y, (1, 2))

    def test_feature_names(self):
        Y = two_class_counts(n1=30, n2=30)
        model = fit_poisson_mixture(Y, 2, seed=0, feature_names=["make", "take"])
        assert model.feature_names == ["make", "take"]

    def test_deterministic_given_seed(self):
        Y = two_class_counts(n1=100, n2=100)
        a = fit_poisson_mixture(Y, 2, seed=7)
        b = fit_poisson_mixture(Y, 2, seed=7)
        assert a.log_likelihood == pytest.approx(b.log_likelihood)


class TestSelection:
    def test_bic_selects_true_k(self):
        Y = two_class_counts()
        model, scores = select_poisson_mixture(Y, (1, 4), seed=0, n_init=2)
        assert model.k == 2
        assert scores[2] < scores[1]

    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            select_poisson_mixture(np.ones((10, 2)), (1, 2), criterion="dic")


# --------------------------------------------------------------------- #
# Row-level reference: EM over every row, as the estimator was first
# written.  The profile-weighted fit must reproduce it.
# --------------------------------------------------------------------- #

_RATE_FLOOR = 1e-4


@dataclass
class ReferenceFit:
    rates: np.ndarray
    weights: np.ndarray
    log_likelihood: float
    converged: bool
    n_iter: int
    reseeds: int  # iterations, over all restarts, that re-seeded a dead class

    def assign(self, Y):
        log_joint = _reference_log_emission(Y, self.rates) + np.log(self.weights)
        return log_joint.argmax(axis=1)


def _reference_log_emission(Y, rates):
    log_rates = np.log(rates)
    term = Y @ log_rates.T - rates.sum(axis=1)[None, :]
    return term - gammaln(Y + 1.0).sum(axis=1, keepdims=True)


def _reference_em_once(Y, k, rng, max_iter, tol):
    n, d = Y.shape
    seeds = rng.choice(n, size=k, replace=n < k)
    rates = Y[seeds] + rng.uniform(0.05, 0.5, size=(k, d))
    rates = np.maximum(rates, _RATE_FLOOR)
    weights = np.full(k, 1.0 / k)

    loglik = -np.inf
    converged = False
    iteration = 0
    reseeds = 0
    for iteration in range(1, max_iter + 1):
        log_joint = _reference_log_emission(Y, rates) + np.log(weights)[None, :]
        log_norm = logsumexp(log_joint, axis=1, keepdims=True)
        new_loglik = float(log_norm.sum())
        resp = np.exp(log_joint - log_norm)

        mass = resp.sum(axis=0)
        empty = mass < 1e-8
        if np.any(empty):
            reseeds += 1
            worst = np.argsort(log_norm.ravel())[: int(empty.sum())]
            for class_index, point in zip(np.where(empty)[0], worst):
                rates[class_index] = np.maximum(Y[point] + 0.1, _RATE_FLOOR)
                mass[class_index] = 1.0
        weights = np.maximum(mass, 1e-8)
        weights = weights / weights.sum()
        rates = (resp.T @ Y) / np.maximum(mass[:, None], 1e-8)
        rates = np.maximum(rates, _RATE_FLOOR)

        if np.isfinite(loglik) and abs(new_loglik - loglik) <= tol * (1.0 + abs(loglik)):
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik
    return rates, weights, loglik, converged, iteration, reseeds


def reference_fit(Y, k, n_init, seed, max_iter=300, tol=1e-7):
    rng = np.random.default_rng(seed)
    best = None
    reseeds = 0
    for _ in range(max(1, n_init)):
        candidate = _reference_em_once(Y, k, rng, max_iter, tol)
        reseeds += candidate[5]
        if best is None or candidate[2] > best[2]:
            best = candidate
    rates, weights, loglik, converged, n_iter, _ = best
    order = np.argsort(-weights)
    return ReferenceFit(rates[order], weights[order], loglik, converged, n_iter, reseeds)


class TestMatchesRowLevelReference:
    def assert_matches(self, Y, k, n_init, seed):
        ref = reference_fit(Y, k, n_init=n_init, seed=seed)
        fit = fit_poisson_mixture(Y, k, n_init=n_init, seed=seed)
        assert (fit.n_iter, fit.converged) == (ref.n_iter, ref.converged)
        np.testing.assert_array_equal(fit.assign(Y), ref.assign(Y))
        np.testing.assert_allclose(fit.rates, ref.rates, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fit.weights, ref.weights, rtol=0, atol=1e-9)
        assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-9)
        assert fit.n_obs == len(Y)
        assert fit.n_profiles == len(np.unique(Y, axis=0))
        return ref

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_heavy_matrix_with_dead_classes(self, seed):
        """Sixteen classes over three profiles, some of them dying.

        60 rows hold three profiles over 4,000 mostly-zero columns.
        Classes seeded on the all-zero profile differ only in their
        jitter, summed over those columns, so the worst of them explains
        no row and takes the dead-class branch.  One restart per fit:
        with more classes than profiles, restarts can reach the same
        likelihood, and then rounding alone picks the winner.
        """
        Y = np.zeros((60, 4000))
        Y[40:50, :3] = (2, 1, 4)
        Y[50:, 5:8] = (1, 3, 1)
        ref = self.assert_matches(Y, k=16, n_init=1, seed=seed)
        assert ref.reseeds > 0

    def test_user_month_panel(self, tiny_dataset):
        """The report's fit (12 classes, two restarts) on real user-months."""
        Y = user_month_profiles(tiny_dataset).counts
        self.assert_matches(Y, k=12, n_init=2, seed=0)


def _arrays(panel):
    """A panel given as one {unit: counts} dict per period, as the
    (counts, period, unit) arrays of fit_latent_transitions."""
    rows = [(t, unit, vector) for t, period in enumerate(panel)
            for unit, vector in period.items()]
    return (np.array([row[2] for row in rows], dtype=float),
            np.array([row[0] for row in rows]), np.array([row[1] for row in rows]))


class TestLatentTransitions:
    def make_panel(self, seed=0, periods=5, n=120, sticky=True):
        rng = np.random.default_rng(seed)
        classes = {u: (0 if u < n // 3 else 1) for u in range(n)}
        lams = [(6.0, 0.5), (0.5, 2.5)]
        panel = []
        for _ in range(periods):
            if not sticky:
                classes = {u: int(rng.integers(0, 2)) for u in range(n)}
            panel.append({u: rng.poisson(lams[c]) for u, c in classes.items()})
        return panel

    def test_sticky_panel_high_persistence(self):
        panel = self.make_panel(sticky=True)
        result = fit_latent_transitions(*_arrays(panel), k=2, seed=0)
        assert result.persistence().min() > 0.8

    def test_random_panel_low_persistence(self):
        panel = self.make_panel(sticky=False)
        result = fit_latent_transitions(*_arrays(panel), k=2, seed=0)
        assert result.persistence().max() < 0.75

    def test_rows_stochastic(self):
        panel = self.make_panel()
        result = fit_latent_transitions(*_arrays(panel), k=2, seed=0)
        assert np.allclose(result.transition.sum(axis=1), 1.0)

    def test_occupancy_counts(self):
        panel = self.make_panel(periods=3, n=60)
        result = fit_latent_transitions(*_arrays(panel), k=2, seed=0)
        assert result.occupancy.shape == (3, 2)
        assert result.occupancy.sum(axis=1).tolist() == [60, 60, 60]

    def test_stationary_distribution_sums_to_one(self):
        panel = self.make_panel()
        result = fit_latent_transitions(*_arrays(panel), k=2, seed=0)
        assert result.stationary_distribution().sum() == pytest.approx(1.0)

    def test_reuse_prefitted_mixture(self):
        panel = self.make_panel(periods=3, n=60)
        pooled = np.vstack([np.vstack(list(p.values())) for p in panel])
        mixture = fit_poisson_mixture(pooled, 2, seed=1)
        result = fit_latent_transitions(*_arrays(panel), k=99, mixture=mixture)
        assert result.k == 2

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError):
            fit_latent_transitions(np.empty((0, 2)), np.empty(0), np.empty(0), k=2)

    def test_users_entering_and_leaving(self):
        rng = np.random.default_rng(0)
        panel = [
            {1: rng.poisson((5, 0.5)), 2: rng.poisson((0.5, 3))},
            {2: rng.poisson((0.5, 3)), 3: rng.poisson((5, 0.5))},
            {3: rng.poisson((5, 0.5))},
        ]
        result = fit_latent_transitions(*_arrays(panel), k=2, seed=0)
        assert result.n_periods == 3
