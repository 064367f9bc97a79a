"""Tests for the Zero-Inflated Poisson regression."""

from types import SimpleNamespace
from typing import Tuple

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import ndtr
from scipy.stats import norm

from repro.analysis.coldstart import _design, cold_start_records
from repro.core.eras import COVID19
from repro.obs import disable_tracing, enable_tracing
from repro.report.experiments import _zip_lines
from repro.stats import zip_model
from repro.stats.poisson_glm import add_intercept, fit_poisson
from repro.stats.special import expit
from repro.stats.vuong import vuong_test
from repro.stats.zip_model import (
    _MAX_ETA,
    _column_scales,
    _Objective,
    _zip_loglik_terms,
    fit_zip,
)
from repro.synth.config import SimulationConfig
from repro.synth.engine import run_engine


def ref_negloglik_and_grad(
    params: np.ndarray,
    X: np.ndarray,
    Z: np.ndarray,
    y: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """The ZIP objective as one stateless function, every term recomputed."""
    p = X.shape[1]
    beta, gamma = params[:p], params[p:]
    eta = np.clip(X @ beta, -_MAX_ETA, _MAX_ETA)
    zeta = np.clip(Z @ gamma, -_MAX_ETA, _MAX_ETA)
    mu = np.exp(eta)
    pi = expit(zeta)

    terms = _zip_loglik_terms(y, eta, zeta)
    loglik = float(terms.sum())

    zero_mask = y == 0
    # Weight of the Poisson branch for observed zeros.
    log_pi = -np.logaddexp(0.0, -zeta)
    log_one_minus_pi = -np.logaddexp(0.0, zeta)
    with np.errstate(over="ignore"):
        ll0 = np.logaddexp(log_pi, log_one_minus_pi - mu)
    w_pois = np.exp(log_one_minus_pi - mu - ll0)  # in (0, 1]

    grad_eta = np.where(zero_mask, -w_pois * mu, y - mu)
    # d log L0 / d zeta = pi (1 - pi) (1 - e^{-mu}) / L0 for observed zeros,
    # and d log(1 - pi) / d zeta = -pi for positive counts.
    p0 = np.exp(-mu)
    with np.errstate(over="ignore", under="ignore"):
        zero_grad = pi * (1.0 - pi) * (1.0 - p0) / np.maximum(np.exp(ll0), 1e-300)
    grad_zeta = np.where(zero_mask, zero_grad, -pi)
    grad_beta = X.T @ grad_eta
    grad_gamma = Z.T @ grad_zeta
    grad = np.concatenate([grad_beta, grad_gamma])
    return -loglik, -grad


class _RefObjective(_Objective):
    """``zip_model._Objective`` with the reference likelihood and gradient.

    Only ``__call__`` is replaced, so a fit through it still uses the
    per-fit constants and the analytic Hessian of ``_Objective``.
    """

    def __call__(self, params):
        return ref_negloglik_and_grad(params, self.X, self.Z, self.y)


def ref_numerical_hessian(
    objective: _Objective, params: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of the analytic gradient."""
    k = len(params)
    hessian = np.zeros((k, k))
    for i in range(k):
        h = step * max(1.0, abs(params[i]))
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        _, grad_plus = objective(plus)
        _, grad_minus = objective(minus)
        hessian[i] = (grad_plus - grad_minus) / (2.0 * h)
    return 0.5 * (hessian + hessian.T)


def ref_fit_raw(
    X: np.ndarray, Z: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, float, bool]:
    """Optimize in column-scaled space for conditioning, return unscaled."""
    p, q = X.shape[1], Z.shape[1]
    sx, sz = _column_scales(X), _column_scales(Z)
    Xs, Zs = X / sx, Z / sz
    init = np.zeros(p + q)
    init[0] = np.log(max(y[y > 0].mean() if np.any(y > 0) else 0.5, 1e-3))
    zero_share = float((y == 0).mean())
    init[p] = np.log(max(zero_share, 0.05) / max(1.0 - zero_share, 0.05))
    # Bounds (in scaled space) keep coefficients finite under separation,
    # e.g. when no always-zero user has a nonzero dispute count.
    result = minimize(
        _Objective(Xs, Zs, y),
        init,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-30.0, 30.0)] * (p + q),
        options={"maxiter": 3000, "maxfun": 6000, "ftol": 1e-13, "gtol": 1e-9},
    )
    params = result.x / np.concatenate([sx, sz])
    return params, -float(result.fun), bool(result.success)


def simulate_zip(seed=0, n=5000, beta=(0.5, 0.8, -0.3), gamma=(-1.0, 1.2)):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    Z = X[:, 1:2]
    mu = np.exp(beta[0] + X @ np.asarray(beta[1:]))
    pi = 1.0 / (1.0 + np.exp(-(gamma[0] + Z[:, 0] * gamma[1])))
    y = np.where(rng.random(n) < pi, 0, rng.poisson(mu))
    return X, Z, y


class TestFitZip:
    def test_recovers_count_coefficients(self):
        X, Z, y = simulate_zip()
        result = fit_zip(X, y, Z)
        assert result.count_coef[0] == pytest.approx(0.5, abs=0.1)
        assert result.count_coef[1] == pytest.approx(0.8, abs=0.06)
        assert result.count_coef[2] == pytest.approx(-0.3, abs=0.06)

    def test_recovers_zero_coefficients(self):
        X, Z, y = simulate_zip()
        result = fit_zip(X, y, Z)
        assert result.zero_coef[0] == pytest.approx(-1.0, abs=0.15)
        assert result.zero_coef[1] == pytest.approx(1.2, abs=0.15)

    def test_standard_errors_positive(self):
        X, Z, y = simulate_zip(n=2000)
        result = fit_zip(X, y, Z)
        assert (result.count_se > 0).all()
        assert (result.zero_se > 0).all()

    def test_z_and_p_shapes(self):
        X, Z, y = simulate_zip(n=1000)
        result = fit_zip(X, y, Z)
        assert len(result.count_z) == len(result.count_coef)
        assert ((result.zero_p >= 0) & (result.zero_p <= 1)).all()

    def test_pct_zero(self):
        X, Z, y = simulate_zip(n=1000)
        result = fit_zip(X, y, Z)
        assert result.pct_zero == pytest.approx((y == 0).mean() * 100)

    def test_mcfadden_in_range(self):
        X, Z, y = simulate_zip(n=1500)
        result = fit_zip(X, y, Z)
        assert 0.0 < result.mcfadden_r2 < 1.0

    def test_default_z_is_x(self):
        X, Z, y = simulate_zip(n=800)
        result = fit_zip(X, y)  # Z defaults to X
        assert len(result.zero_coef) == X.shape[1] + 1

    def test_zip_beats_poisson_on_inflated_data(self):
        X, Z, y = simulate_zip(n=4000)
        zipr = fit_zip(X, y, Z)
        pois = fit_poisson(X, y)
        assert zipr.log_likelihood > pois.log_likelihood + 10
        v = vuong_test(
            zipr.loglik_terms(X, Z, y),
            pois.loglik_terms(X, y),
            zipr.n_params,
            len(pois.coef),
        )
        assert v.favours_model1
        assert v.p_value < 0.01

    def test_predict_mean_close_to_observed(self):
        X, Z, y = simulate_zip(n=4000)
        result = fit_zip(X, y, Z)
        assert result.predict_mean(X, Z).mean() == pytest.approx(y.mean(), rel=0.1)

    def test_loglik_terms_sum(self):
        X, Z, y = simulate_zip(n=600)
        result = fit_zip(X, y, Z)
        assert result.loglik_terms(X, Z, y).sum() == pytest.approx(
            result.log_likelihood, rel=1e-5
        )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            fit_zip(np.ones((3, 1)), np.array([1, -2, 0]))

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            fit_zip(np.ones((3, 1)), np.array([1, 0, 2]), np.ones((2, 1)))

    def test_names_forwarded(self):
        X, Z, y = simulate_zip(n=400)
        result = fit_zip(X, y, Z, count_names=["a", "b"], zero_names=["c"])
        assert result.count_names == ["(Intercept)", "a", "b"]
        assert result.zero_names == ["(Intercept)", "c"]

    @pytest.mark.parametrize("seed", range(8))
    def test_all_zero_covariate_has_no_standard_error(self, seed):
        # Its Hessian row is zero, so pinv inverts the rest; the column's
        # own variance must read 0 on every market, not SVD round-off.
        X, Z, y = simulate_zip(seed=seed, n=120)
        X = np.column_stack([X[:, :1], np.zeros(len(y)), X[:, 1:]])
        Z = np.column_stack([np.zeros(len(y)), Z])
        result = fit_zip(X, y, Z)
        unidentified = [result.count_coef[2], result.count_se[2],
                        result.zero_coef[1], result.zero_se[1]]
        assert np.array_equal(unidentified, np.zeros(4))
        assert np.isnan(result.count_z[2]) and np.isnan(result.zero_z[1])
        assert np.all(np.delete(result.count_se, 2) > 0)

    def test_aic_bic_finite(self):
        X, Z, y = simulate_zip(n=500)
        result = fit_zip(X, y, Z)
        assert np.isfinite(result.aic)
        assert result.bic > result.aic  # n > e^2


class TestObjective:
    @pytest.mark.parametrize("n", [7, 1859])
    def test_matches_reference_bit_for_bit(self, n):
        X, Z, y = simulate_zip(seed=n, n=n)
        design_x = np.column_stack([np.ones(n), X])
        design_z = np.column_stack([np.ones(n), Z])
        objective = zip_model._Objective(design_x, design_z, y.astype(float))
        rng = np.random.default_rng(n)
        for scale in (0.1, 1.0, 10.0):
            for _ in range(7):
                params = rng.normal(scale=scale, size=5)
                value, grad = objective(params)
                ref_value, ref_grad = ref_negloglik_and_grad(
                    params, design_x, design_z, y.astype(float)
                )
                assert np.array_equal(value, ref_value)
                assert np.array_equal(grad, ref_grad)

    def test_fit_identical_to_reference_objective(self, monkeypatch):
        X, Z, y = simulate_zip(n=2000)
        fast = fit_zip(X, y, Z)
        monkeypatch.setattr(zip_model, "_Objective", _RefObjective)
        slow = fit_zip(X, y, Z)
        for name in ("count_coef", "count_se", "zero_coef", "zero_se"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))
        assert fast.log_likelihood == slow.log_likelihood
        assert fast.null_log_likelihood == slow.null_log_likelihood
        assert fast.converged == slow.converged
        assert fast.n_iter == slow.n_iter

    def test_p_values_match_scipy_norm(self):
        z = np.random.default_rng(3).normal(scale=4.0, size=100_000)
        z[:4] = (0.0, -0.0, np.inf, -np.inf)
        assert np.array_equal(ndtr(-np.abs(z)), norm.sf(np.abs(z)))
        X, Z, y = simulate_zip(n=600)
        result = fit_zip(X, y, Z)
        assert np.array_equal(result.count_p, 2.0 * norm.sf(np.abs(result.count_z)))
        assert np.array_equal(result.zero_p, 2.0 * norm.sf(np.abs(result.zero_z)))


def report_design(seed: int, first_time: bool):
    """A COVID-19 design of ``repro report``'s scale-0.05 market: all users
    (Table 9) or the first-time users (Table 10)."""
    dataset = run_engine(SimulationConfig(scale=0.05, seed=seed)).dataset
    records = cold_start_records(dataset, COVID19)
    if first_time:
        records = [r for r in records if r.first_time]
    X, Z, y, _, _ = _design(records, include_first_time=not first_time)
    return X, Z, y


class TestHessian:
    @pytest.mark.parametrize("n", [7, 1859])
    def test_matches_numerical_hessian(self, n):
        X, Z, y = simulate_zip(seed=n, n=n)
        design_x = np.column_stack([np.ones(n), X])
        design_z = np.column_stack([np.ones(n), Z])
        objective = zip_model._Objective(design_x, design_z, y.astype(float))
        rng = np.random.default_rng(n)
        for scale in (0.1, 1.0, 3.0):
            for _ in range(7):
                params = rng.normal(scale=scale, size=5)
                analytic = objective.hessian(params)
                numeric = ref_numerical_hessian(objective, params)
                assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max()


class TestSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lbfgs_reference(self, seed):
        X, Z, y = simulate_zip(seed=seed, n=3000)
        design_x, design_z = add_intercept(X), add_intercept(Z)
        y = y.astype(float)
        ref_params, ref_loglik, ref_converged = ref_fit_raw(design_x, design_z, y)
        params, loglik, converged, _ = zip_model._fit_raw(design_x, design_z, y)
        assert ref_converged and converged
        assert loglik >= ref_loglik - 1e-9
        assert np.abs(params - ref_params).max() <= 1e-5

    def test_reaches_the_maximum_lbfgs_stops_short_of(self):
        # COVID-19, first-time users, seed 729763: L-BFGS-B reports
        # convergence at log L = -414.402, 1.77 below the maximum.
        X, Z, y = report_design(729763, first_time=True)
        design_x, design_z = add_intercept(X), add_intercept(Z)
        _, ref_loglik, ref_converged = ref_fit_raw(design_x, design_z, y)
        result = fit_zip(X, y, Z)
        assert ref_converged and result.converged
        assert result.log_likelihood > ref_loglik + 1.0

    def test_separated_zero_covariate(self):
        # A zero-model covariate that is positive only where y > 0: its
        # coefficient's MLE is -infinity, so the box must stop it.
        X, Z, y = simulate_zip(n=2000)
        rng = np.random.default_rng(5)
        separated = np.where(y > 0, rng.poisson(2.0, len(y)), 0).astype(float)
        result = fit_zip(X, y, np.column_stack([Z, separated]))
        assert result.converged
        assert np.isfinite(result.log_likelihood)
        assert result.zero_coef[-1] < -5.0

    def test_separated_coefficient_is_marked_in_the_report(self):
        # Tables 9-10 mark the separated coefficient, and only it, and say
        # what the mark means.
        X, Z, y = simulate_zip(n=2000)
        rng = np.random.default_rng(5)
        separated = np.where(y > 0, rng.poisson(2.0, len(y)), 0).astype(float)
        result = fit_zip(X, y, np.column_stack([Z, separated]))
        era_zip = SimpleNamespace(
            zip_result=result, n_obs=len(y),
            vuong=SimpleNamespace(statistic=0.0, p_value=1.0),
        )
        lines = _zip_lines("--- separated ---", era_zip)
        marked = [line for line in lines if "†" in line]
        names = result.count_names + result.zero_names
        assert [name for name in names if any(
            line.split()[:2] == [name, "†"] for line in marked
        )] == [result.zero_names[-1]]
        assert marked[-1].startswith("† separated or collapsed")
        clean = _zip_lines("--- clean ---", SimpleNamespace(
            zip_result=fit_zip(X, y, Z), n_obs=len(y),
            vuong=era_zip.vuong,
        ))
        assert not any("†" in line for line in clean)

    def test_counts_iterations_under_a_span(self):
        X, Z, y = simulate_zip(n=1000)
        tracer = enable_tracing()
        try:
            result = fit_zip(X, y, Z)
        finally:
            disable_tracing()
        assert [root.name for root in tracer.roots] == ["stats.zip_fit"]
        # The full fit's steps plus the intercept-only null fit's.
        assert tracer.counters["stats.zip_iterations"] > result.n_iter > 0


class TestVuong:
    def test_identical_models_indistinguishable(self):
        ll = np.random.default_rng(0).normal(size=100)
        result = vuong_test(ll, ll.copy())
        assert result.statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)

    def test_clear_winner(self):
        rng = np.random.default_rng(0)
        base = rng.normal(-1.0, 0.3, size=400)
        gains = rng.uniform(0.2, 0.8, size=400)
        result = vuong_test(base + gains, base)
        assert result.favours_model1
        assert result.significant

    def test_correction_penalises_extra_params(self):
        rng = np.random.default_rng(1)
        base = rng.normal(-1.0, 0.3, size=400)
        tiny_gain = base + rng.uniform(0.0, 0.002, size=400)
        uncorrected = vuong_test(tiny_gain, base, correction=False)
        corrected = vuong_test(tiny_gain, base, 10, 2, correction=True)
        assert corrected.statistic < uncorrected.statistic

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            vuong_test(np.zeros(5), np.zeros(6))

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            vuong_test(np.zeros(1), np.zeros(1))

    def test_collapsed_zip_indistinguishable_from_poisson(self):
        # COVID-19 first-time users, seed 20201027: the zero-inflation
        # intercept runs off to about -25 and ZIP collapses onto Poisson.
        X, Z, y = report_design(20201027, first_time=True)
        zipr = fit_zip(X, y, Z)
        pois = fit_poisson(X, y)
        ll_zip, ll_pois = zipr.loglik_terms(X, Z, y), pois.loglik_terms(X, y)
        assert zipr.zero_coef[0] < -15.0
        assert np.abs(ll_zip - ll_pois).max() < 1e-6
        result = vuong_test(ll_zip, ll_pois, zipr.n_params, len(pois.coef))
        assert (result.statistic, result.p_value) == (0.0, 1.0)
        assert not result.favours_model1
