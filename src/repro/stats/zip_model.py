"""Zero-Inflated Poisson (ZIP) regression, fitted by maximum likelihood.

The paper's §5.2 models completed contracts per user with ZIP models: a
*count* process (log link, Poisson) for the expected number of completed
contracts, and a *zero-inflation* process (logit link) for the odds of
being an "always-zero" user.  Tables 9 and 10 report coefficients,
standard errors and z-values of both components, plus the share of zero
outcomes and McFadden's R-squared; Vuong tests against the plain Poisson
justify the zero-inflated specification.

This is a from-scratch implementation: analytic gradient, L-BFGS
optimisation, and observed-information standard errors via a
finite-difference Hessian of the analytic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, gammaln, ndtr

from .information import aic, bic, mcfadden_r2
from .poisson_glm import add_intercept

__all__ = ["ZIPResult", "fit_zip"]

_MAX_ETA = 30.0


def _zip_loglik_terms(
    y: np.ndarray, eta: np.ndarray, zeta: np.ndarray
) -> np.ndarray:
    """Pointwise ZIP log-likelihood.

    ``eta`` is the count linear predictor (mu = exp(eta)); ``zeta`` the
    zero-inflation linear predictor (pi = sigmoid(zeta)).
    """
    eta = np.clip(eta, -_MAX_ETA, _MAX_ETA)
    zeta = np.clip(zeta, -_MAX_ETA, _MAX_ETA)
    mu = np.exp(eta)
    # log pi = -softplus(-zeta); log(1-pi) = -softplus(zeta)
    log_pi = -np.logaddexp(0.0, -zeta)
    log_one_minus_pi = -np.logaddexp(0.0, zeta)
    zero_mask = y == 0
    terms = np.empty_like(eta)
    terms[zero_mask] = np.logaddexp(
        log_pi[zero_mask], log_one_minus_pi[zero_mask] - mu[zero_mask]
    )
    pos = ~zero_mask
    terms[pos] = (
        log_one_minus_pi[pos]
        + y[pos] * eta[pos]
        - mu[pos]
        - gammaln(y[pos] + 1.0)
    )
    return terms


class _Objective:
    """Negative log-likelihood and its gradient for one fit's data.

    The zero mask and ``log(y!)`` depend only on ``y``, so they are
    computed once per fit rather than on every L-BFGS evaluation; each
    evaluation computes ``log pi`` and ``log(1 - pi)`` once and shares
    them between the likelihood and the gradient.
    """

    def __init__(self, X: np.ndarray, Z: np.ndarray, y: np.ndarray) -> None:
        self.X, self.Z = X, Z
        self.p = X.shape[1]
        self.y = y
        self.zero = y == 0
        self.pos = ~self.zero
        self.y_pos = y[self.pos]
        self.log_y_factorial = gammaln(self.y_pos + 1.0)

    def __call__(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        beta, gamma = params[: self.p], params[self.p:]
        eta = np.clip(self.X @ beta, -_MAX_ETA, _MAX_ETA)
        zeta = np.clip(self.Z @ gamma, -_MAX_ETA, _MAX_ETA)
        mu = np.exp(eta)
        pi = expit(zeta)
        log_pi = -np.logaddexp(0.0, -zeta)
        log_one_minus_pi = -np.logaddexp(0.0, zeta)
        with np.errstate(over="ignore"):
            ll0 = np.logaddexp(log_pi, log_one_minus_pi - mu)

        # Bit-identical to _zip_loglik_terms(y, eta, zeta), which Vuong uses.
        pos = self.pos
        terms = np.empty_like(eta)
        terms[self.zero] = ll0[self.zero]
        terms[pos] = (
            log_one_minus_pi[pos]
            + self.y_pos * eta[pos]
            - mu[pos]
            - self.log_y_factorial
        )
        loglik = float(terms.sum())

        # Weight of the Poisson branch for observed zeros.
        w_pois = np.exp(log_one_minus_pi - mu - ll0)  # in (0, 1]
        grad_eta = np.where(self.zero, -w_pois * mu, self.y - mu)
        # d log L0 / d zeta = pi (1 - pi) (1 - e^{-mu}) / L0 for observed zeros,
        # and d log(1 - pi) / d zeta = -pi for positive counts.
        p0 = np.exp(-mu)
        with np.errstate(over="ignore", under="ignore"):
            zero_grad = pi * (1.0 - pi) * (1.0 - p0) / np.maximum(np.exp(ll0), 1e-300)
        grad_zeta = np.where(self.zero, zero_grad, -pi)
        grad_beta = self.X.T @ grad_eta
        grad_gamma = self.Z.T @ grad_zeta
        grad = np.concatenate([grad_beta, grad_gamma])
        return -loglik, -grad


def _numerical_hessian(
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


@dataclass
class ZIPResult:
    """Fitted ZIP model: count and zero-inflation components.

    ``count_names``/``zero_names`` include the intercept (listed last, as
    in the paper's tables the intercept is a separate row).
    """

    count_coef: np.ndarray
    count_se: np.ndarray
    count_names: List[str]
    zero_coef: np.ndarray
    zero_se: np.ndarray
    zero_names: List[str]
    log_likelihood: float
    null_log_likelihood: float
    n_obs: int
    pct_zero: float
    converged: bool

    @property
    def count_z(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.count_se > 0, self.count_coef / self.count_se, np.nan)

    @property
    def zero_z(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.zero_se > 0, self.zero_coef / self.zero_se, np.nan)

    @property
    def count_p(self) -> np.ndarray:
        # ndtr(-x) is the normal survival function, as scipy.stats' norm.sf.
        return 2.0 * ndtr(-np.abs(self.count_z))

    @property
    def zero_p(self) -> np.ndarray:
        return 2.0 * ndtr(-np.abs(self.zero_z))

    @property
    def n_params(self) -> int:
        return len(self.count_coef) + len(self.zero_coef)

    @property
    def aic(self) -> float:
        return aic(self.log_likelihood, self.n_params)

    @property
    def bic(self) -> float:
        return bic(self.log_likelihood, self.n_params, self.n_obs)

    @property
    def mcfadden_r2(self) -> float:
        return mcfadden_r2(self.log_likelihood, self.null_log_likelihood)

    def loglik_terms(self, X: np.ndarray, Z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pointwise log-likelihood on (possibly new) data, for Vuong."""
        eta = add_intercept(np.asarray(X, dtype=float)) @ self.count_coef
        zeta = add_intercept(np.asarray(Z, dtype=float)) @ self.zero_coef
        return _zip_loglik_terms(np.asarray(y, dtype=float), eta, zeta)

    def predict_mean(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """E[y] = (1 - pi) * mu."""
        eta = add_intercept(np.asarray(X, dtype=float)) @ self.count_coef
        zeta = add_intercept(np.asarray(Z, dtype=float)) @ self.zero_coef
        mu = np.exp(np.clip(eta, -_MAX_ETA, _MAX_ETA))
        pi = expit(np.clip(zeta, -_MAX_ETA, _MAX_ETA))
        return (1.0 - pi) * mu


def _column_scales(design: np.ndarray) -> np.ndarray:
    """Per-column scales for optimizer conditioning (1 for constants)."""
    scales = design.std(axis=0)
    return np.where(scales > 1e-12, scales, 1.0)


def _fit_raw(
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


def fit_zip(
    X: np.ndarray,
    y: np.ndarray,
    Z: Optional[np.ndarray] = None,
    count_names: Optional[Sequence[str]] = None,
    zero_names: Optional[Sequence[str]] = None,
) -> ZIPResult:
    """Fit a Zero-Inflated Poisson regression.

    Parameters
    ----------
    X:
        Count-model covariates, WITHOUT intercept (added automatically).
    y:
        Non-negative integer outcomes.
    Z:
        Zero-inflation covariates (defaults to ``X``).
    count_names, zero_names:
        Column labels for reporting.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if Z is None:
        Z = X
    Z = np.asarray(Z, dtype=float)
    if np.any(y < 0):
        raise ValueError("counts must be non-negative")
    if X.shape[0] != len(y) or Z.shape[0] != len(y):
        raise ValueError("X, Z and y must be aligned")

    design_x = add_intercept(X)
    design_z = add_intercept(Z)
    params, loglik, converged = _fit_raw(design_x, design_z, y)

    hessian = _numerical_hessian(_Objective(design_x, design_z, y), params)
    try:
        cov = np.linalg.inv(hessian)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(hessian)
    std_err = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    p = design_x.shape[1]
    # Null model: intercept-only in both components.
    null_x = np.ones((len(y), 1))
    null_params, null_loglik, _ = _fit_raw(null_x, null_x, y)

    cn = ["(Intercept)"] + list(
        count_names if count_names is not None else [f"x{i}" for i in range(1, X.shape[1] + 1)]
    )
    zn = ["(Intercept)"] + list(
        zero_names if zero_names is not None else [f"z{i}" for i in range(1, Z.shape[1] + 1)]
    )
    if len(cn) != p or len(zn) != design_z.shape[1]:
        raise ValueError("name lengths must match design matrices")

    return ZIPResult(
        count_coef=params[:p],
        count_se=std_err[:p],
        count_names=cn,
        zero_coef=params[p:],
        zero_se=std_err[p:],
        zero_names=zn,
        log_likelihood=loglik,
        null_log_likelihood=null_loglik,
        n_obs=len(y),
        pct_zero=float((y == 0).mean() * 100.0),
        converged=converged,
    )
