"""Poisson regression (log link) fitted by IRLS.

The plain Poisson GLM serves two roles in the reproduction: it is the
non-inflated comparator in the Vuong test motivating the paper's choice
of Zero-Inflated Poisson models, and it is the count backbone shared with
:mod:`repro.stats.zip_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .information import aic, bic, mcfadden_r2
from .special import log_factorial, ndtr

__all__ = ["PoissonResult", "fit_poisson", "poisson_loglik_terms", "add_intercept"]

_MAX_ETA = 30.0  # exp(30) ~ 1e13, ample for count data; guards overflow


def add_intercept(X: np.ndarray) -> np.ndarray:
    """Prepend a column of ones."""
    X = np.asarray(X, dtype=float)
    return np.column_stack([np.ones(X.shape[0]), X])


def poisson_loglik_terms(y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Pointwise Poisson log-likelihood for linear predictor ``eta``."""
    eta = np.clip(eta, -_MAX_ETA, _MAX_ETA)
    mu = np.exp(eta)
    return y * eta - mu - log_factorial(y)


@dataclass
class PoissonResult:
    """Fitted Poisson GLM with Wald inference.

    ``names`` includes the intercept first; estimates/SEs/z/p align.
    """

    coef: np.ndarray
    std_err: np.ndarray
    names: List[str]
    log_likelihood: float
    null_log_likelihood: float
    n_obs: int
    converged: bool
    n_iter: int

    @property
    def z_values(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.std_err > 0, self.coef / self.std_err, np.nan)

    @property
    def p_values(self) -> np.ndarray:
        # ndtr(-x) is the normal survival function, as scipy.stats' norm.sf.
        return 2.0 * ndtr(-np.abs(self.z_values))

    @property
    def aic(self) -> float:
        return aic(self.log_likelihood, len(self.coef))

    @property
    def bic(self) -> float:
        return bic(self.log_likelihood, len(self.coef), self.n_obs)

    @property
    def mcfadden_r2(self) -> float:
        return mcfadden_r2(self.log_likelihood, self.null_log_likelihood)

    def predict_mu(self, X: np.ndarray) -> np.ndarray:
        """Expected counts for a design matrix WITHOUT intercept column."""
        eta = add_intercept(X) @ self.coef
        return np.exp(np.clip(eta, -_MAX_ETA, _MAX_ETA))

    def loglik_terms(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pointwise log-likelihood (used by the Vuong test)."""
        eta = add_intercept(X) @ self.coef
        return poisson_loglik_terms(np.asarray(y, dtype=float), eta)


def _irls(
    X: np.ndarray, y: np.ndarray, max_iter: int, tol: float
) -> tuple:
    n, p = X.shape
    beta = np.zeros(p)
    beta[0] = np.log(max(y.mean(), 1e-8))
    loglik = -np.inf
    converged = False
    iteration = 0
    ridge = 1e-8 * np.eye(p)
    for iteration in range(1, max_iter + 1):
        eta = np.clip(X @ beta, -_MAX_ETA, _MAX_ETA)
        mu = np.exp(eta)
        W = mu
        z = eta + (y - mu) / np.maximum(mu, 1e-12)
        XtW = X.T * W
        try:
            beta_new = np.linalg.solve(XtW @ X + ridge, XtW @ z)
        except np.linalg.LinAlgError:
            beta_new = np.linalg.lstsq(XtW @ X + ridge, XtW @ z, rcond=None)[0]
        new_loglik = float(poisson_loglik_terms(y, np.clip(X @ beta_new, -_MAX_ETA, _MAX_ETA)).sum())
        step = np.abs(beta_new - beta).max()
        beta = beta_new
        if np.isfinite(loglik) and abs(new_loglik - loglik) <= tol * (1.0 + abs(loglik)) and step < 1e-8:
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik
    eta = np.clip(X @ beta, -_MAX_ETA, _MAX_ETA)
    mu = np.exp(eta)
    XtWX = (X.T * mu) @ X + ridge
    try:
        cov = np.linalg.inv(XtWX)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(XtWX)
    std_err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return beta, std_err, loglik, converged, iteration


def fit_poisson(
    X: np.ndarray,
    y: np.ndarray,
    names: Optional[Sequence[str]] = None,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> PoissonResult:
    """Fit ``y ~ Poisson(exp(b0 + X b))`` by IRLS.

    ``X`` must NOT contain an intercept column; one is added.  ``names``
    labels the non-intercept columns.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError("X must be 2-D and aligned with y")
    if np.any(y < 0):
        raise ValueError("counts must be non-negative")
    design = add_intercept(X)
    coef, std_err, loglik, converged, n_iter = _irls(design, y, max_iter, tol)

    # Intercept-only model for McFadden's R^2.
    mean = max(y.mean(), 1e-12)
    null_eta = np.full_like(y, np.log(mean))
    null_loglik = float(poisson_loglik_terms(y, null_eta).sum())

    column_names = ["(Intercept)"] + list(
        names if names is not None else [f"x{i}" for i in range(1, X.shape[1] + 1)]
    )
    if len(column_names) != design.shape[1]:
        raise ValueError("names length must match the number of columns")
    return PoissonResult(
        coef=coef,
        std_err=std_err,
        names=column_names,
        log_likelihood=loglik,
        null_log_likelihood=null_loglik,
        n_obs=len(y),
        converged=converged,
        n_iter=n_iter,
    )
