"""Zero-Inflated Poisson (ZIP) regression, fitted by maximum likelihood.

The paper's §5.2 models completed contracts per user with ZIP models: a
*count* process (log link, Poisson) for the expected number of completed
contracts, and a *zero-inflation* process (logit link) for the odds of
being an "always-zero" user.  Tables 9 and 10 report coefficients,
standard errors and z-values of both components, plus the share of zero
outcomes and McFadden's R-squared; Vuong tests against the plain Poisson
justify the zero-inflated specification.

This is a from-scratch implementation with an analytic gradient and an
analytic Hessian.  The fit runs in column-scaled space, inside a box
that keeps coefficients finite under separation, in two phases:

1. A short EM phase (Lambert 1992), as pscl's ``zeroinfl(EM = TRUE)``
   uses for its starting values.  The E-step gives each observed zero
   its posterior weight of being a structural zero; the M-step takes one
   weighted Poisson and one weighted logistic Newton step, backtracked
   on the full likelihood.  From the default start, plain Newton can
   settle in a worse local mode; a few EM steps lead it to the better one.
2. A projected Newton solve on the analytic Hessian.  A coordinate at a
   bound whose gradient points outward stays fixed; Levenberg damping
   makes the free block positive definite and Armijo backtracking keeps
   every step downhill.  It stops on L-BFGS-B's rules: a relative
   reduction of at most ``1e-13``, or a projected gradient of at most
   ``1e-9``.

Standard errors come from the observed information, the analytic
Hessian at the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import get_tracer
from .information import aic, bic, mcfadden_r2
from .poisson_glm import add_intercept
from .special import expit, log_factorial, ndtr

__all__ = ["ZIPResult", "fit_zip"]

_MAX_ETA = 30.0

#: Box on every coefficient in column-scaled space; it keeps coefficients
#: finite under separation, e.g. when no always-zero user has a nonzero
#: dispute count.
_BOUND = 30.0
#: The EM phase stops once a step gains less than this share of |log L|.
_EM_RTOL = 1e-4
_EM_MAX_STEPS = 20
#: Newton stops when a step reduces the objective by at most this share
#: of its magnitude, or when the projected gradient is at most _GTOL
#: (L-BFGS-B's ``ftol`` and ``pgtol`` rules).
_FTOL = 1e-13
_GTOL = 1e-9
_NEWTON_MAX_STEPS = 200
#: Armijo's sufficient-decrease constant.
_ARMIJO = 1e-4


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
        - log_factorial(y[pos])
    )
    return terms


class _Objective:
    """Negative log-likelihood, gradient and Hessian for one fit's data.

    The zero mask and ``log(y!)`` depend only on ``y``, so they are
    computed once per fit rather than on every evaluation; each
    evaluation computes ``log pi`` and ``log(1 - pi)`` once and shares
    them between the likelihood and its derivatives.
    """

    def __init__(self, X: np.ndarray, Z: np.ndarray, y: np.ndarray) -> None:
        self.X, self.Z = X, Z
        self.p = X.shape[1]
        self.y = y
        self.zero = y == 0
        self.pos = ~self.zero
        self.y_pos = y[self.pos]
        self.log_y_factorial = log_factorial(self.y_pos)

    def _predictors(
        self, params: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``eta``, ``mu``, ``pi``, ``log pi``, ``log(1 - pi)`` and the
        log-likelihood of a zero, ``log L0``, at ``params``."""
        beta, gamma = params[: self.p], params[self.p:]
        eta = np.clip(self.X @ beta, -_MAX_ETA, _MAX_ETA)
        zeta = np.clip(self.Z @ gamma, -_MAX_ETA, _MAX_ETA)
        mu = np.exp(eta)
        pi = expit(zeta)
        log_pi = -np.logaddexp(0.0, -zeta)
        log_one_minus_pi = -np.logaddexp(0.0, zeta)
        with np.errstate(over="ignore"):
            ll0 = np.logaddexp(log_pi, log_one_minus_pi - mu)
        return eta, mu, pi, log_pi, log_one_minus_pi, ll0

    def __call__(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        eta, mu, pi, _, log_one_minus_pi, ll0 = self._predictors(params)

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
        grad_zeta = np.where(self.zero, self._zero_grad(mu, pi, ll0), -pi)
        grad_beta = self.X.T @ grad_eta
        grad_gamma = self.Z.T @ grad_zeta
        grad = np.concatenate([grad_beta, grad_gamma])
        return -loglik, -grad

    @staticmethod
    def _zero_grad(mu: np.ndarray, pi: np.ndarray, ll0: np.ndarray) -> np.ndarray:
        """d log L0 / d zeta = pi (1 - pi) (1 - e^{-mu}) / L0 for observed
        zeros (d log(1 - pi) / d zeta = -pi for positive counts)."""
        p0 = np.exp(-mu)
        with np.errstate(over="ignore", under="ignore"):
            return pi * (1.0 - pi) * (1.0 - p0) / np.maximum(np.exp(ll0), 1e-300)

    def hessian(self, params: np.ndarray) -> np.ndarray:
        """Observed information: the Hessian of the negative log-likelihood.

        Per observation, the log-likelihood's second derivatives in the
        linear predictors are, for y > 0, -mu (eta, eta), -pi (1 - pi)
        (zeta, zeta) and 0 across; for y = 0, with w the Poisson-branch
        weight and g the gradient's zero term, -mu w + mu^2 w (1 - w),
        g (1 - 2 pi - g) and mu w (1 - w) across.  The three blocks are
        weighted cross-products of the design matrices.
        """
        _, mu, pi, log_pi, log_one_minus_pi, ll0 = self._predictors(params)
        zero = self.zero
        w_pois = np.exp(log_one_minus_pi - mu - ll0)
        # 1 - w, the structural-zero weight, without the cancellation.
        w_struct = np.exp(log_pi - ll0)
        mixing = mu * w_pois * w_struct
        zero_grad = self._zero_grad(mu, pi, ll0)
        d_eta = np.where(zero, mu * w_pois - mu * mixing, mu)
        d_cross = np.where(zero, -mixing, 0.0)
        d_zeta = np.where(zero, -zero_grad * (1.0 - 2.0 * pi - zero_grad), pi * (1.0 - pi))
        X, Z = self.X, self.Z
        count = X.T @ (X * d_eta[:, None])
        cross = X.T @ (Z * d_cross[:, None])
        inflation = Z.T @ (Z * d_zeta[:, None])
        return np.block([[count, cross], [cross.T, inflation]])


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
    #: EM plus Newton steps of the full model's fit.
    n_iter: int

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


def _damped_solve(hessian: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``hessian @ x = rhs``, adding Levenberg damping ``lambda * I``
    until the matrix is positive definite."""
    eye = np.eye(len(rhs))
    floor = 1e-10 * max(float(np.abs(np.diag(hessian)).max(initial=0.0)), 1.0)
    damping = 0.0
    # Damping grows tenfold per attempt; 64 attempts dominate any finite matrix.
    for _ in range(64):
        damped = hessian + damping * eye
        try:
            np.linalg.cholesky(damped)
            return np.linalg.solve(damped, rhs)
        except np.linalg.LinAlgError:
            damping = max(10.0 * damping, floor)
    raise np.linalg.LinAlgError("the ZIP Hessian is not finite")


def _em_start(objective: _Objective, params: np.ndarray) -> Tuple[np.ndarray, int]:
    """Lambert's EM steps from ``params``; returns the point reached and
    the number of steps taken."""
    X, Z, y = objective.X, objective.Z, objective.y
    value, _ = objective(params)
    steps = 0
    while steps < _EM_MAX_STEPS:
        _, mu, pi, log_pi, _, ll0 = objective._predictors(params)
        # E-step: posterior probability that an observed zero is structural.
        structural = np.where(objective.zero, np.exp(log_pi - ll0), 0.0)
        # M-step: one Newton step of the Poisson regression weighted by
        # 1 - structural, and one of the logistic regression of
        # ``structural`` on Z.
        count_weight = 1.0 - structural
        count_step = _damped_solve(
            X.T @ (X * (count_weight * mu)[:, None]), X.T @ (count_weight * (y - mu))
        )
        zero_step = _damped_solve(
            Z.T @ (Z * (pi * (1.0 - pi))[:, None]), Z.T @ (structural - pi)
        )
        direction = np.concatenate([count_step, zero_step])
        # Backtrack on the full likelihood: a raw step can overshoot far
        # enough to overflow the count model.
        scale = 1.0
        while True:
            trial = np.clip(params + scale * direction, -_BOUND, _BOUND)
            trial_value, _ = objective(trial)
            if trial_value <= value:
                break
            scale *= 0.5
            if scale < 1e-10:
                return params, steps
        steps += 1
        gain = (value - trial_value) / max(abs(value), 1.0)
        params, value = trial, trial_value
        if gain < _EM_RTOL:
            break
    return params, steps


def _newton(
    objective: _Objective, params: np.ndarray
) -> Tuple[np.ndarray, float, bool, int]:
    """Projected Newton in the ``[-_BOUND, _BOUND]`` box; returns the
    point, its objective value, whether a stopping rule was met, and the
    number of steps taken."""
    value, grad = objective(params)
    for steps in range(_NEWTON_MAX_STEPS):
        projected = np.clip(params - grad, -_BOUND, _BOUND) - params
        if np.abs(projected).max() <= _GTOL:
            return params, value, True, steps
        # A coordinate at a bound whose gradient points outward stays fixed.
        lower, upper = params <= -_BOUND, params >= _BOUND
        free = ~((lower & (grad > 0.0)) | (upper & (grad < 0.0)))
        hessian = objective.hessian(params)
        while True:
            direction = np.zeros_like(params)
            direction[free] = _damped_solve(hessian[np.ix_(free, free)], -grad[free])
            # So does one at a bound that the Newton step would push outward.
            blocked = (lower & (direction < 0.0)) | (upper & (direction > 0.0))
            if not blocked.any():
                break
            free &= ~blocked
        # Armijo on the unprojected step: clipping at the box only shortens
        # a step, and once the step is short enough nothing is clipped.
        slope = float(grad @ direction)
        scale = 1.0
        while True:
            if -scale * slope <= _FTOL * max(abs(value), 1.0):
                # No decrease left that the objective's rounding could show.
                return params, value, True, steps
            trial = np.clip(params + scale * direction, -_BOUND, _BOUND)
            trial_value, trial_grad = objective(trial)
            if trial_value <= value + _ARMIJO * scale * slope:
                break
            scale *= 0.5
        reduction = (value - trial_value) / max(abs(value), abs(trial_value), 1.0)
        params, value, grad = trial, trial_value, trial_grad
        if reduction <= _FTOL:
            return params, value, True, steps + 1
    return params, value, False, _NEWTON_MAX_STEPS


def _column_scales(design: np.ndarray) -> np.ndarray:
    """Per-column scales for optimizer conditioning (1 for constants)."""
    scales = design.std(axis=0)
    return np.where(scales > 1e-12, scales, 1.0)


def _fit_raw(
    X: np.ndarray, Z: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, float, bool, int]:
    """Fit in column-scaled space for conditioning, return unscaled
    coefficients, the log-likelihood, convergence and the step count."""
    p, q = X.shape[1], Z.shape[1]
    sx, sz = _column_scales(X), _column_scales(Z)
    objective = _Objective(X / sx, Z / sz, y)
    init = np.zeros(p + q)
    init[0] = np.log(max(y[y > 0].mean() if np.any(y > 0) else 0.5, 1e-3))
    zero_share = float((y == 0).mean())
    init[p] = np.log(max(zero_share, 0.05) / max(1.0 - zero_share, 0.05))
    start, em_steps = _em_start(objective, init)
    params, value, converged, newton_steps = _newton(objective, start)
    return params / np.concatenate([sx, sz]), -value, converged, em_steps + newton_steps


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
    tracer = get_tracer()
    with tracer.span("stats.zip_fit"):
        params, loglik, converged, n_iter = _fit_raw(design_x, design_z, y)

        hessian = _Objective(design_x, design_z, y).hessian(params)
        try:
            cov = np.linalg.inv(hessian)
        except np.linalg.LinAlgError:
            cov = np.linalg.pinv(hessian)
        # A covariate that is zero in every row leaves its Hessian row
        # zero: its coefficient stays at 0 with no information, so its
        # standard error is 0 (z undefined), not the ~1e-10 that pinv's
        # SVD leaves there depending on the other entries' last bits.
        informed = np.any(hessian != 0.0, axis=1)
        std_err = np.where(
            informed, np.sqrt(np.clip(np.diag(cov), 0.0, None)), 0.0
        )

        # Null model: intercept-only in both components.
        null_x = np.ones((len(y), 1))
        _, null_loglik, _, null_iter = _fit_raw(null_x, null_x, y)
    tracer.count("stats.zip_iterations", n_iter + null_iter)

    p = design_x.shape[1]
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
        n_iter=n_iter,
    )
