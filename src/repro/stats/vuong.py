"""Vuong's closeness test for non-nested model comparison.

§5.2: "Results from Vuong tests for all models suggest the ZIP models are
better-fitted for the data" — i.e. ZIP vs plain Poisson.  The statistic is

    V = sqrt(n) * mean(m) / sd(m),    m_i = lnf1(y_i) - lnf2(y_i)

which is asymptotically standard normal under the null that the models
are equally close to the truth.  Positive V favours model 1.  An
AIC-style correction for the difference in parameter counts is applied
by default, as in ``pscl``'s implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import ndtr

__all__ = ["VuongResult", "vuong_test"]

#: Pointwise log-likelihood differences below this mean the two models
#: coincide.  A ZIP fit whose zero-inflation intercept ran off to ~-25
#: differs from its Poisson fit by ~1e-9 per point, with an sd of ~1e-10
#: that turns the AIC correction into statistics of -1e5 to -1e9; fits
#: that have not collapsed differ with an sd of 0.03 or more.
_COINCIDENT = 1e-6


@dataclass(frozen=True)
class VuongResult:
    """Outcome of a Vuong test: statistic, p-value, and verdict."""

    statistic: float
    p_value: float
    n_obs: int
    favours_model1: bool

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def vuong_test(
    loglik1: np.ndarray,
    loglik2: np.ndarray,
    n_params1: int = 0,
    n_params2: int = 0,
    correction: bool = True,
) -> VuongResult:
    """Compare two models via their pointwise log-likelihoods.

    Parameters
    ----------
    loglik1, loglik2:
        Per-observation log-likelihood arrays of the two models on the
        SAME data, aligned.
    n_params1, n_params2:
        Parameter counts, used for the AIC-style correction.
    correction:
        Apply the AIC correction (subtract ``(k1 - k2) ln(n)/... / n``
        style penalty from the mean difference).
    """
    l1 = np.asarray(loglik1, dtype=float)
    l2 = np.asarray(loglik2, dtype=float)
    if l1.shape != l2.shape or l1.ndim != 1:
        raise ValueError("log-likelihood arrays must be 1-D and aligned")
    n = len(l1)
    if n < 2:
        raise ValueError("need at least two observations")
    m = l1 - l2
    if correction:
        m = m - (n_params1 - n_params2) / (2.0 * n) * np.log(n)
    sd = float(m.std(ddof=1))
    if sd < 1e-10 or float(np.abs(l1 - l2).max()) < _COINCIDENT:
        # The models coincide pointwise (e.g. ZIP collapsed onto Poisson);
        # the statistic is undefined — report indistinguishable.
        return VuongResult(0.0, 1.0, n, False)
    statistic = float(np.sqrt(n) * m.mean() / sd)
    # ndtr(-x) is the normal survival function, as scipy.stats' norm.sf.
    p_value = float(2.0 * ndtr(-abs(statistic)))
    return VuongResult(statistic, p_value, n, statistic > 0)
