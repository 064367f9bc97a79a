"""Pearson's chi-square test of independence on a two-way table.

§6's stimulus test asks whether the contract-type mix changed across
the STABLE -> COVID-19 boundary.  :func:`chi2_statistic` repeats the
computation of ``scipy.stats.chi2_contingency`` with its defaults, step
for step, and :func:`chi2_contingency` adds the p-value from
``scipy.special.chdtrc``, so both give bit-identical results.  SciPy is
imported only when a p-value is computed (:func:`chi2_sf`): neither the
``eras`` artefact nor ``repro eras`` prints one, so no command loads it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["chi2_contingency", "chi2_sf", "chi2_statistic"]


def chi2_statistic(observed: np.ndarray) -> Tuple[float, int]:
    """``(statistic, degrees_of_freedom)`` of the independence test on a
    2-D table.

    Expected counts are the outer product of the margins over the total.
    At one degree of freedom, Yates' continuity correction moves each
    observed count up to 0.5 toward its expected count.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 2:
        raise ValueError("observed must be a two-way table")
    expected = (
        observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True)
    ) / observed.sum()
    if np.any(expected == 0):
        raise ValueError("a row or column of the table sums to zero")
    dof = expected.size - sum(expected.shape) + 1
    if dof == 0:
        return 0.0, 0
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    return float(((observed - expected) ** 2 / expected).sum()), dof


def chi2_sf(statistic: float, dof: int) -> float:
    """P(X >= ``statistic``) for X chi-square with ``dof`` degrees of
    freedom; 1.0 at zero degrees of freedom."""
    if dof == 0:
        return 1.0
    # Only a reader of the p-value pays for importing SciPy.
    from scipy.special import chdtrc

    return float(chdtrc(dof, statistic))


def chi2_contingency(observed: np.ndarray) -> Tuple[float, float]:
    """``(statistic, p_value)`` of the independence test on a 2-D table."""
    statistic, dof = chi2_statistic(observed)
    return statistic, chi2_sf(statistic, dof)
