"""Pearson's chi-square test of independence on a two-way table.

§6's stimulus test asks whether the contract-type mix changed across
the STABLE -> COVID-19 boundary.  :func:`chi2_contingency` repeats the
computation of ``scipy.stats.chi2_contingency`` with its defaults, step
for step, so both give bit-identical results; ``scipy.stats`` itself is
never imported, because loading it costs over half a second per process.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.special import chdtrc

__all__ = ["chi2_contingency"]


def chi2_contingency(observed: np.ndarray) -> Tuple[float, float]:
    """``(statistic, p_value)`` of the independence test on a 2-D table.

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
        return 0.0, 1.0
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return statistic, float(chdtrc(dof, statistic))
