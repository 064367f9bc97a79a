"""The chi-square independence test must match SciPy's bit for bit."""

import numpy as np
import pytest
from scipy import stats

from repro.stats.contingency import chi2_contingency


def _scipy(table):
    result = stats.chi2_contingency(table)
    return float(result[0]), float(result[1])


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_random_two_row_tables_match_scipy(k):
    rng = np.random.default_rng(k)
    for _ in range(1250):
        table = rng.integers(1, rng.choice([5, 50, 5000]), size=(2, k)).astype(float)
        assert chi2_contingency(table) == _scipy(table)


def test_one_dof_applies_yates_correction():
    table = np.array([[12.0, 3.0], [17.0, 16.0]])
    statistic, p_value = chi2_contingency(table)
    assert (statistic, p_value) == _scipy(table)
    uncorrected = stats.chi2_contingency(table, correction=False)
    assert statistic < uncorrected[0]


def test_small_differences_are_not_overcorrected():
    # |observed - expected| < 0.5 everywhere: Yates moves each cell only
    # as far as its expected count.
    table = np.array([[10.0, 10.0], [10.0, 11.0]])
    assert chi2_contingency(table) == _scipy(table)


def test_larger_tables_match_scipy():
    table = np.random.default_rng(0).integers(1, 100, size=(4, 6))
    assert chi2_contingency(table) == _scipy(table)


def test_single_column_has_no_degrees_of_freedom():
    assert chi2_contingency(np.array([[4.0], [9.0]])) == (0.0, 1.0)


def test_zero_margin_rejected():
    with pytest.raises(ValueError):
        chi2_contingency(np.array([[0.0, 0.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        chi2_contingency(np.array([1.0, 2.0]))
