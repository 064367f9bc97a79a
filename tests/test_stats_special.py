"""repro.stats.special against scipy.special, which stays installed as the
oracle: three ports bit for bit, the sigmoid within two ulps."""

import numpy as np
import pytest
from scipy import special as oracle

from repro.stats import special


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, NaN payloads aside and signed zeros apart."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(
        (np.isnan(a) & np.isnan(b))
        | ((a == b) & (np.signbit(a) == np.signbit(b)))
    ))


class TestLogFactorial:
    def test_every_count_to_a_million(self):
        counts = np.arange(0, 1_000_001, dtype=float)
        assert _same(special.log_factorial(counts), oracle.gammaln(counts + 1.0))

    def test_keeps_the_shape_of_a_count_matrix(self):
        counts = np.random.default_rng(0).poisson(3.0, size=(50, 10)).astype(float)
        assert _same(special.log_factorial(counts), oracle.gammaln(counts + 1.0))
        assert special.log_factorial(np.empty((0, 4))).shape == (0, 4)

    @pytest.mark.parametrize("bad", [-1.0, 0.5, np.nan, np.inf])
    def test_rejects_what_is_not_a_count(self, bad):
        with pytest.raises(ValueError):
            special.log_factorial(np.array([0.0, bad, 3.0]))


class TestNdtr:
    def test_random_values(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([
            rng.normal(scale=4.0, size=100_000),
            rng.uniform(-40.0, 40.0, size=100_000),
        ])
        assert _same(special.ndtr(x), oracle.ndtr(x))

    def test_edges(self):
        # The branch points of cephes ndtr and erfc: |x| / sqrt(2) at
        # sqrt(1/2), 1 and 8, and the underflow past 38.
        edges = [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.5, 38.5, 40.0]
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan] + [
            np.nextafter(sign * edge, direction)
            for edge in edges for sign in (1.0, -1.0)
            for direction in (-np.inf, 0.0, np.inf)
        ] + [sign * edge for edge in edges for sign in (1.0, -1.0)])
        assert _same(special.ndtr(x), oracle.ndtr(x))

    def test_keeps_shape(self):
        assert special.ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert special.ndtr(-1.5) == oracle.ndtr(-1.5)


class TestLogsumexp:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrices_with_ties_and_minus_inf(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=30.0, size=(4000, 12))
        a[::3, 4] = a[::3].max(axis=1)              # a tie at the maximum
        a[::5] = np.round(a[::5] / 10.0)            # many ties
        a[::7, rng.integers(0, 12)] = -np.inf
        a[::11, :6] = -np.inf
        a[13] = -np.inf                             # every entry -inf
        a[17, 2] = np.inf
        a[19, 5] = np.nan
        with np.errstate(all="ignore"):
            expected = oracle.logsumexp(a, axis=1, keepdims=True)
        assert _same(special.logsumexp(a), expected)

    def test_one_column(self):
        a = np.array([[1.5], [-np.inf], [0.0]])
        assert _same(special.logsumexp(a),
                     oracle.logsumexp(a, axis=1, keepdims=True))


def test_expit_within_two_ulps():
    """NumPy's vectorised ``exp`` and the C library's, which SciPy uses,
    differ by up to one ulp.  That moves ``1 + exp(-x)`` by at most one
    ulp of [1, 2), which is two ulps of a sigmoid in [0.5, 1)."""
    x = np.clip(np.random.default_rng(3).normal(scale=10.0, size=1_000_000),
                -30.0, 30.0)
    ours, theirs = special.expit(x), oracle.expit(x)
    ulps = np.abs(ours.view(np.int64) - theirs.view(np.int64))
    assert ulps.max() <= 2
    assert np.count_nonzero(ulps) < 0.05 * len(x)
