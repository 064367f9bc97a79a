"""The special functions the §5 fits need, in NumPy and ``math``.

The latent-class mixture, the Poisson GLM, the ZIP regressions and the
Vuong test need four special functions.  ``scipy.special`` has them,
but importing it loads some 300 modules (its array-API layer pulls in
``numpy.f2py``): about 0.3 s and 25 MB for each process that does.
These ports follow SciPy's algorithms step for step, so three of them
return SciPy's results bit for bit:

* :func:`log_factorial` is cephes ``lgam`` at the integers, where
  ``scipy.special.gammaln(n + 1)`` evaluates it;
* :func:`logsumexp` is SciPy's real-input algorithm over the last axis;
* :func:`ndtr` is cephes ``ndtr`` with its ``erf``/``erfc`` polynomials.

:func:`expit` is the textbook formula on NumPy's vectorised ``exp``.
SciPy evaluates the same formula with the C library's ``exp``; the two
``exp`` differ in the last bit on about 5% of inputs, and the sigmoids
on about 2%.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

__all__ = ["expit", "log_factorial", "logsumexp", "ndtr"]

#: log(sqrt(2 pi)), as cephes writes it.
_LS2PI = 0.91893853320467274178
#: cephes lgam's Stirling-series coefficients, used below 1,000.
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _polevl(x: float, coef: Sequence[float]) -> float:
    """cephes ``polevl``: the polynomial with coefficients ``coef``,
    highest power first, by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """cephes ``p1evl``: as :func:`_polevl` with a leading coefficient
    of 1 left out of ``coef``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    """cephes ``lgam`` at an integer ``x >= 1``."""
    if x < 13.0:
        # cephes multiplies its way down to lgam(2) = 0; below 13 the
        # product is (x - 1)! exactly.
        return math.log(math.factorial(int(x) - 1))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _STIRLING) / x


def log_factorial(counts: np.ndarray) -> np.ndarray:
    """``log(n!)`` of each count, equal to ``scipy.special.gammaln(n + 1)``.

    Evaluated once per distinct count, as counts repeat heavily.
    """
    counts = np.asarray(counts, dtype=float)
    values, inverse = np.unique(counts, return_inverse=True)
    if values.size and not (
        values[0] >= 0 and np.isfinite(values[-1])
        and np.array_equal(values, np.floor(values))
    ):
        raise ValueError("log_factorial needs non-negative integer counts")
    table = np.array([_lgam(n + 1.0) for n in values.tolist()], dtype=float)
    return table[inverse].reshape(counts.shape)


def logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` over the last axis, kept as an axis of length 1.

    SciPy's algorithm: the ``m`` entries equal to the row maximum are
    summed apart, as ``log(m)``, so the shifted sum ``s`` of the others
    is below ``m`` times the largest term and ``log1p(s / m)`` keeps its
    precision.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=-1, keepdims=True)
    at_max = a == a_max
    m = at_max.sum(axis=-1, keepdims=True, dtype=float)
    # inf - inf at an infinite maximum is zeroed with the other maxima;
    # an all -inf row then gives -inf and a NaN row NaN, as SciPy's do.
    with np.errstate(invalid="ignore", divide="ignore"):
        shifted = np.exp(a - a_max)
        shifted[at_max] = 0.0
        s = shifted.sum(axis=-1, keepdims=True)
        return np.log1p(s / m) + np.log(m) + a_max


#: cephes ``ndtr``'s constants and ``erf``/``erfc`` coefficients.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _erf(x: float) -> float:
    """cephes ``erf`` for ``|x| <= 1``, where :func:`_ndtr` calls it."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(x: float) -> float:
    """cephes ``erfc`` for ``x >= 0``."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    return (z * p) / q


def _ndtr(a: float) -> float:
    """cephes ``ndtr`` of one value: ``erf`` near 0, ``erfc`` beyond."""
    if math.isnan(a):
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def ndtr(x: Union[float, np.ndarray]) -> np.ndarray:
    """The standard normal CDF of each element, cephes ``ndtr``.

    Evaluated per element: the callers pass a few coefficients' z-values
    or one statistic.
    """
    values = np.asarray(x, dtype=float)
    out = [_ndtr(v) for v in values.ravel().tolist()]
    return np.array(out, dtype=float).reshape(values.shape)


def expit(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid ``1 / (1 + exp(-x))``.

    NumPy's ``exp`` is within one ulp of the C library's, which
    ``scipy.special.expit`` uses, so the two denominators differ by at
    most one ulp of ``[1, 2)``: two ulps of a result in ``[0.5, 1)``.
    """
    return 1.0 / (1.0 + np.exp(-x))
