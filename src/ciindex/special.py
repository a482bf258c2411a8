"""Distribution functions and quantiles used by every interval estimator.

Thin, validated wrappers over ``scipy.special``: the standard normal
distribution function, and the normal, Student t, chi-square, and beta
quantiles.  All functions are pure and accept Python floats; they return
plain floats.  :func:`normal_cdf`, :func:`normal_quantile` and
:func:`student_t_quantile` also take an array of probabilities, and
:func:`chi_square_quantile` and :func:`beta_quantile` an array of degrees
of freedom or shapes (each broadcast against ``p``); an array is checked
and evaluated elementwise and gives an array, equal bit for bit to the
scalar calls.  A proportion sweep uses these to score all its outcomes in
one call.

Boundary conventions (needed by estimators at the edge of their support):

* chi-square with ``df == 0``: the distribution degenerates at 0, so any
  quantile is 0.
* beta with ``a == 0``: quantile is 0; with ``b == 0``: quantile is 1.

The private :func:`_binomial_pmf` gives the Binomial(n, p) pmf over all
n + 1 outcomes for the exact proportion oracle.  It calls
``scipy.special._ufuncs._binom_pmf``, the kernel that
``scipy.stats.binom.pmf`` itself evaluates, and clips to [0, 1] as
``scipy.stats`` does, so its bytes are those of ``scipy.stats``.  The
private name is reached for on purpose: ``scipy.stats`` costs more to
import than the rest of the package together, and tens of microseconds
of argument handling per call.  A scipy without the kernel
falls back to ``scipy.stats.binom.pmf``; the choice is made once, at
import.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError

try:
    from scipy.special._ufuncs import _binom_pmf as _binom_pmf_kernel
except ImportError:  # a scipy release without the kernel
    _binom_pmf_kernel = None

__all__ = [
    "beta_quantile",
    "chi_square_quantile",
    "normal_cdf",
    "normal_quantile",
    "student_t_quantile",
]


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    # P(X = x) for x = 0..n under Binomial(n, p), bit for bit
    # scipy.stats.binom.pmf(np.arange(n + 1), n, p) wherever that returns
    x = np.arange(n + 1)
    try:
        if _binom_pmf_kernel is None:
            from scipy import stats

            return stats.binom.pmf(x, n, p)
        return np.clip(_binom_pmf_kernel(x, n, p), 0.0, 1.0)
    except OverflowError:  # boost, for p near the smallest normal: p^2 underflows
        return np.where(x == 0, 1.0, np.where(x == 1, n * p, 0.0))


def _check_prob_open(p, name: str = "p") -> None:
    # a number, or an array checked elementwise; NaN and infinities fail
    # the comparisons
    if isinstance(p, (int, float)):
        ok = 0.0 < p < 1.0
    else:
        ok = isinstance(p, np.ndarray) and bool(np.all((p > 0.0) & (p < 1.0)))
    if not ok:
        raise DomainError(f"{name} must lie strictly between 0 and 1, got {p!r}")


def _upper_level(alpha):
    # 1 - alpha/2, the level of a two-sided interval's upper quantile, for a
    # checked alpha or array of them; below about 1.1e-16 it rounds to 1
    level = 1.0 - alpha / 2.0
    if (level if isinstance(level, float) else level.max()) >= 1.0:
        raise DomainError(f"alpha must be large enough that 1 - alpha/2 < 1, got {alpha!r}")
    return level


def normal_cdf(x):
    """Standard normal distribution function Phi(x), elementwise over an array.

    Parameters
    ----------
    x : float or numpy.ndarray
        Finite evaluation point(s).

    Returns
    -------
    float or numpy.ndarray
        Phi(x) in [0, 1], accurate to well below 1e-12 absolute error.
    """
    if isinstance(x, np.ndarray):
        finite = bool(np.isfinite(x).all())
    else:
        finite = isinstance(x, (int, float)) and math.isfinite(x)
    if not finite:
        raise DomainError(f"x must be finite, got {x!r}")
    value = _sp.ndtr(x)
    return value if isinstance(x, np.ndarray) else float(value)


def normal_quantile(p):
    """Inverse of :func:`normal_cdf` on (0, 1), elementwise over an array."""
    _check_prob_open(p)
    q = _sp.ndtri(p)
    return float(q) if isinstance(p, float) else q


def student_t_quantile(p, df: float):
    """Student t quantile with ``df`` degrees of freedom, elementwise in ``p``."""
    _check_prob_open(p)
    if df <= 0:
        raise DomainError(f"df must be positive, got {df!r}")
    q = _sp.stdtrit(df, p)
    return float(q) if isinstance(p, float) else q


def chi_square_quantile(p, df):
    """Chi-square quantile, elementwise over an array of ``df``; df = 0 gives 0."""
    _check_prob_open(p)
    d = np.asarray(df)
    if np.any(d < 0):
        raise DomainError(f"df must be nonnegative, got {df!r}")
    q = np.where(d == 0, 0.0, 2.0 * _sp.gammaincinv(d / 2.0, p))
    return float(q) if q.ndim == 0 else q


def beta_quantile(p, a, b):
    """Beta quantile, elementwise over arrays of shapes; zero shapes map to the support boundary.

    ``a == 0`` returns 0 and ``b == 0`` returns 1, the limits of the
    distribution as the shape parameter vanishes.  Both shapes zero is
    rejected, as is a negative shape anywhere in an array.
    """
    _check_prob_open(p)
    a_, b_ = np.asarray(a), np.asarray(b)
    if np.any((a_ < 0) | (b_ < 0) | ((a_ == 0) & (b_ == 0))):
        raise DomainError(f"invalid beta shapes a={a!r}, b={b!r}")
    q = np.where(a_ == 0, 0.0, np.where(b_ == 0, 1.0, _sp.betaincinv(a_, b_, p)))
    return float(q) if q.ndim == 0 else q
