"""Distribution functions and quantiles used by every interval estimator.

Thin, validated wrappers over ``scipy.special``: the standard normal
distribution function, and the normal, Student t, chi-square, and beta
quantiles.  All functions are pure and accept Python floats; they return
plain floats.  :func:`normal_cdf`, :func:`normal_quantile` and
:func:`student_t_quantile` also take an array, checked and evaluated
elementwise, and return an array.

Boundary conventions (needed by estimators at the edge of their support):

* chi-square with ``df == 0``: the distribution degenerates at 0, so any
  quantile is 0.
* beta with ``a == 0``: quantile is 0; with ``b == 0``: quantile is 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "beta_quantile",
    "chi_square_quantile",
    "normal_cdf",
    "normal_quantile",
    "student_t_quantile",
]


def _check_prob_open(p, name: str = "p") -> None:
    # a number, or an array checked elementwise; NaN and infinities fail
    # the comparisons
    if isinstance(p, (int, float)):
        ok = 0.0 < p < 1.0
    else:
        ok = isinstance(p, np.ndarray) and bool(np.all((p > 0.0) & (p < 1.0)))
    if not ok:
        raise DomainError(f"{name} must lie strictly between 0 and 1, got {p!r}")


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


def chi_square_quantile(p: float, df: float) -> float:
    """Chi-square quantile; the df=0 boundary convention returns 0."""
    _check_prob_open(p)
    if df < 0:
        raise DomainError(f"df must be nonnegative, got {df!r}")
    if df == 0:
        return 0.0
    return float(2.0 * _sp.gammaincinv(df / 2.0, p))


def beta_quantile(p: float, a: float, b: float) -> float:
    """Beta quantile; zero shape parameters map to the support boundary.

    ``a == 0`` returns 0 and ``b == 0`` returns 1, the limits of the
    distribution as the shape parameter vanishes.  Both shapes zero is
    rejected.
    """
    _check_prob_open(p)
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise DomainError(f"invalid beta shapes a={a!r}, b={b!r}")
    if a == 0:
        return 0.0
    if b == 0:
        return 1.0
    return float(_sp.betaincinv(a, b, p))
