"""Eleven interval estimators for a binomial proportion, plus an exact oracle.

Given ``x`` successes in ``n`` trials, :func:`proportion_interval` returns
the chosen estimator's interval with endpoints clipped to [0, 1].  The
catalog covers the Clopper-Pearson exact interval, Wald, two arcsine
variants, the Garwood Poisson-based interval, Wilson with and without
continuity correction, a shifted Wald on the Wilson midpoint, Agresti-Coull,
the add-4 adjustment, and the mid-p (Jeffreys-type) Beta interval.

:func:`exact_performance` computes coverage and expected length exactly by
summing the binomial pmf over all n + 1 outcomes, with no Monte Carlo,
which makes it the reference any simulated run can be checked against.
The pmf comes from :mod:`ciindex.special`, through the kernel that
``scipy.stats.binom.pmf`` calls, so the oracle gives the same bytes as
``scipy.stats`` without importing it.
The oracle and a proportion study share one scorer and one cache: each
(kind, n, alpha) keeps the clipped endpoints of x = 0..n (the last 128
keys, at most about 20 MB), filled only at the outcomes asked for, the
oracle's of nonzero pmf or a study's drawn counts; above 10^4 trials a
study is scored uncached, in O(R) memory.  The last (n, p) keeps the
outcomes of nonzero pmf and their weights.

Boundary conventions: a Beta quantile with a zero shape parameter is the
corresponding endpoint (0 or 1), a chi-square quantile at 0 degrees of
freedom is 0, arcsine arguments are clipped into [0, 1] before the square
root, and square roots of negative continuity-correction discriminants
are taken as 0.  Formulas whose half-width vanishes at x = 0 or x = n
(Wald, the shifted Wald) return their literal degenerate interval; the
poor coverage that results is a property of those estimators, not an
error.  The arcsine intervals are not total: past pi / 2 the upper angle
folds back and the interval inverts, raising :class:`DomainError`, at
n = 1 for alpha from about 0.0017 down to 3e-10 (arcsin_cc: 1.2e-4 to
1.4e-14) and at ever smaller alpha as n grows (ROADMAP item 14).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .index import IntervalPerformance
from .mean_intervals import ConfidenceInterval, _interval
from .special import (
    _binomial_pmf,
    _check_prob_open,
    _upper_level,
    beta_quantile,
    chi_square_quantile,
    normal_quantile,
)

__all__ = [
    "BinomialObservation",
    "PROPORTION_ESTIMATORS",
    "exact_performance",
    "proportion_interval",
]


@dataclass(frozen=True)
class BinomialObservation:
    """``x`` successes out of ``n`` Bernoulli trials."""

    n: int
    x: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not (isinstance(self.x, int) and 0 <= self.x <= self.n):
            raise DomainError(f"x must be an integer in [0, {self.n}], got {self.x!r}")


def _exact(n: int, x, alpha: float, z: float):
    lo = beta_quantile(alpha / 2.0, x, n - x + 1)
    hi = beta_quantile(1.0 - alpha / 2.0, x + 1, n - x)
    return lo, hi


def _wald(n: int, x, alpha: float, z: float):
    ph = x / n
    h = z * np.sqrt(ph * (1.0 - ph) / n)
    return ph - h, ph + h


def _arcsin_pair(g, h: float):
    # g clipped into [0, 1], then asin, sin and the square through math, one
    # element at a time: numpy's vector arcsin and square can differ in the last bit
    t = [math.asin(math.sqrt(min(max(v, 0.0), 1.0))) for v in np.ravel(g).tolist()]
    lo = [math.sin(v - h) ** 2 for v in t]
    hi = [math.sin(v + h) ** 2 for v in t]
    return np.reshape(lo, np.shape(g)), np.reshape(hi, np.shape(g))


def _arcsin(n: int, x, alpha: float, z: float):
    return _arcsin_pair((x - 0.5) / n, z / (2.0 * math.sqrt(n)))


def _arcsin_cc(n: int, x, alpha: float, z: float):
    return _arcsin_pair((x - 0.125) / (n + 0.75), z / (2.0 * math.sqrt(n + 0.5)))


def _pois(n: int, x, alpha: float, z: float):
    lo = chi_square_quantile(alpha / 2.0, 2 * x) / (2.0 * n)
    hi = chi_square_quantile(1.0 - alpha / 2.0, 2 * (x + 1)) / (2.0 * n)
    return lo, hi


def _wilson(n: int, x, alpha: float, z: float):
    z2 = z * z
    mid = (x + z2 / 2.0) / (n + z2)
    h = (z / (n + z2)) * np.sqrt(x * (1.0 - x / n) + z2 / 4.0)
    return mid - h, mid + h


def _wilson_cc(n: int, x, alpha: float, z: float):
    z2 = z * z
    lo_arg = np.maximum(z2 - 2.0 - 1.0 / n + 4.0 * x * (1.0 - x / n + 1.0 / n), 0.0)
    hi_arg = np.maximum(z2 + 2.0 - 1.0 / n + 4.0 * x * (1.0 - x / n - 1.0 / n), 0.0)
    lo = (2.0 * x + z2 - 1.0 - z * np.sqrt(lo_arg)) / (2.0 * (n + z2))
    hi = (2.0 * x + z2 + 1.0 + z * np.sqrt(hi_arg)) / (2.0 * (n + z2))
    return lo, hi


def _bcg(n: int, x, alpha: float, z: float):
    z2 = z * z
    mid = (x + z2 / 2.0) / (n + z2)
    h = z * np.sqrt(x / n**2 * (1.0 - x / n))
    return mid - h, mid + h


def _agresti_coull(n: int, x, alpha: float, z: float):
    z2 = z * z
    pt = (x + z2 / 2.0) / (n + z2)
    h = z * np.sqrt(pt * (1.0 - pt) / (n + z2))
    return pt - h, pt + h


def _add4(n: int, x, alpha: float, z: float):
    pt = (x + 2.0) / (n + 4.0)
    h = z * np.sqrt(pt * (1.0 - pt) / (n + 4.0))
    return pt - h, pt + h


def _mid_p(n: int, x, alpha: float, z: float):
    lo = beta_quantile(alpha / 2.0, x + 0.5, n - x + 0.5)
    hi = beta_quantile(1.0 - alpha / 2.0, x + 0.5, n - x + 0.5)
    return lo, hi


# results-table row order
_FORMULAS = {
    "exact": _exact,
    "wald": _wald,
    "arcsin": _arcsin,
    "arcsin_cc": _arcsin_cc,
    "pois": _pois,
    "wilson": _wilson,
    "wilson_cc": _wilson_cc,
    "bcg": _bcg,
    "agresti_coull": _agresti_coull,
    "add4": _add4,
    "mid_p": _mid_p,
}
PROPORTION_ESTIMATORS = tuple(_FORMULAS)


def _probability(v, name: str) -> float:
    _check_prob_open(v, name)
    if isinstance(v, np.ndarray) and v.ndim:
        raise DomainError(f"{name} must be a single number, got {v!r}")
    return float(v)


def _z(kind: str, alpha: float) -> float:
    # the checks and the normal quantile every interval of a sweep shares
    if kind not in _FORMULAS:
        raise DomainError(f"kind must be one of {PROPORTION_ESTIMATORS}, got {kind!r}")
    return normal_quantile(_upper_level(_probability(alpha, "alpha")))


def _clipped(kind: str, n: int, x, alpha: float, z: float):
    # one formula call over the outcomes x, each endpoint clipped to [0, 1]
    return tuple(np.minimum(np.maximum(v, 0.0), 1.0) for v in _FORMULAS[kind](n, x, alpha, z))


def proportion_interval(kind: str, obs: BinomialObservation, alpha: float) -> ConfidenceInterval:
    """Interval for the success probability, endpoints clipped to [0, 1]."""
    return _interval(*_clipped(kind, obs.n, obs.x, alpha, _z(kind, alpha)))


# studies of more trials (up to 10^9) are scored uncached, in O(R) memory
_CACHED_N = 10**4
# about 11 estimators x 11 sample sizes; at most 128 x 2 x 10^4 floats, 20 MB
_TABLES = 128


@functools.lru_cache(maxsize=_TABLES)
def _endpoints(kind: str, n: int, alpha: float) -> np.ndarray:
    # (lower, upper) of x = 0..n, NaN until asked for; callers check kind and alpha
    return np.full((2, n + 1), np.nan)


def _weighted_outcomes(kind: str, n: int, p: float, alpha: float, x, weights) -> tuple[float, float]:
    """Running totals of ``w * [interval covers p]`` and ``w * length`` over ``x``.

    ``x`` holds distinct counts in ascending order, ``weights`` their weights;
    an empty ``x`` gives (0, 0).  An inverted or non-finite outcome raises.
    """
    z = _z(kind, alpha)
    if n > _CACHED_N:
        lower, upper = _clipped(kind, n, x, alpha, z)
    else:
        ends = _endpoints(kind, n, float(alpha))
        todo = x[np.isnan(ends[0].take(x))]
        if len(todo):
            ends[:, todo] = _clipped(kind, n, todo, alpha, z)
        lower, upper = ends.take(x, axis=1)
    if not (lower <= upper).all():  # NaN fails too; clipped ends are never infinite
        ConfidenceInterval(lower, upper)  # raises, showing the endpoints
    if not len(x):
        return 0.0, 0.0
    covered = np.where((lower <= p) & (p <= upper), weights, 0.0)
    return np.add.accumulate(covered)[-1], np.add.accumulate(weights * (upper - lower))[-1]


# a sweep over the kinds at one (n, p) shares one pmf, kept as its nonzero
# outcomes and their weights: at most 160 KB
@functools.lru_cache(maxsize=1)
def _pmf(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    pmf = _binomial_pmf(n, p)
    x = np.flatnonzero(pmf)
    support = (x, pmf[x])
    for a in support:
        a.setflags(write=False)
    return support


def exact_performance(kind: str, n: int, p: float, alpha: float) -> IntervalPerformance:
    """Exact coverage and expected length under a Binomial(n, p) draw.

    Sums the binomial pmf over the outcomes x = 0..n where it is nonzero
    (the rest would add +0.0), so the result is deterministic; intended as
    the reference for Monte Carlo runs.  Its endpoint cache is shared with
    proportion studies; an inverted interval raises only at nonzero pmf.
    """
    if not (isinstance(n, int) and 1 <= n <= _CACHED_N):
        raise DomainError(f"n must be an integer in [1, 10^4], got {n!r}")
    p = _probability(p, "p")
    coverage, length = _weighted_outcomes(kind, n, p, alpha, *_pmf(n, p))
    return IntervalPerformance(min(coverage, 1.0), length)
