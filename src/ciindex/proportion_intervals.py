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
The oracle's n + 1 intervals depend on (kind, n, alpha) alone: the first
call at a key keeps them as a read-only table (the last 128 keys, at most
about 20 MB); its pmf depends on (n, p) alone, and the last one is kept,
read-only, so a sweep over the kinds at one (n, p) computes it once.  A
proportion study scores only its drawn counts, in O(R) memory.  Both
evaluate each formula once over an array of outcomes; the arcsine
formulas alone go one outcome at a time, through :mod:`math`.

Boundary conventions keep every estimator total: a Beta quantile with a
zero shape parameter is the corresponding endpoint (0 or 1), a chi-square
quantile at 0 degrees of freedom is 0, arcsine arguments are clipped into
[0, 1] before the square root, and square roots of negative
continuity-correction discriminants are taken as 0.  Formulas whose
half-width vanishes at x = 0 or x = n (Wald, the shifted Wald) return
their literal degenerate interval; the poor coverage that results is a
property of those estimators, not an error.
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
    # asin, sin and the square through math, one element at a time:
    # numpy's vector arcsin and square can differ from them in the last bit
    t = [math.asin(math.sqrt(v)) for v in np.ravel(g).tolist()]
    lo = [math.sin(v - h) ** 2 for v in t]
    hi = [math.sin(v + h) ** 2 for v in t]
    return np.reshape(lo, np.shape(g)), np.reshape(hi, np.shape(g))


def _arcsin(n: int, x, alpha: float, z: float):
    g = np.minimum(np.maximum((x - 0.5) / n, 0.0), 1.0)
    return _arcsin_pair(g, z / (2.0 * math.sqrt(n)))


def _arcsin_cc(n: int, x, alpha: float, z: float):
    g = np.minimum(np.maximum((x - 0.125) / (n + 0.75), 0.0), 1.0)
    return _arcsin_pair(g, z / (2.0 * math.sqrt(n + 0.5)))


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


def _z(kind: str, alpha: float) -> float:
    # the checks and the normal quantile every interval of a sweep shares
    if kind not in _FORMULAS:
        raise DomainError(f"kind must be one of {PROPORTION_ESTIMATORS}, got {kind!r}")
    _check_prob_open(alpha, "alpha")
    return normal_quantile(1.0 - alpha / 2.0)


def _clipped(kind: str, n: int, x, alpha: float, z: float):
    # one formula call over the outcomes x, each endpoint clipped to [0, 1]
    return tuple(np.minimum(np.maximum(v, 0.0), 1.0) for v in _FORMULAS[kind](n, x, alpha, z))


def proportion_interval(kind: str, obs: BinomialObservation, alpha: float) -> ConfidenceInterval:
    """Interval for the success probability, endpoints clipped to [0, 1]."""
    return _interval(*_clipped(kind, obs.n, obs.x, alpha, _z(kind, alpha)))


def _tally(ci: ConfidenceInterval, p: float, weights) -> tuple[float, float]:
    # running totals of w * [interval covers p] and w * length (cumsum, minus its wrapper)
    covered = np.where(ci.contains(p), weights, 0.0)
    return np.add.accumulate(covered)[-1], np.add.accumulate(weights * ci.length)[-1]


def _weighted_outcomes(kind: str, n: int, p: float, alpha: float, x, weights) -> tuple[float, float]:
    """Sums of ``w * [interval covers p]`` and ``w * length`` over outcomes ``x``.

    ``x`` holds distinct counts in ascending order and ``weights`` their
    weights; the formula is evaluated once over ``x``; an empty ``x`` gives (0, 0).
    """
    ci = ConfidenceInterval(*_clipped(kind, n, x, alpha, _z(kind, alpha)))
    return _tally(ci, p, weights) if len(x) else (0.0, 0.0)


# about 11 estimators x 11 sample sizes; at most 128 x 2 x 10^4 floats, 20 MB
_TABLES = 128


@functools.lru_cache(maxsize=_TABLES)
def _outcome_table(kind: str, n: int, alpha: float) -> ConfidenceInterval | tuple[np.ndarray, np.ndarray]:
    # the intervals of every outcome x = 0..n, read-only; kind and alpha errors are
    # not kept.  Endpoints inverted somewhere (arcsine at tiny alpha; NaN fails <=
    # too) stay a bare (lower, upper) pair, and each call checks its nonzero pmf
    lower, upper = _clipped(kind, n, np.arange(n + 1), alpha, _z(kind, alpha))
    lower.setflags(write=False)
    upper.setflags(write=False)
    return ConfidenceInterval(lower, upper) if (lower <= upper).all() else (lower, upper)


# a sweep over the kinds at one (n, p) shares one pmf: at most 80 KB
@functools.lru_cache(maxsize=1)
def _pmf(n: int, p: float) -> np.ndarray:
    pmf = _binomial_pmf(n, p)
    pmf.setflags(write=False)
    return pmf


def exact_performance(kind: str, n: int, p: float, alpha: float) -> IntervalPerformance:
    """Exact coverage and expected length under a Binomial(n, p) draw.

    Sums the binomial pmf over all outcomes x = 0..n, so the result is
    deterministic; intended as the reference for Monte Carlo runs.  The
    first call at a (kind, n, alpha) evaluates all n + 1 intervals, those
    of zero pmf included, into a read-only table that later p reuse; the
    last (n, p) keeps its pmf for the next kind.  Where a table inverts, only
    the outcomes of nonzero pmf are scored, and raise if any is inverted.
    """
    if not (isinstance(n, int) and 1 <= n <= 10**4):
        raise DomainError(f"n must be an integer in [1, 10^4], got {n!r}")
    _check_prob_open(p)
    try:
        pmf = _pmf(n, p)
    except TypeError:  # an unhashable p, such as a 0-d array
        pmf = _binomial_pmf(n, p)
    try:
        table = _outcome_table(kind, n, alpha)
    except TypeError:  # an unhashable key, such as a 0-d array alpha: not kept
        table = _outcome_table.__wrapped__(kind, n, alpha)
    if isinstance(table, ConfidenceInterval):
        # outcomes of zero pmf add +0.0 to the running totals: no bit moves
        coverage, length = _tally(table, p, pmf)
    else:
        x = np.flatnonzero(pmf)
        coverage, length = _tally(ConfidenceInterval(table[0][x], table[1][x]), p, pmf[x])
    return IntervalPerformance(min(coverage, 1.0), length)
