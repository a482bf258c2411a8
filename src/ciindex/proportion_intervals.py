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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .index import IntervalPerformance
from .mean_intervals import ConfidenceInterval
from .special import _check_prob_open, beta_quantile, chi_square_quantile, normal_quantile

__all__ = [
    "BinomialObservation",
    "PROPORTION_ESTIMATORS",
    "exact_performance",
    "proportion_interval",
]

# results-table row order
PROPORTION_ESTIMATORS = (
    "exact",
    "wald",
    "arcsin",
    "arcsin_cc",
    "pois",
    "wilson",
    "wilson_cc",
    "bcg",
    "agresti_coull",
    "add4",
    "mid_p",
)


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


def _exact(n: int, x: int, alpha: float) -> tuple[float, float]:
    lo = beta_quantile(alpha / 2.0, x, n - x + 1)
    hi = beta_quantile(1.0 - alpha / 2.0, x + 1, n - x)
    return lo, hi


def _wald(n: int, x: int, alpha: float) -> tuple[float, float]:
    z = normal_quantile(1.0 - alpha / 2.0)
    ph = x / n
    h = z * math.sqrt(ph * (1.0 - ph) / n)
    return ph - h, ph + h


def _arcsin_pair(g: float, h: float) -> tuple[float, float]:
    t = math.asin(math.sqrt(g))
    return math.sin(t - h) ** 2, math.sin(t + h) ** 2


def _arcsin(n: int, x: int, alpha: float) -> tuple[float, float]:
    z = normal_quantile(1.0 - alpha / 2.0)
    g = min(max((x - 0.5) / n, 0.0), 1.0)
    return _arcsin_pair(g, z / (2.0 * math.sqrt(n)))


def _arcsin_cc(n: int, x: int, alpha: float) -> tuple[float, float]:
    z = normal_quantile(1.0 - alpha / 2.0)
    g = min(max((x - 0.125) / (n + 0.75), 0.0), 1.0)
    return _arcsin_pair(g, z / (2.0 * math.sqrt(n + 0.5)))


def _pois(n: int, x: int, alpha: float) -> tuple[float, float]:
    lo = chi_square_quantile(alpha / 2.0, 2 * x) / (2.0 * n)
    hi = chi_square_quantile(1.0 - alpha / 2.0, 2 * (x + 1)) / (2.0 * n)
    return lo, hi


def _wilson(n: int, x: int, alpha: float) -> tuple[float, float]:
    z = normal_quantile(1.0 - alpha / 2.0)
    z2 = z * z
    mid = (x + z2 / 2.0) / (n + z2)
    h = (z / (n + z2)) * math.sqrt(x * (1.0 - x / n) + z2 / 4.0)
    return mid - h, mid + h


def _wilson_cc(n: int, x: int, alpha: float) -> tuple[float, float]:
    z = normal_quantile(1.0 - alpha / 2.0)
    z2 = z * z
    lo_arg = max(z2 - 2.0 - 1.0 / n + 4.0 * x * (1.0 - x / n + 1.0 / n), 0.0)
    hi_arg = max(z2 + 2.0 - 1.0 / n + 4.0 * x * (1.0 - x / n - 1.0 / n), 0.0)
    lo = (2.0 * x + z2 - 1.0 - z * math.sqrt(lo_arg)) / (2.0 * (n + z2))
    hi = (2.0 * x + z2 + 1.0 + z * math.sqrt(hi_arg)) / (2.0 * (n + z2))
    return lo, hi


def _bcg(n: int, x: int, alpha: float) -> tuple[float, float]:
    z = normal_quantile(1.0 - alpha / 2.0)
    z2 = z * z
    mid = (x + z2 / 2.0) / (n + z2)
    h = z * math.sqrt(x / n**2 * (1.0 - x / n))
    return mid - h, mid + h


def _agresti_coull(n: int, x: int, alpha: float) -> tuple[float, float]:
    z = normal_quantile(1.0 - alpha / 2.0)
    z2 = z * z
    pt = (x + z2 / 2.0) / (n + z2)
    h = z * math.sqrt(pt * (1.0 - pt) / (n + z2))
    return pt - h, pt + h


def _add4(n: int, x: int, alpha: float) -> tuple[float, float]:
    z = normal_quantile(1.0 - alpha / 2.0)
    pt = (x + 2.0) / (n + 4.0)
    h = z * math.sqrt(pt * (1.0 - pt) / (n + 4.0))
    return pt - h, pt + h


def _mid_p(n: int, x: int, alpha: float) -> tuple[float, float]:
    lo = beta_quantile(alpha / 2.0, x + 0.5, n - x + 0.5)
    hi = beta_quantile(1.0 - alpha / 2.0, x + 0.5, n - x + 0.5)
    return lo, hi


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


def proportion_interval(kind: str, obs: BinomialObservation, alpha: float) -> ConfidenceInterval:
    """Interval for the success probability, endpoints clipped to [0, 1]."""
    if kind not in _FORMULAS:
        raise DomainError(f"kind must be one of {PROPORTION_ESTIMATORS}, got {kind!r}")
    _check_prob_open(alpha, "alpha")
    lo, hi = _FORMULAS[kind](obs.n, obs.x, alpha)
    return ConfidenceInterval(min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))


def _weighted_outcomes(kind: str, n: int, p: float, alpha: float, weights) -> tuple[float, float]:
    """Sums of ``w * [interval covers p]`` and ``w * length`` over x = 0..n.

    ``weights[x]`` weighs the outcome of x successes; outcomes of weight
    zero are skipped without issuing their interval.
    """
    cover = 0.0
    length = 0.0
    for x, w in enumerate(weights):
        if w == 0:
            continue
        ci = proportion_interval(kind, BinomialObservation(n, x), alpha)
        if ci.contains(p):
            cover += w
        length += w * ci.length
    return cover, length


def exact_performance(kind: str, n: int, p: float, alpha: float) -> IntervalPerformance:
    """Exact coverage and expected length under a Binomial(n, p) draw.

    Sums the binomial pmf over all outcomes x = 0..n, so the result is
    deterministic; intended as the reference for Monte Carlo runs.
    """
    if not (isinstance(n, int) and 1 <= n <= 10**4):
        raise DomainError(f"n must be an integer in [1, 10^4], got {n!r}")
    _check_prob_open(p)
    # imported here: scipy.stats costs more to import than the rest of the
    # package together, and nothing else uses it
    from scipy import stats

    pmf = stats.binom.pmf(np.arange(n + 1), n, p)
    coverage, length = _weighted_outcomes(kind, n, p, alpha, pmf)
    return IntervalPerformance(min(coverage, 1.0), length)
