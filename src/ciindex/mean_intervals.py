"""Four confidence-interval estimators for a population mean.

The catalog: the normal-theory (z) interval, a skewness-shifted t
interval, the bootstrap percentile interval, and the bias-corrected and
accelerated (BCa) bootstrap interval.  All four return a
:class:`ConfidenceInterval` and are pure functions of (sample, alpha) and,
for the bootstrap pair, of a :class:`~ciindex.sampling.SeedSpec`.

The two bootstrap estimators accept precomputed resample means through
the ``*_from_boot_means`` variants so a caller scoring both on one sample
can draw the resamples once and share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
from .sampling import SeedSpec, bootstrap_resamples
from .special import _check_prob_open, normal_cdf, normal_quantile, student_t_quantile

__all__ = [
    "ConfidenceInterval",
    "MEAN_ESTIMATORS",
    "bca_from_boot_means",
    "bca_interval",
    "bootstrap_mean_draws",
    "bootstrap_percentile_interval",
    "johnson_t_interval",
    "normal_theory_interval",
    "percentile_from_boot_means",
    "sample_skewness",
]

MEAN_ESTIMATORS = ("normal_theory", "johnson_t", "bootstrap_percentile", "bca")


@dataclass(frozen=True)
class ConfidenceInterval:
    """Closed interval [lower, upper] for a scalar parameter."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DomainError(f"interval endpoints must be finite, got ({self.lower!r}, {self.upper!r})")
        if self.lower > self.upper:
            raise DomainError(f"lower {self.lower!r} exceeds upper {self.upper!r}")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _as_sample(sample, min_n: int) -> np.ndarray:
    values = np.asarray(sample, dtype=float)
    if values.ndim != 1:
        raise DomainError("sample must be one-dimensional")
    if values.size < min_n:
        raise InsufficientDataError(f"need at least {min_n} observations, got {values.size}")
    return values


def sample_skewness(sample) -> float:
    """Moment skewness m3 / m2^(3/2) with 1/n central moments.

    Zero-variance samples return 0 so downstream shifts vanish.
    """
    values = _as_sample(sample, 1)
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return 0.0
    m3 = float(np.mean(centered**3))
    return m3 / m2**1.5


def normal_theory_interval(sample, alpha: float) -> ConfidenceInterval:
    """z interval: mean +/- z_{1-alpha/2} * s / sqrt(n).

    ``s`` is the unbiased (n-1 denominator) standard deviation.  A
    zero-variance sample yields the degenerate interval at the mean.
    """
    _check_prob_open(alpha, "alpha")
    values = _as_sample(sample, 2)
    n = values.size
    center = float(values.mean())
    half = normal_quantile(1.0 - alpha / 2.0) * float(values.std(ddof=1)) / math.sqrt(n)
    return ConfidenceInterval(center - half, center + half)


def johnson_t_interval(sample, alpha: float) -> ConfidenceInterval:
    """t interval with a skewness-dependent center shift.

    Center is ``mean + s * skew * (1 + 2 t^2) / (6 n)`` and half-width is
    ``t * s / sqrt(n)`` with ``t = t_{1-alpha/2, n-1}``; the shift scales
    with the sample spread so the interval is equivariant under affine
    changes of units, and it vanishes for symmetric samples, recovering
    the usual t interval.  Right-skewed data shift the interval right.
    """
    _check_prob_open(alpha, "alpha")
    values = _as_sample(sample, 3)
    n = values.size
    mean = float(values.mean())
    s = float(values.std(ddof=1))
    if s == 0.0:
        return ConfidenceInterval(mean, mean)
    t = student_t_quantile(1.0 - alpha / 2.0, n - 1)
    center = mean + s * sample_skewness(values) * (1.0 + 2.0 * t * t) / (6.0 * n)
    half = t * s / math.sqrt(n)
    return ConfidenceInterval(center - half, center + half)


def bootstrap_mean_draws(sample, B: int, seed: SeedSpec) -> np.ndarray:
    """Means of ``B`` with-replacement resamples, deterministic under ``seed``.

    The resamples come from :func:`~ciindex.sampling.bootstrap_resamples`,
    so the same seed always yields the same resample set regardless of
    caller.
    """
    values = _as_sample(sample, 1)
    if not (isinstance(B, int) and B >= 2):
        raise DomainError(f"B must be an integer >= 2, got {B!r}")
    return bootstrap_resamples(values, B, seed).mean(axis=1)


def _order_statistic(sorted_values: np.ndarray, p: float) -> float:
    # ceil(p * B) order statistic, 1-indexed, clamped into [1, B]
    B = sorted_values.size
    k = min(max(math.ceil(p * B), 1), B)
    return float(sorted_values[k - 1])


def percentile_from_boot_means(boot_means, alpha: float) -> ConfidenceInterval:
    """Percentile interval from precomputed bootstrap means."""
    _check_prob_open(alpha, "alpha")
    means = np.sort(np.asarray(boot_means, dtype=float))
    if means.size < 2:
        raise InsufficientDataError("need at least 2 bootstrap means")
    return ConfidenceInterval(
        _order_statistic(means, alpha / 2.0),
        _order_statistic(means, 1.0 - alpha / 2.0),
    )


def bootstrap_percentile_interval(sample, alpha: float, B: int, seed: SeedSpec) -> ConfidenceInterval:
    """(alpha/2, 1 - alpha/2) empirical quantiles of B bootstrap means."""
    values = _as_sample(sample, 2)
    return percentile_from_boot_means(bootstrap_mean_draws(values, B, seed), alpha)


def bca_from_boot_means(sample, boot_means, alpha: float) -> ConfidenceInterval:
    """BCa interval from precomputed bootstrap means of ``sample``.

    Bias correction: ``z0 = Phi^{-1}(#{mean* < mean}/B)``, with counts of
    0 and B nudged to 0.5 and B - 0.5 to keep z0 finite.  Acceleration
    ``a`` comes from the jackknife third-moment formula; a zero
    denominator falls back to a = 0, making the interval coincide with
    the percentile interval when additionally z0 = 0.
    """
    _check_prob_open(alpha, "alpha")
    values = _as_sample(sample, 3)
    means = np.sort(np.asarray(boot_means, dtype=float))
    B = means.size
    if B < 2:
        raise InsufficientDataError("need at least 2 bootstrap means")
    theta = float(values.mean())

    count = float(np.count_nonzero(means < theta))
    count = min(max(count, 0.5), B - 0.5)
    z0 = normal_quantile(count / B)

    # jackknife leave-one-out means via the identity (n*mean - x_i)/(n-1)
    n = values.size
    loo = (n * theta - values) / (n - 1.0)
    dev = loo.mean() - loo
    denom = float(np.sum(dev**2)) ** 1.5
    a = float(np.sum(dev**3)) / (6.0 * denom) if denom > 0.0 else 0.0

    z_lo = normal_quantile(alpha / 2.0)
    z_hi = normal_quantile(1.0 - alpha / 2.0)
    a1 = normal_cdf(z0 + (z0 + z_lo) / (1.0 - a * (z0 + z_lo)))
    a2 = normal_cdf(z0 + (z0 + z_hi) / (1.0 - a * (z0 + z_hi)))
    lo = _order_statistic(means, a1)
    hi = _order_statistic(means, a2)
    if lo > hi:
        lo, hi = hi, lo
    return ConfidenceInterval(lo, hi)


def bca_interval(sample, alpha: float, B: int, seed: SeedSpec) -> ConfidenceInterval:
    """BCa interval drawing its own B resamples from ``seed``."""
    values = _as_sample(sample, 3)
    return bca_from_boot_means(values, bootstrap_mean_draws(values, B, seed), alpha)
