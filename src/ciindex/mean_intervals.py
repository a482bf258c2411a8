"""Four confidence-interval estimators for a population mean.

The catalog: the normal-theory (z) interval, a skewness-shifted t
interval, the bootstrap percentile interval, and the bias-corrected and
accelerated (BCa) bootstrap interval.  All four return a
:class:`ConfidenceInterval` and are pure functions of (sample, alpha) and,
for the bootstrap pair, of a :class:`~ciindex.sampling.SeedSpec`.

Each estimator takes one sample, shape ``(n,)``, or a block of samples,
shape ``(m, n)`` with one sample per row.  ``alpha`` is one level, one
level per row, shape ``(m,)``, or k of those along a leading level axis,
shape ``(k, m)`` (``(k,)`` for one sample).  A block gives a
:class:`ConfidenceInterval` with ``(m,)`` or ``(k, m)`` endpoint arrays
whose entry for level j of row i equals, bit for bit, the interval of row
i on its own at that level.  The level-free work (mean, sd, skewness, the
sorted resample means, BCa's bias correction and acceleration) is one
record, each field computed on its first read and so once for all k
levels.  The simulation harness passes one record per block of samples
to all four estimators through their private ``_stats`` keyword, so each
statistic runs once per block.  One sample at one level gives float
endpoints.

The two bootstrap estimators accept precomputed resample means, shape
``(B,)`` or ``(m, B)``, through the ``*_from_boot_means`` variants so a
caller scoring both on one sample can draw the resamples once and share
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InsufficientDataError
from .sampling import SeedSpec, bootstrap_resamples
from .special import _check_prob_open, _upper_level, normal_cdf, normal_quantile, student_t_quantile

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
    """Closed interval [lower, upper] for a scalar parameter.

    For a block of samples the endpoints are ``(m,)`` arrays, one interval
    per row, or ``(k, m)`` arrays for k levels; :attr:`length` and
    :meth:`contains` then work elementwise.
    """

    lower: float | np.ndarray
    upper: float | np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.lower, (float, int)):
            finite = math.isfinite(self.lower) and math.isfinite(self.upper)
            ordered = self.lower <= self.upper
        else:
            finite = bool(np.isfinite(self.lower).all() and np.isfinite(self.upper).all())
            ordered = not (self.lower > self.upper).any()
        if not finite:
            raise DomainError(f"interval endpoints must be finite, got ({self.lower!r}, {self.upper!r})")
        if not ordered:
            raise DomainError(f"lower {self.lower!r} exceeds upper {self.upper!r}")

    @property
    def length(self) -> float | np.ndarray:
        return self.upper - self.lower

    def contains(self, value: float) -> bool | np.ndarray:
        return (self.lower <= value) & (value <= self.upper)


def _interval(lower, upper) -> ConfidenceInterval:
    # one sample's endpoints come back as floats, a block's as arrays
    if np.ndim(lower) == 0:
        return ConfidenceInterval(float(lower), float(upper))
    return ConfidenceInterval(lower, upper)


def _as_block(sample, min_n: int) -> np.ndarray:
    values = np.asarray(sample, dtype=float)
    if values.ndim not in (1, 2):
        raise DomainError("sample must be one sample (n,) or a block of samples (m, n)")
    if values.shape[-1] < min_n:
        raise InsufficientDataError(f"need at least {min_n} observations, got {values.shape[-1]}")
    return values


def _as_sample(sample, min_n: int) -> np.ndarray:
    values = _as_block(sample, min_n)
    if values.ndim != 1:
        raise DomainError("sample must be one-dimensional")
    return values


def _as_means(boot_means) -> np.ndarray:
    means = np.asarray(boot_means, dtype=float)
    if means.ndim not in (1, 2):
        raise DomainError("bootstrap means must have shape (B,) or (m, B)")
    if means.shape[-1] < 2:
        raise InsufficientDataError("need at least 2 bootstrap means")
    return means


def _check_levels(alpha, block: np.ndarray) -> None:
    # one level for every row, an array of one level per row, or a stack
    # of those along one leading level axis
    rows = block.shape[:-1]
    if isinstance(alpha, np.ndarray) and alpha.ndim and (
        alpha.ndim > len(rows) + 1 or alpha.shape[alpha.ndim - len(rows):] != rows
    ):
        raise DomainError(f"alpha must be one level, one per row or (levels, rows), got shape {alpha.shape}")
    _check_prob_open(alpha, "alpha")


def _pow_1_5(x) -> np.ndarray:
    # x ** 1.5 through the C library pow, one element at a time, as the
    # float arithmetic of one sample does; numpy's vector pow (SVML on
    # AVX-512 hosts) can differ from it in the last bit
    return np.array([v**1.5 for v in np.ravel(x).tolist()]).reshape(np.shape(x))


class _BlockStats:
    """Level-free statistics of validated samples and their resample means.

    Each field is computed on its first read, with the numpy calls of the
    one-sample formulas, and kept.  Either input may be None if unread.
    """

    def __init__(self, values: np.ndarray, boot_means: np.ndarray | None = None) -> None:
        self.values, self.boot_means = values, boot_means

    @cached_property
    def mean(self):
        return self.values.mean(axis=-1)

    @cached_property
    def sd(self):
        return self.values.std(axis=-1, ddof=1)

    @cached_property
    def skew(self) -> np.ndarray:
        centered = self.values - self.mean[..., None]
        m2 = np.asarray(np.mean(centered**2, axis=-1))
        m3 = np.mean(centered**3, axis=-1)
        return np.divide(m3, _pow_1_5(m2), out=np.zeros(m2.shape), where=m2 != 0.0)

    @cached_property
    def sorted_means(self) -> np.ndarray:
        # a sorted copy: the caller's resample means keep their order
        return np.sort(self.boot_means, axis=-1)

    @cached_property
    def z0(self):
        B = self.boot_means.shape[-1]
        count = np.count_nonzero(self.boot_means < self.mean[..., None], axis=-1)
        return normal_quantile(np.clip(count, 0.5, B - 0.5) / B)

    @cached_property
    def accel(self) -> np.ndarray:
        # jackknife leave-one-out means via the identity (n*mean - x_i)/(n-1)
        n = self.values.shape[-1]
        loo = (n * self.mean[..., None] - self.values) / (n - 1.0)
        dev = loo.mean(axis=-1, keepdims=True) - loo
        denom = _pow_1_5(np.sum(dev**2, axis=-1))
        return np.divide(np.sum(dev**3, axis=-1), 6.0 * denom, out=np.zeros(denom.shape), where=denom > 0.0)


def sample_skewness(sample) -> float | np.ndarray:
    """Moment skewness m3 / m2^(3/2) with 1/n central moments.

    A block gives one value per row.  Zero-variance samples return 0 so
    downstream shifts vanish.
    """
    skew = _BlockStats(_as_block(sample, 1)).skew
    return float(skew) if skew.ndim == 0 else skew


def normal_theory_interval(sample, alpha: float | np.ndarray, *, _stats=None) -> ConfidenceInterval:
    """z interval: mean +/- z_{1-alpha/2} * s / sqrt(n), per sample and level.

    ``s`` is the unbiased (n-1 denominator) standard deviation.  A
    zero-variance sample yields the degenerate interval at the mean.
    """
    values = _as_block(sample, 2)
    _check_levels(alpha, values)
    s = _stats or _BlockStats(values)
    half = normal_quantile(_upper_level(alpha)) * s.sd / math.sqrt(values.shape[-1])
    return _interval(s.mean - half, s.mean + half)


def johnson_t_interval(sample, alpha: float | np.ndarray, *, _stats=None) -> ConfidenceInterval:
    """t interval with a skewness-dependent center shift, per sample.

    Center is ``mean + s * skew * (1 + 2 t^2) / (6 n)`` and half-width is
    ``t * s / sqrt(n)`` with ``t = t_{1-alpha/2, n-1}``; the shift scales
    with the sample spread so the interval is equivariant under affine
    changes of units, and it vanishes for symmetric samples, recovering
    the usual t interval.  Right-skewed data shift the interval right.  A
    zero-variance sample has zero skewness and zero half-width, so it
    yields the degenerate interval at the mean.
    """
    values = _as_block(sample, 3)
    _check_levels(alpha, values)
    s = _stats or _BlockStats(values)
    n = values.shape[-1]
    # stdtrit is elementwise, so one evaluation per distinct level gives
    # the bits of one per entry: a (2, m) stack costs m + 1, not 2m
    levels, at = np.unique(np.ravel(_upper_level(alpha)), return_inverse=True)
    t = student_t_quantile(levels, n - 1)[at].reshape(np.shape(alpha))
    center = s.mean + s.sd * s.skew * (1.0 + 2.0 * t * t) / (6.0 * n)
    half = t * s.sd / math.sqrt(n)
    return _interval(center - half, center + half)


def bootstrap_mean_draws(sample, B: int, seed: SeedSpec) -> np.ndarray:
    """Means of ``B`` with-replacement resamples, deterministic under ``seed``.

    The resamples come from :func:`~ciindex.sampling.bootstrap_resamples`,
    so the same seed always yields the same resample set regardless of
    caller.
    """
    return bootstrap_resamples(_as_sample(sample, 1), B, seed).mean(axis=1)


def _order_statistic(sorted_values: np.ndarray, p) -> np.ndarray:
    # ceil(p * B) order statistic of each row, 1-indexed, clamped into
    # [1, B]; p is one probability, one per row or (levels, rows), and the
    # sorted rows are broadcast against it without a copy
    B = sorted_values.shape[-1]
    k = np.clip(np.ceil(np.multiply(p, B)), 1, B).astype(np.intp)
    shape = np.broadcast_shapes(k.shape, sorted_values.shape[:-1])
    rows = np.broadcast_to(sorted_values, shape + (B,))
    return np.take_along_axis(rows, np.broadcast_to(k, shape)[..., None] - 1, axis=-1)[..., 0]


def percentile_from_boot_means(boot_means, alpha: float | np.ndarray, *, _stats=None) -> ConfidenceInterval:
    """Percentile interval from precomputed bootstrap means, per row."""
    means = _as_means(boot_means)
    _check_levels(alpha, means)
    ordered = (_stats or _BlockStats(None, means)).sorted_means
    return _interval(
        _order_statistic(ordered, alpha / 2.0),
        _order_statistic(ordered, 1.0 - alpha / 2.0),
    )


def bootstrap_percentile_interval(sample, alpha: float, B: int, seed: SeedSpec) -> ConfidenceInterval:
    """(alpha/2, 1 - alpha/2) empirical quantiles of B bootstrap means."""
    values = _as_sample(sample, 2)
    return percentile_from_boot_means(bootstrap_mean_draws(values, B, seed), alpha)


def bca_from_boot_means(sample, boot_means, alpha: float | np.ndarray, *, _stats=None) -> ConfidenceInterval:
    """BCa interval from precomputed bootstrap means of ``sample``.

    For a block, row i of ``boot_means`` holds the resample means of row
    i of ``sample``.  Bias correction: ``z0 = Phi^{-1}(#{mean* <
    mean}/B)``, with counts of 0 and B nudged to 0.5 and B - 0.5 to keep
    z0 finite.  Acceleration ``a`` comes from the jackknife third-moment
    formula; a zero denominator falls back to a = 0, making the interval
    coincide with the percentile interval when additionally z0 = 0.
    """
    values, means = _as_block(sample, 3), _as_means(boot_means)
    if means.shape[:-1] != values.shape[:-1]:
        raise DomainError("need one row of bootstrap means per sample")
    _check_levels(alpha, values)
    s = _stats or _BlockStats(values, means)
    z0, a = s.z0, s.accel
    z_hi = normal_quantile(_upper_level(alpha))
    z_lo = normal_quantile(alpha / 2.0)
    a1 = normal_cdf(z0 + (z0 + z_lo) / (1.0 - a * (z0 + z_lo)))
    a2 = normal_cdf(z0 + (z0 + z_hi) / (1.0 - a * (z0 + z_hi)))
    lo = _order_statistic(s.sorted_means, a1)
    hi = _order_statistic(s.sorted_means, a2)
    return _interval(np.minimum(lo, hi), np.maximum(lo, hi))


def bca_interval(sample, alpha: float, B: int, seed: SeedSpec) -> ConfidenceInterval:
    """BCa interval drawing its own B resamples from ``seed``."""
    values = _as_sample(sample, 3)
    return bca_from_boot_means(values, bootstrap_mean_draws(values, B, seed), alpha)
