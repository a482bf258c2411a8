"""Single-level bootstrap calibration of a nominal interval level.

The idea: when an interval built at level ``alpha`` undercovers, find a
smaller working level ``beta`` whose interval covers at the desired ``1 -
alpha`` rate, using one round of bootstrap resampling rather than a nested
search.  For each resample the studentized statistic ``t*_j = sqrt(n) *
(mean*_j - mean) / sd*_j`` yields ``lambda_j = 1 - Phi(|t*_j|)``; ``beta``
is the empirical alpha-quantile of the lambda values, floored at
``1 / (2B)`` so a working level of exactly zero can never be issued.

Calibration is skipped, leaving ``beta = alpha``, when the caller supplies
an empirical coverage estimate already within ``skip_delta`` of nominal;
recalibrating an estimator that is on target only adds noise.

This module holds only the level rule.  The harness issues intervals at
the calibrated level, both in the calibration study and through
:func:`ciindex.harness.calibrated_interval`.  It takes the bootstrap
estimators' resample means from the same seed as the level, so calibrated
and uncalibrated intervals differ only through the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
from .mean_intervals import _order_statistic
from .sampling import SeedSpec, bootstrap_resamples
from .special import normal_cdf_array

__all__ = [
    "CalibrationResult",
    "calibrate_level",
]

DEFAULT_SKIP_DELTA = 0.005


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated level ``beta``, the lambda statistics, and the skip flag.

    ``lambdas`` is empty when the skip rule fired (no resampling was
    done); otherwise it holds the B values ``1 - Phi(|t*_j|)``, each in
    [0, 0.5].
    """

    beta: float
    lambdas: tuple[float, ...]
    skipped: bool

    def __post_init__(self) -> None:
        if not (isinstance(self.beta, (int, float)) and 0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
        if self.skipped and self.lambdas:
            raise DomainError("a skipped calibration carries no lambda values")


def _checked_sample(sample, alpha: float, B: int, skip_delta: float) -> np.ndarray:
    values = np.asarray(sample, dtype=float)
    if values.ndim != 1:
        raise DomainError("sample must be one-dimensional")
    if values.size < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {values.size}")
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (isinstance(B, int) and B >= 2):
        raise DomainError(f"B must be an integer >= 2, got {B!r}")
    if not (isinstance(skip_delta, (int, float)) and skip_delta >= 0.0):
        raise DomainError(f"skip_delta must be >= 0, got {skip_delta!r}")
    return values


def _lambdas(values: np.ndarray, means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    # zero-sd resamples mean t is infinite, so their lambda is 0
    out = np.zeros(means.size)
    ok = sds > 0.0
    t = math.sqrt(values.size) * (means[ok] - values.mean()) / sds[ok]
    out[ok] = 1.0 - normal_cdf_array(np.abs(t))
    return out


def _beta_from_lambdas(lambdas: np.ndarray, alpha: float) -> float:
    return max(_order_statistic(np.sort(lambdas), alpha), 1.0 / (2.0 * lambdas.size))


def calibrate_level(
    sample,
    alpha: float,
    B: int,
    seed: SeedSpec,
    *,
    empirical_coverage: float | None = None,
    skip_delta: float = DEFAULT_SKIP_DELTA,
) -> CalibrationResult:
    """Calibrated working level for a mean interval on ``sample``.

    When ``empirical_coverage`` is given and already within ``skip_delta``
    of ``1 - alpha``, returns ``beta = alpha`` with ``skipped=True`` and
    does no resampling.  Otherwise draws B resamples from ``seed`` and
    applies the lambda-quantile rule: ``beta`` is the ``ceil(alpha * B)``
    order statistic of the lambdas, floored at ``1/(2B)``, hence always in
    ``[1/(2B), 0.5]``.
    """
    values = _checked_sample(sample, alpha, B, skip_delta)
    if empirical_coverage is not None:
        if not 0.0 <= empirical_coverage <= 1.0:
            raise DomainError(f"empirical_coverage must lie in [0, 1], got {empirical_coverage!r}")
        if abs(empirical_coverage - (1.0 - alpha)) <= skip_delta:
            return CalibrationResult(beta=alpha, lambdas=(), skipped=True)
    boot = bootstrap_resamples(values, B, seed)
    lam = _lambdas(values, boot.mean(axis=1), boot.std(axis=1, ddof=1))
    return CalibrationResult(
        beta=_beta_from_lambdas(lam, alpha),
        lambdas=tuple(float(v) for v in lam),
        skipped=False,
    )
