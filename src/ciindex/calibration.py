"""Single-level bootstrap calibration of a nominal interval level.

The idea: when an interval built at level ``alpha`` undercovers, find a
smaller working level ``beta`` whose interval covers at the desired ``1 -
alpha`` rate, using one round of bootstrap resampling rather than a nested
search.  For each resample the studentized statistic ``t*_j = sqrt(n) *
(mean*_j - mean) / sd*_j`` yields ``lambda_j = 1 - Phi(|t*_j|)``; ``beta``
is the empirical alpha-quantile of the lambda values, floored at
``1 / (2B)`` so a working level of exactly zero can never be issued.

The rule is stated once, for a block of samples: :func:`_lambdas` takes
the ``(m, n)`` samples with their ``(m, B)`` resample means and standard
deviations and gives the ``(m, B)`` lambdas, and :func:`_beta_from_lambdas`
gives the ``(m,)`` levels; one sample, with ``(B,)`` resample statistics,
is the one-row case and gives a float level.  The calibration study calls
both once per block of samples; :func:`calibrate_level` is the single
sample entry point.

This module holds only the level rule.  The harness issues intervals at
the calibrated level, both in the calibration study and through
:func:`ciindex.harness.calibrated_interval`.  It takes the bootstrap
estimators' resample means from the same resample set as the level, so
calibrated and uncalibrated intervals differ only through the level.
Leaving an estimator uncalibrated when it already covers near nominal is
a study setting (``SimulationPlan.skip_delta``), applied by
:func:`ciindex.harness.run_calibration_study`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mean_intervals import _as_sample, _order_statistic
from .sampling import SeedSpec, bootstrap_resamples
from .special import _check_prob_open, normal_cdf

__all__ = [
    "CalibrationResult",
    "calibrate_level",
]


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated level ``beta`` of one sample and the lambdas it came from.

    ``lambdas`` holds the B values ``1 - Phi(|t*_j|)``, each in [0, 0.5].
    A calibration study computes the same values for a block of samples
    at once and keeps only the levels.
    """

    beta: float
    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_prob_open(self.beta, "beta")


def _lambdas(values: np.ndarray, means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    # one lambda per resample, row by row; zero-sd resamples mean t is
    # infinite, so their lambda is 0
    out = np.zeros(means.shape)
    ok = sds > 0.0
    center = np.broadcast_to(values.mean(axis=-1, keepdims=True), means.shape)
    t = math.sqrt(values.shape[-1]) * (means[ok] - center[ok]) / sds[ok]
    out[ok] = 1.0 - normal_cdf(np.abs(t))
    return out


def _beta_from_lambdas(lambdas: np.ndarray, alpha: float) -> float | np.ndarray:
    # the ceil(alpha * B) order statistic of each row, floored at 1/(2B)
    beta = np.maximum(_order_statistic(np.sort(lambdas, axis=-1), alpha), 1.0 / (2.0 * lambdas.shape[-1]))
    return float(beta) if beta.ndim == 0 else beta


def _resample_stats(sample, alpha: float, B: int, seed: SeedSpec):
    # one validated sample with the means and sds of its one resample set
    values = _as_sample(sample, 2)
    _check_prob_open(alpha, "alpha")
    if not (isinstance(B, int) and B >= 2):
        raise DomainError(f"B must be an integer >= 2, got {B!r}")
    boot = bootstrap_resamples(values, B, seed)
    return values, boot.mean(axis=1), boot.std(axis=1, ddof=1)


def calibrate_level(sample, alpha: float, B: int, seed: SeedSpec) -> CalibrationResult:
    """Calibrated working level for a mean interval on ``sample``.

    Draws B resamples from ``seed`` and applies the lambda-quantile rule:
    ``beta`` is the ``ceil(alpha * B)`` order statistic of the lambdas,
    floored at ``1/(2B)``, hence always in ``[1/(2B), 0.5]``.
    """
    lam = _lambdas(*_resample_stats(sample, alpha, B, seed))
    return CalibrationResult(beta=_beta_from_lambdas(lam, alpha), lambdas=tuple(lam.tolist()))
