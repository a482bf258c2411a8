"""Single-level bootstrap calibration of a nominal interval level.

The idea: when an interval built at level ``alpha`` undercovers, find a
smaller working level ``beta`` whose interval covers at the desired ``1 -
alpha`` rate, using one round of bootstrap resampling rather than a nested
search.  For each resample the studentized statistic ``t*_j = sqrt(n) *
(mean*_j - mean) / sd*_j`` yields ``lambda_j = 1 - Phi(|t*_j|)``; ``beta``
is the empirical alpha-quantile of the lambda values, floored at
``1 / (2B)`` so a working level of exactly zero can never be issued.

The rule is evaluated in order-statistic form: lambda falls as ``|t*|``
grows, so the ``ceil(alpha * B)``-th smallest lambda is the lambda at the
``ceil(alpha * B)``-th largest ``|t*|``, and a sample needs one partial
sort and one evaluation of the normal distribution function, not B.  A
zero-sd resample has ``|t*| = inf``, whose lambda is 0.  The rule is
stated once, for a block of samples: :func:`_lambdas` gives the ``(m,
B)`` values ``|t*|`` of ``(m, n)`` samples from their resample means and
standard deviations, and :func:`_beta_from_lambdas` the ``(m,)`` levels;
one sample is the one-row case and gives a float level.  The calibration
study calls both once per block of samples; :func:`calibrate_level` is
the single sample entry point and also reports all B lambdas.  It draws
its resample set as the one-sample bootstrap estimators draw theirs.

The rule needs three observations, whatever the estimator: at n = 2
every resample's ``|t*|`` is 0 or inf, so it could give only its floor.
The study and both one-sample entry points refuse a smaller sample, and
a resample sd that overflows the float range is a ``DomainError``.

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

from .mean_intervals import _finite_moments, _resample_set
from .sampling import SeedSpec
from .special import _check_prob_open, normal_cdf

__all__ = [
    "CalibrationResult",
    "calibrate_level",
]

_CALIBRATION_MIN_N = 3


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
    # |t*| of every resample, row by row: lambda = 1 - Phi(|t*|) falls as
    # |t*| grows, so these order the lambdas in reverse; a zero-sd
    # resample has an infinite t, whose lambda is 0
    _finite_moments(sds)
    scaled = math.sqrt(values.shape[-1]) * (means - values.mean(axis=-1, keepdims=True))
    t = np.divide(scaled, sds, out=np.full(means.shape, np.inf), where=sds > 0.0)
    return np.abs(t, out=t)


def _upper_tail(abs_t) -> np.ndarray:
    # lambda = 1 - Phi(|t*|) elementwise, 0 at |t*| = inf
    finite = np.isfinite(abs_t)
    return np.where(finite, 1.0 - normal_cdf(np.where(finite, abs_t, 0.0)), 0.0)


def _beta_from_lambdas(abs_t: np.ndarray, alpha: float) -> float | np.ndarray:
    # the ceil(alpha * B)-th smallest lambda of each row, which is lambda
    # at the ceil(alpha * B)-th largest |t*|, floored at 1/(2B)
    B = abs_t.shape[-1]
    k = B - min(max(math.ceil(alpha * B), 1), B)
    beta = np.maximum(_upper_tail(np.partition(abs_t, k, axis=-1)[..., k]), 1.0 / (2.0 * B))
    return float(beta) if beta.ndim == 0 else beta


def _resample_stats(sample, alpha: float, B: int, seed: SeedSpec):
    # one validated sample with the means and sds of its one resample set
    _check_prob_open(alpha, "alpha")
    return _resample_set(sample, _CALIBRATION_MIN_N, B, seed, with_sds=True)


def calibrate_level(sample, alpha: float, B: int, seed: SeedSpec) -> CalibrationResult:
    """Calibrated working level for a mean interval on ``sample``.

    Draws B resamples from ``seed`` and applies the lambda-quantile rule:
    ``beta`` is the ``ceil(alpha * B)`` order statistic of the lambdas,
    floored at ``1/(2B)``, hence always in ``[1/(2B), 0.5]``.  It is
    found in order-statistic form, as lambda at the ``ceil(alpha * B)``-th
    largest ``|t*|``, as in a calibration study.
    """
    abs_t = _lambdas(*_resample_stats(sample, alpha, B, seed))
    lambdas = tuple(_upper_tail(abs_t).tolist())
    return CalibrationResult(beta=_beta_from_lambdas(abs_t, alpha), lambdas=lambdas)
