"""Single-level bootstrap calibration of a nominal interval level.

The idea: when an interval built at level ``alpha`` undercovers, find a
smaller working level ``beta`` whose interval covers at the desired ``1 -
alpha`` rate, using one round of bootstrap resampling rather than a nested
search.  For each resample the studentized statistic ``t*_j = sqrt(n) *
(mean*_j - mean) / sd*_j`` yields ``lambda_j = 1 - Phi(|t*_j|)``; ``beta``
is the empirical alpha-quantile of the lambda values, floored at
``1 / (2B)`` so a working level of exactly zero can never be issued.

This module holds only the level rule.  The harness issues intervals at
the calibrated level, both in the calibration study and through
:func:`ciindex.harness.calibrated_interval`.  It takes the bootstrap
estimators' resample means from the same seed as the level, so calibrated
and uncalibrated intervals differ only through the level.  Leaving an
estimator uncalibrated when it already covers near nominal is a study
setting (``SimulationPlan.skip_delta``), applied by
:func:`ciindex.harness.run_calibration_study`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mean_intervals import _as_sample, _order_statistic
from .sampling import SeedSpec, bootstrap_resamples
from .special import _check_prob_open, normal_cdf_array

__all__ = [
    "CalibrationResult",
    "calibrate_level",
]


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated level ``beta`` and the lambda statistics it came from.

    ``lambdas`` holds the B values ``1 - Phi(|t*_j|)``, each in [0, 0.5].
    """

    beta: float
    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_prob_open(self.beta, "beta")


def _lambdas(values: np.ndarray, means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    # zero-sd resamples mean t is infinite, so their lambda is 0
    out = np.zeros(means.size)
    ok = sds > 0.0
    t = math.sqrt(values.size) * (means[ok] - values.mean()) / sds[ok]
    out[ok] = 1.0 - normal_cdf_array(np.abs(t))
    return out


def _beta_from_lambdas(lambdas: np.ndarray, alpha: float) -> float:
    return max(_order_statistic(np.sort(lambdas), alpha), 1.0 / (2.0 * lambdas.size))


def calibrate_level(sample, alpha: float, B: int, seed: SeedSpec) -> CalibrationResult:
    """Calibrated working level for a mean interval on ``sample``.

    Draws B resamples from ``seed`` and applies the lambda-quantile rule:
    ``beta`` is the ``ceil(alpha * B)`` order statistic of the lambdas,
    floored at ``1/(2B)``, hence always in ``[1/(2B), 0.5]``.
    """
    values = _as_sample(sample, 2)
    _check_prob_open(alpha, "alpha")
    if not (isinstance(B, int) and B >= 2):
        raise DomainError(f"B must be an integer >= 2, got {B!r}")
    boot = bootstrap_resamples(values, B, seed)
    lam = _lambdas(values, boot.mean(axis=1), boot.std(axis=1, ddof=1))
    return CalibrationResult(
        beta=_beta_from_lambdas(lam, alpha),
        lambdas=tuple(float(v) for v in lam),
    )
