"""Monte Carlo engine scoring interval estimators with the index.

Two study shapes:

* mean study: per replication, draw N samples of size n, build one
  interval per sample per estimator, and record the fraction covering the
  true mean plus the average length; repeat R times and summarize the R
  index values.  Bootstrap estimators draw their B resamples once per
  sample and share them (percentile and BCa see the same resample set, as
  does calibration).  A calibration study is the same single pass: each
  sample's resample set also gives its calibrated level beta, and every
  estimator is issued at both alpha and beta.  The study-level skip rule
  is applied afterwards to the results already in hand.
* proportion study: draw R binomial counts, build one interval per
  estimator per distinct count, and report a single coverage/length/index
  triple per estimator, exactly comparable to the pmf-weighted oracle.

Randomness is organized as one stream per task: stream (1, r) generates
replication r's data block, stream (2, r, i) the resamples for sample i
of replication r, and stream (3,) the proportion draws.  Because streams
are derived from (master_seed, path) alone, results are bit-identical for
any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calibration import _beta_from_lambdas, _lambdas, _resample_stats
from .errors import ConfigError, DomainError, InsufficientDataError
from .index import IndexConfig, IntervalPerformance, compute_index, compute_index_array
from .mean_intervals import (
    MEAN_ESTIMATORS,
    ConfidenceInterval,
    bca_from_boot_means,
    johnson_t_interval,
    normal_theory_interval,
    percentile_from_boot_means,
)
from .proportion_intervals import (  # noqa: F401 - proportion_interval stays importable here
    PROPORTION_ESTIMATORS,
    _weighted_outcomes,
    proportion_interval,
)
from .sampling import DataModel, SeedSpec, _draw, bootstrap_resamples, true_parameter

__all__ = [
    "DESK_SCALE",
    "PAPER_SCALE",
    "CalibrationComparison",
    "IndexSummary",
    "ReplicationResult",
    "SimulationPlan",
    "calibrated_interval",
    "run_calibration_study",
    "run_mean_study",
    "run_proportion_study",
    "summarize_index",
]

DEFAULT_SKIP_DELTA = 0.005
DESK_SCALE = {"R": 50, "N": 500, "B": 200}
PAPER_SCALE = {"R": 5000, "N": 1000, "B": 1000}

_BOOTSTRAP_KINDS = ("bootstrap_percentile", "bca")
# samples per block in a replication: the estimators and the level rule
# run once per block, the resample draw once per sample
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class SimulationPlan:
    """Everything one study needs: model, sizes, estimators, seed, level."""

    model: DataModel
    n: int
    N: int
    B: int
    R: int
    alpha: float
    estimators: tuple[str, ...]
    master_seed: int
    skip_delta: float = DEFAULT_SKIP_DELTA
    loss: str = "absolute"
    rescaled: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimators", tuple(self.estimators))
        try:
            IndexConfig(self.alpha, self.loss, self.rescaled)
            SeedSpec(self.master_seed)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        for name, value in (("n", self.n), ("N", self.N), ("B", self.B), ("R", self.R)):
            if not (isinstance(value, int) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not self.estimators:
            raise ConfigError("estimators must be nonempty")
        if not (isinstance(self.skip_delta, (int, float)) and self.skip_delta >= 0.0):
            raise ConfigError(f"skip_delta must be >= 0, got {self.skip_delta!r}")
        allowed = PROPORTION_ESTIMATORS if self.model.kind == "binomial" else MEAN_ESTIMATORS
        unknown = [e for e in self.estimators if e not in allowed]
        if unknown:
            raise ConfigError(f"estimators {unknown!r} not valid for a {self.model.kind} model")
        if self.model.kind == "binomial":
            if self.n != self.model.n_trials:
                raise ConfigError(
                    f"plan n ({self.n}) must equal the binomial model's n_trials "
                    f"({self.model.n_trials})"
                )
        else:
            if any(e in _BOOTSTRAP_KINDS for e in self.estimators) and self.B < 2:
                raise ConfigError("bootstrap estimators require B >= 2")
            min_n = 3 if {"johnson_t", "bca"} & set(self.estimators) else 2
            if self.n < min_n:
                raise ConfigError(f"n must be at least {min_n} for these estimators")

    @property
    def index_config(self) -> IndexConfig:
        return IndexConfig(self.alpha, self.loss, self.rescaled)


@dataclass(frozen=True)
class ReplicationResult:
    """One replication's (or one proportion run's) scored performance."""

    estimator: str
    coverage: float
    mean_length: float
    index: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise DomainError(f"coverage must lie in [0, 1], got {self.coverage!r}")
        if not (math.isfinite(self.mean_length) and self.mean_length >= 0.0):
            raise DomainError(f"mean_length must be finite and >= 0, got {self.mean_length!r}")
        if not math.isfinite(self.index):
            raise DomainError(f"index must be finite, got {self.index!r}")


@dataclass(frozen=True)
class IndexSummary:
    """Mean, shape, and spread of a set of index values.

    ``skewness`` and ``kurtosis`` (excess, so a normal law scores 0) are
    NaN when undefined, e.g. for zero-variance inputs.
    """

    mean: float
    skewness: float
    kurtosis: float
    st_dev: float

    def __post_init__(self) -> None:
        if math.isfinite(self.st_dev) and self.st_dev < 0.0:
            raise DomainError(f"st_dev must be >= 0, got {self.st_dev!r}")


@dataclass(frozen=True)
class CalibrationComparison:
    """Uncalibrated and calibrated study results for one estimator.

    ``skipped`` records whether the study-level skip rule fired (the
    estimator's empirical coverage was already within ``skip_delta`` of
    nominal), in which case the calibrated results are the uncalibrated
    ones unchanged and ``mean_beta`` is NaN.  Both sides come from one
    pass: each sample's single resample set feeds the bootstrap
    estimators at alpha and at the sample's beta, and the beta itself.
    """

    estimator: str
    uncalibrated: tuple[list[ReplicationResult], IndexSummary]
    calibrated: tuple[list[ReplicationResult], IndexSummary]
    skipped: bool
    empirical_coverage: float
    mean_beta: float


def summarize_index(values) -> IndexSummary:
    """Mean, sample st.dev, moment skewness, excess kurtosis.

    Central moments use the 1/n convention; the standard deviation uses
    the n-1 denominator.  Zero-variance inputs get NaN shape statistics.
    """
    data = np.asarray(values, dtype=float)
    if data.ndim != 1 or data.size < 3:
        raise InsufficientDataError("need at least 3 values to summarize")
    mean = float(data.mean())
    centered = data - mean
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return IndexSummary(mean=mean, skewness=math.nan, kurtosis=math.nan, st_dev=0.0)
    g1 = float(np.mean(centered**3)) / m2**1.5
    g2 = float(np.mean(centered**4)) / m2**2 - 3.0
    return IndexSummary(mean=mean, skewness=g1, kurtosis=g2, st_dev=float(data.std(ddof=1)))


def _summary_for_study(values) -> IndexSummary:
    # R < 3 studies still need a summary object; shape stats are undefined
    data = np.asarray(values, dtype=float)
    if data.size >= 3:
        return summarize_index(data)
    sd = float(data.std(ddof=1)) if data.size == 2 else math.nan
    return IndexSummary(mean=float(data.mean()), skewness=math.nan, kurtosis=math.nan, st_dev=sd)


def _issue_interval(kind: str, values: np.ndarray, alpha: float, boot_means):
    if kind == "normal_theory":
        return normal_theory_interval(values, alpha)
    if kind == "johnson_t":
        return johnson_t_interval(values, alpha)
    if kind == "bootstrap_percentile":
        return percentile_from_boot_means(boot_means, alpha)
    return bca_from_boot_means(values, boot_means, alpha)


def calibrated_interval(
    kind: str,
    sample,
    alpha: float,
    B: int,
    seed: SeedSpec,
) -> ConfidenceInterval:
    """``kind``'s interval at the level :func:`calibrate_level` gives.

    The level is always calibrated: the skip rule is a study setting,
    applied only by :func:`run_calibration_study`.  The sample's one
    resample set from ``seed`` gives both the level and the bootstrap
    estimators' resample means, so the only change is the working level.
    """
    if kind not in MEAN_ESTIMATORS:
        raise DomainError(f"kind must be one of {MEAN_ESTIMATORS}, got {kind!r}")
    values, means, sds = _resample_stats(sample, alpha, B, seed)
    beta = _beta_from_lambdas(_lambdas(values, means, sds), alpha)
    return _issue_interval(kind, values, beta, means)


def _replication(
    plan: SimulationPlan, calibrate: bool, r: int
) -> tuple[dict[str, tuple[float, float]], dict[str, tuple[float, float]], float]:
    """Coverage and mean length per estimator for replication ``r``.

    Returns the results at alpha, the results at each sample's calibrated
    beta, and the mean beta; without ``calibrate`` the last two are empty
    and NaN.  Each sample's (2, r, i) resample set is drawn once and
    serves the bootstrap estimators at both levels as well as the beta,
    which is shared by every estimator.

    Only the per-stream work runs sample by sample: the resample draw and
    its row of means (and of standard deviations when calibrating).  The
    levels, the intervals and the tallies run once per block of
    ``_BLOCK_ROWS`` samples.  Lengths and levels are summed in sample
    order (``cumsum``), as a running total would, so every result is the
    same to the last bit whatever the block size.
    """
    seed = SeedSpec(plan.master_seed)
    matrix = _draw(plan.model, (plan.N, plan.n), seed.child(1, r))
    theta = true_parameter(plan.model)
    needs_boot = calibrate or any(e in _BOOTSTRAP_KINDS for e in plan.estimators)
    n_levels = 2 if calibrate else 1

    covers = np.zeros((n_levels, len(plan.estimators)), dtype=np.int64)
    lengths = np.empty((n_levels, len(plan.estimators), plan.N))
    betas = np.empty(plan.N)
    means = np.empty((_BLOCK_ROWS, plan.B))
    sds = np.empty((_BLOCK_ROWS, plan.B))
    for start in range(0, plan.N, _BLOCK_ROWS):
        rows = matrix[start:start + _BLOCK_ROWS]
        m = rows.shape[0]
        if needs_boot:
            for j in range(m):
                boot = bootstrap_resamples(rows[j], plan.B, seed.child(2, r, start + j))
                means[j] = boot.mean(axis=1)
                if calibrate:
                    sds[j] = boot.std(axis=1, ddof=1)
        levels = [plan.alpha]
        if calibrate:
            beta = _beta_from_lambdas(_lambdas(rows, means[:m], sds[:m]), plan.alpha)
            betas[start:start + m] = beta
            levels.append(beta)
        for k, level in enumerate(levels):
            for j, e in enumerate(plan.estimators):
                ci = _issue_interval(e, rows, level, means[:m])
                covers[k, j] += np.count_nonzero(ci.contains(theta))
                lengths[k, j, start:start + m] = ci.length

    per_level = [
        {
            e: (int(covers[k, j]) / plan.N, float(np.cumsum(lengths[k, j])[-1]) / plan.N)
            for j, e in enumerate(plan.estimators)
        }
        for k in range(n_levels)
    ]
    if calibrate:
        return per_level[0], per_level[1], float(np.cumsum(betas)[-1]) / plan.N
    return per_level[0], {}, math.nan


def _map_replications(fn, R: int, n_workers: int) -> list:
    if n_workers <= 1:
        return [fn(r) for r in range(R)]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, range(R)))


def _collect(
    plan: SimulationPlan, raw: list[dict[str, tuple[float, float]]], estimators
) -> dict[str, tuple[list[ReplicationResult], IndexSummary]]:
    # one compute_index_array call per estimator scores its R pairs with
    # the bits compute_index gives each pair
    out = {}
    for e in estimators:
        coverage = [rep[e][0] for rep in raw]
        length = [rep[e][1] for rep in raw]
        index = compute_index_array(coverage, length, plan.index_config)
        results = [
            ReplicationResult(e, c, ell, i) for c, ell, i in zip(coverage, length, index.tolist())
        ]
        out[e] = (results, _summary_for_study(index))
    return out


def run_mean_study(
    plan: SimulationPlan, *, n_workers: int = 1
) -> dict[str, tuple[list[ReplicationResult], IndexSummary]]:
    """Score the plan's mean-interval estimators over R replications.

    Returns, per estimator, the R replication results and the summary of
    their R index values, all at the plan's alpha.  Calibrated intervals
    come only from :func:`run_calibration_study`.
    """
    if plan.model.kind not in ("normal", "lognormal"):
        raise ConfigError("run_mean_study requires a normal or lognormal model")
    raw = _map_replications(partial(_replication, plan, False), plan.R, n_workers)
    return _collect(plan, [at_alpha for at_alpha, _, _ in raw], plan.estimators)


def run_calibration_study(
    plan: SimulationPlan, *, n_workers: int = 1
) -> dict[str, CalibrationComparison]:
    """Uncalibrated-versus-calibrated comparison for every estimator.

    One pass over the streams issues every estimator at alpha and at each
    sample's calibrated beta.  The skip rule is then applied per estimator
    at study level: estimators whose empirical coverage is within
    ``plan.skip_delta`` of nominal keep their uncalibrated results, and
    their calibrated ones are dropped; the rest report the results at beta.
    """
    if plan.model.kind not in ("normal", "lognormal"):
        raise ConfigError("run_calibration_study requires a normal or lognormal model")
    if plan.B < 2 or plan.n < 3:
        raise ConfigError("calibration requires B >= 2 and n >= 3")
    raw = _map_replications(partial(_replication, plan, True), plan.R, n_workers)
    uncal = _collect(plan, [at_alpha for at_alpha, _, _ in raw], plan.estimators)

    coverage = {
        e: float(np.mean([res.coverage for res in uncal[e][0]])) for e in plan.estimators
    }
    to_calibrate = tuple(
        e for e in plan.estimators
        if abs(coverage[e] - (1.0 - plan.alpha)) > plan.skip_delta
    )
    cal = _collect(plan, [at_beta for _, at_beta, _ in raw], to_calibrate)
    mean_beta = float(np.mean([beta for _, _, beta in raw]))

    return {
        e: CalibrationComparison(
            estimator=e,
            uncalibrated=uncal[e],
            calibrated=cal.get(e, uncal[e]),
            skipped=e not in cal,
            empirical_coverage=coverage[e],
            mean_beta=mean_beta if e in cal else math.nan,
        )
        for e in plan.estimators
    }


def run_proportion_study(plan: SimulationPlan) -> dict[str, ReplicationResult]:
    """One coverage/length/index triple per proportion estimator.

    Draws R counts from the binomial model (stream (3,)), then evaluates
    each estimator once per distinct count and weights by the count
    frequencies, so coverage is a multiple of 1/R and the whole study
    costs n + 1 interval evaluations per estimator.
    """
    if plan.model.kind != "binomial":
        raise ConfigError("run_proportion_study requires a binomial model")
    counts = _draw(plan.model, plan.R, SeedSpec(plan.master_seed).child(3))
    weights = np.bincount(counts, minlength=plan.model.n_trials + 1)

    p = true_parameter(plan.model)
    cfg = plan.index_config
    out = {}
    for e in plan.estimators:
        cover, length = _weighted_outcomes(e, plan.model.n_trials, p, plan.alpha, weights.tolist())
        coverage = cover / plan.R
        mean_length = length / plan.R
        idx = compute_index(IntervalPerformance(coverage, mean_length), cfg)
        out[e] = ReplicationResult(e, coverage, mean_length, idx)
    return out
