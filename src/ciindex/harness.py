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

Every study returns :class:`StudyResults`: ``(R, E)`` coverage, mean
length and index arrays, one column per estimator in plan order (a single
row for a proportion study), and one :class:`IndexSummary` per column.  A
calibration study returns a :class:`CalibrationStudy` of two of them.

Randomness is organized as one stream per task: stream (1, r) generates
replication r's data block, stream (2, r, i) the resamples for sample i
of replication r, and stream (3,) the proportion draws.  Because streams
are derived from (master_seed, path) alone, results are bit-identical for
any worker count.  A replication opens its N resample streams in one
pass (their Philox keys are derived together, see :mod:`ciindex.sampling`),
and each draws exactly what ``SeedSpec(...).child(2, r, i).generator()``
would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calibration import _beta_from_lambdas, _lambdas, _resample_stats, _row_sds
from .errors import ConfigError, DomainError, InsufficientDataError
from .index import IndexConfig, compute_index_array
from .mean_intervals import (
    MEAN_ESTIMATORS,
    ConfidenceInterval,
    _BlockStats,
    bca_from_boot_means,
    johnson_t_interval,
    normal_theory_interval,
    percentile_from_boot_means,
)
from .proportion_intervals import PROPORTION_ESTIMATORS, _weighted_outcomes
from .sampling import DataModel, SeedSpec, _draw, _resample, _stream_generators, true_parameter

__all__ = [
    "DESK_SCALE",
    "PAPER_SCALE",
    "CalibrationStudy",
    "IndexSummary",
    "SimulationPlan",
    "StudyResults",
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
            # kept for index_config; not a field, so asdict(plan) and the
            # plan echo do not see it
            object.__setattr__(self, "_index_config", IndexConfig(self.alpha, self.loss, self.rescaled))
            SeedSpec(self.master_seed)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        for name, value in (("n", self.n), ("N", self.N), ("B", self.B), ("R", self.R)):
            if not (isinstance(value, int) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not self.estimators:
            raise ConfigError("estimators must be nonempty")
        if len(set(self.estimators)) != len(self.estimators):
            raise ConfigError(f"estimators must not repeat a name, got {self.estimators!r}")
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
        return self._index_config


@dataclass(frozen=True)
class IndexSummary:
    """One estimator's study summary, in ``summary.csv`` column order.

    The mean coverage and mean length of its replications, then the mean,
    skewness, excess kurtosis (a normal law scores 0) and st.dev of their
    index values.  The shape statistics are NaN for fewer than 3 values or
    zero variance, ``st_dev`` for a single value.
    """

    coverage: float
    mean_length: float
    mean: float
    skewness: float
    kurtosis: float
    st_dev: float

    def __post_init__(self) -> None:
        if math.isfinite(self.st_dev) and self.st_dev < 0.0:
            raise DomainError(f"st_dev must be >= 0, got {self.st_dev!r}")


@dataclass(frozen=True, eq=False)
class StudyResults:
    """Every estimator's results in one study, one column per estimator.

    ``coverage``, ``mean_length`` and ``index`` are ``(R, E)`` float64
    arrays: row r is replication r, column j is ``estimators[j]``, in plan
    order.  ``summaries[j]`` is column j's :class:`IndexSummary`.  A
    proportion study has a single row.
    """

    estimators: tuple[str, ...]
    coverage: np.ndarray
    mean_length: np.ndarray
    index: np.ndarray
    summaries: tuple[IndexSummary, ...]


@dataclass(frozen=True, eq=False)
class CalibrationStudy:
    """Uncalibrated and calibrated results of one calibration study.

    ``skipped`` and ``mean_beta`` are ``(E,)`` arrays in plan order.
    ``skipped[j]`` records whether the study-level skip rule fired for
    estimator j (its uncalibrated coverage was already within
    ``skip_delta`` of nominal); its calibrated column is then its
    uncalibrated one and its ``mean_beta`` is NaN.  Both sides come from
    one pass: each sample's single resample set feeds the bootstrap
    estimators at alpha and at the sample's beta, and the beta itself.
    """

    uncalibrated: StudyResults
    calibrated: StudyResults
    skipped: np.ndarray
    mean_beta: np.ndarray


def summarize_index(coverage, mean_length, index) -> tuple[IndexSummary, ...]:
    """Summary of every estimator's R results, given as three ``(R, E)`` tables.

    One :class:`IndexSummary` per column, each statistic with the bits of
    ``np.mean`` or ``np.std(ddof=1)`` on that column alone: the mean
    coverage and mean length, then the index values' mean, sample st.dev,
    moment skewness and excess kurtosis.  Central moments use the 1/n
    convention; the standard deviation uses the n-1 denominator.  Fewer
    than 3 results, or zero index variance, give NaN shape statistics; a
    single result also gives a NaN standard deviation.
    """
    # columns as C-contiguous rows, each summed pairwise on its own; a sum over
    # axis 0 of the (R, E) tables adds rows in turn, other bits once R > 8
    cov, length, data = (np.ascontiguousarray(np.asarray(t, dtype=float).T) for t in (coverage, mean_length, index))
    R = data.shape[1]
    if not R:
        raise InsufficientDataError("need at least one result to summarize")

    def mean(t):
        return (np.add.reduce(t, axis=1) / R).tolist()

    means = mean(data)
    centered = data - np.array(means)[:, None]
    squares = np.add.reduce(centered**2, axis=1)
    st_devs = np.sqrt(squares / (R - 1)).tolist() if R > 1 else [math.nan] * len(means)
    moments = zip((squares / R).tolist(), mean(centered**3), mean(centered**4))
    summaries = []
    for c, ell, mu, sd, (m2, m3, m4) in zip(mean(cov), mean(length), means, st_devs, moments):
        shape = (m3 / m2**1.5, m4 / m2**2 - 3.0) if R >= 3 and m2 != 0.0 else (math.nan, math.nan)
        summaries.append(IndexSummary(c, ell, mu, *shape, sd))
    return tuple(summaries)


# each estimator issued over one block's shared record through its public
# name; the lambdas look the name up in this module at call time, so a
# wrapper set on the module attribute sees every call
_ISSUE = {
    "normal_theory": lambda s, a: normal_theory_interval(s.values, a, _stats=s),
    "johnson_t": lambda s, a: johnson_t_interval(s.values, a, _stats=s),
    "bootstrap_percentile": lambda s, a: percentile_from_boot_means(s.boot_means, a, _stats=s),
    "bca": lambda s, a: bca_from_boot_means(s.values, s.boot_means, a, _stats=s),
}


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
    return _ISSUE[kind](_BlockStats(values, means), beta)


def _replication(
    plan: SimulationPlan, calibrate: bool, r: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Coverage and mean length of every estimator in replication ``r``.

    Returns ``(coverage, mean_length, mean_beta)``.  The first two are
    ``(levels, estimators)`` arrays: row 0 at alpha and, with
    ``calibrate``, row 1 at each sample's calibrated beta; ``mean_beta`` is
    NaN without it.  Each sample's (2, r, i) resample set is drawn once and
    serves the bootstrap estimators at both levels as well as the beta,
    which is shared by every estimator.

    Only the per-stream work runs sample by sample: the resample draw and
    its row of means (and of standard deviations when calibrating), each
    written into a preallocated block.  The levels, the intervals and the
    tallies run once per block of ``_BLOCK_ROWS`` samples, and each
    estimator is issued once per block over the block's one record of
    level-free statistics: at alpha alone, or at the ``(2, m)`` stack of
    alpha and each sample's beta.  Lengths and levels are summed in sample
    order (``cumsum``), as a running total would, so every result is the
    same to the last bit whatever the block size.
    """
    seed = SeedSpec(plan.master_seed)
    matrix = _draw(plan.model, (plan.N, plan.n), seed.child(1, r))
    theta = true_parameter(plan.model)
    needs_boot = calibrate or any(e in _BOOTSTRAP_KINDS for e in plan.estimators)
    if needs_boot:
        streams = _stream_generators(seed.child(2, r), plan.N)
    n_levels = 2 if calibrate else 1

    covers = np.zeros((n_levels, len(plan.estimators)), dtype=np.int64)
    lengths = np.empty((n_levels, len(plan.estimators), plan.N))
    betas = np.empty(plan.N)
    means = np.empty((_BLOCK_ROWS, plan.B))
    sds = np.empty((_BLOCK_ROWS, plan.B))
    work = np.empty((plan.B, plan.n))
    for start in range(0, plan.N, _BLOCK_ROWS):
        rows = matrix[start:start + _BLOCK_ROWS]
        m = rows.shape[0]
        if needs_boot:
            for j in range(m):
                boot = _resample(rows[j], plan.B, next(streams))
                # boot.mean(axis=1), bit for bit, without numpy's wrapper
                row = np.add.reduce(boot, axis=1, out=means[j])
                row /= plan.n
                if calibrate:
                    _row_sds(boot, row, sds[j], work)
        levels = plan.alpha
        if calibrate:
            beta = _beta_from_lambdas(_lambdas(rows, means[:m], sds[:m]), plan.alpha)
            betas[start:start + m] = beta
            levels = np.stack([np.full(m, plan.alpha), beta])
        stats = _BlockStats(rows, means[:m])
        for j, e in enumerate(plan.estimators):
            ci = _ISSUE[e](stats, levels)
            covers[:, j] += np.count_nonzero(ci.contains(theta), axis=-1)
            lengths[:, j, start:start + m] = ci.length

    mean_beta = float(np.cumsum(betas)[-1]) / plan.N if calibrate else math.nan
    return covers / plan.N, np.cumsum(lengths, axis=-1)[..., -1] / plan.N, mean_beta


def _map_replications(fn, R: int, n_workers: int) -> list:
    if n_workers <= 1:
        return [fn(r) for r in range(R)]
    # imported here: a single-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, range(R)))


def _results(plan: SimulationPlan, coverage: np.ndarray, length: np.ndarray) -> StudyResults:
    # the (R, E) arrays scored with one index call and summarized with one
    # summary call (through the module name, so a wrapper on it sees it)
    index = compute_index_array(coverage, length, plan.index_config)
    return StudyResults(plan.estimators, coverage, length, index, summarize_index(coverage, length, index))


def run_mean_study(plan: SimulationPlan, *, n_workers: int = 1) -> StudyResults:
    """Score the plan's mean-interval estimators over R replications.

    Returns the ``(R, E)`` coverage, mean length and index of every
    replication and estimator, and each estimator's summary of its R
    index values, all at the plan's alpha.  Calibrated intervals come
    only from :func:`run_calibration_study`.
    """
    if plan.model.kind not in ("normal", "lognormal"):
        raise ConfigError("run_mean_study requires a normal or lognormal model")
    raw = _map_replications(partial(_replication, plan, False), plan.R, n_workers)
    coverage, length, _ = map(np.array, zip(*raw))
    return _results(plan, coverage[:, 0], length[:, 0])


def run_calibration_study(plan: SimulationPlan, *, n_workers: int = 1) -> CalibrationStudy:
    """Uncalibrated-versus-calibrated comparison for every estimator.

    One pass over the streams issues every estimator at alpha and at each
    sample's calibrated beta.  The skip rule is then applied per estimator
    at study level: an estimator whose uncalibrated coverage is within
    ``plan.skip_delta`` of nominal is skipped, and its calibrated column
    is its uncalibrated one; the other columns hold the results at beta.
    """
    if plan.model.kind not in ("normal", "lognormal"):
        raise ConfigError("run_calibration_study requires a normal or lognormal model")
    if plan.B < 2 or plan.n < 3:
        raise ConfigError("calibration requires B >= 2 and n >= 3")
    raw = _map_replications(partial(_replication, plan, True), plan.R, n_workers)
    # (R, levels, E) coverage and length, and the R mean betas
    coverage, length, betas = map(np.array, zip(*raw))
    uncalibrated = _results(plan, coverage[:, 0], length[:, 0])
    skipped = np.array([
        abs(s.coverage - (1.0 - plan.alpha)) <= plan.skip_delta for s in uncalibrated.summaries
    ])
    calibrated = _results(
        plan,
        np.where(skipped, coverage[:, 0], coverage[:, 1]),
        np.where(skipped, length[:, 0], length[:, 1]),
    )
    mean_beta = np.where(skipped, math.nan, float(np.mean(betas)))
    return CalibrationStudy(uncalibrated, calibrated, skipped, mean_beta)


def run_proportion_study(plan: SimulationPlan) -> StudyResults:
    """One coverage/length/index triple per proportion estimator.

    Draws R counts from the binomial model (stream (3,)), then evaluates
    each estimator once per distinct count drawn and weights by the count
    frequencies, so coverage is a multiple of 1/R and the study costs at
    most min(R, n + 1) interval evaluations per estimator, in O(R) memory.
    The triples are the single row of the ``(1, E)`` results.
    """
    if plan.model.kind != "binomial":
        raise ConfigError("run_proportion_study requires a binomial model")
    counts = _draw(plan.model, plan.R, SeedSpec(plan.master_seed).child(3))
    x, weights = np.unique(counts, return_counts=True)

    p = true_parameter(plan.model)
    sums = [
        _weighted_outcomes(e, plan.model.n_trials, p, plan.alpha, x, weights)
        for e in plan.estimators
    ]
    coverage, length = (np.array(sums) / plan.R).T[:, None]
    return _results(plan, coverage, length)
