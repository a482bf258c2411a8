"""Simulation harness: summaries, determinism, worker independence,
stream layout, a small frozen regression, and a plain per-sample
reference loop that the engine must equal bit for bit."""

import dataclasses
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ciindex import (
    MEAN_ESTIMATORS,
    PROPORTION_ESTIMATORS,
    ConfigError,
    DomainError,
    IndexConfig,
    InsufficientDataError,
    IntervalPerformance,
    SeedSpec,
    SimulationPlan,
    StudyResults,
    binomial_model,
    calibrate_level,
    compute_index,
    exact_performance,
    johnson_t_interval,
    lognormal_model,
    normal_model,
    normal_theory_interval,
    run_calibration_study,
    run_mean_study,
    run_proportion_study,
    summarize_index,
    true_parameter,
)
from ciindex import harness, mean_intervals
from ciindex.harness import DEFAULT_SKIP_DELTA
from ciindex.mean_intervals import (
    bca_from_boot_means,
    bootstrap_mean_draws,
    percentile_from_boot_means,
)
from ciindex.proportion_intervals import _endpoints

MEAN_PLAN = SimulationPlan(
    model=normal_model(2.0, 1.0),
    n=10,
    N=100,
    B=50,
    R=10,
    alpha=0.05,
    estimators=("normal_theory", "johnson_t", "bootstrap_percentile", "bca"),
    master_seed=20260815,
)

# frozen outputs of MEAN_PLAN, pinned as a regression guard; derived under
# numpy 2.4.6 and scipy 1.17.1.  Only the johnson_t row uses the t
# quantile, which test_special checks against an mpmath root of the t cdf.
FROZEN_MEANS = {
    "normal_theory": (0.9179999999999999, 1.2058811917326069, 0.854776641288186),
    "johnson_t": (0.943, 1.391807603037006, 0.8562191020724012),
    "bootstrap_percentile": (0.873, 1.0770427388942132, 0.8348136841918208),
    "bca": (0.877, 1.1157706945728036, 0.8345239641830465),
}


FIELDS = ("coverage", "mean_length", "index")


def _study_means(coverage, length):
    # the mean of one estimator's (R,) coverage and length columns
    return float(np.mean(coverage)), float(np.mean(length))


def _columns(indexes):
    # summarize_index takes three (R, E) tables; here one estimator's
    # (R, 1) tables, of which only the index varies
    index = np.array(indexes, dtype=float)[:, None]
    return np.full(index.shape, 0.95), np.ones(index.shape), index


def _assert_same_results(a, b):
    for field in FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.estimators == b.estimators
    assert repr(a.summaries) == repr(b.summaries)


def test_summarize_index_symmetric_triple():
    (s,) = summarize_index(*_columns([-1.0, 0.0, 1.0]))
    assert s.mean == 0.0
    assert s.st_dev == 1.0
    assert s.skewness == 0.0
    assert s.kurtosis == -1.5  # excess convention


def test_summarize_index_constant_values():
    (s,) = summarize_index(*_columns([2.0, 2.0, 2.0, 2.0]))
    assert s.st_dev == 0.0
    assert math.isnan(s.skewness) and math.isnan(s.kurtosis)
    assert s.mean == 2.0


def test_summarize_index_short_inputs():
    # R = 1 and R = 2 studies are summarized too: the shape statistics are
    # undefined below 3 values, and the standard deviation for 1
    with pytest.raises(InsufficientDataError):
        summarize_index(*_columns([]))
    (one,) = summarize_index(*_columns([0.3]))
    assert one.mean == 0.3
    assert math.isnan(one.st_dev) and math.isnan(one.skewness) and math.isnan(one.kurtosis)
    (two,) = summarize_index(*_columns([0.1, 0.2]))
    assert two.mean == float(np.mean([0.1, 0.2]))
    assert two.st_dev == float(np.std([0.1, 0.2], ddof=1))
    assert math.isnan(two.skewness) and math.isnan(two.kurtosis)


def test_mean_study_frozen_regression():
    results = run_mean_study(MEAN_PLAN)
    assert results.estimators == MEAN_PLAN.estimators
    for est, (cov, length, idx_mean) in FROZEN_MEANS.items():
        j = results.estimators.index(est)
        assert results.coverage[:, j].shape == (MEAN_PLAN.R,)
        got_cov, got_len = _study_means(results.coverage[:, j], results.mean_length[:, j])
        assert got_cov == pytest.approx(cov, abs=1e-12)
        assert got_len == pytest.approx(length, abs=1e-12)
        assert results.summaries[j].mean == pytest.approx(idx_mean, abs=1e-12)
    # replication 0 of normal_theory, the plan's first estimator
    assert results.coverage[0, 0] == pytest.approx(0.91, abs=1e-15)
    assert results.mean_length[0, 0] == pytest.approx(1.217211315358577, abs=1e-12)
    assert results.index[0, 0] == pytest.approx(0.8490124163512437, abs=1e-12)


def test_replication_invariants():
    results = run_mean_study(MEAN_PLAN)
    cfg = MEAN_PLAN.index_config
    # built once, when the plan is validated, and not echoed as a field
    assert cfg is MEAN_PLAN.index_config
    assert cfg == IndexConfig(MEAN_PLAN.alpha, MEAN_PLAN.loss, MEAN_PLAN.rescaled)
    assert "_index_config" not in dataclasses.asdict(MEAN_PLAN)
    for coverage, length, index in zip(
        *(getattr(results, field).ravel().tolist() for field in FIELDS)
    ):
        # coverage counts hits out of N samples
        assert abs(coverage * MEAN_PLAN.N - round(coverage * MEAN_PLAN.N)) < 1e-9
        want = compute_index(IntervalPerformance(coverage, length), cfg)
        assert index == pytest.approx(want, abs=1e-12)


def test_worker_count_does_not_change_results():
    serial = run_mean_study(MEAN_PLAN)
    parallel = run_mean_study(MEAN_PLAN, n_workers=2)
    for field in FIELDS:
        assert np.array_equal(getattr(serial, field), getattr(parallel, field)), field


def test_single_replication_degenerates():
    plan = SimulationPlan(
        model=normal_model(0.0, 1.0),
        n=5,
        N=20,
        B=2,
        R=1,
        alpha=0.05,
        estimators=("normal_theory",),
        master_seed=3,
    )
    results = run_mean_study(plan)
    assert results.coverage.shape == (1, 1)
    summary = results.summaries[0]
    assert math.isnan(summary.skewness)
    assert summary.st_dev == 0.0 or math.isnan(summary.st_dev)


def test_results_are_R_by_E_columns_in_plan_order():
    # one row per replication (a single row for a proportion study) and
    # one column per estimator, in the plan's order: permuting the plan's
    # estimators permutes the columns and changes no value
    plan = dataclasses.replace(MEAN_PLAN, N=40, R=3, skip_delta=0.0)
    permuted = dataclasses.replace(plan, estimators=plan.estimators[::-1])
    prop = SimulationPlan(
        model=binomial_model(20, 0.3), n=20, N=1, B=1, R=50, alpha=0.05,
        estimators=PROPORTION_ESTIMATORS, master_seed=5,
    )
    prop_permuted = dataclasses.replace(prop, estimators=prop.estimators[::-1])
    cal, cal_permuted = run_calibration_study(plan), run_calibration_study(permuted)
    cases = [
        (plan, run_mean_study(plan), permuted, run_mean_study(permuted)),
        (plan, cal.uncalibrated, permuted, cal_permuted.uncalibrated),
        (plan, cal.calibrated, permuted, cal_permuted.calibrated),
        (prop, run_proportion_study(prop), prop_permuted, run_proportion_study(prop_permuted)),
    ]
    for plan_a, a, plan_b, b in cases:
        for p, results in ((plan_a, a), (plan_b, b)):
            assert isinstance(results, StudyResults)
            assert results.estimators == p.estimators
            rows = 1 if p.model.kind == "binomial" else p.R
            for field in FIELDS:
                column = getattr(results, field)
                assert column.shape == (rows, len(p.estimators)), field
                assert column.dtype == np.float64, field
            assert len(results.summaries) == len(p.estimators)
        for j, e in enumerate(b.estimators):
            assert repr(_column(b, j)) == repr(_column(a, a.estimators.index(e))), e
    for study in (cal, cal_permuted):
        assert study.skipped.shape == study.mean_beta.shape == (len(plan.estimators),)
        assert study.skipped.dtype == bool
    assert np.array_equal(cal_permuted.skipped[::-1], cal.skipped)
    assert np.array_equal(cal_permuted.mean_beta[::-1], cal.mean_beta, equal_nan=True)


def test_proportion_study_matches_exact_performance():
    plan = SimulationPlan(
        model=binomial_model(10, 0.3),
        n=10,
        N=1,
        B=1,
        R=4000,
        alpha=0.05,
        estimators=("wald", "wilson", "exact"),
        master_seed=77,
    )
    results = run_proportion_study(plan)
    for est, coverage, length, index in zip(
        plan.estimators, *(getattr(results, field)[0].tolist() for field in FIELDS)
    ):
        # simulated coverage is a count out of R
        assert abs(coverage * plan.R - round(coverage * plan.R)) < 1e-9
        truth = exact_performance(est, 10, 0.3, 0.05)
        sd = math.sqrt(truth.coverage * (1.0 - truth.coverage) / plan.R)
        assert abs(coverage - truth.coverage) <= 4.0 * sd
        assert length == pytest.approx(truth.mean_length, abs=0.02)
        want = compute_index(IntervalPerformance(coverage, length), plan.index_config)
        assert index == pytest.approx(want, abs=1e-12)


def test_proportion_study_memory_follows_R_not_n_trials():
    # one weight per distinct count drawn; a per-outcome array over
    # x = 0..10^6 would take 8 MB
    plan = SimulationPlan(
        model=binomial_model(10**6, 0.3),
        n=10**6,
        N=1,
        B=1,
        R=200,
        alpha=0.05,
        estimators=PROPORTION_ESTIMATORS,
        master_seed=77,
    )
    cached = _endpoints.cache_info().currsize
    tracemalloc.start()
    try:
        run_proportion_study(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # above 10^4 trials the counts are scored uncached
    assert _endpoints.cache_info().currsize == cached


def test_calibration_study_skip_all_identity():
    plan = SimulationPlan(
        model=normal_model(2.0, 1.0),
        n=10,
        N=50,
        B=40,
        R=5,
        alpha=0.05,
        estimators=("normal_theory", "bootstrap_percentile"),
        master_seed=11,
        skip_delta=1.0,
    )
    study = run_calibration_study(plan)
    assert study.skipped.tolist() == [True, True]
    assert np.isnan(study.mean_beta).all()
    _assert_same_results(study.calibrated, study.uncalibrated)


def test_calibration_study_widens_when_not_skipped():
    plan = SimulationPlan(
        model=lognormal_model(0.0, 1.0),
        n=10,
        N=50,
        B=40,
        R=5,
        alpha=0.05,
        estimators=("normal_theory",),
        master_seed=11,
        skip_delta=0.0001,
    )
    study = run_calibration_study(plan)
    assert not study.skipped[0]
    assert 0.0 < study.mean_beta[0] < 0.05
    uncal, cal = study.uncalibrated, study.calibrated
    uncal_cov, uncal_len = _study_means(uncal.coverage[:, 0], uncal.mean_length[:, 0])
    cal_cov, cal_len = _study_means(cal.coverage[:, 0], cal.mean_length[:, 0])
    assert cal_len > uncal_len
    assert cal_cov > uncal_cov
    assert uncal.summaries[0].coverage == pytest.approx(uncal_cov, abs=1e-12)


def test_calibration_study_opens_each_stream_once(monkeypatch):
    # one pass: the alpha and beta intervals share every (1, r) data
    # stream and (2, r, i) resample stream.  Data streams open through
    # SeedSpec.generator, a replication's resample streams through one
    # call of the opener, which yields them one at a time.
    opened = Counter()
    openings = []
    generator = SeedSpec.generator
    opener = harness._stream_generators

    def counting(self):
        opened[self.stream_path] += 1
        return generator(self)

    def counting_streams(seed, count):
        openings.append((seed.stream_path, count))
        for i, rng in enumerate(opener(seed, count)):
            opened[seed.stream_path + (i,)] += 1
            yield rng

    monkeypatch.setattr(SeedSpec, "generator", counting)
    monkeypatch.setattr(harness, "_stream_generators", counting_streams)
    plan = SimulationPlan(
        model=normal_model(2.0, 1.0),
        n=8,
        N=20,
        B=30,
        R=3,
        alpha=0.05,
        estimators=("normal_theory", "johnson_t", "bootstrap_percentile", "bca"),
        master_seed=3,
        skip_delta=0.0,
    )
    study = run_calibration_study(plan)
    assert not study.skipped.all()
    streams = {(1, r) for r in range(3)} | {(2, r, i) for r in range(3) for i in range(20)}
    assert openings == [((2, r), 20) for r in range(3)]
    assert set(opened) == streams
    assert set(opened.values()) == {1}


def test_calibration_study_skip_boundary():
    # the study-level skip rule is inclusive: an estimator whose coverage
    # sits exactly skip_delta from nominal keeps its uncalibrated results
    plan = SimulationPlan(
        model=lognormal_model(0.0, 1.0),
        n=10,
        N=40,
        B=30,
        R=4,
        alpha=0.05,
        estimators=("normal_theory",),
        master_seed=17,
        skip_delta=0.0,
    )
    first = run_calibration_study(plan)
    d = abs(first.uncalibrated.summaries[0].coverage - 0.95)
    assert d > 0.0
    at_edge = run_calibration_study(dataclasses.replace(plan, skip_delta=d))
    assert at_edge.skipped[0]
    _assert_same_results(at_edge.calibrated, at_edge.uncalibrated)
    inside = dataclasses.replace(plan, skip_delta=math.nextafter(d, 0.0))
    calibrated = run_calibration_study(inside)
    assert not calibrated.skipped[0]
    _assert_same_results(calibrated.calibrated, first.calibrated)
    assert DEFAULT_SKIP_DELTA == 0.005


def test_calibration_study_needs_resamples_and_three_observations(monkeypatch):
    # checked by the study itself, before any stream is opened
    monkeypatch.setattr(SeedSpec, "generator", lambda self: pytest.fail("stream opened"))
    monkeypatch.setattr(
        harness, "_stream_generators", lambda seed, count: pytest.fail("streams opened")
    )
    for n, B in ((10, 1), (2, 30)):
        plan = SimulationPlan(
            model=normal_model(2.0, 1.0), n=n, N=10, B=B, R=2, alpha=0.05,
            estimators=("normal_theory",), master_seed=1,
        )
        with pytest.raises(ConfigError):
            run_calibration_study(plan)


# N = 300 is three blocks of samples: 128, 128 and 44 rows
BLOCK_PLAN = SimulationPlan(
    model=lognormal_model(0.0, 1.0), n=8, N=300, B=20, R=2, alpha=0.05,
    estimators=MEAN_ESTIMATORS, master_seed=11, skip_delta=0.0,
)
BLOCK_ROWS = [128, 128, 44] * BLOCK_PLAN.R


def test_block_statistics_are_computed_once_per_block(monkeypatch):
    # percentile and BCa share one sort of a block's resample means, and
    # a plan without johnson_t never computes the skewness
    sorts, skews = [], []
    sort = np.sort

    def counting_sort(a, *args, **kwargs):
        if np.ndim(a) == 2:
            sorts.append(np.shape(a)[0])
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    for run in (run_mean_study, run_calibration_study):
        sorts.clear()
        run(BLOCK_PLAN)
        assert sorts == BLOCK_ROWS, run.__name__

    skew = mean_intervals._BlockStats.skew.func

    def counting_skew(stats):
        skews.append(stats.values.shape[0])
        return skew(stats)

    monkeypatch.setattr(mean_intervals._BlockStats, "skew", property(counting_skew))
    percentile_only = dataclasses.replace(BLOCK_PLAN, estimators=("bootstrap_percentile",))
    for plan, skewed in ((BLOCK_PLAN, BLOCK_ROWS), (percentile_only, [])):
        skews.clear()
        run_mean_study(plan)
        assert skews == skewed, plan.estimators


def test_johnson_t_quantile_once_per_distinct_level(monkeypatch):
    # a calibration block issues johnson_t at the (2, m) stack of alpha and
    # each sample's beta: alpha's row is one level, so at most m + 1
    levels = []
    quantile = mean_intervals.student_t_quantile

    def recording(p, df):
        levels.append(np.size(p))
        return quantile(p, df)

    monkeypatch.setattr(mean_intervals, "student_t_quantile", recording)
    run_calibration_study(BLOCK_PLAN)
    assert len(levels) == len(BLOCK_ROWS)
    for size, m in zip(levels, BLOCK_ROWS):
        assert size <= m + 1


def test_plan_validation():
    model = normal_model(0.0, 1.0)
    with pytest.raises(ConfigError):
        SimulationPlan(model=model, n=10, N=10, B=5, R=5, alpha=0.05,
                       estimators=("nope",), master_seed=1)
    with pytest.raises(ConfigError):
        SimulationPlan(model=model, n=10, N=10, B=5, R=5, alpha=0.05,
                       estimators=(), master_seed=1)
    with pytest.raises(ConfigError):
        SimulationPlan(model=model, n=2, N=10, B=5, R=5, alpha=0.05,
                       estimators=("johnson_t",), master_seed=1)
    with pytest.raises(ConfigError):
        SimulationPlan(model=binomial_model(10, 0.5), n=12, N=1, B=1, R=5,
                       alpha=0.05, estimators=("wald",), master_seed=1)
    with pytest.raises(ConfigError):
        SimulationPlan(model=binomial_model(10, 0.5), n=10, N=1, B=1, R=5,
                       alpha=0.05, estimators=("normal_theory",), master_seed=1)
    with pytest.raises(ConfigError):
        SimulationPlan(model=model, n=10, N=10, B=5, R=5, alpha=2.0,
                       estimators=("normal_theory",), master_seed=1)
    with pytest.raises(ConfigError):
        SimulationPlan(model=model, n=10, N=10, B=5, R=5, alpha=0.05,
                       estimators=("normal_theory",), master_seed=1, loss="other")
    with pytest.raises(ConfigError):
        SimulationPlan(model=model, n=10, N=10, B=5, R=5, alpha=0.05,
                       estimators=("normal_theory", "normal_theory"), master_seed=1)


def test_study_kind_mismatch_raises():
    mean_plan = MEAN_PLAN
    prop_plan = SimulationPlan(
        model=binomial_model(10, 0.5), n=10, N=1, B=1, R=10,
        alpha=0.05, estimators=("wald",), master_seed=1,
    )
    with pytest.raises(ConfigError):
        run_proportion_study(mean_plan)
    with pytest.raises(ConfigError):
        run_mean_study(prop_plan)


# ------------------------------------------------------ reference harness
#
# The engine vectorizes across samples and opens a replication's resample
# streams in one pass.  The reference below is the plain per-sample loop:
# every stream opened through SeedSpec.generator, the public one-sample
# estimators, and running ``+=`` totals, which sum in sample order as the
# engine's ``cumsum`` does.  The two must agree to the last bit.


def _reference_interval(kind, values, means, level):
    if kind == "normal_theory":
        return normal_theory_interval(values, level)
    if kind == "johnson_t":
        return johnson_t_interval(values, level)
    if kind == "bootstrap_percentile":
        return percentile_from_boot_means(means, level)
    return bca_from_boot_means(values, means, level)


def _reference_replication(plan, calibrate, r):
    # per level, per estimator: (coverage, mean length); and the mean beta
    seed, model = SeedSpec(plan.master_seed), plan.model
    rng = seed.child(1, r).generator()
    if model.kind == "normal":
        matrix = rng.normal(model.mu, math.sqrt(model.sigma2), size=(plan.N, plan.n))
    else:
        matrix = rng.lognormal(model.mu_log, math.sqrt(model.sigma2_log), size=(plan.N, plan.n))
    theta = true_parameter(model)
    n_levels = 2 if calibrate else 1
    covers = [[0] * len(plan.estimators) for _ in range(n_levels)]
    totals = [[0.0] * len(plan.estimators) for _ in range(n_levels)]
    beta_total = 0.0
    for i, values in enumerate(matrix):
        stream = seed.child(2, r, i)
        means = bootstrap_mean_draws(values, plan.B, stream)
        levels = [plan.alpha]
        if calibrate:
            levels.append(calibrate_level(values, plan.alpha, plan.B, stream).beta)
            beta_total += levels[1]
        for k, level in enumerate(levels):
            for j, kind in enumerate(plan.estimators):
                ci = _reference_interval(kind, values, means, level)
                covers[k][j] += ci.contains(theta)
                totals[k][j] += ci.length
    per_level = [
        [(covers[k][j] / plan.N, totals[k][j] / plan.N) for j in range(len(plan.estimators))]
        for k in range(n_levels)
    ]
    return per_level, beta_total / plan.N


def _reference_results(plan, reps, level, j):
    # estimator j's R coverages, lengths and indexes at one level, as
    # lists, and their summary
    coverage = [per_level[level][j][0] for per_level, _ in reps]
    length = [per_level[level][j][1] for per_level, _ in reps]
    index = [
        compute_index(IntervalPerformance(c, ell), plan.index_config)
        for c, ell in zip(coverage, length)
    ]
    (summary,) = summarize_index(*(np.array(column)[:, None] for column in (coverage, length, index)))
    # the summary's means, checked here and not only through summarize_index
    _assert_same(summary.coverage, float(np.mean(coverage)))
    _assert_same(summary.mean_length, float(np.mean(length)))
    return coverage, length, index, summary


def _column(results, j):
    # a study's column j in _reference_results' form
    return (*(getattr(results, field)[:, j].tolist() for field in FIELDS), results.summaries[j])


def _assert_same(got, want):
    # repr is exact for floats and equal for NaN
    assert repr(got) == repr(want)


@st.composite
def _reference_plans(draw):
    order = draw(st.permutations(MEAN_ESTIMATORS))
    plan = SimulationPlan(
        model=draw(st.sampled_from((normal_model(2.0, 1.0), lognormal_model(0.0, 1.0)))),
        n=draw(st.integers(3, 12)),
        N=draw(st.integers(1, 300)),
        B=draw(st.integers(2, 50)),
        R=draw(st.integers(1, 3)),
        alpha=draw(st.sampled_from((0.05, 0.1))),
        estimators=tuple(order[:draw(st.integers(1, len(order)))]),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        skip_delta=draw(st.sampled_from((0.0, 0.005, 1.0))),
    )
    return plan, draw(st.booleans())


EDGE_PLAN = SimulationPlan(
    model=lognormal_model(0.0, 1.0), n=5, N=257, B=9, R=2, alpha=0.05,
    estimators=("bca", "johnson_t", "bootstrap_percentile", "normal_theory"),
    master_seed=2**64 - 1, skip_delta=0.0,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(_reference_plans())
@example((EDGE_PLAN, True))
@example((EDGE_PLAN, False))
def test_engine_equals_the_reference_loop(case):
    plan, calibrate = case
    reps = [_reference_replication(plan, calibrate, r) for r in range(plan.R)]
    if not calibrate:
        study = run_mean_study(plan)
        assert study.estimators == plan.estimators
        for j in range(len(plan.estimators)):
            _assert_same(_column(study, j), _reference_results(plan, reps, 0, j))
        return
    study = run_calibration_study(plan)
    for results in (study.uncalibrated, study.calibrated):
        assert results.estimators == plan.estimators
    for j in range(len(plan.estimators)):
        uncal = _reference_results(plan, reps, 0, j)
        coverage = float(np.mean(uncal[0]))
        skipped = not abs(coverage - (1.0 - plan.alpha)) > plan.skip_delta
        _assert_same(_column(study.uncalibrated, j), uncal)
        _assert_same(study.uncalibrated.summaries[j].coverage, coverage)
        assert study.skipped[j] == skipped
        _assert_same(
            _column(study.calibrated, j), uncal if skipped else _reference_results(plan, reps, 1, j)
        )
        mean_beta = math.nan if skipped else float(np.mean([beta for _, beta in reps]))
        _assert_same(study.mean_beta[j].item(), mean_beta)


# ------------------------------------------------- documented entry points


def test_desk_demo_prints_every_estimator_and_the_highest_index(run_child):
    child = run_child("demos/run_desk_study.py")
    assert child.returncode == 0, child.stderr
    _title, table, last = child.stdout.split("\n\n")
    assert [row.split()[0] for row in table.splitlines()[1:]] == list(MEAN_ESTIMATORS)
    assert last.startswith("highest index: ")
    assert last.split()[-1] in MEAN_ESTIMATORS


def _readme_quickstart() -> str:
    # the python block under the README's "Library quickstart" heading
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_runs(run_child):
    child = run_child("-c", _readme_quickstart())
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[0] == "0.9281"
    assert lines[1] == "(50, 2)"
    assert [line.split()[0] for line in lines[2:]] == ["normal_theory", "bca"]
    for line in lines[2:]:
        coverage, length, index = map(float, line.split()[1:])
        assert 0.8 < coverage < 1.0 and 0.0 < length and 0.0 < index < 1.0
