"""Simulation harness: summaries, determinism, worker independence,
stream layout, a small frozen regression, and a plain per-sample
reference loop that the engine must equal bit for bit."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ciindex import (
    MEAN_ESTIMATORS,
    ConfigError,
    DomainError,
    IndexConfig,
    InsufficientDataError,
    IntervalPerformance,
    ReplicationResult,
    SeedSpec,
    SimulationPlan,
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


def _study_means(reps):
    cov = float(np.mean([r.coverage for r in reps]))
    length = float(np.mean([r.mean_length for r in reps]))
    return cov, length


def _results(indexes):
    # summarize_index takes one estimator's results; only the index varies
    return [ReplicationResult("normal_theory", 0.95, 1.0, i) for i in indexes]


def test_summarize_index_symmetric_triple():
    s = summarize_index(_results([-1.0, 0.0, 1.0]))
    assert s.mean == 0.0
    assert s.st_dev == 1.0
    assert s.skewness == 0.0
    assert s.kurtosis == -1.5  # excess convention


def test_summarize_index_constant_values():
    s = summarize_index(_results([2.0, 2.0, 2.0, 2.0]))
    assert s.st_dev == 0.0
    assert math.isnan(s.skewness) and math.isnan(s.kurtosis)
    assert s.mean == 2.0


def test_summarize_index_short_inputs():
    # R = 1 and R = 2 studies are summarized too: the shape statistics are
    # undefined below 3 values, and the standard deviation for 1
    with pytest.raises(InsufficientDataError):
        summarize_index(_results([]))
    one = summarize_index(_results([0.3]))
    assert one.mean == 0.3
    assert math.isnan(one.st_dev) and math.isnan(one.skewness) and math.isnan(one.kurtosis)
    two = summarize_index(_results([0.1, 0.2]))
    assert two.mean == float(np.mean([0.1, 0.2]))
    assert two.st_dev == float(np.std([0.1, 0.2], ddof=1))
    assert math.isnan(two.skewness) and math.isnan(two.kurtosis)


def test_mean_study_frozen_regression():
    results = run_mean_study(MEAN_PLAN)
    assert set(results) == set(MEAN_PLAN.estimators)
    for est, (cov, length, idx_mean) in FROZEN_MEANS.items():
        reps, summary = results[est]
        assert len(reps) == MEAN_PLAN.R
        got_cov, got_len = _study_means(reps)
        assert got_cov == pytest.approx(cov, abs=1e-12)
        assert got_len == pytest.approx(length, abs=1e-12)
        assert summary.mean == pytest.approx(idx_mean, abs=1e-12)
    first = results["normal_theory"][0][0]
    assert first.coverage == pytest.approx(0.91, abs=1e-15)
    assert first.mean_length == pytest.approx(1.217211315358577, abs=1e-12)
    assert first.index == pytest.approx(0.8490124163512437, abs=1e-12)


def test_replication_invariants():
    results = run_mean_study(MEAN_PLAN)
    cfg = MEAN_PLAN.index_config
    # built once, when the plan is validated, and not echoed as a field
    assert cfg is MEAN_PLAN.index_config
    assert cfg == IndexConfig(MEAN_PLAN.alpha, MEAN_PLAN.loss, MEAN_PLAN.rescaled)
    assert "_index_config" not in dataclasses.asdict(MEAN_PLAN)
    for reps, _summary in results.values():
        for rep in reps:
            # coverage counts hits out of N samples
            assert abs(rep.coverage * MEAN_PLAN.N - round(rep.coverage * MEAN_PLAN.N)) < 1e-9
            want = compute_index(IntervalPerformance(rep.coverage, rep.mean_length), cfg)
            assert rep.index == pytest.approx(want, abs=1e-12)


def test_worker_count_does_not_change_results():
    serial = run_mean_study(MEAN_PLAN)
    parallel = run_mean_study(MEAN_PLAN, n_workers=2)
    for est in MEAN_PLAN.estimators:
        for a, b in zip(serial[est][0], parallel[est][0]):
            assert a == b


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
    reps, summary = run_mean_study(plan)["normal_theory"]
    assert len(reps) == 1
    assert math.isnan(summary.skewness)
    assert summary.st_dev == 0.0 or math.isnan(summary.st_dev)


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
    for est in plan.estimators:
        rep = results[est]
        # simulated coverage is a count out of R
        assert abs(rep.coverage * plan.R - round(rep.coverage * plan.R)) < 1e-9
        truth = exact_performance(est, 10, 0.3, 0.05)
        sd = math.sqrt(truth.coverage * (1.0 - truth.coverage) / plan.R)
        assert abs(rep.coverage - truth.coverage) <= 4.0 * sd
        assert rep.mean_length == pytest.approx(truth.mean_length, abs=0.02)
        want = compute_index(IntervalPerformance(rep.coverage, rep.mean_length), plan.index_config)
        assert rep.index == pytest.approx(want, abs=1e-12)


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
    comparison = run_calibration_study(plan)
    for comp in comparison.values():
        assert comp.skipped
        assert math.isnan(comp.mean_beta)
        assert comp.uncalibrated[0] == comp.calibrated[0]


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
    comp = run_calibration_study(plan)["normal_theory"]
    assert not comp.skipped
    assert 0.0 < comp.mean_beta < 0.05
    uncal_cov, uncal_len = _study_means(comp.uncalibrated[0])
    cal_cov, cal_len = _study_means(comp.calibrated[0])
    assert cal_len > uncal_len
    assert cal_cov > uncal_cov
    assert comp.empirical_coverage == pytest.approx(uncal_cov, abs=1e-12)


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
    comparison = run_calibration_study(plan)
    assert not all(comp.skipped for comp in comparison.values())
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
    first = run_calibration_study(plan)["normal_theory"]
    d = abs(first.empirical_coverage - 0.95)
    assert d > 0.0
    at_edge = run_calibration_study(dataclasses.replace(plan, skip_delta=d))["normal_theory"]
    assert at_edge.skipped
    assert at_edge.calibrated == at_edge.uncalibrated
    inside = dataclasses.replace(plan, skip_delta=math.nextafter(d, 0.0))
    calibrated = run_calibration_study(inside)["normal_theory"]
    assert not calibrated.skipped
    assert calibrated.calibrated == first.calibrated
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
    out = []
    for per_level, _ in reps:
        coverage, length = per_level[level][j]
        index = compute_index(IntervalPerformance(coverage, length), plan.index_config)
        out.append(ReplicationResult(plan.estimators[j], coverage, length, index))
    summary = summarize_index(out)
    # the summary's means, checked here and not only through summarize_index
    _assert_same(summary.coverage, float(np.mean([res.coverage for res in out])))
    _assert_same(summary.mean_length, float(np.mean([res.mean_length for res in out])))
    return out, summary


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
        for j, e in enumerate(plan.estimators):
            _assert_same(study[e], _reference_results(plan, reps, 0, j))
        return
    study = run_calibration_study(plan)
    for j, e in enumerate(plan.estimators):
        comp = study[e]
        uncal = _reference_results(plan, reps, 0, j)
        coverage = float(np.mean([res.coverage for res in uncal[0]]))
        skipped = not abs(coverage - (1.0 - plan.alpha)) > plan.skip_delta
        _assert_same(comp.uncalibrated, uncal)
        _assert_same(comp.empirical_coverage, coverage)
        _assert_same(comp.empirical_coverage, comp.uncalibrated[1].coverage)
        assert comp.skipped == skipped
        _assert_same(comp.calibrated, uncal if skipped else _reference_results(plan, reps, 1, j))
        mean_beta = math.nan if skipped else float(np.mean([beta for _, beta in reps]))
        _assert_same(comp.mean_beta, mean_beta)
