"""Simulation harness: summaries, determinism, worker independence,
stream layout, and a small frozen regression."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from ciindex import (
    ConfigError,
    DomainError,
    IndexConfig,
    InsufficientDataError,
    IntervalPerformance,
    SeedSpec,
    SimulationPlan,
    binomial_model,
    compute_index,
    exact_performance,
    lognormal_model,
    normal_model,
    run_calibration_study,
    run_mean_study,
    run_proportion_study,
    summarize_index,
)
from ciindex.harness import DEFAULT_SKIP_DELTA

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


def test_summarize_index_symmetric_triple():
    s = summarize_index([-1.0, 0.0, 1.0])
    assert s.mean == 0.0
    assert s.st_dev == 1.0
    assert s.skewness == 0.0
    assert s.kurtosis == -1.5  # excess convention


def test_summarize_index_constant_values():
    s = summarize_index([2.0, 2.0, 2.0, 2.0])
    assert s.st_dev == 0.0
    assert math.isnan(s.skewness) and math.isnan(s.kurtosis)
    assert s.mean == 2.0


def test_summarize_index_short_inputs():
    # R = 1 and R = 2 studies are summarized too: the shape statistics are
    # undefined below 3 values, and the standard deviation for 1
    with pytest.raises(InsufficientDataError):
        summarize_index([])
    one = summarize_index([0.3])
    assert one.mean == 0.3
    assert math.isnan(one.st_dev) and math.isnan(one.skewness) and math.isnan(one.kurtosis)
    two = summarize_index([0.1, 0.2])
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
    # stream and (2, r, i) resample stream
    opened = Counter()
    generator = SeedSpec.generator

    def counting(self):
        opened[self.stream_path] += 1
        return generator(self)

    monkeypatch.setattr(SeedSpec, "generator", counting)
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
    for n, B in ((10, 1), (2, 30)):
        plan = SimulationPlan(
            model=normal_model(2.0, 1.0), n=n, N=10, B=B, R=2, alpha=0.05,
            estimators=("normal_theory",), master_seed=1,
        )
        with pytest.raises(ConfigError):
            run_calibration_study(plan)


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
