"""Working-level calibration: quantile rule, floor, resample reuse."""

import importlib.util
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ciindex import (
    CalibrationResult,
    DomainError,
    InsufficientDataError,
    SeedSpec,
    calibrate_level,
    calibrated_interval,
    draw_sample,
)
from ciindex.calibration import _beta_from_lambdas
from ciindex.mean_intervals import (
    MEAN_ESTIMATORS,
    bca_from_boot_means,
    johnson_t_interval,
    normal_theory_interval,
    percentile_from_boot_means,
)
from ciindex.special import normal_quantile
from plain_bootstrap import boot_means

SAMPLE = [0.2, 0.5, 1.1, 2.0, 3.7, 5.9, 8.0, 9.4, 12.3, 20.1]
SEED = SeedSpec(20260815, (2, 0, 0))


def _abs_t(lambdas) -> np.ndarray:
    # the |t*| values whose lambdas 1 - Phi(|t*|) are ``lambdas``, the
    # input _beta_from_lambdas orders
    return normal_quantile(1.0 - np.asarray(lambdas))


def test_beta_quantile_rule_small_example():
    # B = 5, alpha = 0.05: ceil(0.25) = 1st order statistic, then the
    # 1/(2B) floor lifts 0.01 to 0.1
    abs_t = _abs_t([0.05, 0.01, 0.04, 0.02, 0.03])
    assert _beta_from_lambdas(abs_t, 0.05) == pytest.approx(0.1, abs=1e-15)


def test_beta_quantile_rule_no_floor():
    # B = 20: ceil(1) = 1st order statistic, floor 0.025 does not bind
    lambdas = np.linspace(0.03, 0.5, 20)
    assert _beta_from_lambdas(_abs_t(lambdas), 0.05) == pytest.approx(0.03, abs=1e-15)
    # alpha = 0.2: ceil(4) = 4th order statistic
    assert _beta_from_lambdas(_abs_t(lambdas), 0.2) == pytest.approx(
        float(np.sort(lambdas)[3]), abs=1e-15
    )


def test_calibrate_level_basic():
    result = calibrate_level(SAMPLE, 0.05, 200, SEED)
    assert len(result.lambdas) == 200
    assert 1.0 / 400.0 <= result.beta <= 0.5
    again = calibrate_level(SAMPLE, 0.05, 200, SEED)
    assert again == result


def test_beta_always_within_hard_bounds():
    rng = np.random.default_rng(3)
    for trial in range(20):
        data = rng.lognormal(0.0, 1.5, size=8)
        res = calibrate_level(data, 0.05, 50, SeedSpec(trial, (2, 0, 0)))
        assert 1.0 / 100.0 <= res.beta <= 0.5


def test_all_zero_t_statistics_give_half():
    # t exactly zero means lambda = 1 - Phi(0) = 0.5 for every resample
    assert _beta_from_lambdas(np.zeros(40), 0.05) == 0.5


def test_degenerate_sample_all_equal():
    # constant data: every resample sd is zero, the t -> infinity
    # convention sets every lambda to 0, and the floor lifts beta to 1/(2B)
    res = calibrate_level([3.0, 3.0, 3.0, 3.0], 0.05, 40, SEED)
    assert all(lam == 0.0 for lam in res.lambdas)
    assert res.beta == pytest.approx(1.0 / 80.0, abs=1e-15)


@pytest.mark.parametrize("kind", MEAN_ESTIMATORS)
def test_calibrated_interval_reuses_resample_set(kind):
    # each interval at the calibrated level equals recomputing the
    # estimator at that level; the bootstrap pair on the same resample means
    res = calibrate_level(SAMPLE, 0.05, 300, SEED)
    ci = calibrated_interval(kind, SAMPLE, 0.05, 300, SEED)
    values = np.asarray(SAMPLE, dtype=float)
    means = boot_means(values, 300, SEED)
    want = {
        "normal_theory": normal_theory_interval(values, res.beta),
        "johnson_t": johnson_t_interval(values, res.beta),
        "bootstrap_percentile": percentile_from_boot_means(means, res.beta),
        "bca": bca_from_boot_means(values, means, res.beta),
    }
    assert ci == want[kind]


@pytest.mark.parametrize("kind", MEAN_ESTIMATORS)
def test_calibrated_interval_draws_resample_set_once(kind, monkeypatch):
    # the level and the bootstrap pair's resample means come from one draw
    opened = Counter()
    generator = SeedSpec.generator

    def counting(self):
        opened[self.stream_path] += 1
        return generator(self)

    monkeypatch.setattr(SeedSpec, "generator", counting)
    calibrated_interval(kind, SAMPLE, 0.05, 300, SEED)
    assert opened == Counter({(2, 0, 0): 1})


def test_calibrated_interval_widens_at_smaller_beta():
    res = calibrate_level(SAMPLE, 0.05, 300, SEED)
    assert res.beta < 0.05  # heavy right skew undercovers, so beta tightens
    plain = normal_theory_interval(SAMPLE, 0.05)
    wide = calibrated_interval("normal_theory", SAMPLE, 0.05, 300, SEED)
    assert wide.length > plain.length


def test_calibration_result_validation():
    with pytest.raises(DomainError):
        CalibrationResult(beta=0.0, lambdas=())
    with pytest.raises(DomainError):
        CalibrationResult(beta=1.0, lambdas=(0.1,))


def test_input_validation():
    with pytest.raises(InsufficientDataError):
        calibrate_level([1.0], 0.05, 50, SEED)
    # every resample of two values has |t*| = 0 or inf, so the level rule
    # could give only its floor 1/(2B): both one-sample calls refuse n = 2,
    # as the calibration study does
    with pytest.raises(InsufficientDataError, match="need at least 3 observations, got 2"):
        calibrate_level([1.0, 2.5], 0.05, 50, SEED)
    for kind in MEAN_ESTIMATORS:
        with pytest.raises(InsufficientDataError, match="need at least 3 observations, got 2"):
            calibrated_interval(kind, [1.0, 2.5], 0.05, 50, SEED)
    with pytest.raises(DomainError):
        calibrate_level(SAMPLE, 0.05, 1, SEED)
    with pytest.raises(DomainError):
        calibrate_level(SAMPLE, 0.0, 50, SEED)
    with pytest.raises(DomainError):
        calibrated_interval("median", SAMPLE, 0.05, 50, SEED)


def test_overflowing_resample_sds_are_a_domain_error():
    # the resample squares overflow: the level would come from infinite
    # sds, so it is refused, without numpy's RuntimeWarning
    sample = [0.0, 1e200, -1e200, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="sample moments overflow"):
            calibrate_level(sample, 0.05, 50, SEED)
        with pytest.raises(DomainError, match="sample moments overflow"):
            calibrated_interval("bootstrap_percentile", sample, 0.05, 50, SEED)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_sample_is_rejected(bad):
    # a non-finite sample once gave beta = 1/(2B): a NaN sd fails sd > 0,
    # so every lambda was 0
    sample = SAMPLE[:4] + [bad] + SAMPLE[5:]
    with pytest.raises(DomainError, match="must be finite"):
        calibrate_level(sample, 0.05, 200, SEED)
    for kind in MEAN_ESTIMATORS:
        with pytest.raises(DomainError, match="must be finite"):
            calibrated_interval(kind, sample, 0.05, 200, SEED)


def test_calibration_demo_prints_the_level_of_its_sample(run_child):
    # the demo's own sample, seed and B, through the public calls it makes
    path = Path(__file__).resolve().parents[1] / "demos" / "calibrate_skewed_mean.py"
    spec = importlib.util.spec_from_file_location("calibrate_skewed_mean", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    sample = draw_sample(demo.MODEL, demo.N, demo.SEED.child(1, 0))
    res = calibrate_level(sample, 0.05, demo.B, demo.SEED.child(2, 0, 0))
    wide = calibrated_interval("normal_theory", sample, 0.05, demo.B, demo.SEED.child(2, 0, 0))

    child = run_child("demos/calibrate_skewed_mean.py")
    assert child.returncode == 0, child.stderr
    quartiles = "/".join(f"{q:.4f}" for q in np.percentile(res.lambdas, [25, 50, 75]))
    assert f"lambda quartiles {quartiles}\n" in child.stdout
    assert f"working level beta = {res.beta:.4f} " in child.stdout
    assert f"calibrated    [{wide.lower:8.4f}, {wide.upper:8.4f}]" in child.stdout
