"""Working-level calibration: quantile rule, floor, resample reuse."""

import math

import numpy as np
import pytest

from ciindex import (
    CalibrationResult,
    DomainError,
    InsufficientDataError,
    SeedSpec,
    calibrate_level,
    calibrated_interval,
)
from ciindex.calibration import _beta_from_lambdas
from ciindex.mean_intervals import (
    MEAN_ESTIMATORS,
    bca_from_boot_means,
    bootstrap_mean_draws,
    johnson_t_interval,
    normal_theory_interval,
    percentile_from_boot_means,
)

SAMPLE = [0.2, 0.5, 1.1, 2.0, 3.7, 5.9, 8.0, 9.4, 12.3, 20.1]
SEED = SeedSpec(20260815, (2, 0, 0))


def test_beta_quantile_rule_small_example():
    # B = 5, alpha = 0.05: ceil(0.25) = 1st order statistic, then the
    # 1/(2B) floor lifts 0.01 to 0.1
    lambdas = np.array([0.05, 0.01, 0.04, 0.02, 0.03])
    assert _beta_from_lambdas(lambdas, 0.05) == pytest.approx(0.1, abs=1e-15)


def test_beta_quantile_rule_no_floor():
    # B = 20: ceil(1) = 1st order statistic, floor 0.025 does not bind
    lambdas = np.linspace(0.03, 0.5, 20)
    assert _beta_from_lambdas(lambdas, 0.05) == pytest.approx(0.03, abs=1e-15)
    # alpha = 0.2: ceil(4) = 4th order statistic
    assert _beta_from_lambdas(lambdas, 0.2) == pytest.approx(
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
    assert _beta_from_lambdas(np.full(40, 0.5), 0.05) == 0.5


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
    means = bootstrap_mean_draws(values, 300, SEED)
    want = {
        "normal_theory": normal_theory_interval(values, res.beta),
        "johnson_t": johnson_t_interval(values, res.beta),
        "bootstrap_percentile": percentile_from_boot_means(means, res.beta),
        "bca": bca_from_boot_means(values, means, res.beta),
    }
    assert ci == want[kind]


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
    with pytest.raises(DomainError):
        calibrate_level(SAMPLE, 0.05, 1, SEED)
    with pytest.raises(DomainError):
        calibrate_level(SAMPLE, 0.0, 50, SEED)
    with pytest.raises(DomainError):
        calibrated_interval("median", SAMPLE, 0.05, 50, SEED)
