"""Mean interval estimators: frozen anchors, an independent bootstrap
re-derivation on a shared resample set, and structural invariants."""

import math
import warnings

import numpy as np
import pytest

from ciindex import (
    BinomialObservation,
    ConfidenceInterval,
    DomainError,
    InsufficientDataError,
    SeedSpec,
    bca_interval,
    bootstrap_percentile_interval,
    calibrated_interval,
    exact_performance,
    johnson_t_interval,
    normal_theory_interval,
    proportion_interval,
)
from ciindex.mean_intervals import (
    _BlockStats,
    _resample_set,
    bca_from_boot_means,
    percentile_from_boot_means,
)
from ciindex.special import normal_cdf, normal_quantile, student_t_quantile
from plain_bootstrap import boot_means

FIVE = [1.0, 2.0, 3.0, 4.0, 5.0]
SKEWED = [0.0, 0.0, 0.0, 1.0, 10.0]


def _skewness(sample) -> float:
    # the moment skewness m3 / m2^(3/2) the Johnson t shift reads
    return float(_BlockStats(np.array(sample, dtype=float)).skew)


def test_confidence_interval_shape():
    ci = ConfidenceInterval(1.0, 3.0)
    assert ci.length == 2.0
    assert ci.contains(1.0) and ci.contains(3.0) and ci.contains(2.0)
    assert not ci.contains(3.0001)
    with pytest.raises(DomainError):
        ConfidenceInterval(3.0, 1.0)
    with pytest.raises(DomainError, match="interval endpoints must be finite"):
        ConfidenceInterval(math.nan, 1.0)


def test_normal_theory_frozen():
    ci = normal_theory_interval(FIVE, 0.05)
    assert ci.lower == pytest.approx(1.6140961756503223, abs=1e-12)
    assert ci.upper == pytest.approx(4.385903824349677, abs=1e-12)


def test_normal_theory_from_first_principles():
    # mean 3, sd sqrt(2.5), z-based half width
    z = normal_quantile(0.975)
    hw = z * math.sqrt(2.5) / math.sqrt(5.0)
    ci = normal_theory_interval(FIVE, 0.05)
    assert ci.lower == pytest.approx(3.0 - hw, abs=1e-12)
    assert ci.upper == pytest.approx(3.0 + hw, abs=1e-12)


def test_johnson_symmetric_data_reduces_to_t():
    # zero skewness leaves the plain t interval
    ci = johnson_t_interval(FIVE, 0.05)
    t = student_t_quantile(0.975, 4)
    hw = t * math.sqrt(2.5) / math.sqrt(5.0)
    assert ci.lower == pytest.approx(1.0367568385224393, abs=1e-12)
    assert ci.upper == pytest.approx(4.9632431614775605, abs=1e-12)
    assert ci.lower == pytest.approx(3.0 - hw, abs=1e-12)
    assert ci.upper == pytest.approx(3.0 + hw, abs=1e-12)


def test_johnson_skewed_frozen():
    ci = johnson_t_interval(SKEWED, 0.05)
    assert ci.lower == pytest.approx(0.27162460217384865, abs=1e-12)
    assert ci.upper == pytest.approx(11.15302269270596, abs=1e-12)


def test_johnson_shifts_right_for_positive_skew():
    plain = normal_theory_interval(SKEWED, 0.05)
    adjusted = johnson_t_interval(SKEWED, 0.05)
    mean = float(np.mean(SKEWED))
    assert _skewness(SKEWED) > 0
    assert (adjusted.lower + adjusted.upper) / 2.0 > mean
    # the t interval is symmetric about the shifted center
    center = (adjusted.lower + adjusted.upper) / 2.0
    assert adjusted.upper - center == pytest.approx(center - adjusted.lower, abs=1e-12)
    assert adjusted.length > plain.length  # t quantile exceeds z


def test_block_skew_is_each_rows_moment_ratio():
    assert _skewness(FIVE) == 0.0
    assert _skewness([2.0, 2.0, 2.0]) == 0.0  # zero variance convention
    data = np.array(SKEWED)
    centered = data - data.mean()
    want = np.mean(centered**3) / np.mean(centered**2) ** 1.5
    assert _skewness(SKEWED) == pytest.approx(want, abs=1e-14)
    # exact rational moments: m3 = 440.88/5, m2 = 76.8/5
    assert _skewness(SKEWED) == pytest.approx(88.176 / 15.36**1.5, abs=1e-12)
    # a block gives one value per row, each the row's own
    block = _BlockStats(np.array([FIVE, SKEWED])).skew
    assert block.tolist() == [_skewness(FIVE), _skewness(SKEWED)]


def test_resample_set_means_match_plain_numpy():
    # the one-sample entry points' resample means: one (B, n) index block
    # from the seed's stream, with the bits of plain numpy's mean(axis=1)
    sample = np.array(FIVE)
    seed = SeedSpec(17, (2, 0, 0))
    _, means, sds = _resample_set(sample, 2, 100, seed)
    assert means.shape == (100,) and sds is None
    assert means.tobytes() == boot_means(sample, 100, seed).tobytes()
    assert bootstrap_percentile_interval(sample, 0.05, 100, seed) == percentile_from_boot_means(means, 0.05)


def test_percentile_order_statistic_rule():
    # with B = 40 and alpha = 0.05 the rule picks order stats 1 and 39
    values = np.arange(1.0, 41.0)
    ci = percentile_from_boot_means(values, 0.05)
    assert ci.lower == 1.0
    assert ci.upper == 39.0
    # B = 200: ceil(5) = 5 and ceil(195) = 195
    values = np.arange(1.0, 201.0)
    ci = percentile_from_boot_means(values, 0.05)
    assert ci.lower == 5.0
    assert ci.upper == 195.0


def test_percentile_within_boot_range():
    sample = np.array(SKEWED)
    ci = bootstrap_percentile_interval(sample, 0.05, 199, SeedSpec(3, (2, 0, 0)))
    means = boot_means(sample, 199, SeedSpec(3, (2, 0, 0)))
    assert means.min() <= ci.lower <= ci.upper <= means.max()


def test_bca_independent_rederivation():
    """Recompute BCa step by step on the same resample set."""
    sample = np.array(FIVE)
    seed = SeedSpec(42, (2, 1, 0))
    B = 2000
    means = boot_means(sample, B, seed)
    got = bca_from_boot_means(sample, means, 0.05)

    theta = sample.mean()
    count = np.sum(means < theta)
    count = min(max(float(count), 0.5), B - 0.5)
    z0 = normal_quantile(count / B)
    loo = (sample.sum() - sample) / (len(sample) - 1)
    dev = loo.mean() - loo
    accel = np.sum(dev**3) / (6.0 * np.sum(dev**2) ** 1.5)
    z_lo = normal_quantile(0.025)
    z_hi = normal_quantile(0.975)
    a1 = normal_cdf(z0 + (z0 + z_lo) / (1.0 - accel * (z0 + z_lo)))
    a2 = normal_cdf(z0 + (z0 + z_hi) / (1.0 - accel * (z0 + z_hi)))
    ordered = np.sort(means)

    def pick(p):
        k = min(max(math.ceil(p * B), 1), B)
        return ordered[k - 1]

    lo, hi = pick(a1), pick(a2)
    assert got.lower == pytest.approx(min(lo, hi), abs=0.0)
    assert got.upper == pytest.approx(max(lo, hi), abs=0.0)


def test_bca_matches_full_pipeline():
    sample = np.array(SKEWED)
    seed = SeedSpec(42, (2, 1, 0))
    means = boot_means(sample, 500, seed)
    assert bca_interval(sample, 0.05, 500, seed) == bca_from_boot_means(sample, means, 0.05)


def test_degenerate_constant_sample():
    flat = [2.0, 2.0, 2.0, 2.0]
    for build in (
        lambda: normal_theory_interval(flat, 0.05),
        lambda: johnson_t_interval(flat, 0.05),
        lambda: bootstrap_percentile_interval(flat, 0.05, 50, SeedSpec(1, (2, 0, 0))),
        lambda: bca_interval(flat, 0.05, 50, SeedSpec(1, (2, 0, 0))),
    ):
        ci = build()
        assert ci.lower == 2.0 and ci.upper == 2.0


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        normal_theory_interval([1.0], 0.05)
    with pytest.raises(InsufficientDataError):
        johnson_t_interval([1.0, 2.0], 0.05)
    with pytest.raises(InsufficientDataError):
        bca_interval([1.0, 2.0], 0.05, 50, SeedSpec(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_samples_and_means_are_rejected(bad):
    # a NaN once gave bca_interval the interval [1, 1]; every mean entry
    # point now refuses a non-finite sample, and both *_from_boot_means
    # forms refuse non-finite resample means
    sample = [1.0, bad, 2.0, 3.0]
    means = [1.0, 2.0, bad, 3.0]
    seed = SeedSpec(1)
    for call in (
        lambda: normal_theory_interval(sample, 0.05),
        lambda: johnson_t_interval(sample, 0.05),
        lambda: bootstrap_percentile_interval(sample, 0.05, 200, seed),
        lambda: bca_interval(sample, 0.05, 200, seed),
        lambda: normal_theory_interval([FIVE, sample + [4.0]], 0.05),
        lambda: bca_from_boot_means(sample, FIVE, 0.05),
        lambda: bca_from_boot_means(FIVE, means, 0.05),
        lambda: percentile_from_boot_means(means, 0.05),
        lambda: percentile_from_boot_means([FIVE[:4], means], 0.05),
    ):
        with pytest.raises(DomainError, match="must be finite"):
            call()


def test_a_moment_past_the_float_range_is_a_domain_error():
    # this sample's m2 ** 1.5 overflows a float, where Python's pow raised a
    # bare OverflowError; the z interval reads no third moment and stays finite
    sample = [0.0, 1e150, -1e150, 2e150]
    for call in (
        lambda: johnson_t_interval(sample, 0.05),
        lambda: bca_interval(sample, 0.05, 50, SeedSpec(1)),
        lambda: calibrated_interval("johnson_t", sample, 0.05, 50, SeedSpec(1)),
    ):
        with pytest.raises(DomainError, match="sample moments overflow"):
            call()
    ci = normal_theory_interval(sample, 0.05)
    assert math.isfinite(ci.lower) and math.isfinite(ci.upper)
    # here the squares overflow too: every estimator that reads an sd, a
    # skewness or an acceleration refuses the sample, without numpy's
    # RuntimeWarning; the percentile interval reads none of them
    sample = [0.0, 1e200, -1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: normal_theory_interval(sample, 0.05),
            lambda: johnson_t_interval(sample, 0.05),
            lambda: bca_interval(sample, 0.05, 50, SeedSpec(1)),
        ):
            with pytest.raises(DomainError, match="sample moments overflow"):
                call()
        ci = bootstrap_percentile_interval(sample, 0.05, 50, SeedSpec(1))
    assert math.isfinite(ci.lower) and math.isfinite(ci.upper)


def test_an_overflowing_first_moment_is_named_an_overflow():
    # five finite values near 1e308 sum past the float range: the sample
    # mean and the resample means are refused as an overflow, unwarned;
    # precomputed non-finite means keep their own message
    sample = [1e308] * 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: normal_theory_interval(sample, 0.05),
            lambda: bootstrap_percentile_interval(sample, 0.05, 10, SeedSpec(1)),
            lambda: bca_interval(sample, 0.05, 10, SeedSpec(1)),
        ):
            with pytest.raises(DomainError, match="sample moments overflow"):
                call()
    with pytest.raises(DomainError, match="bootstrap means must be finite"):
        percentile_from_boot_means([math.inf, 1.0, 2.0], 0.05)


def test_boot_means_shapes_are_checked():
    with pytest.raises(DomainError, match=r"bootstrap means must have shape \(B,\) or \(m, B\)"):
        percentile_from_boot_means(np.zeros((2, 2, 5)), 0.05)
    with pytest.raises(InsufficientDataError, match="need at least 2 bootstrap means"):
        percentile_from_boot_means([1.0], 0.05)
    with pytest.raises(DomainError, match="need one row of bootstrap means per sample"):
        bca_from_boot_means([FIVE, FIVE], np.zeros((3, 20)), 0.05)


def test_alpha_validation():
    with pytest.raises(DomainError):
        normal_theory_interval(FIVE, 0.0)
    with pytest.raises(DomainError):
        bootstrap_percentile_interval(FIVE, 1.0, 50, SeedSpec(1))
    with pytest.raises(DomainError):
        bootstrap_percentile_interval(FIVE, 0.05, 0, SeedSpec(1))


def test_an_alpha_too_small_for_an_upper_quantile_is_named():
    # 1 - alpha/2 rounds to 1 below about 1.1e-16: the estimators that take
    # a z or t quantile there name alpha, not the rounded probability
    alpha = 1e-17
    for call in (
        lambda: normal_theory_interval(FIVE, alpha),
        lambda: johnson_t_interval(FIVE, alpha),
        lambda: bca_interval(FIVE, alpha, 50, SeedSpec(1)),
        lambda: proportion_interval("wilson", BinomialObservation(10, 3), alpha),
        lambda: exact_performance("exact", 10, 0.3, alpha),
    ):
        with pytest.raises(DomainError, match="^alpha must be large enough"):
            call()
    # the percentile interval takes order statistics, not a quantile
    ci = bootstrap_percentile_interval(FIVE, alpha, 50, SeedSpec(1))
    assert ci.lower <= ci.upper


@pytest.mark.parametrize(
    "rows, shape",
    [
        (1, (2, 2)),     # one sample takes one level
        (1, (1, 1)),
        (2, (3,)),       # one level per row must match the rows
        (2, (2, 3)),     # no level axis before the rows
        (2, (2, 1)),     # no implicit broadcast across rows
        (2, (2, 2, 2)),
        (1, (2,)),       # not even a level axis of its own
        (2, (2, 2)),     # nor one that ends in the rows
    ],
)
def test_level_arrays_must_end_in_the_rows(rows, shape):
    values = np.array(FIVE) if rows == 1 else np.array([FIVE, SKEWED])
    means = values + 0.5
    alpha = np.full(shape, 0.05)
    for call in (
        lambda: normal_theory_interval(values, alpha),
        lambda: johnson_t_interval(values, alpha),
        lambda: percentile_from_boot_means(means, alpha),
        lambda: bca_from_boot_means(values, means, alpha),
    ):
        with pytest.raises(DomainError, match="alpha must be one level"):
            call()
