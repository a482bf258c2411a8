"""Data models, seeded streams, and distributional sanity checks."""

import math

import numpy as np
import pytest
from scipy import stats

from ciindex import (
    DataModel,
    DomainError,
    InsufficientDataError,
    SeedSpec,
    bca_interval,
    binomial_model,
    bootstrap_percentile_interval,
    calibrate_level,
    calibrated_interval,
    draw_sample,
    lognormal_model,
    lognormal_skewness,
    normal_model,
    true_parameter,
)
from ciindex import sampling
from ciindex.sampling import _column_sum, _resample_moments, _stream_generators, _stream_keys

# 1 percent critical values keep distribution checks stable across platforms
KS_LEVEL = 0.01


def test_seed_spec_determinism():
    seed = SeedSpec(20260815, (1, 3))
    a = seed.generator().standard_normal(8)
    b = SeedSpec(20260815, (1, 3)).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_seed_spec_children_differ():
    root = SeedSpec(9)
    x = root.child(1, 0).generator().standard_normal(4)
    y = root.child(1, 1).generator().standard_normal(4)
    z = root.child(2, 0).generator().standard_normal(4)
    assert not np.array_equal(x, y)
    assert not np.array_equal(x, z)
    assert root.child(1, 0).stream_path == (1, 0)


def test_seed_spec_validation():
    with pytest.raises(DomainError):
        SeedSpec(-1)
    with pytest.raises(DomainError):
        SeedSpec(2**64)
    with pytest.raises(DomainError):
        SeedSpec(5, (-1,))
    with pytest.raises(DomainError):
        SeedSpec(5.5)


def test_normal_sample_distribution():
    model = normal_model(2.0, 4.0)
    data = draw_sample(model, 4000, SeedSpec(1234))
    stat = stats.kstest(data, "norm", args=(2.0, 2.0))
    assert stat.pvalue > KS_LEVEL


def test_lognormal_sample_distribution():
    model = lognormal_model(0.5, 0.8)
    data = draw_sample(model, 4000, SeedSpec(99))
    assert np.all(data > 0)
    stat = stats.kstest(np.log(data), "norm", args=(0.5, math.sqrt(0.8)))
    assert stat.pvalue > KS_LEVEL


def test_binomial_sample_support():
    model = binomial_model(10, 0.3)
    data = draw_sample(model, 5000, SeedSpec(7))
    assert data.dtype.kind == "i"
    assert data.min() >= 0 and data.max() <= 10
    assert abs(data.mean() / 10.0 - 0.3) < 0.02


def test_true_parameters():
    assert true_parameter(normal_model(2.0, 1.0)) == 2.0
    assert true_parameter(lognormal_model(0.0, 3.0)) == pytest.approx(
        4.4816890703380645, abs=1e-12
    )
    assert true_parameter(binomial_model(10, 0.25)) == 0.25


def test_lognormal_skewness_anchors():
    # (e^s + 2) sqrt(e^s - 1) for log-scale variance s
    assert round(lognormal_skewness(0.2), 3) == 1.516
    assert round(lognormal_skewness(1.0), 3) == 6.185
    assert round(lognormal_skewness(3.0), 3) == 96.485


def test_model_validation():
    with pytest.raises(DomainError):
        normal_model(0.0, 0.0)
    with pytest.raises(DomainError):
        normal_model(math.nan, 1.0)
    with pytest.raises(DomainError):
        lognormal_model(0.0, -1.0)
    with pytest.raises(DomainError):
        binomial_model(0, 0.5)
    with pytest.raises(DomainError):
        binomial_model(10, 0.0)
    with pytest.raises(DomainError):
        binomial_model(10, 1.0)
    with pytest.raises(DomainError, match="kind must be one of"):
        DataModel(kind="gamma")
    with pytest.raises(DomainError, match="normal model requires sigma2"):
        DataModel(kind="normal", mu=0.0)
    with pytest.raises(DomainError, match="normal model does not take p"):
        DataModel(kind="normal", mu=0.0, sigma2=1.0, p=0.5)
    with pytest.raises(DomainError, match="sigma2_log must be > 0, got 0.0"):
        lognormal_skewness(0.0)


def test_lognormal_model_with_an_overflowing_mean_is_rejected():
    # the mean exp(mu_log + sigma2_log / 2) must be a float, or
    # true_parameter would overflow in every study
    for mu_log, sigma2_log in ((0.0, 1500.0), (709.0, 2.0), (1e308, 1e308)):
        with pytest.raises(DomainError, match="finite mean"):
            lognormal_model(mu_log, sigma2_log)
    # so must the variance expm1(sigma2_log) * exp(2 mu_log + sigma2_log),
    # or every sample sd overflows: a finite mean is not enough
    for mu_log, sigma2_log in ((700.0, 1.0), (709.0, 1.5), (0.0, 710.0), (354.0, 1.5)):
        with pytest.raises(DomainError, match=rf"mu_log = {mu_log}, sigma2_log = {sigma2_log}\) needs a finite mean"):
            lognormal_model(mu_log, sigma2_log)
    # a variance just below the float limit is kept
    assert true_parameter(lognormal_model(353.0, 1.5)) == pytest.approx(math.exp(353.75))


def test_draw_sample_validation():
    with pytest.raises(DomainError):
        draw_sample(normal_model(0.0, 1.0), 0, SeedSpec(1))


def _moments(sample, B, seed):
    means, sds = np.empty(B), np.empty(B)
    _resample_moments(sample, B, seed.generator(), means, sds)
    return means, sds


def test_resample_moments_depend_on_sample_b_and_stream_alone():
    # the one resample draw is a function of (sample, B, stream) alone
    sample = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    seed = SeedSpec(5, (2, 0, 0))
    means, sds = _moments(sample, 7, seed)
    assert sample.min() <= means.min() and means.max() <= sample.max()
    assert (sds >= 0.0).all()
    again = _moments(sample, 7, seed)
    assert means.tobytes() == again[0].tobytes() and sds.tobytes() == again[1].tobytes()
    # without sds only the means are written, the same bits
    alone = np.empty(7)
    _resample_moments(sample, 7, seed.generator(), alone)
    assert alone.tobytes() == means.tobytes()
    assert _moments(sample, 7, SeedSpec(5, (2, 0, 1)))[0].tobytes() != means.tobytes()


@pytest.mark.parametrize("n", range(1, 17))
def test_column_sums_equal_the_row_reduction(monkeypatch, n):
    # from B = 64n resamples up, at 2 <= n < 16, both row sums add whole
    # columns; either way the bits are numpy's, on normal, tied, all -0.0
    # and overflowing rows
    rng = np.random.default_rng(n)
    rows = {
        "normal": rng.normal(3.0, 2.0, n),
        "tied": rng.integers(-3, 4, n).astype(float),
        "negative zero": np.full(n, -0.0),
        "overflowing": rng.choice([1e308, -1e308], n),
    }
    calls = []
    monkeypatch.setattr(sampling, "_column_sum", lambda *args: calls.append(_column_sum(*args)))
    for B in (64 * n - 1, 64 * n, 1000):
        by_columns = 2 <= n < 16 and B >= 64 * n
        for kind, values in rows.items():
            seed = SeedSpec(n, (2, B, 0))
            boot = values[seed.generator().integers(0, n, size=(B, n))]
            calls.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                if 2 <= n < 16:
                    got = np.empty(B)
                    _column_sum(boot, got)
                    assert got.tobytes() == np.add.reduce(boot, axis=1).tobytes(), (B, kind)
                means, sds = _moments(values, B, seed)
                assert len(calls) == 2 * by_columns, (B, kind)
                assert means.tobytes() == boot.mean(axis=1).tobytes(), (B, kind)
                if n >= 2:
                    assert sds.tobytes() == boot.std(axis=1, ddof=1).tobytes(), (B, kind)


@pytest.mark.parametrize(
    "values, B, error",
    [
        (np.array([]), 5, InsufficientDataError),
        (np.ones((2, 4)), 3, DomainError),
        (np.array(5.0), 3, DomainError),
        (np.ones(4), 0, DomainError),
        (np.ones(4), 1, DomainError),
        (np.ones(4), -1, DomainError),
        (np.ones(4), 2.5, DomainError),
    ],
    ids=["empty", "2-d", "0-d", "B-0", "B-1", "B-negative", "B-float"],
)
def test_one_sample_entry_points_share_one_input_rule(values, B, error):
    # every entry point that draws one sample's resample set applies one
    # input rule before it opens the stream
    seed = SeedSpec(5, (2, 0, 0))
    for call in (
        lambda: bootstrap_percentile_interval(values, 0.05, B, seed),
        lambda: bca_interval(values, 0.05, B, seed),
        lambda: calibrate_level(values, 0.05, B, seed),
        lambda: calibrated_interval("normal_theory", values, 0.05, B, seed),
    ):
        with pytest.raises(error):
            call()


STREAM_MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 20260815)
# () is numpy's unpadded run entropy; (2**40, 3) a two-word entry before the last
STREAM_PREFIXES = ((2, 0), (2, 7), (2, 2**33), (1,), (), (2**40, 3))


@pytest.mark.parametrize("count", (1, 128, 129, 1000))
def test_stream_keys_equal_seed_sequence(count):
    # bit for bit numpy's own key derivation, for every stream of the pass
    for master in STREAM_MASTERS:
        for prefix in STREAM_PREFIXES:
            keys = _stream_keys(SeedSpec(master, prefix), count)
            want = [
                np.random.SeedSequence(master, spawn_key=prefix + (i,)).generate_state(2, np.uint64)
                for i in range(count)
            ]
            assert keys.dtype == np.uint64
            np.testing.assert_array_equal(keys, np.array(want, dtype=np.uint64).reshape(count, 2))


def test_stream_generators_draw_what_seed_spec_draws():
    for master in STREAM_MASTERS:
        for prefix in STREAM_PREFIXES:
            seed = SeedSpec(master, prefix)
            drawn = 0
            # the opener re-keys one generator, so draw while it is current
            for i, rng in enumerate(_stream_generators(seed, 130)):
                want = seed.child(i).generator()
                np.testing.assert_array_equal(
                    rng.integers(0, 10, size=(3, 10)), want.integers(0, 10, size=(3, 10))
                )
                # a lone 32-bit draw leaves a spare word the next stream must not see
                assert rng.integers(0, 7, dtype=np.uint32) == want.integers(0, 7, dtype=np.uint32)
                drawn += 1
            assert drawn == 130


def test_stream_count_domain():
    assert _stream_keys(SeedSpec(1, (2, 0)), 0).shape == (0, 2)
    for count in (-1, 2**32, 1.0):
        with pytest.raises(DomainError):
            _stream_keys(SeedSpec(1, (2, 0)), count)
