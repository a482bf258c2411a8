"""Data models, seeded streams, and distributional sanity checks."""

import math

import numpy as np
import pytest
from scipy import stats

from ciindex import (
    DomainError,
    InsufficientDataError,
    SeedSpec,
    binomial_model,
    draw_sample,
    lognormal_model,
    lognormal_skewness,
    normal_model,
    true_parameter,
)
from ciindex.sampling import _stream_generators, _stream_keys, bootstrap_resamples

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


def test_draw_sample_validation():
    with pytest.raises(DomainError):
        draw_sample(normal_model(0.0, 1.0), 0, SeedSpec(1))


def test_bootstrap_resample_draws_from_sample():
    sample = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    boot = bootstrap_resamples(sample, 7, SeedSpec(5, (2, 0, 0)))
    assert boot.shape == (7, sample.size)
    assert set(boot.ravel()).issubset(set(sample))
    again = bootstrap_resamples(sample, 7, SeedSpec(5, (2, 0, 0)))
    assert np.array_equal(boot, again)


@pytest.mark.parametrize(
    "values, B, error",
    [
        (np.array([]), 5, InsufficientDataError),
        (np.ones((2, 2)), 3, DomainError),
        (np.array(5.0), 3, DomainError),
        (np.ones(4), 0, DomainError),
        (np.ones(4), 1, DomainError),
        (np.ones(4), -1, DomainError),
        (np.ones(4), 2.5, DomainError),
    ],
    ids=["empty", "2-d", "0-d", "B-0", "B-1", "B-negative", "B-float"],
)
def test_bootstrap_resamples_rejects_bad_input(values, B, error):
    # the public draw owns the input rule; its callers no longer repeat it
    with pytest.raises(error):
        bootstrap_resamples(values, B, SeedSpec(5, (2, 0, 0)))


STREAM_MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 20260815)
STREAM_PREFIXES = ((2, 0), (2, 7), (2, 2**33), (1,))


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
