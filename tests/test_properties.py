"""Property tests: estimator invariants on generated inputs.

Runs are derandomized, so the examples are the same on every run and the
suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ciindex import (
    PROPORTION_ESTIMATORS,
    BinomialObservation,
    SeedSpec,
    johnson_t_interval,
    normal_theory_interval,
    proportion_interval,
)
from ciindex.calibration import _beta_from_lambdas, _lambdas
from ciindex.mean_intervals import (
    bca_from_boot_means,
    bootstrap_mean_draws,
    percentile_from_boot_means,
)

PROPERTY = settings(derandomize=True, deadline=None, database=None)
SEED = SeedSpec(20260815, (2, 0, 0))


def _percentile(values, alpha):
    return percentile_from_boot_means(bootstrap_mean_draws(values, 200, SEED), alpha)


@st.composite
def _affine_cases(draw):
    n = draw(st.integers(3, 50))
    x = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    a = draw(st.floats(0.1, 10.0))
    b = draw(st.floats(-100.0, 100.0))
    alpha = draw(st.floats(0.01, 0.3))
    return np.array(x), a, b, alpha


# BCa is left out: when a resample mean equals the sample mean, rounding
# in a * x + b can flip its bias-correction count.
@PROPERTY
@given(_affine_cases())
def test_mean_intervals_are_affine_equivariant(case):
    x, a, b, alpha = case
    tol = 1e-12 * (1.0 + abs(b) + a * float(np.max(np.abs(x))))
    for estimator in (normal_theory_interval, johnson_t_interval, _percentile):
        plain = estimator(x, alpha)
        moved = estimator(a * x + b, alpha)
        assert abs(moved.lower - (a * plain.lower + b)) <= tol
        assert abs(moved.upper - (a * plain.upper + b)) <= tol


@st.composite
def _binomial_cases(draw):
    n = draw(st.integers(1, 3000))
    x = draw(st.integers(0, n))
    alpha = draw(st.floats(0.001, 0.5))
    return BinomialObservation(n, x), alpha


@PROPERTY
@given(_binomial_cases())
def test_proportion_intervals_stay_in_unit_interval(case):
    obs, alpha = case
    for kind in PROPORTION_ESTIMATORS:
        ci = proportion_interval(kind, obs, alpha)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0


@st.composite
def _block_cases(draw):
    # a block of m samples with their resample means and sds; small
    # integer data gives tied values and tied resample means, and some
    # rows are constant (zero variance).  Rows longer than numpy's
    # 128-element summation block come from the generator, rounded to
    # integers so they hold ties too
    m = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(3, 12), st.just(300)))
    B = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))
    rows = []
    for _ in range(m):
        if n > 12:
            row = rng.normal(0.0, 10.0, n).round().tolist()
        else:
            row = draw(st.lists(value, min_size=n, max_size=n))
        if draw(st.booleans()) and draw(st.booleans()):
            row = [row[0]] * n
        rows.append(row)
    values = np.array(rows)
    boot = values[np.arange(m)[:, None, None], rng.integers(0, n, size=(m, B, n))]
    level = st.floats(0.001, 0.5)
    if draw(st.booleans()):
        alpha = draw(level)
    else:
        alpha = np.array(draw(st.lists(level, min_size=m, max_size=m)))
    return values, boot.mean(axis=2), boot.std(axis=2, ddof=1), alpha


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# the harness issues every estimator and the level rule once per block of
# samples; each row of a block call must be the one-sample call, bit for bit
@PROPERTY
@given(_block_cases())
def test_block_calls_equal_their_one_row_calls(case):
    values, means, sds, alpha = case
    rows = range(values.shape[0])
    level = [alpha if np.ndim(alpha) == 0 else float(alpha[i]) for i in rows]
    block = {
        "normal_theory": normal_theory_interval(values, alpha),
        "johnson_t": johnson_t_interval(values, alpha),
        "percentile": percentile_from_boot_means(means, alpha),
        "bca": bca_from_boot_means(values, means, alpha),
    }
    one = {
        "normal_theory": [normal_theory_interval(values[i], level[i]) for i in rows],
        "johnson_t": [johnson_t_interval(values[i], level[i]) for i in rows],
        "percentile": [percentile_from_boot_means(means[i], level[i]) for i in rows],
        "bca": [bca_from_boot_means(values[i], means[i], level[i]) for i in rows],
    }
    for name, ci in block.items():
        assert _bits(ci.lower) == _bits([row.lower for row in one[name]]), name
        assert _bits(ci.upper) == _bits([row.upper for row in one[name]]), name
        for i in rows:
            assert isinstance(one[name][i].lower, float)

    lambdas = _lambdas(values, means, sds)
    assert _bits(lambdas) == _bits([_lambdas(values[i], means[i], sds[i]) for i in rows])
    for a in (0.05, level[0]):
        betas = _beta_from_lambdas(lambdas, a)
        assert _bits(betas) == _bits([_beta_from_lambdas(lambdas[i], a) for i in rows])
