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
from ciindex.mean_intervals import bootstrap_mean_draws, percentile_from_boot_means

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
