"""Index core: exact constants, published anchors, monotonicity, domains."""

import math

import numpy as np
import pytest

from ciindex import (
    DomainError,
    IndexConfig,
    IntervalPerformance,
    compute_index,
    compute_index_array,
    index_range,
    k_alpha,
    limit_case,
    rescale_index,
)
from published_tables import iter_cv_rows, iter_proportion_rows

CFG = IndexConfig()


def test_k_alpha_exact_fraction():
    # (4 - 2a) / (3 - 2a) at a = 0.05 is exactly 39/29
    assert k_alpha(0.05) == pytest.approx(39.0 / 29.0, abs=1e-15)
    assert k_alpha(0.05) == pytest.approx(1.3448275862068966, abs=1e-15)


def test_absolute_range_endpoints():
    lo, hi = index_range(CFG)
    assert lo == pytest.approx(39.0 / 1160.0, abs=1e-15)  # k * alpha / 2
    assert lo == pytest.approx(0.033620689655172414, abs=1e-15)
    assert hi == 1.0


def test_squared_range_endpoints():
    lo, hi = index_range(IndexConfig(loss="squared"))
    # alpha (2 - alpha)^2 / (3 - 2 alpha)
    assert lo == pytest.approx(0.05 * 1.95**2 / 2.9, abs=1e-15)
    assert lo == pytest.approx(0.06556034482758621, abs=1e-12)
    assert hi == 1.0


def test_limit_cases_absolute():
    lo, _ = index_range(CFG)
    assert limit_case("I", CFG) == pytest.approx(lo, abs=1e-12)
    assert limit_case("II", CFG) == pytest.approx(lo, abs=1e-12)
    assert limit_case("III", CFG) == pytest.approx(k_alpha(0.05) / 2.0, abs=1e-12)
    assert limit_case("IV", CFG) == pytest.approx(1.0, abs=1e-12)


def test_limit_cases_squared():
    cfg = IndexConfig(loss="squared")
    # shortest degenerate and infinite-length corners coincide
    corner = k_alpha(0.05) * 0.05 * 1.95 / 2.0
    assert limit_case("I", cfg) == pytest.approx(corner, abs=1e-12)
    assert limit_case("II", cfg) == pytest.approx(corner, abs=1e-12)
    assert limit_case("IV", cfg) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        limit_case("V", cfg)


def test_published_anchor_value():
    value = compute_index(IntervalPerformance(0.9776, 0.4859), CFG)
    assert value == pytest.approx(0.9280563624783914, abs=1e-12)
    assert round(value, 4) == 0.9281


def test_rescale_anchor():
    assert rescale_index(0.9281, CFG) == pytest.approx(0.9255985727029439, abs=1e-12)
    lo, _ = index_range(CFG)
    assert rescale_index(lo, CFG) == 0.0
    assert rescale_index(1.0, CFG) == 1.0
    with pytest.raises(DomainError):
        rescale_index(lo - 1e-3, CFG)
    values = np.array([lo, 0.9281, 1.0])
    assert rescale_index(values, CFG).tolist() == [rescale_index(v, CFG) for v in values.tolist()]
    with pytest.raises(DomainError):
        rescale_index(np.array([0.5, lo - 1e-3]), CFG)


def test_rescaled_config_applies_rescale():
    cfg = IndexConfig(rescaled=True)
    raw = compute_index(IntervalPerformance(0.9776, 0.4859), CFG)
    assert compute_index(IntervalPerformance(0.9776, 0.4859), cfg) == pytest.approx(
        rescale_index(raw, CFG), abs=1e-15
    )


def test_squared_loss_can_exceed_printed_upper():
    # near the full-coverage zero-length corner the squared-loss index
    # rises above 1; the rescale map passes such values through
    cfg = IndexConfig(loss="squared")
    value = compute_index(IntervalPerformance(0.999999, 1e-9), cfg)
    assert value > 1.0
    assert compute_index(IntervalPerformance(0.999999, 1e-9), IndexConfig(loss="squared", rescaled=True)) > 1.0


def test_published_tables_reproduced():
    # every printed (coverage, length, index) triple across both catalogs
    rows = list(iter_proportion_rows()) + list(iter_cv_rows())
    assert len(rows) == 279
    for _n, _g, _label, cov, length, idx in rows:
        got = compute_index(IntervalPerformance(cov, length), CFG)
        assert got == pytest.approx(idx, abs=2e-3)


def test_compute_index_array_matches_scalar():
    rng = np.random.default_rng(7)
    cov = rng.uniform(0.0, 1.0, size=64)
    length = rng.uniform(0.0, 20.0, size=64)
    out = compute_index_array(cov, length, CFG)
    for c, l, v in zip(cov, length, out):
        assert v == compute_index(IntervalPerformance(float(c), float(l)), CFG)


def test_monotone_decreasing_in_length():
    for cov in (0.2, 0.8, 0.95, 0.99):
        lengths = np.linspace(0.01, 30.0, 200)
        vals = compute_index_array(np.full_like(lengths, cov), lengths, CFG)
        assert np.all(np.diff(vals) < 0)


def test_monotone_increasing_in_coverage_below_nominal():
    for length in (0.1, 1.0, 5.0):
        covs = np.linspace(0.0, 0.95, 200)
        vals = compute_index_array(covs, np.full_like(covs, length), CFG)
        assert np.all(np.diff(vals) > 0)


def test_bounds_hold_on_random_grid():
    rng = np.random.default_rng(11)
    cov = rng.uniform(0.0, 1.0, size=20_000)
    length = rng.uniform(0.0, 100.0, size=20_000)
    vals = compute_index_array(cov, length, CFG)
    lo, hi = index_range(CFG)
    assert np.all(vals >= lo - 1e-12)
    assert np.all(vals < hi)


def test_validation_errors():
    with pytest.raises(DomainError):
        IndexConfig(alpha=0.0)
    with pytest.raises(DomainError):
        IndexConfig(loss="cubic")
    with pytest.raises(DomainError):
        IntervalPerformance(1.2, 0.5)
    with pytest.raises(DomainError):
        IntervalPerformance(0.9, -0.5)
    with pytest.raises(DomainError):
        IntervalPerformance(0.9, math.inf)
    with pytest.raises(DomainError):
        compute_index_array(np.array([0.5, 1.5]), np.array([1.0, 1.0]), CFG)


@pytest.mark.parametrize(
    "coverage, length",
    [([math.nan, 0.5], [1.0, math.nan]), ([0.5], [math.inf]), ([0.5], [math.nan])],
)
def test_compute_index_array_rejects_what_interval_performance_rejects(coverage, length):
    # NaN passes a min()/max() range check; the array form must refuse the
    # pairs the one-pair form refuses
    with pytest.raises(DomainError):
        IntervalPerformance(coverage[0], length[0])
    with pytest.raises(DomainError):
        compute_index_array(coverage, length, CFG)


def _sup(alpha: float, loss: str) -> float:
    # supremum over coverage in [0, 1] at length 0, where the index peaks:
    # coverage 1 - alpha under absolute loss; under squared loss
    # sqrt(1 + d^2) - 1 with d = 2 - alpha, or 1 once that exceeds 1
    if loss == "absolute":
        return 1.0
    k, d = k_alpha(alpha), 2.0 - alpha
    if math.sqrt(1.0 + d * d) - 1.0 > 1.0:
        return k * (1.0 - (1.0 + alpha * alpha) / 4.0)
    return k * (1.0 - math.sqrt(1.0 + d * d) + d)


@pytest.mark.parametrize("loss", ["absolute", "squared"])
def test_index_range_is_tight_and_rescaled_values_stay_in_it(loss):
    # the grid holds each extreme: coverage 0 (the lower end for alpha <=
    # 0.5), coverage 1 at a huge length (approached above 0.5), nominal
    # coverage and the squared-loss maximiser at length 0
    for alpha in np.linspace(0.01, 0.99, 99).tolist():
        d = 2.0 - alpha
        covs = np.linspace(0.0, 1.0, 21).tolist() + [1.0 - alpha, min(math.sqrt(1.0 + d * d) - 1.0, 1.0)]
        lengths = [0.0, 1e-3, 0.5, 3.0, 1e9]
        cov, length = (a.ravel() for a in np.meshgrid(covs, lengths))
        raw = compute_index_array(cov, length, IndexConfig(alpha, loss))
        lo, hi = index_range(IndexConfig(alpha, loss))
        upper = _sup(alpha, loss)
        assert hi == 1.0
        assert lo - 1e-9 <= raw.min() <= lo + 1e-6, (alpha, raw.min(), lo)
        assert upper - 1e-12 <= raw.max() <= upper + 1e-9, (alpha, raw.max(), upper)

        cfg = IndexConfig(alpha, loss, rescaled=True)
        scaled = compute_index_array(cov, length, cfg)
        assert scaled.min() >= -1e-9
        for c, ell, v in zip(cov.tolist(), length.tolist(), scaled.tolist()):
            assert compute_index(IntervalPerformance(c, ell), cfg) == v
