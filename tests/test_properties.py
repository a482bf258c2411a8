"""Property tests: estimator invariants on generated inputs.

Runs are derandomized, so the examples are the same on every run and the
suite stays deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from ciindex import (
    PROPORTION_ESTIMATORS,
    BinomialObservation,
    ConfidenceInterval,
    DomainError,
    IndexConfig,
    IndexSummary,
    IntervalPerformance,
    SeedSpec,
    SimulationPlan,
    binomial_model,
    compute_index,
    compute_index_array,
    exact_performance,
    johnson_t_interval,
    normal_theory_interval,
    proportion_interval,
    run_proportion_study,
    summarize_index,
)
from ciindex.calibration import _beta_from_lambdas, _lambdas, _row_sds, _upper_tail
from ciindex.mean_intervals import (
    bca_from_boot_means,
    bootstrap_mean_draws,
    percentile_from_boot_means,
)
from ciindex import proportion_intervals
from ciindex.proportion_intervals import _TABLES, _endpoints, _pmf, _weighted_outcomes
from ciindex.special import _binomial_pmf, normal_cdf

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


def _scalar_interval(kind: str, n: int, x: int, alpha: float) -> tuple[float, float]:
    # the eleven formulas one outcome at a time in Python floats and math,
    # with the quantiles' boundary rules: the reference the array formulas
    # must reproduce bit for bit
    z = float(special.ndtri(1.0 - alpha / 2.0))
    z2 = z * z

    def beta_q(q, a, b):
        return 0.0 if a == 0 else 1.0 if b == 0 else float(special.betaincinv(a, b, q))

    def chi2_q(q, df):
        return 0.0 if df == 0 else float(2.0 * special.gammaincinv(df / 2.0, q))

    def arcsin_pair(g, h):
        t = math.asin(math.sqrt(min(max(g, 0.0), 1.0)))
        return math.sin(t - h) ** 2, math.sin(t + h) ** 2

    def shifted(mid, h):
        return mid - h, mid + h

    lo_p, hi_p = alpha / 2.0, 1.0 - alpha / 2.0
    if kind == "exact":
        lo, hi = beta_q(lo_p, x, n - x + 1), beta_q(hi_p, x + 1, n - x)
    elif kind == "wald":
        ph = x / n
        lo, hi = shifted(ph, z * math.sqrt(ph * (1.0 - ph) / n))
    elif kind == "arcsin":
        lo, hi = arcsin_pair((x - 0.5) / n, z / (2.0 * math.sqrt(n)))
    elif kind == "arcsin_cc":
        lo, hi = arcsin_pair((x - 0.125) / (n + 0.75), z / (2.0 * math.sqrt(n + 0.5)))
    elif kind == "pois":
        lo, hi = chi2_q(lo_p, 2 * x) / (2.0 * n), chi2_q(hi_p, 2 * (x + 1)) / (2.0 * n)
    elif kind == "wilson":
        mid = (x + z2 / 2.0) / (n + z2)
        lo, hi = shifted(mid, (z / (n + z2)) * math.sqrt(x * (1.0 - x / n) + z2 / 4.0))
    elif kind == "wilson_cc":
        lo_arg = max(z2 - 2.0 - 1.0 / n + 4.0 * x * (1.0 - x / n + 1.0 / n), 0.0)
        hi_arg = max(z2 + 2.0 - 1.0 / n + 4.0 * x * (1.0 - x / n - 1.0 / n), 0.0)
        lo = (2.0 * x + z2 - 1.0 - z * math.sqrt(lo_arg)) / (2.0 * (n + z2))
        hi = (2.0 * x + z2 + 1.0 + z * math.sqrt(hi_arg)) / (2.0 * (n + z2))
    elif kind == "bcg":
        mid = (x + z2 / 2.0) / (n + z2)
        lo, hi = shifted(mid, z * math.sqrt(x / n**2 * (1.0 - x / n)))
    elif kind == "agresti_coull":
        pt = (x + z2 / 2.0) / (n + z2)
        lo, hi = shifted(pt, z * math.sqrt(pt * (1.0 - pt) / (n + z2)))
    elif kind == "add4":
        pt = (x + 2.0) / (n + 4.0)
        lo, hi = shifted(pt, z * math.sqrt(pt * (1.0 - pt) / (n + 4.0)))
    else:
        lo, hi = beta_q(lo_p, x + 0.5, n - x + 0.5), beta_q(hi_p, x + 0.5, n - x + 0.5)
    return min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)


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
        assert _bits([ci.lower, ci.upper]) == _bits(_scalar_interval(kind, obs.n, obs.x, alpha)), kind


@st.composite
def _sweep_cases(draw):
    # weights of the n + 1 outcomes: zeros (skipped), study counts and
    # pmf-like values at small n, all zeros, or a binomial pmf up to
    # n = 1000, whose far tails underflow to zero and are skipped
    p = draw(st.floats(0.001, 0.999))
    alpha = draw(st.floats(0.001, 0.999))
    shape = draw(st.sampled_from(("mixed", "pmf", "pmf", "zeros")))
    if shape == "pmf":
        n = draw(st.integers(40, 1000))
        return n, p, alpha, stats.binom.pmf(np.arange(n + 1), n, p)
    n = draw(st.integers(1, 60))
    if shape == "zeros":
        return n, p, alpha, [0] * (n + 1)
    weight = st.one_of(st.just(0), st.integers(1, 50), st.floats(0.0, 1.0))
    return n, p, alpha, draw(st.lists(weight, min_size=n + 1, max_size=n + 1))


def _scalar_tally(kind: str, n: int, p: float, alpha: float, weights) -> tuple[float, float]:
    # running totals of w * [covers p] and w * length over the outcomes of
    # nonzero weight, one scalar interval at a time
    cover = 0.0
    length = 0.0
    for x, w in enumerate(weights):
        if w == 0:
            continue
        ci = ConfidenceInterval(*_scalar_interval(kind, n, x, alpha))
        if ci.contains(p):
            cover += w
        length += w * ci.length
    return cover, length


# a sweep checks its kind and alpha once and scores the outcomes of nonzero
# weight with one formula call; its sums must be the running totals of the
# scalar formulas
@PROPERTY
@given(_sweep_cases())
def test_sweep_equals_the_tally_of_scalar_formulas(case):
    n, p, alpha, weights = case
    w = np.asarray(weights, dtype=float)
    x = np.flatnonzero(w)
    for kind in PROPORTION_ESTIMATORS:
        try:
            want = _scalar_tally(kind, n, p, alpha, weights)
        except DomainError:
            # an arcsine interval wraps past pi / 2 and inverts (lower >
            # upper) at n = 1 and alpha below about 0.002; both must raise
            with pytest.raises(DomainError):
                _weighted_outcomes(kind, n, p, alpha, x, w[x])
            continue
        assert _bits(_weighted_outcomes(kind, n, p, alpha, x, w[x])) == _bits(want), kind


@st.composite
def _exact_sweeps(draw):
    # exact_performance calls that share (kind, n, alpha) at several p, in
    # drawn order; p reaches subnormal values, where the pmf of every
    # x >= 1 underflows to zero
    n = draw(st.integers(1, 200))
    alpha = draw(st.floats(1e-7, 0.999))
    kinds = draw(st.lists(st.sampled_from(PROPORTION_ESTIMATORS), min_size=1, max_size=2, unique=True))
    ps = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=2, max_size=3))
    return n, alpha, draw(st.permutations([(kind, p) for kind in kinds for p in ps]))


# each call at a (kind, n, alpha) fills the endpoints of the outcomes its
# pmf reaches and every later p reuses them; cold or warm, each result must
# be the running totals of the scalar formulas over that p's pmf.  At n = 2
# and alpha = 1e-6 the arcsine interval inverts at x = 1 and 2, so p = 0.3
# raises while p = 1e-310, whose pmf is zero there, does not
@PROPERTY
@given(_exact_sweeps())
@example((2, 1e-6, [("arcsin", 1e-310), ("arcsin", 0.3), ("arcsin", 1e-310)]))
def test_exact_performance_equals_the_tally_of_scalar_formulas(case):
    n, alpha, calls = case
    _endpoints.cache_clear()
    _pmf.cache_clear()
    for kind, p in calls:
        try:
            cover, length = _scalar_tally(kind, n, p, alpha, _binomial_pmf(n, p))
        except DomainError:
            with pytest.raises(DomainError):
                exact_performance(kind, n, p, alpha)
            continue
        perf = exact_performance(kind, n, p, alpha)
        assert _bits([perf.coverage, perf.mean_length]) == _bits([min(cover, 1.0), length]), (kind, p)


def test_the_endpoint_cache_is_bounded():
    for n in range(1, _TABLES + 10):
        exact_performance("wald", n, 0.3, 0.05)
    info = _endpoints.cache_info()
    assert info.maxsize == _TABLES
    assert info.currsize <= info.maxsize


def _counted(calls: list, func):
    def wrapper(*args):
        calls.append(args)
        return func(*args)

    return wrapper


def test_a_sweep_over_the_kinds_builds_one_pmf(monkeypatch):
    # the pmf does not depend on the estimator: an 11-kind sweep at one
    # (n, p) computes it once
    calls = []
    monkeypatch.setattr(proportion_intervals, "_binomial_pmf", _counted(calls, _binomial_pmf))
    _pmf.cache_clear()
    for kind in PROPORTION_ESTIMATORS:
        exact_performance(kind, 40, 0.3, 0.05)
    assert calls == [(40, 0.3)]
    _pmf.cache_clear()


def test_the_shared_pmf_is_read_only_and_equals_direct_calls():
    # the cache keeps the nonzero outcomes of the pmf and their weights
    _pmf.cache_clear()
    for n, p in ((40, 0.3), (150, 0.02), (40, 0.3), (40, 1e-310)):
        x, weights = _pmf(n, p)
        for kept in (x, weights):
            with pytest.raises(ValueError):
                kept[0] = 0
        pmf = _binomial_pmf(n, p)
        assert x.tobytes() == np.flatnonzero(pmf).tobytes(), (n, p)
        assert weights.tobytes() == pmf[np.flatnonzero(pmf)].tobytes(), (n, p)
    # a 0-d array p or alpha is unhashable: the caches key on its float,
    # same bits
    with pytest.raises(TypeError):
        _pmf(40, np.array(0.3))
    for kind in PROPORTION_ESTIMATORS:
        want = exact_performance(kind, 40, 0.3, 0.05)
        for p, alpha in ((np.array(0.3), 0.05), (0.3, np.array(0.05))):
            got = exact_performance(kind, 40, p, alpha)
            assert _bits([got.coverage, got.mean_length]) == _bits([want.coverage, want.mean_length]), kind


def test_an_inverted_table_is_evaluated_once(monkeypatch):
    # at n = 4 and alpha = 1e-12 the arcsine interval inverts at x >= 1.
    # A call evaluates only the outcomes its key has not kept: p = 1e-310
    # reaches x = 0 alone and p = 0.3 all five, and a repeated call
    # evaluates no formula; p = 0.3 raises each time.  Kind and alpha errors
    # are not kept
    calls = []
    monkeypatch.setitem(proportion_intervals._FORMULAS, "arcsin", _counted(calls, proportion_intervals._arcsin))
    _endpoints.cache_clear()
    first = exact_performance("arcsin", 4, 1e-310, 1e-12)
    again = exact_performance("arcsin", 4, 1e-310, 1e-12)
    assert _bits([again.coverage, again.mean_length]) == _bits([first.coverage, first.mean_length])
    for _ in range(2):
        with pytest.raises(DomainError, match="exceeds upper"):
            exact_performance("arcsin", 4, 0.3, 1e-12)
    assert [args[1].tolist() for args in calls] == [[0], [1, 2, 3, 4]]
    for kind, alpha in (("arcsine", 0.05), ("arcsin", 1.5)):
        with pytest.raises(DomainError):
            exact_performance(kind, 4, 0.3, alpha)
    assert _endpoints.cache_info().currsize == 1
    _endpoints.cache_clear()


def _count_formula_calls(monkeypatch) -> dict:
    # the outcomes each formula is evaluated over, by kind
    calls = {kind: [] for kind in PROPORTION_ESTIMATORS}
    for kind, formula in proportion_intervals._FORMULAS.items():
        monkeypatch.setitem(proportion_intervals._FORMULAS, kind, _counted(calls[kind], formula))
    return calls


def test_a_cold_oracle_call_evaluates_only_the_outcomes_of_nonzero_pmf(monkeypatch):
    # at n = 10^4 and p = 0.02 the pmf underflows to zero at all but 939
    # of the 10001 outcomes; those tails would add +0.0 and are never
    # evaluated
    nonzero = np.flatnonzero(_binomial_pmf(10**4, 0.02))
    assert len(nonzero) == 939
    calls = _count_formula_calls(monkeypatch)
    _endpoints.cache_clear()
    for kind in PROPORTION_ESTIMATORS:
        exact_performance(kind, 10**4, 0.02, 0.05)
        assert [args[1].tolist() for args in calls[kind]] == [nonzero.tolist()], kind
    _endpoints.cache_clear()


def test_a_study_after_an_oracle_sweep_evaluates_no_formula(monkeypatch):
    # the oracle and the study share one endpoint cache: a sweep at
    # (40, 0.3, 0.05) fills every outcome a study of 40 trials can draw
    _endpoints.cache_clear()
    for kind in PROPORTION_ESTIMATORS:
        exact_performance(kind, 40, 0.3, 0.05)
    calls = _count_formula_calls(monkeypatch)
    plan = SimulationPlan(
        model=binomial_model(40, 0.3), n=40, N=1, B=1, R=200, alpha=0.05,
        estimators=PROPORTION_ESTIMATORS, master_seed=20260815,
    )
    run_proportion_study(plan)
    assert not any(calls.values()), calls
    _endpoints.cache_clear()


@st.composite
def _resample_sets(draw):
    # B resamples of n values at scales from 1e-3 to 1e3; integer-valued
    # sets hold ties, and rows of one repeated value have zero variance
    B = draw(st.integers(1, 40))
    n = draw(st.integers(2, 300))
    scale = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(-3, 4, size=(B, n)) * scale
    return rng.normal(draw(st.floats(-1e3, 1e3)), scale, size=(B, n))


@PROPERTY
@given(_resample_sets())
def test_row_sds_equal_numpy_std(boot):
    assert _bits(_row_sds(boot, boot.mean(axis=1))) == _bits(boot.std(axis=1, ddof=1))


@st.composite
def _block_cases(draw):
    # a block of m samples with their resample means and sds; small
    # integer data gives tied values and tied resample means, some rows
    # are constant (zero variance), and some resamples repeat one value
    # (zero sd) in a row that varies.  Rows longer than numpy's
    # 128-element summation block come from the generator, rounded to
    # integers so they hold ties too
    m = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(3, 12), st.just(300)))
    B = draw(st.one_of(st.integers(2, 40), st.just(200)))
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
    picks = rng.integers(0, n, size=(m, B, n))
    if draw(st.booleans()):
        single = rng.random((m, B)) < 0.3
        picks[single] = picks[single][:, :1]
    boot = values[np.arange(m)[:, None, None], picks]
    level = st.floats(0.001, 0.5)
    if draw(st.booleans()):
        alpha = draw(level)
    else:
        alpha = np.array(draw(st.lists(level, min_size=m, max_size=m)))
    return values, boot.mean(axis=2), boot.std(axis=2, ddof=1), alpha


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _four(values, means, alpha) -> dict:
    return {
        "normal_theory": normal_theory_interval(values, alpha),
        "johnson_t": johnson_t_interval(values, alpha),
        "percentile": percentile_from_boot_means(means, alpha),
        "bca": bca_from_boot_means(values, means, alpha),
    }


# the harness issues every estimator and the level rule once per block of
# samples; each row of a block call must be the one-sample call, bit for bit
@PROPERTY
@given(_block_cases())
def test_block_calls_equal_their_one_row_calls(case):
    values, means, sds, alpha = case
    rows = range(values.shape[0])
    level = [alpha if np.ndim(alpha) == 0 else float(alpha[i]) for i in rows]
    block = _four(values, means, alpha)
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

    # k levels in one call: a (2, m) stack gives each level's block call,
    # and two levels for one sample give its two one-level calls
    stack = np.stack([np.full(len(rows), 0.05), np.array(level)])
    at_05 = _four(values, means, 0.05)
    paired = _four(values[0], means[0], stack[:, 0])
    for name, ci in _four(values, means, stack).items():
        ci0 = paired[name]
        for k, single in enumerate((at_05[name], block[name])):
            assert _bits(ci.lower[k]) == _bits(single.lower), name
            assert _bits(ci.upper[k]) == _bits(single.upper), name
            assert _bits(ci0.lower[k]) == _bits(single.lower[0]), name
            assert _bits(ci0.upper[k]) == _bits(single.upper[0]), name

    abs_t = _lambdas(values, means, sds)
    assert _bits(abs_t) == _bits([_lambdas(values[i], means[i], sds[i]) for i in rows])
    for a in (0.05, level[0]):
        betas = _beta_from_lambdas(abs_t, a)
        assert _bits(betas) == _bits([_beta_from_lambdas(abs_t[i], a) for i in rows])


def _seed_level_rule(values, means, sds, alpha):
    # the level rule over all B lambdas, as first stated: lambda = 1 -
    # Phi(|t*|), 0 for a zero-sd resample; each row sorted, its ceil(alpha
    # * B)-th value taken and floored at 1/(2B)
    lambdas = np.zeros(means.shape)
    ok = sds > 0.0
    center = np.broadcast_to(values.mean(axis=-1, keepdims=True), means.shape)
    t = math.sqrt(values.shape[-1]) * (means[ok] - center[ok]) / sds[ok]
    lambdas[ok] = 1.0 - normal_cdf(np.abs(t))
    B = means.shape[-1]
    k = min(max(math.ceil(alpha * B), 1), B)
    return lambdas, np.maximum(np.sort(lambdas, axis=-1)[:, k - 1], 1.0 / (2.0 * B))


# the level rule takes one partial sort of |t*| and one cdf per sample;
# that equals the alpha-quantile of all B lambdas only while lambda is
# non-increasing in |t*| in floating point, so this pins the two forms
# together, at k = 1 (alpha * B <= 1) and k = B (alpha > (B - 1) / B) too
@PROPERTY
@given(_block_cases(), st.sampled_from(["level", "first", "last"]))
def test_beta_equals_the_alpha_quantile_of_all_lambdas(case, which):
    values, means, sds, alpha = case
    B = means.shape[-1]
    alpha = {"level": float(np.ravel(alpha)[0]), "first": 0.5 / B, "last": 1.0 - 0.5 / B}[which]
    lambdas, want = _seed_level_rule(values, means, sds, alpha)
    abs_t = _lambdas(values, means, sds)
    assert _bits(_beta_from_lambdas(abs_t, alpha)) == _bits(want)
    assert _bits(_upper_tail(abs_t)) == _bits(lambdas)


def _column_summaries(coverage, length, index):
    # the reference: np.mean, np.std(ddof=1) and the 1/n central moments
    # np.mean(centered**k) applied to each column of the (R, E) tables alone
    summaries = []
    for c, ell, data in zip(coverage.T, length.T, index.T):
        mean = float(np.mean(data))
        st_dev = float(np.std(data, ddof=1)) if data.size > 1 else math.nan
        centered = data - mean
        m2 = float(np.mean(centered**2))
        shape = (math.nan, math.nan)
        if data.size >= 3 and m2 != 0.0:
            shape = (float(np.mean(centered**3)) / m2**1.5, float(np.mean(centered**4)) / m2**2 - 3.0)
        summaries.append(IndexSummary(float(np.mean(c)), float(np.mean(ell)), mean, *shape, st_dev))
    return tuple(summaries)


# numpy sums a row pairwise: in blocks of 8 up to 128 values, then by
# halves, and a reduction buffers 8192 values at a time
_BOUNDARIES = [1, 2, 3, 4, 7, 8, 9, 16, 17, 127, 128, 129, 255, 256, 257, 1000]


@PROPERTY
@given(
    st.sampled_from(_BOUNDARIES) | st.integers(1, 600),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example(9, 3, 0, True)
@example(129, 3, 1, True)
@example(8193, 3, 2, True)
def test_one_summary_call_equals_the_column_by_column_summaries(R, E, seed, constant):
    rng = np.random.default_rng(seed)
    coverage = rng.integers(0, 1001, (R, E)) / 1000
    length = rng.exponential(2.0, (R, E))
    index = rng.normal(0.8, 0.05, (R, E))
    if constant:
        index[:, 0] = 0.9
    assert repr(summarize_index(coverage, length, index)) == repr(_column_summaries(coverage, length, index))


_UNIT = st.floats(0.0, 1.0)
_LENGTH = st.floats(0.0, 1e9)


@PROPERTY
@given(
    _UNIT | _UNIT.map(np.float64) | st.integers(0, 1),
    _LENGTH | _LENGTH.map(np.float64) | st.integers(0, 10**9),
    st.floats(1e-6, 0.999),
    st.sampled_from(["absolute", "squared"]),
    st.booleans(),
)
def test_the_scalar_index_equals_the_array_index(coverage, length, alpha, loss, rescaled):
    cfg = IndexConfig(alpha, loss, rescaled)
    try:
        want = compute_index_array(coverage, length, cfg)
    except DomainError:
        with pytest.raises(DomainError):
            compute_index(IntervalPerformance(coverage, length), cfg)
        return
    got = compute_index(IntervalPerformance(coverage, length), cfg)
    assert type(got) is float
    assert _bits(got) == _bits(want)
