"""Distribution helpers: closed-form oracles, mpmath cross checks, domains."""

import math

import numpy as np
import pytest

from ciindex import DomainError, special
from ciindex.special import (
    _binomial_pmf,
    beta_quantile,
    chi_square_quantile,
    normal_cdf,
    normal_quantile,
    student_t_quantile,
)

mpmath = pytest.importorskip("mpmath")

PROBS = (0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999)


def test_normal_cdf_against_mpmath():
    for x in (-4.0, -1.959963984540054, -0.5, 0.0, 0.3, 1.644854, 3.5):
        assert normal_cdf(x) == pytest.approx(float(mpmath.ncdf(x)), abs=1e-14)


def test_normal_cdf_symmetry_and_quantile_round_trip():
    assert normal_cdf(0.0) == 0.5
    for x in (0.1, 0.7, 1.3, 2.5):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-15)
    for p in PROBS:
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_normal_quantile_anchor():
    # classical two-sided 5 percent critical value
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)


def test_normal_cdf_array_matches_scalar():
    xs = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    out = normal_cdf(xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert v == normal_cdf(float(x))
    with pytest.raises(DomainError):
        normal_cdf(np.array([0.0, math.nan]))


def _t_cdf_mpmath(x, df):
    # tail mass from the regularized incomplete beta function
    half_tail = mpmath.betainc(
        df / 2, mpmath.mpf(1) / 2, 0, df / (df + x * x), regularized=True
    ) / 2
    return 1 - half_tail if x >= 0 else half_tail


def test_student_t_against_mpmath():
    # round trip through the mpmath t cdf
    for df in (1, 4, 9, 29, 499):
        for p in PROBS:
            got = float(_t_cdf_mpmath(student_t_quantile(p, df), df))
            assert got == pytest.approx(p, abs=1e-10)


def test_student_t_quantile_against_mpmath():
    # root of the 40-digit t cdf; the cdf round trip above cannot see an
    # error near 1e-11, which already moves the frozen johnson_t values
    with mpmath.workdps(40):
        for df in (1, 4, 9, 29, 499):
            for p in (0.975, 0.995):
                want = mpmath.findroot(
                    lambda x: _t_cdf_mpmath(x, df) - mpmath.mpf(p), normal_quantile(p)
                )
                assert student_t_quantile(p, df) == pytest.approx(float(want), rel=1e-13)


def test_student_t_approaches_normal():
    assert student_t_quantile(0.975, 1e7) == pytest.approx(normal_quantile(0.975), abs=1e-5)


def test_chi_square_closed_forms():
    # df = 2 is an exponential: quantile has the closed form -2 log(1 - p)
    for p in PROBS:
        assert chi_square_quantile(p, 2) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-12)
    # round trip through the mpmath chi-square cdf
    for df in (1, 3, 10, 60):
        for p in PROBS:
            q = chi_square_quantile(p, df)
            got = float(mpmath.gammainc(df / 2, 0, q / 2, regularized=True))
            assert got == pytest.approx(p, abs=1e-12)


def test_chi_square_boundaries():
    assert chi_square_quantile(0.3, 0) == 0.0


def test_beta_closed_forms():
    # Beta(1, b) cdf is 1 - (1 - x)^b and Beta(a, 1) cdf is x^a
    for p in PROBS:
        assert beta_quantile(p, 1.0, 11.0) == pytest.approx(1.0 - (1.0 - p) ** (1.0 / 11.0), rel=1e-12)
        assert beta_quantile(p, 7.0, 1.0) == pytest.approx(p ** (1.0 / 7.0), rel=1e-12)
    # round trip through the mpmath beta cdf
    for a, b in ((0.5, 0.5), (2.0, 3.0), (6.0, 5.0)):
        for p in PROBS:
            got = float(mpmath.betainc(a, b, 0, beta_quantile(p, a, b), regularized=True))
            assert got == pytest.approx(p, abs=1e-12)


def test_beta_quantile_anchor():
    # upper endpoint ingredient for a zero-count exact interval at n = 11
    assert beta_quantile(0.975, 1.0, 11.0) == pytest.approx(0.28491415291792233, abs=1e-12)


def test_beta_degenerate_shapes():
    assert beta_quantile(0.4, 0.0, 3.0) == 0.0
    assert beta_quantile(0.4, 3.0, 0.0) == 1.0
    with pytest.raises(DomainError):
        beta_quantile(0.4, 0.0, 0.0)


def test_quantile_arrays_match_scalar_calls():
    # shapes and df over arrays, boundary values included, bit for bit
    a = np.array([0, 0.5, 1, 2.5, 3, 40, 999.5])
    b = np.array([3, 0.5, 0, 7, 1.5, 0.5, 1])
    df = np.array([0, 1, 2, 7, 60, 2000])
    for p in (0.0005, 0.025, 0.5, 0.975):
        got = beta_quantile(p, a, b)
        assert got.shape == a.shape
        want = [beta_quantile(p, float(ai), float(bi)) for ai, bi in zip(a, b)]
        assert got.tobytes() == np.array(want).tobytes()
        got = chi_square_quantile(p, df)
        assert got.tobytes() == np.array([chi_square_quantile(p, int(d)) for d in df]).tobytes()
    assert beta_quantile(0.3, a, b)[[0, 2]].tolist() == [0.0, 1.0]
    assert chi_square_quantile(0.3, df)[0] == 0.0


def test_quantile_scalars_return_floats():
    for value in (beta_quantile(0.3, 2, 5), beta_quantile(0.3, 0, 5), chi_square_quantile(0.3, 4),
                  chi_square_quantile(0.3, 0), beta_quantile(0.3, np.float64(2.0), 5)):
        assert type(value) is float


@pytest.mark.parametrize(
    "call",
    [
        lambda: beta_quantile(0.5, np.array([1.0, -1.0]), np.array([2.0, 2.0])),
        lambda: beta_quantile(0.5, np.array([1.0, 2.0]), np.array([2.0, -0.5])),
        lambda: beta_quantile(0.5, np.array([1.0, 0.0]), np.array([2.0, 0.0])),
        lambda: chi_square_quantile(0.5, np.array([0, 3, -2])),
        lambda: beta_quantile(1.0, np.array([1.0, 2.0]), np.array([2.0, 3.0])),
    ],
)
def test_quantile_arrays_reject_invalid_entries(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: normal_quantile(0.0),
        lambda: normal_quantile(1.0),
        lambda: normal_cdf(math.inf),
        lambda: student_t_quantile(0.5, 0.0),
        lambda: student_t_quantile(math.nan, 3.0),
        lambda: chi_square_quantile(0.5, -2.0),
        lambda: beta_quantile(0.5, -1.0, 2.0),
        lambda: chi_square_quantile(1.0, 2.0),
        lambda: beta_quantile(1.5, 2.0, 3.0),
        lambda: normal_cdf(math.nan),
    ],
)
def test_domain_errors(call):
    with pytest.raises(DomainError):
        call()


PMF_NS = (1, 2, 10, 1000, 10**4)
PMF_PS = (1e-12, 0.02, 0.5, 0.98, 1.0 - 1e-12)


@pytest.mark.parametrize("n", PMF_NS)
def test_binomial_pmf_is_scipy_stats_bit_for_bit(n):
    # the kernel path must give exactly scipy.stats' bytes; a scipy whose
    # kernel or clipping changes fails here instead of drifting
    from scipy import stats

    for p in PMF_PS:
        want = stats.binom.pmf(np.arange(n + 1), n, p)
        got = _binomial_pmf(n, p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (n, p)


def test_binomial_pmf_fallback_gives_the_same_bytes(monkeypatch):
    kernel = {(n, p): _binomial_pmf(n, p).tobytes() for n in PMF_NS for p in PMF_PS}
    monkeypatch.setattr(special, "_binom_pmf_kernel", None)
    for (n, p), want in kernel.items():
        assert _binomial_pmf(n, p).tobytes() == want, (n, p)


def test_binomial_pmf_where_the_kernel_overflows(monkeypatch):
    # for p near the smallest normal double (about 5.6e-309 to 5.2e-305 at
    # n <= 10^4) boost's ibeta_derivative overflows and
    # scipy.stats.binom.pmf raises OverflowError; p^2 underflows there, so
    # the pmf is 1, n p, then zeros on either path
    for kernel in (special._binom_pmf_kernel, None):
        monkeypatch.setattr(special, "_binom_pmf_kernel", kernel)
        for n, p in ((1, 6e-309), (4, 2.2250738585072014e-308), (40, 1e-307), (10**4, 5e-305)):
            want = np.zeros(n + 1)
            want[:2] = 1.0, n * p
            assert _binomial_pmf(n, p).tobytes() == want.tobytes(), (kernel, n, p)
