"""Binomial interval catalog: anchors, closed forms, symmetry, clipping."""

import math

import numpy as np
import pytest

from ciindex import (
    PROPORTION_ESTIMATORS,
    BinomialObservation,
    DomainError,
    exact_performance,
    proportion_interval,
)
from ciindex.special import chi_square_quantile, normal_quantile

Z = normal_quantile(0.975)
SYMMETRIC = ("exact", "wald", "wilson", "agresti_coull", "add4", "mid_p")


def test_catalog_size_and_names():
    assert len(PROPORTION_ESTIMATORS) == 11
    assert len(set(PROPORTION_ESTIMATORS)) == 11
    assert PROPORTION_ESTIMATORS[0] == "exact"


def test_wald_frozen_and_closed_form():
    ci = proportion_interval("wald", BinomialObservation(10, 5), 0.05)
    assert ci.lower == pytest.approx(0.19010248384771922, abs=1e-12)
    assert ci.upper == pytest.approx(0.8098975161522808, abs=1e-12)
    hw = Z * math.sqrt(0.5 * 0.5 / 10.0)
    assert ci.lower == pytest.approx(0.5 - hw, abs=1e-12)


def test_wilson_frozen():
    ci = proportion_interval("wilson", BinomialObservation(10, 5), 0.05)
    assert ci.lower == pytest.approx(0.236593090512564, abs=1e-12)
    assert ci.upper == pytest.approx(0.7634069094874361, abs=1e-12)


def test_exact_zero_count_closed_form():
    # at x = 0 the upper endpoint solves (1 - u)^n = alpha/2
    ci = proportion_interval("exact", BinomialObservation(10, 0), 0.05)
    assert ci.lower == 0.0
    assert ci.upper == pytest.approx(1.0 - 0.025 ** (1.0 / 10.0), rel=1e-12)
    assert ci.upper == pytest.approx(0.3084971078187608, abs=1e-12)
    full = proportion_interval("exact", BinomialObservation(10, 10), 0.05)
    assert full.upper == 1.0
    assert full.lower == pytest.approx(0.025 ** (1.0 / 10.0), rel=1e-12)


def test_pois_closed_form():
    # chi-square form: x = 0 gives lower 0; upper is q(1 - a/2, 2x + 2)/(2n)
    ci = proportion_interval("pois", BinomialObservation(10, 0), 0.05)
    assert ci.lower == 0.0
    assert ci.upper == pytest.approx(chi_square_quantile(0.975, 2) / 20.0, rel=1e-12)
    ci = proportion_interval("pois", BinomialObservation(50, 7), 0.05)
    assert ci.lower == pytest.approx(chi_square_quantile(0.025, 14) / 100.0, rel=1e-12)
    assert ci.upper == pytest.approx(chi_square_quantile(0.975, 16) / 100.0, rel=1e-12)


def test_reflection_symmetry():
    # estimators symmetric in successes and failures mirror around 1/2
    for kind in SYMMETRIC:
        for n in (10, 25):
            for x in range(n + 1):
                a = proportion_interval(kind, BinomialObservation(n, x), 0.05)
                b = proportion_interval(kind, BinomialObservation(n, n - x), 0.05)
                assert a.lower == pytest.approx(1.0 - b.upper, abs=1e-10), (kind, n, x)
                assert a.upper == pytest.approx(1.0 - b.lower, abs=1e-10), (kind, n, x)


def test_all_endpoints_clipped_to_unit_interval():
    for kind in PROPORTION_ESTIMATORS:
        for n in (5, 10, 40):
            for x in range(n + 1):
                ci = proportion_interval(kind, BinomialObservation(n, x), 0.05)
                assert 0.0 <= ci.lower <= ci.upper <= 1.0, (kind, n, x)


def test_wilson_family_shared_midpoint():
    # wilson and agresti_coull both center on the shifted proportion
    # (cases chosen away from the boundary so clipping cannot move it)
    for n, x in ((10, 3), (25, 20), (50, 10)):
        w = proportion_interval("wilson", BinomialObservation(n, x), 0.05)
        ac = proportion_interval("agresti_coull", BinomialObservation(n, x), 0.05)
        mid = (x + Z * Z / 2.0) / (n + Z * Z)
        assert (w.lower + w.upper) / 2.0 == pytest.approx(mid, abs=1e-12)
        assert (ac.lower + ac.upper) / 2.0 == pytest.approx(mid, abs=1e-12)


def test_wilson_continuity_correction_widens():
    for n, x in ((10, 3), (25, 12), (50, 45)):
        plain = proportion_interval("wilson", BinomialObservation(n, x), 0.05)
        cc = proportion_interval("wilson_cc", BinomialObservation(n, x), 0.05)
        assert cc.length > plain.length
        assert cc.lower < plain.lower and cc.upper > plain.upper


def test_bcg_degenerates_at_boundary_counts():
    # at x = 0 or x = n the square root term vanishes at the shifted center
    for n in (10, 30):
        for x in (0, n):
            ci = proportion_interval("bcg", BinomialObservation(n, x), 0.05)
            mid = (x + Z * Z / 2.0) / (n + Z * Z)
            assert ci.lower == pytest.approx(mid, abs=1e-12)
            assert ci.upper == pytest.approx(mid, abs=1e-12)


def test_add4_is_wald_on_adjusted_counts():
    n, x = 20, 4
    ci = proportion_interval("add4", BinomialObservation(n, x), 0.05)
    pt = (x + 2.0) / (n + 4.0)
    hw = Z * math.sqrt(pt * (1.0 - pt) / (n + 4.0))
    assert ci.lower == pytest.approx(pt - hw, abs=1e-12)
    assert ci.upper == pytest.approx(pt + hw, abs=1e-12)


def test_mid_p_nested_in_exact():
    for n, x in ((10, 0), (10, 4), (25, 25), (50, 13)):
        exact = proportion_interval("exact", BinomialObservation(n, x), 0.05)
        mid = proportion_interval("mid_p", BinomialObservation(n, x), 0.05)
        assert mid.lower >= exact.lower - 1e-12
        assert mid.upper <= exact.upper + 1e-12


def test_exact_performance_frozen_wald():
    perf = exact_performance("wald", 10, 0.1, 0.05)
    assert perf.coverage == pytest.approx(0.6496866224999998, abs=1e-12)
    assert perf.mean_length == pytest.approx(0.23793682276568834, abs=1e-12)


def test_exact_performance_exact_estimator_conservative():
    # the enumeration-based interval guarantees nominal coverage
    for n, p in ((10, 0.1), (25, 0.5), (60, 0.9)):
        perf = exact_performance("exact", n, p, 0.05)
        assert perf.coverage >= 0.95
        assert perf.coverage <= 1.0


def test_exact_performance_leaves_scipy_stats_unloaded(run_child):
    # the oracle's pmf comes from the scipy.special kernel; a fresh process
    # is needed because this suite itself loads scipy.stats
    script = (
        "import sys\n"
        "from ciindex import PROPORTION_ESTIMATORS, exact_performance\n"
        "for kind in PROPORTION_ESTIMATORS:\n"
        "    exact_performance(kind, 40, 0.3, 0.05)\n"
        "print(len(PROPORTION_ESTIMATORS), 'scipy.stats' in sys.modules)\n"
    )
    child = run_child("-c", script)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "11 False"


def test_compare_demo_prints_every_estimator_at_every_p(run_child):
    # the demo is an exact_performance sweep over p at one n
    child = run_child("demos/compare_proportion_intervals.py")
    assert child.returncode == 0, child.stderr
    blocks = child.stdout.split("\np = ")[1:]
    assert [block.split("\n", 1)[0] for block in blocks] == ["0.1", "0.3", "0.5"]
    for block in blocks:
        rows = block.split("\n\n", 1)[0].splitlines()[2:]
        assert sorted(row.split()[0] for row in rows) == sorted(PROPORTION_ESTIMATORS)


def test_observation_validation():
    with pytest.raises(DomainError):
        BinomialObservation(0, 0)
    with pytest.raises(DomainError):
        BinomialObservation(10, -1)
    with pytest.raises(DomainError):
        BinomialObservation(10, 11)
    with pytest.raises(DomainError):
        BinomialObservation(10, 2.5)
    with pytest.raises(DomainError):
        proportion_interval("median_p", BinomialObservation(10, 5), 0.05)
    with pytest.raises(DomainError):
        exact_performance("wald", 10, 1.5, 0.05)
    for n in (0, 10**4 + 1):
        with pytest.raises(DomainError, match=r"n must be an integer in \[1, 10\^4\]"):
            exact_performance("wald", n, 0.3, 0.05)
    # a p or alpha of several values inside (0, 1) is not one probability
    for p, alpha in ((np.array([0.3, 0.4]), 0.05), (0.3, np.array([0.05, 0.1]))):
        with pytest.raises(DomainError, match="must be a single number"):
            exact_performance("wald", 10, p, alpha)
