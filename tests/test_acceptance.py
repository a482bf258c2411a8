"""Release acceptance checks.

One test per numbered criterion, each asserting the full clause list and
its stated time budget, so ``pytest -v`` yields one pass/fail line per
criterion.  Monte Carlo criteria run at desk scale (R = 50 replications,
N = 500 samples, B = 200 resamples) with fixed seeds recorded below.

Two criteria need care in how they read the bundled reference tables,
and one of them, criterion 7, still fails:

* Criterion 5 compares desk-scale studies against the bundled normal
  mean-index reference table.  The table's interior rows are
  misaligned: each row labeled n in {50, 100} holds the values for the
  next smaller grid size (20 and 50), as recorded in
  ``published_tables.MEAN_INDEX_ACTUAL_N`` and confirmed analytically
  (the normal-theory index at the expected coverage and length is
  0.8903 at n = 20 and 0.9244 at n = 50).  Each study is therefore
  compared with the row that holds data for its own n.  At n = 50,
  johnson_t and normal_theory are a statistical tie (paired index gap
  of order 1e-4 against a paired standard error of about 3.6e-4), so
  their ordering is checked within three paired standard errors.  The
  alignment itself is pinned by ``test_reference_table_row_alignment``.

* Criterion 7 compares a calibrated normal-theory interval against the
  bundled calibration reference rows, and fails its calibrated-row
  clauses.  The printed calibrated row at n = 10 (coverage 0.922,
  length 1.290) implies a working level of 0.036 to 0.047, pinned by
  ``test_calibration_reference_row_level``.  The rule implemented in
  calibration.py, lambda_j = 1 - Phi(|t*_j|), is one-tailed while the
  intervals are two-sided, so beta converges to about 0.009 at n = 10
  and the run lands near coverage 0.97 and length 1.65.  A two-tailed
  lambda would give about 0.017 (coverage 0.958), still short of the
  printed row.  Which rule the paper intends is an open question; the
  uncalibrated and skip-rule clauses pass.

Two further open questions about the calibration reference table, on
which no rule has been changed:

* Skip decisions.  The printed table leaves a row uncalibrated when its
  calibrated value equals the uncalibrated one.  Judged on the printed
  uncalibrated coverage, the implemented rule (skip when
  |coverage - 0.95| <= 0.005) fits 18 of the 20 printed rows, a
  one-sided rule (calibrate only when coverage < 0.95) fits 19, and no
  rule fits all 20.
* The n = 50 bootstrap rows print a calibrated length ratio of about
  1.05, against 1.016 under the t rule; no shared level that converges
  to alpha reproduces them.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import published_tables as tables
from ciindex import (
    IndexConfig,
    IntervalPerformance,
    PROPORTION_ESTIMATORS,
    SimulationPlan,
    binomial_model,
    compute_index,
    compute_index_array,
    exact_performance,
    index_range,
    k_alpha,
    lognormal_model,
    normal_model,
    rescale_index,
    run_calibration_study,
    run_mean_study,
    run_proportion_study,
)
from ciindex import cli
from ciindex.special import _binomial_pmf, normal_cdf, student_t_quantile

ACCEPTANCE_SEED = 20260815

ROOT = Path(__file__).resolve().parents[1]

ESTIMATORS = tables.MEAN_COLUMN_ORDER

_CACHE: dict[object, object] = {}
# the draw-bound mean studies of criteria 5 and 6 run on up to two
# processes; results do not depend on the worker count, since every
# stream is keyed by (seed, path)
# (test_harness.py::test_worker_count_does_not_change_results)
WORKERS = min(2, os.cpu_count() or 1)


def _normal_mean_study(n: int):
    """Desk-scale N(2, 1) study, memoized so criteria can share runs."""
    key = ("normal", n)
    if key not in _CACHE:
        plan = SimulationPlan(
            model=normal_model(2.0, 1.0),
            n=n,
            N=500,
            B=200,
            R=50,
            alpha=0.05,
            estimators=ESTIMATORS,
            master_seed=ACCEPTANCE_SEED,
        )
        _CACHE[key] = run_mean_study(plan, n_workers=WORKERS)
    return _CACHE[key]


def _lognormal_study(sigma2: float, n: int):
    key = ("lognormal", sigma2, n)
    if key not in _CACHE:
        plan = SimulationPlan(
            model=lognormal_model(0.0, sigma2),
            n=n,
            N=500,
            B=200,
            R=50,
            alpha=0.05,
            estimators=ESTIMATORS,
            master_seed=ACCEPTANCE_SEED,
        )
        _CACHE[key] = run_mean_study(plan, n_workers=WORKERS)
    return _CACHE[key]


def _calibration_study(n: int):
    key = ("calibration", n)
    if key not in _CACHE:
        plan = SimulationPlan(
            model=normal_model(2.0, 1.0),
            n=n,
            N=500,
            B=200,
            R=50,
            alpha=0.05,
            estimators=ESTIMATORS,
            master_seed=ACCEPTANCE_SEED,
            skip_delta=0.005,
        )
        _CACHE[key] = run_calibration_study(plan)
    return _CACHE[key]


def _column(results, kind: str, field: str) -> np.ndarray:
    """One estimator's (R,) column of a study's coverage, mean_length or index."""
    return getattr(results, field)[:, results.estimators.index(kind)]


def _summary(results, kind: str):
    return results.summaries[results.estimators.index(kind)]


def _mean_cov_len(coverage, length) -> tuple[float, float]:
    return float(np.mean(coverage)), float(np.mean(length))


def _paired_diff(a, b) -> tuple[float, float]:
    """Mean and standard error of the per-replication differences a - b.

    ``a`` and ``b`` are two estimators' (R,) columns.  Estimators share
    every stream within a replication, so the paired standard error is
    far smaller than the marginal ones suggest.
    """
    diffs = a - b
    return float(diffs.mean()), float(diffs.std(ddof=1) / np.sqrt(diffs.size))


def _reference_row(n: int) -> tuple[float, ...]:
    """The printed mean-index row that holds the results for sample size n."""
    (label,) = [k for k, actual in tables.MEAN_INDEX_ACTUAL_N.items() if actual == n]
    return tables.MEAN_INDEX_MEANS[label]


def _report(checks: list[tuple[str, bool]]) -> None:
    """Fail with a one-line-per-clause report unless every clause holds."""
    lines = [("PASS  " if ok else "FAIL  ") + text for text, ok in checks]
    if not all(ok for _, ok in checks):
        pytest.fail("\n".join(lines), pytrace=False)


def test_criterion_01_reference_index_reproduction():
    start = time.perf_counter()
    cfg = IndexConfig()
    diffs = []
    recomputed = {}
    for n, g, label, cov, length, printed in tables.iter_proportion_rows():
        value = compute_index(IntervalPerformance(cov, length), cfg)
        recomputed["proportion", n, g, label] = value
        diffs.append(abs(value - printed))
    for n, g, label, cov, length, printed in tables.iter_cv_rows():
        value = compute_index(IntervalPerformance(cov, length), cfg)
        recomputed["cv", n, g, label] = value
        diffs.append(abs(value - printed))
    diffs = np.asarray(diffs)
    elapsed = time.perf_counter() - start

    assert diffs.size == 279
    frac_tight = float(np.mean(diffs <= 5e-4))
    assert frac_tight >= 0.95, f"only {frac_tight:.3f} of rows within 5e-4"
    assert float(diffs.max()) <= 2e-3, f"worst row off by {diffs.max():.2e}"
    assert round(recomputed["proportion", 10, 0.1, "exact"], 4) == 0.9281
    assert round(recomputed["cv", 15, 0.1, "S.K"], 4) == 0.3789
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_02_index_constants():
    start = time.perf_counter()
    cfg = IndexConfig()
    lower, upper = index_range(cfg)

    assert abs(k_alpha(0.05) - 1.344828) <= 1e-6
    assert abs(lower - 0.033621) <= 1e-6
    assert upper == 1.0
    assert rescale_index(lower, cfg) == 0.0
    assert rescale_index(1.0, cfg) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_03_index_invariants():
    start = time.perf_counter()
    cfg = IndexConfig()
    lower, upper = index_range(cfg)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    size = 100_000

    lengths = rng.uniform(0.0, 20.0, size)
    covs = rng.uniform(0.0, 1.0, size)
    values = compute_index_array(covs, lengths, cfg)
    assert np.all(values >= lower - 1e-12)
    assert np.all(values <= upper + 1e-12)

    # Strictly decreasing in length whenever coverage is positive.
    covs_pos = rng.uniform(0.01, 1.0, size)
    base = compute_index_array(covs_pos, lengths, cfg)
    bumped = compute_index_array(covs_pos, lengths + 0.1, cfg)
    assert np.all(bumped < base)

    # Strictly increasing in coverage below the nominal level.
    covs_low = rng.uniform(0.0, 0.945, size)
    base = compute_index_array(covs_low, lengths, cfg)
    bumped = compute_index_array(covs_low + 0.005, lengths, cfg)
    assert np.all(bumped > base)

    # The maximum is reached exactly at zero length and nominal coverage,
    # and nowhere else: pairs outside a 0.01 ball stay clearly below 1.
    assert abs(compute_index(IntervalPerformance(0.95, 0.0), cfg) - 1.0) <= 1e-12
    away = (lengths > 0.01) | (np.abs(covs - 0.95) > 0.01)
    assert np.all(values[away] < 1.0 - 1e-3)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_04_proportion_coverage_matches_exact():
    start = time.perf_counter()
    failures = []
    for n in (10, 20, 100):
        for p in (0.1, 0.5, 0.8):
            plan = SimulationPlan(
                model=binomial_model(n, p),
                n=n,
                N=1,
                B=1,
                R=1000,
                alpha=0.05,
                estimators=PROPORTION_ESTIMATORS,
                master_seed=ACCEPTANCE_SEED,
            )
            results = run_proportion_study(plan)
            for kind in PROPORTION_ESTIMATORS:
                exact = exact_performance(kind, n, p, 0.05).coverage
                tol = 3.0 * np.sqrt(exact * (1.0 - exact) / 1000.0)
                got = _column(results, kind, "coverage")[0]
                if abs(got - exact) > tol:
                    failures.append(
                        f"{kind} n={n} p={p}: |{got:.4f} - {exact:.4f}| > {tol:.4f}"
                    )
    wald = exact_performance("wald", 10, 0.1, 0.05).coverage
    assert abs(wald - 0.6497) <= 1e-4
    assert not failures, "\n".join(failures)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_05_normal_mean_index_table():
    # Each study is compared with the row holding data for its own n,
    # not the row printed under that label: see the module docstring.
    start = time.perf_counter()
    checks = []
    for n in (50, 500):
        results = _normal_mean_study(n)
        for kind, printed in zip(ESTIMATORS, _reference_row(n)):
            got = _summary(results, kind).mean
            checks.append(
                (
                    f"n={n} {kind}: mean index {got:.4f} within 0.02 of"
                    f" printed {printed:.4f} (diff {abs(got - printed):.4f})",
                    abs(got - printed) <= 0.02,
                )
            )
    res50 = _normal_mean_study(50)
    nt, jt, pc, bc = (_summary(res50, kind).mean for kind in ESTIMATORS)
    gap, se = _paired_diff(
        _column(res50, "johnson_t", "index"), _column(res50, "normal_theory", "index")
    )
    checks.append(
        (
            f"n=50 johnson_t {jt:.5f} >= normal_theory {nt:.5f} within 3 paired"
            f" SE (gap {gap:.2e}, SE {se:.2e})",
            gap >= -3.0 * se,
        )
    )
    checks.append(
        (
            "n=50 ordering normal_theory > bootstrap_percentile > bca"
            f" ({nt:.5f}, {pc:.5f}, {bc:.5f})",
            nt > pc > bc,
        )
    )
    elapsed = time.perf_counter() - start
    checks.append((f"elapsed {elapsed:.1f}s within 600s", elapsed < 600.0))
    _report(checks)


def test_reference_table_row_alignment():
    """Pin the misalignment that criterion 5 reads the table through.

    The desk-scale n = 50 study matches the reference row labeled
    n = 100 to within Monte Carlo tolerance, and the n = 500 study
    matches its own row, exactly as recorded in MEAN_INDEX_ACTUAL_N.
    """
    res50 = _normal_mean_study(50)
    shifted = tables.MEAN_INDEX_MEANS[100]
    assert tables.MEAN_INDEX_ACTUAL_N[100] == 50
    for kind, printed in zip(ESTIMATORS, shifted):
        got = _summary(res50, kind).mean
        assert abs(got - printed) <= 0.02, (
            f"{kind}: n=50 study {got:.4f} vs row labeled 100 {printed:.4f}"
        )

    res500 = _normal_mean_study(500)
    assert tables.MEAN_INDEX_ACTUAL_N[500] == 500
    for kind, printed in zip(ESTIMATORS, tables.MEAN_INDEX_MEANS[500]):
        got = _summary(res500, kind).mean
        assert abs(got - printed) <= 0.02, (
            f"{kind}: n=500 study {got:.4f} vs printed {printed:.4f}"
        )


# Tolerance of the normal-table oracle below, a budget of three parts:
# - the printed means are rounded to 4 decimals: 5e-5;
# - the oracle puts E L in place of a replication's mean length Lbar.  A
#   Taylor expansion in L bounds what that ignores by
#   k_alpha * (1.5 * sd(eta) * sd(Lbar) + Var(Lbar)), since on
#   [0, 1] x [0, inf) the index has |dI/deta dL| <= 1.5 k_alpha and
#   |d2I/dL2| <= 2 k_alpha, with Var(Lbar) = (2 z sigma / sqrt(n))^2
#   (1 - c4(n)^2) / N.  At N = 1000 it is at most 2.7e-4 (n = 10);
# - the rest, at least 6.8e-4, is the printed means' own Monte Carlo
#   error, sd(I_r) / sqrt(R), with sd(I_r) from the binomial alone 0.0021
#   to 0.0055 over the rows.  The table does not state its R, so this part
#   is not a derived band: the gaps (at most 8.2e-4) are within 1.7 SE at
#   R = 25, but up to 23 SE at the paper preset's R = 5000.
NORMAL_ORACLE_N = 1000
NORMAL_ORACLE_TOL = 0.001


def _normal_theory_oracle(n: int, N: int, cfg: IndexConfig) -> tuple[float, float]:
    """E[mean index] of normal_theory on N(mu, 1) data, and the length-variance bound.

    A sample's interval covers with p = P(|T_{n-1}| <= z) and has expected
    length 2 z sigma c4(n) / sqrt(n); one replication's coverage is
    Binomial(N, p) / N, so E[index] = sum_k Binom(k; N, p) I(k / N, E L).
    """
    z = float(special.ndtri(1.0 - cfg.alpha / 2.0))
    p = 2.0 * float(special.stdtr(n - 1, z)) - 1.0
    c4 = math.sqrt(2.0 / (n - 1)) * math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0))
    mean_length = 2.0 * z * c4 / math.sqrt(n)
    index = compute_index_array(np.arange(N + 1) / N, mean_length, cfg)
    var_length = (2.0 * z / math.sqrt(n)) ** 2 * (1.0 - c4 * c4) / N
    sd_eta = math.sqrt(p * (1.0 - p) / N)
    bound = k_alpha(cfg.alpha) * (1.5 * sd_eta * math.sqrt(var_length) + var_length)
    return float(_binomial_pmf(N, p) @ index), bound


def test_normal_table_matches_the_analytic_oracle():
    """Every printed normal_theory mean index, read at the n it holds."""
    cfg = IndexConfig(alpha=0.05)
    column = ESTIMATORS.index("normal_theory")
    for label, row in tables.MEAN_INDEX_MEANS.items():
        n = tables.MEAN_INDEX_ACTUAL_N[label]
        want, bound = _normal_theory_oracle(n, NORMAL_ORACLE_N, cfg)
        assert bound <= 3e-4, (label, bound)
        assert abs(want - row[column]) <= NORMAL_ORACLE_TOL, (
            f"row {label} (n = {n}): oracle {want:.4f} vs printed {row[column]:.4f}"
        )
        if n != label:
            # read at its label, a misaligned row misses by far more
            wrong, _ = _normal_theory_oracle(label, NORMAL_ORACLE_N, cfg)
            assert abs(wrong - row[column]) > 10 * NORMAL_ORACLE_TOL, label


def test_criterion_06_lognormal_directional_facts():
    start = time.perf_counter()
    checks = []

    heavy = {n: _lognormal_study(3.0, n) for n in (10, 100, 1000)}
    means = {
        n: {kind: _summary(heavy[n], kind).mean for kind in ESTIMATORS}
        for n in (10, 100, 1000)
    }
    bca10 = means[10]["bca"]
    for kind in ESTIMATORS:
        if kind == "bca":
            continue
        checks.append(
            (
                f"sigma2=3 n=10: bca {bca10:.4f} > {kind} {means[10][kind]:.4f}",
                bca10 > means[10][kind],
            )
        )
    for kind in ESTIMATORS:
        seq = [means[n][kind] for n in (10, 100, 1000)]
        checks.append(
            (
                f"{kind}: index rises with n "
                + " -> ".join(f"{v:.4f}" for v in seq),
                seq[0] < seq[1] < seq[2],
            )
        )

    by_sigma = {s: _lognormal_study(s, 10) for s in (3.0, 1.0, 0.2)}
    for kind in ESTIMATORS:
        seq = [_summary(by_sigma[s], kind).mean for s in (3.0, 1.0, 0.2)]
        checks.append(
            (
                f"{kind}: index rises as sigma2 falls 3 -> 1 -> 0.2: "
                + " -> ".join(f"{v:.4f}" for v in seq),
                seq[0] < seq[1] < seq[2],
            )
        )

    elapsed = time.perf_counter() - start
    checks.append((f"elapsed {elapsed:.1f}s within 600s", elapsed < 600.0))
    _report(checks)


def test_criterion_07_calibration_effect():
    # The calibrated-row clauses fail today: the implemented rule's level
    # is far below what the printed row implies.  See the module docstring.
    start = time.perf_counter()
    checks = []

    res10 = _calibration_study(10)
    u_cov, u_len = _mean_cov_len(
        _column(res10.uncalibrated, "normal_theory", "coverage"),
        _column(res10.uncalibrated, "normal_theory", "mean_length"),
    )
    c_cov, c_len = _mean_cov_len(
        _column(res10.calibrated, "normal_theory", "coverage"),
        _column(res10.calibrated, "normal_theory", "mean_length"),
    )
    printed_uncal, printed_cal = tables.CALIBRATION_ROWS[(10, "normal_theory")]

    checks.append(
        (
            f"n=10 uncalibrated coverage {u_cov:.4f} within 0.02 of"
            f" {printed_uncal[0]:.3f}",
            abs(u_cov - printed_uncal[0]) <= 0.02,
        )
    )
    checks.append(
        (
            f"n=10 uncalibrated length {u_len:.4f} within 0.06 of"
            f" {printed_uncal[1]:.3f}",
            abs(u_len - printed_uncal[1]) <= 0.06,
        )
    )
    gain = c_cov - u_cov
    checks.append(
        (f"n=10 coverage gain {gain:.4f} in [0.01, 0.03]", 0.01 <= gain <= 0.03)
    )
    checks.append(
        (
            f"n=10 calibrated coverage {c_cov:.4f} within 0.02 of"
            f" {printed_cal[0]:.3f}",
            abs(c_cov - printed_cal[0]) <= 0.02,
        )
    )
    checks.append(
        (
            f"n=10 calibrated length {c_len:.4f} within 0.06 of"
            f" {printed_cal[1]:.3f}",
            abs(c_len - printed_cal[1]) <= 0.06,
        )
    )
    checks.append(
        (
            f"n=10 calibrated length {c_len:.4f} exceeds uncalibrated {u_len:.4f}",
            c_len > u_len,
        )
    )

    res30 = _calibration_study(30)
    skip_of = dict(zip(res30.uncalibrated.estimators, res30.skipped.tolist()))
    skipped = sorted(kind for kind in ESTIMATORS if skip_of[kind])
    checks.append(
        (f"n=30 skip rule engages for at least one estimator: {skipped}", bool(skipped))
    )
    for kind in ESTIMATORS:
        empirical = _summary(res30.uncalibrated, kind).coverage
        near = abs(empirical - 0.95) <= 0.005
        checks.append(
            (
                f"n=30 {kind}: skipped={skip_of[kind]} matches |{empirical:.4f}"
                " - 0.95| <= 0.005",
                skip_of[kind] == near,
            )
        )
        if skip_of[kind]:
            identical = all(
                np.array_equal(
                    _column(res30.uncalibrated, kind, field), _column(res30.calibrated, kind, field)
                )
                for field in ("coverage", "mean_length", "index")
            )
            checks.append(
                (f"n=30 {kind}: skipped rows identical to uncalibrated", identical)
            )

    elapsed = time.perf_counter() - start
    checks.append((f"elapsed {elapsed:.1f}s within 300s", elapsed < 300.0))
    _report(checks)


def test_calibration_reference_row_level():
    """Pin the working level the printed n = 10 calibrated row implies.

    A normal-theory interval at working level beta on N(2, 1) data with
    n = 10 covers with probability P(|T_9| <= z_{1-beta/2}) and has
    expected length 2 z_{1-beta/2} E[s] / sqrt(n).  Inverting the printed
    calibrated row through each gives a level of 0.036 (length) to 0.047
    (coverage).  This checks the table alone; criterion 7 compares the
    package with the row.
    """
    n = 10
    cal_cov, cal_len, _ = tables.CALIBRATION_ROWS[(n, "normal_theory")][1]
    e_s = math.sqrt(2.0 / (n - 1)) * math.exp(math.lgamma(n / 2) - math.lgamma((n - 1) / 2))
    z_from_cov = student_t_quantile((1.0 + cal_cov) / 2.0, n - 1)
    z_from_len = cal_len * math.sqrt(n) / (2.0 * e_s)
    levels = [2.0 * (1.0 - normal_cdf(z)) for z in (z_from_cov, z_from_len)]
    assert min(levels) >= 0.03, f"printed row implies levels {levels}"


def test_criterion_08_paper_scale_config():
    start = time.perf_counter()
    config_path = ROOT / "configs" / "paper.ini"
    assert config_path.is_file()
    parser = cli._load_config(config_path)
    assert parser.get("run", "scale") == "paper"
    assert cli._SCALES["paper"] == {"R": 5000, "N": 1000, "B": 1000}
    text = config_path.read_text()
    assert "long" in text.lower(), "config must warn that the run is long"
    readme = (ROOT / "README.md").read_text()
    assert "--scale paper" in readme, "README must document the paper scale"
    assert "long" in readme.lower()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
