"""The names and calls the benchmark in ``perfbench/`` relies on.

perfbench wraps package functions by name to time them, stubs the CLI's
study calls to time set-up, and replays studies through public calls to
check the written outputs.  A rename there does not crash a benchmark
run; it silently drops metrics or zeroes the replayed interval count.
These tests read ``perfbench/`` and change nothing in it.
"""

import ast
import importlib.util
import math
from pathlib import Path

import numpy as np

import ciindex
import ciindex.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ALPHA = 0.05
VALUES = np.array([1.9, 2.4, 0.7, 3.1, 2.2, 1.5, 2.8, 1.1, 4.0, 2.6])


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_cli_names() -> list[str]:
    # the names setup_probe.py's ``for name in (...)`` loop replaces in cli
    tree = ast.parse((PERFBENCH / "setup_probe.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            return [elt.value for elt in node.iter.elts]
    raise AssertionError("setup_probe.py has no loop over patched names")


def test_every_traced_target_exists():
    tracer = _load_tracer()
    assert tracer.Tracer(tracer.targets(ciindex)).missing == []


MEAN_SPANS = (
    "mean_intervals.normal_theory",
    "mean_intervals.johnson_t",
    "mean_intervals.percentile",
    "mean_intervals.bca",
)


def test_studies_call_the_traced_names():
    # perfbench reads these counts; a study that reaches a kernel under
    # another name reports them as 0 and drops the per-estimator timings
    tracer = _load_tracer()
    plan = ciindex.SimulationPlan(
        model=ciindex.normal_model(2.0, 1.0), n=10, N=20, B=20, R=2, alpha=ALPHA,
        estimators=ciindex.MEAN_ESTIMATORS, master_seed=20260815,
    )
    for run, calibrate in ((ciindex.run_mean_study, False), (ciindex.run_calibration_study, True)):
        traced = tracer.Tracer(tracer.targets(ciindex))
        with traced.installed():
            run(plan)
        for span in MEAN_SPANS + ("special.normal_quantile",):
            assert traced.calls[span] > 0, (run.__name__, span)
        if calibrate:
            assert traced.calls["calibration.lambdas"] > 0 and traced.calls["calibration.beta"] > 0
        assert traced.calls["sampling.generator"] == plan.R * (plan.N + 1), run.__name__


def test_setup_probe_names_exist_in_cli():
    names = _patched_cli_names()
    assert names == ["run_mean_study", "run_calibration_study", "run_proportion_study", "apply_index"]
    for name in names:
        assert callable(getattr(ciindex.cli, name))


def _replay_means(B: int, seed) -> np.ndarray:
    # the replay's own resample draw: one integers((B, n)) call per stream
    idx = seed.generator().integers(0, VALUES.size, size=(B, VALUES.size))
    return VALUES[idx].mean(axis=1)


def test_replay_calls_return_what_the_replay_reads():
    B = 200
    seed = ciindex.SeedSpec(20260815).child(2, 0, 0)
    means = _replay_means(B, seed)
    np.testing.assert_array_equal(means, ciindex.mean_intervals.bootstrap_mean_draws(VALUES, B, seed))

    beta = ciindex.calibrate_level(VALUES, ALPHA, B, seed).beta
    assert 1.0 / (2 * B) <= beta <= 0.5
    mi = ciindex.mean_intervals
    for level in (ALPHA, beta):
        intervals = [
            mi.normal_theory_interval(VALUES, level),
            mi.johnson_t_interval(VALUES, level),
            mi.percentile_from_boot_means(means, level),
            mi.bca_from_boot_means(VALUES, means, level),
        ]
        for ci in intervals:
            assert isinstance(ci, ciindex.ConfidenceInterval)
            assert math.isfinite(ci.length) and ci.length > 0.0
            assert isinstance(ci.contains(float(VALUES.mean())), bool)

    prop = ciindex.proportion_interval("wilson", ciindex.BinomialObservation(10, 3), ALPHA)
    assert 0.0 <= prop.lower < 0.3 < prop.upper <= 1.0
    perf = ciindex.exact_performance("exact", 10, 0.3, ALPHA)
    assert 1.0 - ALPHA <= perf.coverage <= 1.0
    assert 0.0 < perf.mean_length <= 1.0
