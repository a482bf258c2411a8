"""The names and calls the benchmark in ``perfbench/`` relies on.

perfbench wraps package functions by name to time them, stubs the CLI's
study calls to time set-up, and replays studies through public calls to
check the written outputs.  A rename there does not crash a benchmark
run; it silently drops metrics or zeroes the replayed interval count.
These tests read ``perfbench/`` and change nothing in it.
"""

import ast
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ciindex
import ciindex.cli

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
ALPHA = 0.05
VALUES = np.array([1.9, 2.4, 0.7, 3.1, 2.2, 1.5, 2.8, 1.1, 4.0, 2.6])


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _patched_cli_names() -> list[str]:
    # the names setup_probe.py's ``for name in (...)`` loop replaces in cli
    tree = ast.parse((PERFBENCH / "setup_probe.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            return [elt.value for elt in node.iter.elts]
    raise AssertionError("setup_probe.py has no loop over patched names")


# wrapped (owner, attribute) pairs the package no longer has: studies score
# through harness.compute_index_array and the proportion sweep scorer, so
# these two wrappers are never installed and time nothing
KNOWN_STALE_TARGETS = {("harness", "compute_index"), ("harness", "proportion_interval")}


def test_every_traced_target_exists():
    # checked per (owner, attribute), not per span name: a span name wrapped
    # under two owners stays found when one of them disappears
    tracer = _load("tracer")
    absent = {
        (owner.__name__.rpartition(".")[2], attr)
        for owner, attr, _span, _options in tracer.targets(ciindex)
        if not hasattr(owner, attr)
    }
    assert absent == KNOWN_STALE_TARGETS


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_result_line_carries_every_per_layer_metric(workload):
    # a traced benchmark run drops a metric whose span is missing or never
    # called, and writes a non-finite value as bare NaN or Infinity
    def refuse(constant):
        raise ValueError(f"non-finite value {constant} in the result line")

    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, check=False, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1], parse_constant=refuse)
    assert result["correct"] is True and result["failed"] == 0
    missing = {m["name"] for m in BENCHMARK["per_layer"]} - set(result["metrics"])
    assert not missing, sorted(missing)


MEAN_SPANS = (
    "mean_intervals.normal_theory",
    "mean_intervals.johnson_t",
    "mean_intervals.percentile",
    "mean_intervals.bca",
)


def test_studies_call_the_traced_names():
    # perfbench reads these counts; a study that reaches a kernel under
    # another name reports them as 0 and drops the per-estimator timings.
    # Each estimator is issued once per block of samples and level: alpha,
    # and in a calibration study also the block's betas.
    tracer = _load("tracer")
    plan = ciindex.SimulationPlan(
        model=ciindex.normal_model(2.0, 1.0), n=10, N=20, B=20, R=2, alpha=ALPHA,
        estimators=ciindex.MEAN_ESTIMATORS, master_seed=20260815,
    )
    blocks = plan.R * math.ceil(plan.N / ciindex.harness._BLOCK_ROWS)
    for run, calibrate in ((ciindex.run_mean_study, False), (ciindex.run_calibration_study, True)):
        traced = tracer.Tracer(tracer.targets(ciindex))
        with traced.installed():
            run(plan)
        for span in MEAN_SPANS:
            assert traced.calls[span] == blocks * (2 if calibrate else 1), (run.__name__, span)
        assert traced.calls["special.normal_quantile"] > 0, run.__name__
        if calibrate:
            assert traced.calls["calibration.lambdas"] > 0 and traced.calls["calibration.beta"] > 0
        # one summary call per StudyResults, over all its estimator
        # columns: the uncalibrated and the calibrated tables of a
        # calibration study, skipped columns included
        assert traced.calls["harness.summarize"] == (2 if calibrate else 1), run.__name__
        # the traced name opens the (1, r) data streams; a replication's
        # resample streams are re-keyed from one generator, not opened here
        assert traced.calls["sampling.generator"] == plan.R, run.__name__


PROPORTION_QUANTILES = ("special.beta_quantile", "special.chi_square_quantile", "special.normal_quantile")


def _traced_calls(tracer, run):
    traced = tracer.Tracer(tracer.targets(ciindex))
    with traced.installed():
        run()
    return traced.calls


def _exact_sweep(p: float):
    return lambda: [ciindex.exact_performance(e, 40, p, ALPHA) for e in ciindex.PROPORTION_ESTIMATORS]


def test_proportion_sweeps_call_the_traced_quantiles():
    # the sweeps must reach the quantiles through the proportion_intervals
    # names the tracer wraps; a formula calling scipy.special directly
    # would report those per-layer metrics as 0.  The study and the oracle
    # share one endpoint cache per (kind, n, alpha): from an empty cache the
    # study fills its drawn counts and the sweep the rest, and a second p at
    # the same n evaluates no formula
    tracer = _load("tracer")
    plan = ciindex.SimulationPlan(
        model=ciindex.binomial_model(40, 0.3), n=40, N=1, B=1, R=200, alpha=ALPHA,
        estimators=ciindex.PROPORTION_ESTIMATORS, master_seed=20260815,
    )
    ciindex.proportion_intervals._endpoints.cache_clear()
    for run in (lambda: ciindex.run_proportion_study(plan), _exact_sweep(0.3)):
        calls = _traced_calls(tracer, run)
        for span in PROPORTION_QUANTILES:
            assert calls[span] > 0, span
    warm = _traced_calls(tracer, _exact_sweep(0.7))
    for span in ("special.beta_quantile", "special.chi_square_quantile"):
        assert warm[span] == 0, span


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
    mi = ciindex.mean_intervals
    # the package draws the replay's resample set, through public names
    assert mi.percentile_from_boot_means(means, ALPHA) == ciindex.bootstrap_percentile_interval(VALUES, ALPHA, B, seed)
    assert mi.bca_from_boot_means(VALUES, means, ALPHA) == ciindex.bca_interval(VALUES, ALPHA, B, seed)

    beta = ciindex.calibrate_level(VALUES, ALPHA, B, seed).beta
    assert 1.0 / (2 * B) <= beta <= 0.5
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


def _workload_configs(tmp_path):
    # (workload name, CLI call, written config path) for every benchmark call
    workloads = _load("workloads")
    for name in workloads.NAMES:
        workload = workloads.build(name, workloads.DEFAULT_SEED, PERFBENCH.parent)
        for k, call in enumerate(workload.calls):
            path = tmp_path / f"{name}-{k}.ini"
            path.write_text(call.config, encoding="utf-8")
            yield name, call, path


def test_benchmark_configs_load_and_plan(tmp_path):
    # a config key the CLI stops accepting would otherwise show only as
    # every benchmark run exiting with code 2
    cli = ciindex.cli
    for name, call, path in _workload_configs(tmp_path):
        args = cli._build_parser().parse_args([call.mode, "--config", str(path)])
        eff = cli._effective(args)
        if call.mode in ("apply", "plot-data"):
            assert cli._input_path(eff, "apply" if call.mode == "apply" else "plot").is_file()
            continue
        plan = cli._build_plan(eff, cli._build_model(eff.settings))
        assert eff.settings["study"].get("workers", 1) == 1, (name, path.stem)
        if name == "calibrate_small_n":
            assert plan.skip_delta == 0.0


class _StudyReached(BaseException):
    """Raised by the stubs; BaseException, as setup_probe.py's, passes the CLI's handlers."""


STUB_OF_MODE = {
    "simulate-mean": "run_mean_study",
    "calibrate": "run_calibration_study",
    "simulate-proportion": "run_proportion_study",
    "apply": "apply_index",
    "plot-data": "apply_index",
}


def test_setup_probe_stubs_reach_every_mode(tmp_path, monkeypatch):
    # setup_probe.py times set-up up to the first study call by replacing
    # these cli attributes; a mode that holds its study function some
    # other way (say, bound into a table at import) runs the whole study
    # and its set-up time silently includes it
    for name in _patched_cli_names():
        def stub(*args, _name=name, **kwargs):
            raise _StudyReached(_name)

        monkeypatch.setattr(ciindex.cli, name, stub)
    for name, call, path in _workload_configs(tmp_path):
        out = tmp_path / f"out-{path.stem}"
        with pytest.raises(_StudyReached) as reached:
            ciindex.cli.main([call.mode, "--config", str(path), "--out", str(out)])
        assert reached.value.args == (STUB_OF_MODE[call.mode],), (name, call.mode)
