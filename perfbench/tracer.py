"""Span tracing around the ciindex functions the benchmark wraps.

A span is one call of a wrapped function.  Spans are aggregated in memory
by name: call count, total seconds, and the seconds covered by child spans
(so self time is ``total - child``).  A few span names are also kept raw,
as (name, start, end), for the per-call phase split of ``cli.main``.

Functions are wrapped under the names the package looks them up by, e.g.
``ciindex.harness.bca_from_boot_means`` rather than the definition in
``ciindex.mean_intervals``, so that the wrapper sees the calls the package
actually makes.  A target whose attribute no longer exists is recorded as
missing; its metrics are then reported as missing, never as zero.
Nothing under ``src/`` is changed: the wrappers live only while a traced
pass runs and are removed afterwards.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

STUDY_SPAN = "harness.study"
MAIN_SPAN = "cli.main"
APPLY_SPAN = "cli.apply_index"
GENERATOR_SPAN = "sampling.generator"
PROPORTION_SPAN = "proportion_intervals.interval"


def targets(ci) -> list[tuple]:
    """(owner, attribute, span name, options) for every wrapped function."""
    cli, harness = ci.cli, ci.harness
    mean, prop = ci.mean_intervals, ci.proportion_intervals
    keep = {"keep": True}
    return [
        (ci.sampling.SeedSpec, "generator", GENERATOR_SPAN, {"path_of": 0}),
        (cli, "main", MAIN_SPAN, keep),
        (cli, "run_mean_study", STUDY_SPAN, keep),
        (cli, "run_calibration_study", STUDY_SPAN, keep),
        (cli, "run_proportion_study", STUDY_SPAN, keep),
        (cli, "apply_index", APPLY_SPAN, keep),
        (harness, "summarize_index", "harness.summarize", {}),
        (harness, "normal_theory_interval", "mean_intervals.normal_theory", {}),
        (harness, "johnson_t_interval", "mean_intervals.johnson_t", {}),
        (harness, "percentile_from_boot_means", "mean_intervals.percentile", {}),
        (harness, "bca_from_boot_means", "mean_intervals.bca", {}),
        (harness, "_lambdas", "calibration.lambdas", {}),
        (harness, "_beta_from_lambdas", "calibration.beta", {}),
        (harness, "compute_index", "index.compute_index", {}),
        (cli, "compute_index", "index.compute_index", {}),
        (mean, "normal_quantile", "special.normal_quantile", {}),
        (prop, "normal_quantile", "special.normal_quantile", {}),
        (mean, "student_t_quantile", "special.student_t_quantile", {}),
        (prop, "beta_quantile", "special.beta_quantile", {}),
        (prop, "chi_square_quantile", "special.chi_square_quantile", {}),
        (harness, "proportion_interval", PROPORTION_SPAN, {"key_arg": 0}),
        (prop, "proportion_interval", PROPORTION_SPAN, {"key_arg": 0}),
        (ci, "exact_performance", "proportion_intervals.exact_performance", {}),
    ]


class Tracer:
    """Aggregated spans plus per-stream generator counts."""

    def __init__(self, target_list: list[tuple]) -> None:
        self._targets = target_list
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.child: defaultdict = defaultdict(float)
        self.kept: list[tuple[str, float, float]] = []
        self.paths: Counter = Counter()
        found = {name for owner, attr, name, _ in target_list if hasattr(owner, attr)}
        self.missing = sorted({name for _, _, name, _ in target_list} - found)

    def self_seconds(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def _wrap(self, original, name: str, keep=False, key_arg=None, path_of=None):
        stack: list[float] = self._stack
        calls, total, child, kept, paths = self.calls, self.total, self.child, self.kept, self.paths

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                covered = stack.pop()
                if stack:
                    stack[-1] += end - start
                span = name if key_arg is None else f"{name}.{args[key_arg]}"
                calls[span] += 1
                total[span] += end - start
                child[span] += covered
                if keep:
                    kept.append((span, start, end))
                if path_of is not None:
                    paths[args[path_of].stream_path] += 1

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        self._stack = []
        patched = []
        try:
            for owner, attr, name, options in self._targets:
                if hasattr(owner, attr):
                    original = getattr(owner, attr)
                    setattr(owner, attr, self._wrap(original, name, **options))
                    patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
