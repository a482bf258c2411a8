"""Benchmark of the ciindex study paths, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mean_small_n --seed 20260815 --seconds 20 --trace 0

Workloads: mean_small_n, mean_large_n, calibrate_small_n, proportion_exact
(README.md in this directory says why each was chosen).  A run times
set-up in fresh processes, runs one untimed warm-up pass and checks its
outputs, then repeats passes of the workload for ``--seconds`` seconds and
checks that every pass wrote the same bytes.  Every timed set-up and pass
is measured with a reference unit of fixed work (hostspeed.py), and times
are reported scaled to a fixed host speed.  With ``--trace 1`` untraced
and traced passes alternate and the traced ones give the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 without a result when the checkout holds no ciindex sources, or
when a workload would use more than one worker or more processes than
there are CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from math import ceil
from pathlib import Path
from time import perf_counter

import hostspeed as hs
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected_hashes.json"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
PAPER_SAMPLES = 5000 * 1000  # R * N of the paper preset
EXACT_FILE = "exact_performance.csv"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
    "intervals_per_s": "1/s",
    "paper_eta_h": "h",
    "peak_rss_mb": "MB",
}
# per-layer metrics defined on every workload; the JSON result carries these
PER_LAYER = {
    "sampling.generator_calls": "count",
    "sampling.generator_us": "us",
    "sampling.resample_bytes": "B",
    "harness.self_share": "share",
    "calibration.resample_sets_per_stream": "count",
    "mean_intervals.calls": "count",
    "index.calls": "count",
    "index.compute_index_us": "us",
    "special.normal_quantile_calls": "count",
    "special.normal_quantile_us": "us",
    "proportion_intervals.calls": "count",
    "cli.config_ms": "ms",
    "cli.write_ms": "ms",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}
MEAN_SPANS = {
    "normal_theory": "mean_intervals.normal_theory",
    "johnson_t": "mean_intervals.johnson_t",
    "percentile": "mean_intervals.percentile",
    "bca": "mean_intervals.bca",
}


def host_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def oversubscription(workload: wl.Workload, nproc: int) -> str | None:
    """Why the workload may not start, or None.

    A study with ``workers = w > 1`` would run w pool processes; every
    workload here must run in this single process.
    """
    for call in workload.calls:
        workers = int(wl.ini_values(call.config).get("workers", "1"))
        if workers > 1 or workers > nproc:
            return f"{call.out} asks for workers = {workers} on a host with nproc = {nproc}"
    return None


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten values above it."""
    ordered = sorted(values)
    for q in range(99, 0, -1):
        rank = ceil(q * len(ordered) / 100)
        if len(ordered) - rank >= 10:
            return q, ordered[rank - 1]
    return None


def digests(directory: Path) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class Bench:
    """Runs passes of one workload and scores their outputs."""

    def __init__(self, ci, workload: wl.Workload, tmp: Path) -> None:
        self.ci = ci
        self.workload = workload
        self.pass_dir = tmp / "pass"
        self.configs = {call.out: tmp / "configs" / f"{call.out}.ini" for call in workload.calls}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.exact_rows: list[tuple] = []  # (kind, n, p, coverage, length) of the last pass

    def run_pass(self) -> tuple[float, dict[str, str]]:
        """One timed pass; returns its seconds and the digests of its outputs."""
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir.mkdir()
        codes, rows = [], []
        start = perf_counter()
        for call in self.workload.calls:
            try:
                codes.append(self.ci.cli.main([
                    call.mode, "--config", str(self.configs[call.out]),
                    "--out", str(self.pass_dir / call.out),
                ]))
            except Exception as exc:  # a crashing study is a failed call, not a crashed benchmark
                codes.append(repr(exc))
        for kind, n, p in self.workload.grid:
            try:
                perf = self.ci.exact_performance(kind, n, p, wl.ALPHA)
                rows.append((kind, n, p, float(perf.coverage), float(perf.mean_length)))
            except Exception as exc:
                rows.append((kind, n, p, repr(exc), ""))
        elapsed = perf_counter() - start
        self.exact_rows = [row for row in rows if isinstance(row[3], float)]
        if self.workload.grid:
            lines = [",".join(map(repr, row)) for row in rows]
            (self.pass_dir / EXACT_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
        found = digests(self.pass_dir)
        self._score(codes, len(rows) - len(self.exact_rows), found)
        return elapsed, found

    def _score(self, codes: list, exact_errors: int, found: dict[str, str]) -> None:
        if self.reference is None:
            self.reference = found
        self.attempted += len(codes) + len(self.workload.grid)
        for call, code in zip(self.workload.calls, codes):
            prefix = call.out + "/"
            mine = {k: v for k, v in found.items() if k.startswith(prefix)}
            want = {k: v for k, v in self.reference.items() if k.startswith(prefix)}
            if code != 0 or mine != want:
                self.failed += 1
                self.problems.append(f"{call.out}: exit {code!r}, outputs match: {mine == want}")
        if self.workload.grid:
            mismatch = found.get(EXACT_FILE) != self.reference.get(EXACT_FILE)
            bad = exact_errors or (len(self.workload.grid) if mismatch else 0)
            if bad:
                self.failed += bad
                self.problems.append(f"{EXACT_FILE}: {exact_errors} errors, mismatch: {mismatch}")

    def output_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for call in self.workload.calls
            for path in (self.pass_dir / call.out).rglob("*")
            if path.is_file()
        )


def setup_seconds(workload: wl.Workload, tmp: Path) -> tuple[list[float], list[float]]:
    """Set-up times of the workload's first CLI call in fresh processes, and their units."""
    call = workload.calls[0]
    times, refs = [], []
    for k in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), call.mode,
             str(tmp / "configs" / f"{call.out}.ini"), str(tmp / f"setup-{k}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        took, unit = map(float, done.stdout.split())
        times.append(took)
        refs.append(unit)
    return times, refs


def recorded_hashes(name: str, seed: int) -> dict[str, str] | None:
    if seed != wl.DEFAULT_SEED or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text(encoding="utf-8"))["workloads"].get(name)


# ------------------------------------------------------------------ traces


class _Spans:
    """Counts and per-call times of wrapped spans; None where a span is missing."""

    def __init__(self, tracer: tr.Tracer, counts: Counter) -> None:
        self.tracer = tracer
        self.counts = counts
        self.missing = set(tracer.missing)

    def count(self, *names: str) -> int | None:
        if self.missing.intersection(names):
            return None
        return sum(self.counts.get(name, 0) for name in names)

    def per_call(self, *names: str, scale: float = 1e6, calls_of: str | None = None) -> float | None:
        """Seconds in ``names`` per call of ``calls_of`` (default: of ``names``), scaled."""
        if self.missing.intersection(names):
            return None
        calls = self.tracer.calls[calls_of] if calls_of else sum(self.tracer.calls[n] for n in names)
        return sum(self.tracer.total[n] for n in names) / calls * scale if calls else None


def _stream_ratio(paths: Counter) -> float:
    # resample sets drawn per distinct (2, r, i) stream
    resample = [count for path, count in paths.items() if path[:1] == (2,)]
    return sum(resample) / len(resample) if resample else 0.0


def _cli_phases(kept: list[tuple[str, float, float]]) -> tuple[float | None, float | None]:
    """Mean ms per CLI call before the study starts and after it returns."""
    config, write = [], []
    for name, start, end in kept:
        if name != tr.MAIN_SPAN:
            continue
        inner = [(s, e) for n, s, e in kept
                 if n in (tr.STUDY_SPAN, tr.APPLY_SPAN) and start <= s and e <= end]
        if inner:
            config.append((min(s for s, _ in inner) - start) * 1e3)
            write.append((end - max(e for _, e in inner)) * 1e3)
    return (statistics.fmean(config) if config else None,
            statistics.fmean(write) if write else None)


def layer_metrics(bench: Bench, tracer: tr.Tracer, counts: Counter, stream_ratio: float,
                  output_bytes: int, traced: list[float], untraced: list[float],
                  replay: dict[str, float]) -> dict[str, float]:
    """Every per-layer value this workload gives; missing and unexercised ones are left out."""
    spans = _Spans(tracer, counts)
    config_ms = write_ms = self_share = None
    if not spans.missing.intersection({tr.MAIN_SPAN, tr.STUDY_SPAN}):
        config_ms, write_ms = _cli_phases(tracer.kept)
    if tr.STUDY_SPAN not in spans.missing:
        self_share = tracer.self_seconds(tr.STUDY_SPAN) / sum(traced)
    kinds = [f"{tr.PROPORTION_SPAN}.{kind}" for kind in wl.PROPORTION_ESTIMATORS]
    values = {
        "sampling.generator_calls": spans.count(tr.GENERATOR_SPAN),
        "sampling.generator_us": spans.per_call(tr.GENERATOR_SPAN),
        "sampling.resample_bytes": bench.workload.resample_bytes,
        "harness.self_share": self_share,
        "calibration.resample_sets_per_stream":
            None if tr.GENERATOR_SPAN in spans.missing else stream_ratio,
        "mean_intervals.calls": spans.count(*MEAN_SPANS.values()),
        "index.calls": spans.count("index.compute_index"),
        "index.compute_index_us": spans.per_call("index.compute_index"),
        "special.normal_quantile_calls": spans.count("special.normal_quantile"),
        "special.normal_quantile_us": spans.per_call("special.normal_quantile"),
        "proportion_intervals.calls":
            None if tr.PROPORTION_SPAN in spans.missing else sum(counts.get(k, 0) for k in kinds),
        "cli.config_ms": config_ms,
        "cli.write_ms": write_ms,
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": min(traced) - min(untraced),
        # workload-specific: present only where the layer runs
        "harness.summarize_us": spans.per_call("harness.summarize"),
        "calibration.level_us": spans.per_call(
            "calibration.lambdas", "calibration.beta", calls_of="calibration.beta"),
        "special.student_t_quantile_us": spans.per_call("special.student_t_quantile"),
        "special.beta_quantile_us": spans.per_call("special.beta_quantile"),
        "special.chi_square_quantile_us": spans.per_call("special.chi_square_quantile"),
        "proportion_intervals.exact_performance_ms":
            spans.per_call("proportion_intervals.exact_performance", scale=1e3),
    }
    for short, span in MEAN_SPANS.items():
        values[f"mean_intervals.{short}_us"] = spans.per_call(span)
    for kind, span in zip(wl.PROPORTION_ESTIMATORS, kinds):
        values[f"proportion_intervals.interval_us.{kind}"] = (
            None if tr.PROPORTION_SPAN in spans.missing else spans.per_call(span))
    values.update(replay)
    return {name: value for name, value in values.items() if value is not None}


# ------------------------------------------------------------------ report


def _line(kind: str, name: str, value, unit: str, note: str = "") -> None:
    print(f"{kind} {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def _timing_note(wall: list[float], scaled: list[float], refs: list[float], what: str) -> str:
    note = f"median of {len(wall)} {what}, scaled"
    high = high_percentile(scaled)
    note += f", p{high[0]} {high[1]!r} s" if high else ", too few for a percentile with ten beyond it"
    return note + (f"; wall: median {statistics.median(wall)!r} s, fastest {min(wall)!r} s; "
                   f"reference unit: median {statistics.median(refs)!r} s, "
                   f"nominal {hs.REFERENCE_S!r} s")


def end_to_end(bench: Bench, setup: tuple[list[float], list[float]],
               passes: tuple[list[float], list[float]], intervals: int) -> dict:
    # Each time is scaled by the reference units measured with it, and the
    # median is taken: the host's speed drifts by up to 1.6x (README.md,
    # "Why times are scaled"), and the work of a pass divided by the
    # host's speed at that moment is what stays put.
    setup_scaled = [hs.scaled(t, unit) for t, unit in zip(*setup)]
    pass_scaled = hs.bracketed(*passes)
    run_s = statistics.median(pass_scaled)
    samples_per_s = bench.workload.samples / run_s
    values = {
        "setup_s": (statistics.median(setup_scaled),
                    _timing_note(setup[0], setup_scaled, setup[1], "fresh processes")),
        "run_s": (run_s, _timing_note(passes[0], pass_scaled, passes[1], "passes")),
        "samples_per_s": (samples_per_s, f"{bench.workload.samples} samples per pass"),
        "intervals_per_s": (intervals / run_s, f"{intervals} intervals per pass"),
        "paper_eta_h": (PAPER_SAMPLES / samples_per_s / 3600.0,
                        f"{PAPER_SAMPLES} samples at this workload's samples_per_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "whole benchmark process"),
    }
    for name, (value, note) in values.items():
        _line("metric", name, value, END_TO_END[name], note)
    return {name: {"value": value, "unit": END_TO_END[name]} for name, (value, _) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ciindex" / "__init__.py").is_file():
        print(f"perfbench: no ciindex sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    host = host_record(args.seed)
    workload = wl.build(args.workload, args.seed, ROOT)
    refusal = oversubscription(workload, host["nproc"])
    if refusal:
        print(f"perfbench: refusing {args.workload}: {refusal}", file=sys.stderr)
        return 2
    print("host " + json.dumps(host, sort_keys=True))
    print(f"plan workload={args.workload} workers=1 processes=1 seconds={args.seconds:g}")

    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as name:
        tmp = Path(name)
        (tmp / "configs").mkdir()
        for call in workload.calls:
            (tmp / "configs" / f"{call.out}.ini").write_text(call.config, encoding="utf-8")
        setup = setup_seconds(workload, tmp) if args.trace == 0 else ([], [])

        sys.path.insert(0, str(SRC))
        import ciindex
        import ciindex.cli  # noqa: F401  (not imported by the package itself)

        bench = Bench(ciindex, workload, tmp)
        bench.reference = recorded_hashes(args.workload, args.seed)
        hash_source = "recorded at the default seed" if bench.reference else "the warm-up pass"
        _, warm = bench.run_pass()
        try:
            check = wl.verify(workload, bench.pass_dir, bench.exact_rows, ciindex)
        except (OSError, LookupError, ValueError, ArithmeticError) as exc:
            check = wl.Verification(problems=[f"outputs unreadable: {exc!r}"])
        bench.problems.extend(check.problems)
        print(f"outputs {json.dumps(warm, sort_keys=True)}")

        deadline = perf_counter() + args.seconds
        untraced, traced = [], []
        tracer = tr.Tracer(tr.targets(ciindex))
        counts, ratios, sizes = [], [], []
        refs = [hs.reference_seconds()]
        while not untraced or perf_counter() < deadline:
            untraced.append(bench.run_pass()[0])
            refs.append(hs.reference_seconds())
            if args.trace:
                before = Counter(tracer.calls)
                tracer.paths.clear()
                with tracer.installed():
                    traced.append(bench.run_pass()[0])
                counts.append(tracer.calls - before)
                ratios.append(_stream_ratio(tracer.paths))
                sizes.append(bench.output_bytes())

        print("passes " + json.dumps({"untraced": untraced, "reference": refs, "traced": traced}))
        if args.trace == 0:
            metrics = end_to_end(bench, setup, (untraced, refs), check.intervals)
        else:
            if any(c != counts[0] for c in counts) or len(set(ratios)) > 1 or len(set(sizes)) > 1:
                bench.problems.append("call counts differ between identical traced passes")
            layers = layer_metrics(bench, tracer, counts[0], ratios[0], sizes[0],
                                   traced, untraced, check.timings)
            print(f"trace fastest untraced pass {min(untraced)!r} s, traced {min(traced)!r} s "
                  f"({len(traced)} pairs of passes)")
            for span in sorted(tracer.calls):
                per = len(traced)
                print(f"span {span} calls/pass = {tracer.calls[span] // per} total_ms/pass = "
                      f"{tracer.total[span] / per * 1e3:.3f} self_ms/pass = "
                      f"{tracer.self_seconds(span) / per * 1e3:.3f}")
            print("missing " + json.dumps(tracer.missing))
            print("layers " + json.dumps(layers, sort_keys=True))
            for name, value in layers.items():
                unit = PER_LAYER.get(name) or ("ms" if name.endswith("_ms") else "us")
                note = "computed as 16*B*n" if name == "sampling.resample_bytes" else ""
                _line("layer", name, value, unit, note)
            metrics = {
                name: {"value": layers[name], "unit": unit}
                for name, unit in PER_LAYER.items() if name in layers
            }

    for problem in bench.problems:
        print(f"problem {problem}")
    print(f"check hashes against {hash_source}; failed_frac = {bench.failed}/{bench.attempted}")
    print(json.dumps({
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
