"""The four benchmark workloads: their inputs, and the checks on their outputs.

Every input is made from the ``--seed`` argument: the master seed of the
studies is the seed itself, and the proportion workload draws its grid of
success probabilities from a numpy generator seeded with it.  Each
workload is a list of CLI calls (an INI config each) and, for
``proportion_exact``, a grid of ``exact_performance`` calls; one pass runs
them all once.  README.md in this directory says why each was chosen.

The checks here do not trust the package's own summaries:

* index columns are recomputed from the written coverage and length with
  the index formula as published (README of the package);
* replication 0 of every mean study (every replication of the calibrate
  study) is replayed from the documented stream layout -- (1, r) for the
  data block, (2, r, i) for sample i's resamples, (3,) for proportion
  draws -- through the package's public interval functions, and must
  reproduce the written coverage, length, skip flag and mean beta digit
  for digit;
* Clopper-Pearson coverage from ``exact_performance`` must be at least
  the nominal level, which that interval guarantees for every (n, p).

The replay also times the numpy steps of the bootstrap draw that have no
function of their own in the package: the index draw, the gather plus
mean, and the standard deviation only calibration uses.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

DEFAULT_SEED = 20260815
ALPHA = 0.05
MEAN_ESTIMATORS = ("normal_theory", "johnson_t", "bootstrap_percentile", "bca")
PROPORTION_ESTIMATORS = (
    "exact", "wald", "arcsin", "arcsin_cc", "pois", "wilson",
    "wilson_cc", "bcg", "agresti_coull", "add4", "mid_p",
)
# exact_performance grid: every n, at two seeded success probabilities each
EXACT_NS = (10, 40, 150, 500, 1000)
# simulate-proportion configs: (n_trials, R)
SIMULATED = ((10, 2000), (60, 2000), (300, 2000))
CV_TABLE = Path("demos") / "data" / "cv_estimator_performance.csv"


@dataclass(frozen=True)
class CliCall:
    """One ``ciindex.cli.main`` call: mode, output subdirectory, INI text."""

    mode: str
    out: str
    config: str


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[CliCall, ...]
    grid: tuple[tuple[str, int, float], ...] = ()
    samples: int = 0  # data samples (binomial observations) scored per pass
    resample_bytes: int = 0  # 16 * B * n: int64 indices plus float64 gather


@dataclass
class Verification:
    intervals: int = 0  # interval estimates issued per pass
    problems: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


def _mean_ini(mode: str, seed: int, model: str, study: str) -> str:
    return (
        f"[run]\nschema = 1\nmode = {mode}\nseed = {seed}\nscale = desk\n"
        f"alpha = {ALPHA}\nloss = absolute\n\n[model]\n{model}\n\n"
        f"[study]\n{study}\nestimators = {','.join(MEAN_ESTIMATORS)}\nworkers = 1\n"
    )


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload ``name`` with inputs made from ``seed``."""
    normal = "kind = normal\nmu = 2.0\nsigma2 = 1.0"
    if name == "mean_small_n":
        R, N, B, n = 1, 1000, 1000, 10
        ini = _mean_ini("simulate-mean", seed, normal, f"n = {n}\nN = {N}\nB = {B}\nR = {R}")
        return Workload(name, (CliCall("simulate-mean", "study", ini),),
                        samples=R * N, resample_bytes=16 * B * n)
    if name == "mean_large_n":
        R, N, B, n = 1, 500, 200, 1000
        model = "kind = lognormal\nmu_log = 0.0\nsigma2_log = 3.0"
        ini = _mean_ini("simulate-mean", seed, model, f"n = {n}\nN = {N}\nB = {B}\nR = {R}")
        return Workload(name, (CliCall("simulate-mean", "study", ini),),
                        samples=R * N, resample_bytes=16 * B * n)
    if name == "calibrate_small_n":
        # skip_delta = 0: at R = 3 the Johnson t coverage estimate (true
        # value about 0.942, standard error 0.006) lands inside a 0.005 skip
        # window at about a third of the seeds, changing the pass's work by
        # about 10%; with 0 it runs unless the estimate is exactly 0.95
        R, N, B, n = 3, 500, 200, 10
        ini = _mean_ini(
            "calibrate", seed, normal, f"n = {n}\nN = {N}\nB = {B}\nR = {R}\nskip_delta = 0"
        )
        return Workload(name, (CliCall("calibrate", "study", ini),),
                        samples=R * N, resample_bytes=16 * B * n)
    if name == "proportion_exact":
        rng = np.random.default_rng([seed, 1])
        calls = []
        for k, (n_trials, R) in enumerate(SIMULATED):
            p = f"{rng.uniform(0.05, 0.95):.4f}"
            calls.append(CliCall("simulate-proportion", f"simulate-{k}", (
                f"[run]\nschema = 1\nmode = simulate-proportion\nseed = {seed}\nalpha = {ALPHA}\n\n"
                f"[model]\nkind = binomial\nn_trials = {n_trials}\np = {p}\n\n[study]\nR = {R}\n"
            )))
        ps = {n: [float(f"{rng.uniform(0.02, 0.98):.4f}") for _ in range(2)] for n in EXACT_NS}
        grid = tuple((kind, n, p) for n in EXACT_NS for p in ps[n] for kind in PROPORTION_ESTIMATORS)
        table = (root / CV_TABLE).as_posix()
        for mode, section in (("apply", "apply"), ("plot-data", "plot")):
            calls.append(CliCall(mode, mode, (
                f"[run]\nschema = 1\nmode = {mode}\nalpha = {ALPHA}\nloss = absolute\n\n"
                f"[{section}]\ninput = {table}\n"
            )))
        samples = sum(R for _, R in SIMULATED) + sum(n + 1 for n in EXACT_NS for _ in ps[n])
        return Workload(name, tuple(calls), grid=grid, samples=samples)
    raise KeyError(name)


NAMES = ("mean_small_n", "mean_large_n", "calibrate_small_n", "proportion_exact")


# ------------------------------------------------------------------ checks


def index_value(coverage: float, length: float, alpha: float = ALPHA) -> float:
    """I(L, eta; alpha) under absolute loss, written out independently."""
    k = (4.0 - 2.0 * alpha) / (3.0 - 2.0 * alpha)
    h = abs(1.0 - alpha - coverage)
    return k * (1.0 - (1.0 + h) / 2.0 / (1.0 + coverage / (1.0 + length)))


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _check_index_column(rows, label: str, problems: list[str]) -> None:
    for row in rows:
        expected = index_value(float(row["coverage"]), float(row["length"]))
        if abs(float(row["index"]) - expected) > 1e-6:
            problems.append(f"{label}: index {row['index']} != {expected:.6f} for {row}")


def ini_values(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def verify(workload: Workload, pass_dir: Path, exact_rows, ci) -> Verification:
    """Check one pass's outputs and replay its random streams."""
    if workload.name == "proportion_exact":
        return _verify_proportion(workload, pass_dir, exact_rows, ci)
    call = workload.calls[0]
    if call.mode == "calibrate":
        return _verify_calibrate(call, pass_dir / call.out, ci)
    return _verify_mean(call, pass_dir / call.out, ci)


def _plan(call: CliCall):
    v = ini_values(call.config)
    if v["kind"] == "normal":
        draw = ("normal", float(v["mu"]), math.sqrt(float(v["sigma2"])))
        theta = float(v["mu"])
    else:
        draw = ("lognormal", float(v["mu_log"]), math.sqrt(float(v["sigma2_log"])))
        theta = math.exp(float(v["mu_log"]) + float(v["sigma2_log"]) / 2.0)
    return int(v["seed"]), int(v["R"]), int(v["N"]), int(v["B"]), int(v["n"]), draw, theta


class _Replay:
    """Replication r of a mean study, rebuilt from its streams."""

    def __init__(self, call: CliCall, ci) -> None:
        self.ci = ci
        self.seed, self.R, self.N, self.B, self.n, self.draw, self.theta = _plan(call)
        self.timings: dict[str, float] = {}

    def matrix(self, r: int, timed: bool) -> np.ndarray:
        start = perf_counter()
        rng = self.ci.SeedSpec(self.seed).child(1, r).generator()
        kind, loc, scale = self.draw
        block = getattr(rng, kind)(loc, scale, size=(self.N, self.n))
        if timed:
            self.timings["sampling.draw_ms"] = (perf_counter() - start) * 1e3
        return block

    def boot_means(self, values: np.ndarray, r: int, i: int, split: dict | None) -> np.ndarray:
        # the resample draw of sample i as the harness makes it; when
        # ``split`` is given, each numpy step is timed into it
        rng = self.ci.SeedSpec(self.seed).child(2, r, i).generator()
        t1 = perf_counter()
        idx = rng.integers(0, values.size, size=(self.B, values.size))
        t2 = perf_counter()
        boot = values[idx]
        means = boot.mean(axis=1)
        t3 = perf_counter()
        if split is not None:
            boot.std(axis=1, ddof=1)
            t4 = perf_counter()
            split["resample_index"] += t2 - t1
            split["gather_mean"] += t3 - t2
            split["std"] += t4 - t3
        return means

    def intervals(self, values: np.ndarray, means: np.ndarray, level: float) -> dict:
        mi = self.ci.mean_intervals
        return {
            "normal_theory": mi.normal_theory_interval(values, level),
            "johnson_t": mi.johnson_t_interval(values, level),
            "bootstrap_percentile": mi.percentile_from_boot_means(means, level),
            "bca": mi.bca_from_boot_means(values, means, level),
        }

    def finish_split(self, split: dict) -> None:
        for step, key in (("resample_index", "sampling.resample_index_us"),
                          ("gather_mean", "harness.gather_mean_us"), ("std", "harness.std_us")):
            self.timings[key] = split[step] / self.N * 1e6


def _verify_mean(call: CliCall, out: Path, ci) -> Verification:
    result = Verification()
    rows = read_table(out / "replications.csv")
    summary = read_table(out / "summary.csv")
    replay = _Replay(call, ci)
    if len(rows) != replay.R * len(MEAN_ESTIMATORS) or len(summary) != len(MEAN_ESTIMATORS):
        result.problems.append(f"replications.csv has {len(rows)} rows, summary.csv {len(summary)}")
        return result
    _check_index_column(rows, "replications.csv", result.problems)
    for row in summary:
        own = [float(r["coverage"]) for r in rows if r["estimator"] == row["estimator"]]
        if abs(float(row["coverage"]) - sum(own) / len(own)) > 1e-6:
            result.problems.append(f"summary coverage of {row['estimator']} is not the mean")

    matrix = replay.matrix(0, timed=True)
    split = {"resample_index": 0.0, "gather_mean": 0.0, "std": 0.0}
    covers = dict.fromkeys(MEAN_ESTIMATORS, 0)
    lengths = dict.fromkeys(MEAN_ESTIMATORS, 0.0)
    for i in range(replay.N):
        values = matrix[i]
        means = replay.boot_means(values, 0, i, split)
        for e, ci_ in replay.intervals(values, means, ALPHA).items():
            covers[e] += ci_.contains(replay.theta)
            lengths[e] += ci_.length
    replay.finish_split(split)
    written = {r["estimator"]: r for r in rows if r["replication"] == "0"}
    for e in MEAN_ESTIMATORS:
        got = (_fmt(covers[e] / replay.N), _fmt(lengths[e] / replay.N))
        want = (written[e]["coverage"], written[e]["length"])
        if got != want:
            result.problems.append(f"replay of replication 0, {e}: {got} != written {want}")
    result.intervals = replay.R * replay.N * len(MEAN_ESTIMATORS)
    result.timings = replay.timings
    return result


def _verify_calibrate(call: CliCall, out: Path, ci) -> Verification:
    result = Verification()
    rows = read_table(out / "calibration.csv")
    replay = _Replay(call, ci)
    skip_delta = float(ini_values(call.config)["skip_delta"])
    if len(rows) != 2 * len(MEAN_ESTIMATORS):
        result.problems.append(f"calibration.csv has {len(rows)} rows")
        return result
    _check_index_column(rows, "calibration.csv", result.problems)

    # per replication: uncalibrated and calibrated (coverage, length) per
    # estimator, and the replication's mean beta
    uncal, cal, betas = [], [], []
    for r in range(replay.R):
        matrix = replay.matrix(r, timed=r == 0)
        split = {"resample_index": 0.0, "gather_mean": 0.0, "std": 0.0} if r == 0 else None
        u = {e: [0, 0.0] for e in MEAN_ESTIMATORS}
        c = {e: [0, 0.0] for e in MEAN_ESTIMATORS}
        beta_total = 0.0
        for i in range(replay.N):
            values = matrix[i]
            means = replay.boot_means(values, r, i, split)
            beta = ci.calibrate_level(
                values, ALPHA, replay.B, ci.SeedSpec(replay.seed).child(2, r, i)
            ).beta
            beta_total += beta
            for acc, level in ((u, ALPHA), (c, beta)):
                for e, ci_ in replay.intervals(values, means, level).items():
                    acc[e][0] += ci_.contains(replay.theta)
                    acc[e][1] += ci_.length
        if split is not None:
            replay.finish_split(split)
        uncal.append(u)
        cal.append(c)
        betas.append(beta_total / replay.N)

    def mean_of(reps, e, k):
        # k = 0: coverage, k = 1: length; each replication's value is sum / N
        return float(np.mean([rep[e][k] / replay.N for rep in reps]))

    calibrated = 0
    written = {(row["estimator"], row["variant"]): row for row in rows}
    for e in MEAN_ESTIMATORS:
        coverage = mean_of(uncal, e, 0)
        skipped = abs(coverage - (1.0 - ALPHA)) <= skip_delta
        calibrated += not skipped
        for variant, reps in (("uncalibrated", uncal), ("calibrated", uncal if skipped else cal)):
            got = (
                _fmt(mean_of(reps, e, 0)),
                _fmt(mean_of(reps, e, 1)),
                "true" if skipped else "false",
                _fmt(math.nan if skipped else float(np.mean(betas))),
            )
            row = written[(e, variant)]
            want = (row["coverage"], row["length"], row["skipped"], row["mean_beta"])
            if got != want:
                result.problems.append(f"replay of {e} {variant}: {got} != written {want}")
    result.intervals = replay.R * replay.N * (len(MEAN_ESTIMATORS) + calibrated)
    result.timings = replay.timings
    return result


def _verify_proportion(workload: Workload, pass_dir: Path, exact_rows, ci) -> Verification:
    result = Verification()
    for call in workload.calls:
        out = pass_dir / call.out
        if call.mode == "simulate-proportion":
            result.intervals += _replay_proportion(call, out, ci, result.problems)
        elif call.mode == "apply":
            rows = read_table(out / "report.csv")
            _check_index_column(rows, "report.csv", result.problems)
            groups: dict[tuple, list[dict]] = {}
            for row in rows:
                groups.setdefault((row["n"], row["cv"]), []).append(row)
            for members in groups.values():
                top = max(float(row["index"]) for row in members)
                if any(row["rank"] == "1" and float(row["index"]) != top for row in members):
                    result.problems.append("report.csv: rank 1 is not the largest index")
        else:
            nominal = [row for row in read_table(out / "plot_data.csv") if row["series"] == "nominal"]
            if not nominal or any(row["value"] != _fmt(1.0 - ALPHA) for row in nominal):
                result.problems.append("plot_data.csv: nominal series is not 1 - alpha")
    for kind, n, p, coverage, length in exact_rows:
        if not (0.0 <= coverage <= 1.0 and 0.0 < length <= 1.0):
            result.problems.append(f"exact_performance({kind}, {n}, {p}) = {coverage}, {length}")
        if kind == "exact" and coverage < 1.0 - ALPHA - 1e-9:
            result.problems.append(f"Clopper-Pearson coverage {coverage} < nominal at n={n}, p={p}")
        result.intervals += n + 1
    return result


def _replay_proportion(call: CliCall, out: Path, ci, problems: list[str]) -> int:
    v = ini_values(call.config)
    seed, n_trials, p, R = int(v["seed"]), int(v["n_trials"]), float(v["p"]), int(v["R"])
    counts = ci.SeedSpec(seed).child(3).generator().binomial(n_trials, p, size=R)
    weights = np.bincount(counts, minlength=n_trials + 1)
    rows = {row["estimator"]: row for row in read_table(out / "results.csv")}
    _check_index_column(rows.values(), f"{call.out}/results.csv", problems)
    for e in PROPORTION_ESTIMATORS:
        cover, length = 0, 0.0
        for x, w in enumerate(weights):
            if w:
                interval = ci.proportion_interval(e, ci.BinomialObservation(n_trials, x), ALPHA)
                cover += int(w) if interval.contains(p) else 0
                length += int(w) * interval.length
        got = (_fmt(cover / R), _fmt(length / R))
        want = (rows[e]["coverage"], rows[e]["length"]) if e in rows else None
        if got != want:
            problems.append(f"replay of {call.out} {e}: {got} != written {want}")
    return len(PROPORTION_ESTIMATORS) * int(np.count_nonzero(weights))
