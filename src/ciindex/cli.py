"""Command line front end and CSV reporting.

Five subcommands: ``simulate-mean``, ``simulate-proportion``, and
``calibrate`` run seeded studies; ``apply`` scores an externally supplied
coverage/length table with the index and ranks estimators within each
group; ``plot-data`` reshapes a scored table into long format (group,
estimator, series, value) for plotting coverage and index against the
nominal line.

Every run is driven by a small INI config (documented in the README,
``schema = 1``) plus optional flag overrides.  All tabular output is CSV
at 6 decimal places, preceded by comment lines carrying the master seed
(simulation modes) and a plan hash, so re-running a config byte-reproduces
its outputs.  Index values in CSVs are computed from the 6-dp-rounded
coverage and length actually written, which makes re-ingesting a study
CSV through ``apply`` reproduce the index column exactly.

Exit codes: 0 success, 2 validation failure (config, flags, or input
rows), 3 runtime failure (I/O and anything unexpected).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from . import __version__
from .errors import CiindexError, ConfigError, DomainError
from .harness import (
    DEFAULT_SKIP_DELTA,
    DESK_SCALE,
    PAPER_SCALE,
    SimulationPlan,
    run_calibration_study,
    run_mean_study,
    run_proportion_study,
)
from .index import _LOSSES, IndexConfig, IntervalPerformance, compute_index, compute_index_array
from .mean_intervals import MEAN_ESTIMATORS
from .proportion_intervals import PROPORTION_ESTIMATORS
from .sampling import DataModel, binomial_model, lognormal_model, normal_model

__all__ = [
    "ExternalPerformanceRow",
    "ReportRow",
    "apply_index",
    "main",
]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_SCALES = {"desk": DESK_SCALE, "paper": PAPER_SCALE}

# [model] kind -> (factory, its typed keys in argument order)
_MODELS = {
    "normal": (normal_model, (("mu", float), ("sigma2", float))),
    "lognormal": (lognormal_model, (("mu_log", float), ("sigma2_log", float))),
    "binomial": (binomial_model, (("n_trials", int), ("p", float))),
}

_ALLOWED_KEYS = {
    "run": {"schema", "mode", "seed", "scale", "alpha", "loss", "rescaled"},
    "model": {"kind", *(key for _factory, keys in _MODELS.values() for key, _kind in keys)},
    "study": {"n", "N", "B", "R", "estimators", "skip_delta", "workers"},
    "apply": {"input"},
    "plot": {"input"},
}


@dataclass(frozen=True)
class ExternalPerformanceRow:
    """One estimator's (coverage, mean length), plus labeling columns."""

    estimator_label: str
    group_keys: tuple[tuple[str, str], ...]
    coverage: float
    mean_length: float

    def __post_init__(self) -> None:
        if not self.estimator_label:
            raise ConfigError("estimator label must be nonempty")
        try:
            IntervalPerformance(self.coverage, self.mean_length)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ReportRow(ExternalPerformanceRow):
    """An input row scored with its index and within-group rank."""

    index: float
    rank_within_group: int


def apply_index(rows: list[ExternalPerformanceRow], cfg: IndexConfig) -> list[ReportRow]:
    """Score rows with the index and rank them within each group.

    Rank 1 is the (joint) largest index in its group; ties keep input
    order.  Output preserves input order.
    """
    if not rows:
        raise ConfigError("apply_index needs at least one row")
    indexes = compute_index_array(
        [row.coverage for row in rows], [row.mean_length for row in rows], cfg
    ).tolist()
    ranks: dict[int, int] = {}
    by_group: dict[tuple, list[int]] = {}
    for pos, row in enumerate(rows):
        by_group.setdefault(row.group_keys, []).append(pos)
    for members in by_group.values():
        ordered = sorted(members, key=lambda pos: (-indexes[pos], pos))
        for rank, pos in enumerate(ordered, start=1):
            ranks[pos] = rank
    return [
        ReportRow(row.estimator_label, row.group_keys, row.coverage, row.mean_length,
                  indexes[pos], ranks[pos])
        for pos, row in enumerate(rows)
    ]


# ---------------------------------------------------------------- config


def _load_config(path: Path) -> configparser.ConfigParser:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    # keys are case sensitive so that [study] n and N can coexist
    parser.optionxform = str
    try:
        # utf-8-sig: a leading byte-order mark is dropped, not read as text
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _ALLOWED_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")
    if not parser.has_section("run"):
        raise ConfigError("config must have a [run] section")
    schema = parser.get("run", "schema", fallback=None)
    if schema is None or schema.strip() != str(SCHEMA_VERSION):
        raise ConfigError(f"[run] schema must be {SCHEMA_VERSION}, got {schema!r}")
    return parser


def _get_typed(parser, section, key, kind, default=None):
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        if kind is bool:
            return parser.getboolean(section, key)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a {kind.__name__}, got {raw!r}") from exc


@dataclass(frozen=True)
class _Effective:
    mode: str
    out_dir: Path
    config_dir: Path
    seed: int | None
    index: IndexConfig
    scale: str
    parser: configparser.ConfigParser


def _effective(args: argparse.Namespace) -> _Effective:
    config_path = Path(args.config)
    parser = _load_config(config_path)
    mode = parser.get("run", "mode", fallback=None)
    if mode is not None and mode.strip() != args.command:
        raise ConfigError(
            f"config [run] mode is {mode.strip()!r} but the {args.command!r} subcommand was invoked"
        )
    seed = args.seed if args.seed is not None else _get_typed(parser, "run", "seed", int)
    # IndexConfig owns the alpha and loss rules; its DomainError exits 2
    index = IndexConfig(
        args.alpha if args.alpha is not None else _get_typed(parser, "run", "alpha", float, 0.05),
        args.loss if args.loss is not None else parser.get("run", "loss", fallback="absolute"),
        args.rescaled or _get_typed(parser, "run", "rescaled", bool, False),
    )
    scale = args.scale if args.scale is not None else parser.get("run", "scale", fallback="desk")
    if scale not in _SCALES:
        raise ConfigError(f"scale must be one of {sorted(_SCALES)}, got {scale!r}")
    return _Effective(
        mode=args.command,
        out_dir=Path(args.out),
        config_dir=config_path.resolve().parent,
        seed=seed,
        index=index,
        scale=scale,
        parser=parser,
    )


def _build_model(parser: configparser.ConfigParser) -> DataModel:
    if not parser.has_section("model"):
        raise ConfigError("this mode needs a [model] section")
    kind = parser.get("model", "kind", fallback=None)
    if kind not in _MODELS:
        raise ConfigError(f"[model] kind must be normal, lognormal, or binomial, got {kind!r}")
    factory, keys = _MODELS[kind]
    return factory(*(_require(parser, "model", key, typed) for key, typed in keys))


def _require(parser, section, key, kind):
    value = _get_typed(parser, section, key, kind)
    if value is None:
        raise ConfigError(f"[{section}] {key} is required")
    return value


def _build_plan(eff: _Effective, model: DataModel) -> SimulationPlan:
    parser = eff.parser
    if eff.seed is None:
        raise ConfigError("a seed is required (config [run] seed or --seed)")
    if model.kind == "binomial":
        # a binomial study draws R counts: no samples, resamples or workers
        unread = [k for k in ("N", "B", "skip_delta", "workers") if parser.has_option("study", k)]
        if unread:
            raise ConfigError(f"[study] {', '.join(unread)} does not apply to a binomial model")
        sizes = {"R": _get_typed(parser, "study", "R", int, 1000), "N": 1, "B": 1}
        n = _get_typed(parser, "study", "n", int, model.n_trials)
        default_estimators = PROPORTION_ESTIMATORS
    else:
        sizes = {
            key: _get_typed(parser, "study", key, int, preset)
            for key, preset in _SCALES[eff.scale].items()
        }
        n = _require(parser, "study", "n", int)
        default_estimators = MEAN_ESTIMATORS
    raw = parser.get("study", "estimators", fallback=None)
    estimators = (
        tuple(e.strip() for e in raw.split(",") if e.strip()) if raw else default_estimators
    )
    skip_delta = _get_typed(parser, "study", "skip_delta", float, DEFAULT_SKIP_DELTA)
    return SimulationPlan(
        model=model,
        n=n,
        N=sizes["N"],
        B=sizes["B"],
        R=sizes["R"],
        alpha=eff.index.alpha,
        estimators=estimators,
        master_seed=eff.seed,
        skip_delta=skip_delta,
        loss=eff.index.loss,
        rescaled=eff.index.rescaled,
    )


def _workers(eff: _Effective) -> int:
    value = _get_typed(eff.parser, "study", "workers", int, 1)
    if value < 1:
        raise ConfigError(f"[study] workers must be >= 1, got {value!r}")
    cpus = os.cpu_count() or 1
    if value > cpus:
        raise ConfigError(f"[study] workers must be at most the CPU count ({cpus}), got {value!r}")
    return value


# ---------------------------------------------------------------- output


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _quantized_triple(coverage: float, length: float, cfg: IndexConfig) -> tuple[str, str, str]:
    # index computed from the rounded values actually written, so a reader
    # recomputing from the file reproduces it exactly
    cov_q = float(_fmt(coverage))
    len_q = float(_fmt(length))
    idx = compute_index(IntervalPerformance(cov_q, len_q), cfg)
    return _fmt(cov_q), _fmt(len_q), _fmt(idx)


@contextlib.contextmanager
def _atomic_open(path: Path, **kwargs):
    # write a sibling temporary file and move it onto path once complete,
    # so a failed write leaves neither a partial output nor the temporary
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", **kwargs) as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, comments: list[str], header: list[str], rows: list[list[str]]) -> None:
    with _atomic_open(path, newline="", encoding="utf-8") as handle:
        for line in comments:
            handle.write(f"# {line}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_metadata(out_dir: Path, echo: dict, extra: dict | None = None) -> list[str]:
    """Write ``run_metadata.json`` for ``echo``; returns the CSV comment lines.

    The comment carries the echo's hash, after its master seed in the
    seeded (study) modes.
    """
    plan_hash = hashlib.sha256(json.dumps(echo, sort_keys=True).encode("utf-8")).hexdigest()
    record = {
        "plan": echo,
        "plan_sha256": plan_hash,
        "versions": {
            "ciindex": __version__,
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
            "scipy": scipy.__version__,
        },
    }
    if extra:
        record.update(extra)
    with _atomic_open(out_dir / "run_metadata.json", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if "master_seed" not in echo:
        return [f"plan_sha256={plan_hash}"]
    return [f"master_seed={echo['master_seed']} plan_sha256={plan_hash}"]


# ---------------------------------------------------------------- modes


def _study(eff: _Effective, run, extra: dict | None = None) -> tuple[dict, list[str]]:
    """Plan, run, echo and write the metadata of one study.

    ``run`` takes the plan and returns the study's results, keyed by
    estimator in plan order.  Returns them with the CSV comment lines.
    """
    plan = _build_plan(eff, _build_model(eff.parser))
    results = run(plan)
    # every plan field, the model's set fields only; "calibrate" keeps the
    # echo (and so the plan hash) of the mode that runs a calibration study
    echo = dataclasses.asdict(plan)
    echo["model"] = {k: v for k, v in echo["model"].items() if v is not None}
    echo.update(mode=eff.mode, calibrate=eff.mode == "calibrate")
    return results, _write_metadata(eff.out_dir, echo, extra)


def _run_simulate_mean(eff: _Effective) -> None:
    results, comments = _study(eff, lambda plan: run_mean_study(plan, n_workers=_workers(eff)))
    rep_rows = []
    sum_rows = []
    for e, (reps, summary) in results.items():
        for r, rep in enumerate(reps):
            cov, length, idx = _quantized_triple(rep.coverage, rep.mean_length, eff.index)
            rep_rows.append([e, str(r), cov, length, idx])
        sum_rows.append(
            [
                e,
                _fmt(summary.coverage),
                _fmt(summary.mean_length),
                _fmt(summary.mean),
                _fmt(summary.skewness),
                _fmt(summary.kurtosis),
                _fmt(summary.st_dev),
            ]
        )
    _write_csv(
        eff.out_dir / "replications.csv",
        comments,
        ["estimator", "replication", "coverage", "length", "index"],
        rep_rows,
    )
    _write_csv(
        eff.out_dir / "summary.csv",
        comments,
        [
            "estimator",
            "coverage",
            "length",
            "index_mean",
            "index_skewness",
            "index_kurtosis",
            "index_st_dev",
        ],
        sum_rows,
    )


def _run_simulate_proportion(eff: _Effective) -> None:
    results, comments = _study(eff, run_proportion_study)
    rows = [
        [e, *_quantized_triple(res.coverage, res.mean_length, eff.index)]
        for e, res in results.items()
    ]
    _write_csv(
        eff.out_dir / "results.csv", comments, ["estimator", "coverage", "length", "index"], rows
    )


def _run_calibrate(eff: _Effective) -> None:
    comparison, comments = _study(
        eff,
        lambda plan: run_calibration_study(plan, n_workers=_workers(eff)),
        {"calibration_resamples": "reused"},
    )
    rows = []
    for e, comp in comparison.items():
        for variant, (_reps, summary) in (
            ("uncalibrated", comp.uncalibrated),
            ("calibrated", comp.calibrated),
        ):
            rows.append(
                [
                    e,
                    variant,
                    *_quantized_triple(summary.coverage, summary.mean_length, eff.index),
                    "true" if comp.skipped else "false",
                    _fmt(comp.mean_beta),
                ]
            )
    _write_csv(
        eff.out_dir / "calibration.csv",
        comments,
        ["estimator", "variant", "coverage", "length", "index", "skipped", "mean_beta"],
        rows,
    )


def _input_path(eff: _Effective, section: str) -> Path:
    if not eff.parser.has_section(section):
        raise ConfigError(f"this mode needs a [{section}] section with an input path")
    raw = eff.parser.get(section, "input", fallback=None)
    if not raw:
        raise ConfigError(f"[{section}] input is required")
    path = Path(raw)
    return path if path.is_absolute() else eff.config_dir / path


def _read_performance_csv(path: Path) -> tuple[list[str], list[ExternalPerformanceRow]]:
    """Parse an apply-mode input: estimator, group columns, coverage, length.

    Comment lines starting with '#' are skipped; columns after 'length'
    are ignored so scored report files re-ingest cleanly.
    """
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")
    with open(path, encoding="utf-8-sig") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        table = [row for row in reader if row]
    if not table:
        raise ConfigError(f"{path.name}: no header row")
    header = [cell.strip() for cell in table[0]]
    if not header or header[0] != "estimator":
        raise ConfigError(f"{path.name}: first column must be 'estimator', got {header[:1]!r}")
    if "coverage" not in header or "length" not in header:
        raise ConfigError(f"{path.name}: header needs 'coverage' and 'length' columns")
    cov_at = header.index("coverage")
    len_at = header.index("length")
    if len_at != cov_at + 1 or cov_at < 1:
        raise ConfigError(
            f"{path.name}: expected columns estimator,<groups...>,coverage,length"
        )
    group_cols = header[1:cov_at]

    rows = []
    for ordinal, raw in enumerate(table[1:], start=1):
        if len(raw) != len(header):
            raise ConfigError(
                f"{path.name} row {ordinal}: expected {len(header)} cells, got {len(raw)}"
            )
        cells = [cell.strip() for cell in raw]
        try:
            coverage = float(cells[cov_at])
            length = float(cells[len_at])
        except ValueError as exc:
            raise ConfigError(f"{path.name} row {ordinal}: {exc}") from exc
        try:
            rows.append(
                ExternalPerformanceRow(
                    estimator_label=cells[0],
                    group_keys=tuple(zip(group_cols, cells[1 : cov_at])),
                    coverage=coverage,
                    mean_length=length,
                )
            )
        except CiindexError as exc:
            raise ConfigError(f"{path.name} row {ordinal}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path.name}: no data rows")
    return group_cols, rows


def _score_input(eff: _Effective, section: str) -> tuple[list[str], list[ReportRow], list[str]]:
    """Read the ``[section] input`` CSV, score it, and write its metadata.

    Returns the group columns, the scored rows, and the CSV comment lines.
    """
    in_path = _input_path(eff, section)
    group_cols, rows = _read_performance_csv(in_path)
    report = apply_index(rows, eff.index)
    echo = dict(
        dataclasses.asdict(eff.index),
        mode=eff.mode,
        input_sha256=hashlib.sha256(in_path.read_bytes()).hexdigest(),
    )
    return group_cols, report, _write_metadata(eff.out_dir, echo)


def _run_apply(eff: _Effective) -> None:
    group_cols, report, comments = _score_input(eff, "apply")
    out_rows = [
        [row.estimator_label]
        + [value for _key, value in row.group_keys]
        + [_fmt(row.coverage), _fmt(row.mean_length), _fmt(row.index), str(row.rank_within_group)]
        for row in report
    ]
    _write_csv(
        eff.out_dir / "report.csv",
        comments,
        ["estimator", *group_cols, "coverage", "length", "index", "rank"],
        out_rows,
    )


def _group_label(group_keys: tuple[tuple[str, str], ...]) -> str:
    if not group_keys:
        return "all"
    return ";".join(f"{key}={value}" for key, value in group_keys)


def _run_plot_data(eff: _Effective) -> None:
    _group_cols, report, comments = _score_input(eff, "plot")
    groups: dict[tuple, list[ReportRow]] = {}
    for row in report:
        groups.setdefault(row.group_keys, []).append(row)
    out_rows = []
    for group_keys, members in groups.items():
        label = _group_label(group_keys)
        for row in members:
            out_rows.append([label, row.estimator_label, "coverage", _fmt(row.coverage)])
        for row in members:
            out_rows.append([label, row.estimator_label, "index", _fmt(row.index)])
        out_rows.append([label, "", "nominal", _fmt(1.0 - eff.index.alpha)])
    _write_csv(
        eff.out_dir / "plot_data.csv",
        comments,
        ["group", "estimator", "series", "value"],
        out_rows,
    )


_RUNNERS = {
    "simulate-mean": _run_simulate_mean,
    "simulate-proportion": _run_simulate_proportion,
    "calibrate": _run_calibrate,
    "apply": _run_apply,
    "plot-data": _run_plot_data,
}


# ---------------------------------------------------------------- entry


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and kept: each add_argument sizes
    # a help formatter to the terminal; parse_args leaves the parser as is
    parser = argparse.ArgumentParser(
        prog="ciindex",
        description="Score and compare confidence-interval estimators with a single index.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in _RUNNERS:
        p = sub.add_parser(mode, help=f"run the {mode} mode")
        p.add_argument("--config", required=True, help="INI config path (schema = 1)")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--scale", choices=sorted(_SCALES), default=None, help="R/N/B preset")
        p.add_argument("--alpha", type=float, default=None, help="significance level override")
        p.add_argument("--loss", choices=_LOSSES, default=None)
        p.add_argument("--rescaled", action="store_true", help="map the index range onto [0, 1]")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        eff = _effective(args)
        eff.out_dir.mkdir(parents=True, exist_ok=True)
        _RUNNERS[args.command](eff)
        return EXIT_OK
    except CiindexError as exc:
        print(f"ciindex: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"ciindex: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - last-resort runtime failure
        print(f"ciindex: unexpected failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
