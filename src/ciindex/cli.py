"""Command line front end and CSV reporting.

Five subcommands: ``simulate-mean``, ``simulate-proportion``, and
``calibrate`` run seeded studies; ``apply`` scores an externally supplied
coverage/length table with the index and ranks estimators within each
group; ``plot-data`` reshapes a scored table into long format (group,
estimator, series, value) for plotting coverage and index against the
nominal line.

Every run is driven by a small INI config (documented in the README,
``schema = 1``) plus optional flag overrides, read once: ``_READS`` lists
each mode's settings and their parsers.  Any other setting, a value that
fails its key's parser (even one a flag overrides) and a ``[DEFAULT]``
section are validation errors before any work.  All tabular
output is CSV at 6 decimal places, preceded by comment lines carrying the
master seed (simulation modes) and a plan hash, so re-running a config
byte-reproduces its outputs.  Index values in CSVs are computed from the
6-dp-rounded coverage and length actually written, which makes
re-ingesting a study CSV through ``apply`` reproduce the index column
exactly.

Exit codes: 0 success, 2 validation failure (a config or input file that
is missing, not UTF-8 or invalid, bad flags, or bad input rows), 3
runtime failure (other I/O errors and anything unexpected).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import hashlib
import io
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
from .sampling import _FIELDS, DataModel

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


def _parser(kind: type, check=lambda value: None):
    # a config value's parser, named for the type it returns (a bool is read
    # as configparser reads one); check may refuse the value with a DomainError
    def parse(raw: str):
        value = configparser.ConfigParser.BOOLEAN_STATES[raw.lower()] if kind is bool else kind(raw)
        check(value)
        return value
    parse.__name__ = kind.__name__
    return parse


def _check_scale(scale: str) -> None:
    if scale not in _SCALES:
        raise DomainError(f"scale must be one of {sorted(_SCALES)}, got {scale!r}")


# Each mode's settings: its [section]s and their {key: parser}, --seed and
# --scale as [run] seed and scale, and under [model] the kinds it runs, each
# reading a str kind and its sampling._FIELDS.  _settings rejects any other.
_RUN = {"schema": str, "mode": str, "alpha": _parser(float, lambda alpha: IndexConfig(alpha=alpha)),
        "loss": _parser(str, lambda loss: IndexConfig(loss=loss)), "rescaled": _parser(bool)}
_SEEDED = {**_RUN, "seed": int}
_SCALED = {**_SEEDED, "scale": _parser(str, _check_scale)}
_PROPORTION = {"n": int, "R": int, "estimators": str}
_MEAN = {**_PROPORTION, "N": int, "B": int, "workers": int}
_READS = {
    "simulate-mean": {"run": _SCALED, "model": ("normal", "lognormal"), "study": _MEAN},
    "simulate-proportion": {"run": _SEEDED, "model": ("binomial",), "study": _PROPORTION},
    "calibrate": {"run": _SCALED, "model": ("normal", "lognormal"), "study": {**_MEAN, "skip_delta": float}},
    "apply": {"run": _RUN, "apply": {"input": str}},
    "plot-data": {"run": _RUN, "plot": {"input": str}},
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
    indexes = compute_index_array([row.coverage for row in rows], [row.mean_length for row in rows], cfg).tolist()
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


# ---------------------------------------------------------------- files


def _read_text(path: Path, what: str) -> tuple[str, bytes]:
    """A ``what`` file's UTF-8 text, a byte-order mark dropped, and its bytes, read once.

    Iterate the text through ``io.StringIO(text, newline=None)``: it ends
    lines at "\\r\\n", "\\r" and "\\n" as a text-mode file does, and nowhere
    else (``str.splitlines`` also ends them at "\\x85", "\\u2028" and more).
    """
    try:
        data = path.read_bytes()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    try:
        # as the utf-8-sig codec decodes, but an error's position counts the mark
        return data.decode("utf-8").removeprefix("\ufeff"), data
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not UTF-8: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    # write a sibling temporary file and move it onto path once complete,
    # so a failed write leaves neither a partial output nor the temporary
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------- config


def _load_config(path: Path) -> configparser.ConfigParser:
    text, _data = _read_text(path, "config")
    parser = configparser.ConfigParser(interpolation=None)
    # keys are case sensitive so that [study] n and N can coexist
    parser.optionxform = str
    try:
        parser.read_file(io.StringIO(text, newline=None), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    if parser.defaults():  # configparser would merge them into every section
        raise ConfigError("a config [DEFAULT] section is not supported; set each key in its own section")
    if not parser.has_section("run"):
        raise ConfigError("config must have a [run] section")
    schema = parser.get("run", "schema", fallback=None)
    if schema is None or schema.strip() != str(SCHEMA_VERSION):
        raise ConfigError(f"[run] schema must be {SCHEMA_VERSION}, got {schema!r}")
    return parser


def _settings(parser: configparser.ConfigParser, args: argparse.Namespace) -> dict[str, dict]:
    """The config's ``{section: {key: value}}``, each value read by its key's parser.

    Every setting must be one the mode reads and every value must pass its
    parser, even one a flag overrides.  The flags then fold in as ``[run]`` keys.
    """
    mode = parser.get("run", "mode", fallback=None)
    if mode is not None and mode.strip() != args.command:
        raise ConfigError(f"config [run] mode is {mode.strip()!r} but the {args.command!r} subcommand was invoked")
    reads = _READS[args.command]
    for flag in ("seed", "scale"):
        if getattr(args, flag) is not None and flag not in reads["run"]:
            raise ConfigError(f"--{flag} does not apply to the {args.command} mode")
    settings = {}
    for section in parser.sections():
        if section not in reads:
            raise ConfigError(f"[{section}] does not apply to the {args.command} mode")
        keys = reads[section]
        if section == "model":
            kind = parser["model"].get("kind")
            if kind is None:
                raise ConfigError("[model] kind is required")
            if kind not in _FIELDS:
                raise ConfigError(f"[model] kind must be normal, lognormal, or binomial, got {kind!r}")
            if kind not in reads["model"]:
                raise ConfigError(f"[model] kind {kind} does not apply to the {args.command} mode")
            keys = {"kind": str, **_FIELDS[kind]}
        values = settings[section] = {}
        for key, raw in parser[section].items():
            if key not in keys:
                raise ConfigError(f"[{section}] {key} does not apply to the {args.command} mode")
            parse = keys[key]
            try:
                values[key] = parse(raw)
            except DomainError as exc:  # a value of its type that its key's rule refuses
                raise ConfigError(f"[{section}] {exc}") from exc
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"[{section}] {key} must be a {parse.__name__}, got {raw!r}") from exc
    run = settings["run"]  # _load_config has checked that [run] exists
    run.update((f, getattr(args, f)) for f in ("seed", "scale", "alpha", "loss") if getattr(args, f) is not None)
    if args.rescaled:  # the flag only turns the setting on
        run["rescaled"] = True
    return settings


def _require(settings: dict[str, dict], section: str, key: str):
    value = settings.get(section, {}).get(key)
    if value is None or value == "":
        raise ConfigError(f"[{section}] {key} is required")
    return value


@dataclass(frozen=True)
class _Effective:
    mode: str
    config_path: Path
    index: IndexConfig
    settings: dict[str, dict]  # as _settings returns them


def _effective(args: argparse.Namespace) -> _Effective:
    config_path = Path(args.config)
    settings = _settings(_load_config(config_path), args)
    run = settings["run"]
    # the flags' alpha and loss meet IndexConfig's rules here; a DomainError exits 2
    index = IndexConfig(run.get("alpha", 0.05), run.get("loss", "absolute"), run.get("rescaled", False))
    return _Effective(mode=args.command, config_path=config_path, index=index, settings=settings)


def _build_model(settings: dict[str, dict]) -> DataModel:
    if "model" not in settings:
        raise ConfigError("this mode needs a [model] section")
    kind = settings["model"]["kind"]  # _settings has checked it
    return DataModel(kind, **{key: _require(settings, "model", key) for key in _FIELDS[kind]})


def _build_plan(eff: _Effective, model: DataModel) -> SimulationPlan:
    run, study = eff.settings["run"], eff.settings.get("study", {})
    if "seed" not in run:
        raise ConfigError("a seed is required (config [run] seed or --seed)")
    if model.kind == "binomial":
        sizes = {"R": study.get("R", 1000), "N": 1, "B": 1}
        n = study.get("n", model.n_trials)
    else:
        sizes = {key: study.get(key, preset) for key, preset in _SCALES[run.get("scale", "desk")].items()}
        n = _require(eff.settings, "study", "n")
    raw = study.get("estimators")
    default = PROPORTION_ESTIMATORS if model.kind == "binomial" else MEAN_ESTIMATORS
    estimators = tuple(e.strip() for e in raw.split(",") if e.strip()) if raw else default
    return SimulationPlan(
        model=model, n=n, **sizes, alpha=eff.index.alpha, estimators=estimators, master_seed=run["seed"],
        skip_delta=study.get("skip_delta", DEFAULT_SKIP_DELTA), loss=eff.index.loss, rescaled=eff.index.rescaled,
    )


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


def _csv(comments: list[str], header: list[str], rows: list[list[str]]) -> str:
    """The text of a CSV file: the "# " comment lines, then the rows.

    Comment lines end in "\\n" and rows in "\\r\\n", on every platform.
    """
    buffer = io.StringIO(newline="")
    for line in comments:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _metadata(echo: dict, extra: dict | None = None) -> tuple[list[str], str]:
    """The CSV comment lines for ``echo`` and the text of its ``run_metadata.json``.

    The record is sorted, indented JSON whose lines end in "\\n" on every
    platform.  The comment carries the echo's hash, after its master seed
    in the seeded (study) modes.
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
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if "master_seed" not in echo:
        return [f"plan_sha256={plan_hash}"], text
    return [f"master_seed={echo['master_seed']} plan_sha256={plan_hash}"], text


# ---------------------------------------------------------------- modes

# what a mode writes: its CSV texts by file name, then run_metadata.json's
_Outputs = tuple[dict[str, str], str]


def _study(eff: _Effective, run, extra: dict | None = None) -> tuple[object, list[str], str]:
    """Plan, run and echo one study.

    ``run`` takes the plan and returns the study's results.  Returns them
    with the CSV comment lines and the ``run_metadata.json`` text.
    """
    plan = _build_plan(eff, _build_model(eff.settings))
    results = run(plan)
    # every plan field, the model's set fields only; "calibrate" keeps the
    # echo (and so the plan hash) of the mode that runs a calibration study
    echo = dataclasses.asdict(plan)
    echo["model"] = {k: v for k, v in echo["model"].items() if v is not None}
    echo.update(mode=eff.mode, calibrate=eff.mode == "calibrate")
    return results, *_metadata(echo, extra)


def _run_simulate_mean(eff: _Effective) -> _Outputs:
    # the study bounds the worker count before it starts any process
    results, comments, metadata = _study(
        eff, lambda plan: run_mean_study(plan, n_workers=eff.settings["study"].get("workers", 1)))
    rep_rows = []
    sum_rows = []
    for e, coverage, length, summary in zip(
        results.estimators, results.coverage.T.tolist(), results.mean_length.T.tolist(),
        results.summaries,
    ):
        for r, (c, ell) in enumerate(zip(coverage, length)):
            rep_rows.append([e, str(r), *_quantized_triple(c, ell, eff.index)])
        # IndexSummary's fields are in summary.csv column order
        sum_rows.append([e, *map(_fmt, dataclasses.astuple(summary))])
    return {
        "replications.csv": _csv(
            comments, ["estimator", "replication", "coverage", "length", "index"], rep_rows),
        "summary.csv": _csv(
            comments, ["estimator", "coverage", "length", "index_mean", "index_skewness",
                       "index_kurtosis", "index_st_dev"], sum_rows),
    }, metadata


def _run_simulate_proportion(eff: _Effective) -> _Outputs:
    results, comments, metadata = _study(eff, run_proportion_study)
    # the study's single row: one triple per estimator
    rows = [
        [e, *_quantized_triple(c, ell, eff.index)]
        for e, c, ell in zip(
            results.estimators, results.coverage[0].tolist(), results.mean_length[0].tolist()
        )
    ]
    header = ["estimator", "coverage", "length", "index"]
    return {"results.csv": _csv(comments, header, rows)}, metadata


def _run_calibrate(eff: _Effective) -> _Outputs:
    study, comments, metadata = _study(
        eff,
        lambda plan: run_calibration_study(plan, n_workers=eff.settings["study"].get("workers", 1)),
        {"calibration_resamples": "reused"},
    )
    rows = []
    for e, skipped, mean_beta, *summaries in zip(
        study.uncalibrated.estimators, study.skipped.tolist(), study.mean_beta.tolist(),
        study.uncalibrated.summaries, study.calibrated.summaries,
    ):
        for variant, summary in zip(("uncalibrated", "calibrated"), summaries):
            triple = _quantized_triple(summary.coverage, summary.mean_length, eff.index)
            rows.append([e, variant, *triple, "true" if skipped else "false", _fmt(mean_beta)])
    header = ["estimator", "variant", "coverage", "length", "index", "skipped", "mean_beta"]
    return {"calibration.csv": _csv(comments, header, rows)}, metadata


def _input_path(eff: _Effective, section: str) -> Path:
    if section not in eff.settings:
        raise ConfigError(f"this mode needs a [{section}] section with an input path")
    path = Path(_require(eff.settings, section, "input"))
    return path if path.is_absolute() else eff.config_path.resolve().parent / path


def _read_performance_csv(text: str, name: str) -> tuple[list[str], list[ExternalPerformanceRow]]:
    """Parse the text of an apply-mode input: estimator, group columns, coverage, length.

    Lines split as a text-mode file splits them.  Comment lines starting
    with '#' are skipped; columns after 'length' are ignored so scored
    report files re-ingest cleanly.  Errors name the file as ``name``.
    """
    lines = io.StringIO(text, newline=None)
    reader = csv.reader(line for line in lines if not line.startswith("#"))
    table = [row for row in reader if row]
    if not table:
        raise ConfigError(f"{name}: no header row")
    header = [cell.strip() for cell in table[0]]
    if not header or header[0] != "estimator":
        raise ConfigError(f"{name}: first column must be 'estimator', got {header[:1]!r}")
    if "coverage" not in header or "length" not in header:
        raise ConfigError(f"{name}: header needs 'coverage' and 'length' columns")
    cov_at = header.index("coverage")
    len_at = header.index("length")
    if len_at != cov_at + 1 or cov_at < 1:
        raise ConfigError(f"{name}: expected columns estimator,<groups...>,coverage,length")
    group_cols = header[1:cov_at]

    rows = []
    for ordinal, raw in enumerate(table[1:], start=1):
        if len(raw) != len(header):
            raise ConfigError(f"{name} row {ordinal}: expected {len(header)} cells, got {len(raw)}")
        cells = [cell.strip() for cell in raw]
        try:
            rows.append(ExternalPerformanceRow(cells[0], tuple(zip(group_cols, cells[1:cov_at])),
                                               float(cells[cov_at]), float(cells[len_at])))
        except ValueError as exc:
            raise ConfigError(f"{name} row {ordinal}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{name}: no data rows")
    return group_cols, rows


def _score_input(eff: _Effective, section: str) -> tuple[list[str], list[ReportRow], list[str], str]:
    """Read the ``[section] input`` CSV and score it.

    Returns the group columns, the scored rows, the CSV comment lines and
    the ``run_metadata.json`` text.
    """
    in_path = _input_path(eff, section)
    text, data = _read_text(in_path, "input")
    group_cols, rows = _read_performance_csv(text, in_path.name)
    report = apply_index(rows, eff.index)
    echo = dict(dataclasses.asdict(eff.index), mode=eff.mode, input_sha256=hashlib.sha256(data).hexdigest())
    return group_cols, report, *_metadata(echo)


def _run_apply(eff: _Effective) -> _Outputs:
    group_cols, report, comments, metadata = _score_input(eff, "apply")
    out_rows = [
        [row.estimator_label]
        + [value for _key, value in row.group_keys]
        + [_fmt(row.coverage), _fmt(row.mean_length), _fmt(row.index), str(row.rank_within_group)]
        for row in report
    ]
    header = ["estimator", *group_cols, "coverage", "length", "index", "rank"]
    return {"report.csv": _csv(comments, header, out_rows)}, metadata


def _group_label(group_keys: tuple[tuple[str, str], ...]) -> str:
    return ";".join(f"{key}={value}" for key, value in group_keys) or "all"


def _run_plot_data(eff: _Effective) -> _Outputs:
    _group_cols, report, comments, metadata = _score_input(eff, "plot")
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
    header = ["group", "estimator", "series", "value"]
    return {"plot_data.csv": _csv(comments, header, out_rows)}, metadata


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
        tables, metadata = _RUNNERS[args.command](_effective(args))
        # nothing is written, nor --out made, until the run is done; the
        # metadata goes last, so its presence marks a complete set of tables
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in tables.items():
            _write_text(out_dir / name, text)
        _write_text(out_dir / "run_metadata.json", metadata)
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
