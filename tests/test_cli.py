"""Command line front end: configs, CSV contracts, ranking, round trips."""

import builtins
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from ciindex import IndexConfig
from ciindex.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    ExternalPerformanceRow,
    ReportRow,
    _READS,
    _read_performance_csv,
    _read_text,
    apply_index,
    main,
)
from ciindex.sampling import _FIELDS
from published_tables import CV_ROW_ORDER, CV_ROWS

REPO = Path(__file__).resolve().parents[1]

MEAN_INI = """\
[run]
schema = 1
mode = simulate-mean
seed = 414243

[model]
kind = normal
mu = 2.0
sigma2 = 1.0

[study]
n = 5
N = 10
B = 10
R = 3
"""

PROP_INI = """\
[run]
schema = 1
seed = 99

[model]
kind = binomial
n_trials = 10
p = 0.3

[study]
R = 200
"""


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as handle:
        table = list(csv.reader(line for line in handle if not line.startswith("#")))
    return table[0], table[1:]


def test_simulate_mean_outputs(tmp_path):
    cfg = _write(tmp_path, "mean.ini", MEAN_INI)
    out = tmp_path / "out"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = _read_rows(out / "replications.csv")
    assert header == ["estimator", "replication", "coverage", "length", "index"]
    assert len(rows) == 4 * 3  # estimators x replications
    first_line = (out / "replications.csv").read_text().splitlines()[0]
    assert first_line.startswith("# master_seed=414243 plan_sha256=")
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["plan"]["master_seed"] == 414243
    assert meta["plan"]["mode"] == "simulate-mean"
    assert meta["plan"]["calibrate"] is False
    assert set(meta["versions"]) == {"ciindex", "numpy", "python", "scipy"}
    sum_header, sum_rows = _read_rows(out / "summary.csv")
    assert sum_header[0] == "estimator" and len(sum_rows) == 4


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "mean.ini", MEAN_INI)
    for sub in ("a", "b"):
        assert main(["simulate-mean", "--config", str(cfg), "--out", str(tmp_path / sub)]) == EXIT_OK
    for name in ("replications.csv", "summary.csv", "run_metadata.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    # every output is rendered whole before any is written, each written to
    # a temporary file and moved into place only once complete: a csv writer
    # failing partway through the rows of replications.csv fails before any
    # file is written, leaves the earlier complete run's files as they were,
    # and does not make a fresh --out directory
    cfg = _write(tmp_path, "mean.ini", MEAN_INI)
    out = tmp_path / "out"
    fresh = tmp_path / "fresh"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_writer = csv.writer

    class Failing:
        def __init__(self, handle):
            self._writer = real_writer(handle)
            self.writerow = self._writer.writerow

        def writerows(self, rows):
            self._writer.writerow(rows[0])
            raise OSError("disk full")

    monkeypatch.setattr(csv, "writer", Failing)
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(fresh)]) == EXIT_RUNTIME
    assert not fresh.exists()


def test_metadata_is_written_after_every_table(tmp_path, monkeypatch):
    # run_metadata.json goes last, so a run that fails on a later table
    # leaves no metadata beside the tables it did write
    cfg = _write(tmp_path, "mean.ini", MEAN_INI)
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == "summary.csv":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    out = tmp_path / "out"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
    assert sorted(p.name for p in out.iterdir()) == ["replications.csv"]


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_output_leaves_no_temporary(tmp_path, monkeypatch, failing):
    # the file write or the rename raising exits 3, removes the temporary
    # and leaves an earlier complete output byte for byte
    cfg = _write(tmp_path, "mean.ini", MEAN_INI)
    out = tmp_path / "out"
    fresh = tmp_path / "fresh"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # a successful run leaves no temporary either
    assert sorted(before) == ["replications.csv", "run_metadata.json", "summary.csv"]
    if failing == "replace":
        def fail(*_args):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
    else:
        def half_writing_open(file, mode="r", **kwargs):
            handle = builtins.open(file, mode, **kwargs)
            real_write = handle.write

            def write(text):
                real_write(text[: len(text) // 2])
                raise OSError("disk full")

            handle.write = write
            return handle

        monkeypatch.setattr("ciindex.cli.open", half_writing_open, raising=False)
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(fresh)]) == EXIT_RUNTIME
    assert list(fresh.iterdir()) == []


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "mean.ini", MEAN_INI)
    main(["simulate-mean", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["simulate-mean", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "7"])
    assert (tmp_path / "a" / "replications.csv").read_text() != (
        tmp_path / "b" / "replications.csv"
    ).read_text()
    meta = json.loads((tmp_path / "b" / "run_metadata.json").read_text())
    assert meta["plan"]["master_seed"] == 7


def test_proportion_apply_round_trip(tmp_path):
    cfg = _write(tmp_path, "prop.ini", PROP_INI)
    out = tmp_path / "prop"
    assert main(["simulate-proportion", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _header, prop_rows = _read_rows(out / "results.csv")
    assert len(prop_rows) == 11

    apply_ini = _write(
        tmp_path,
        "apply.ini",
        f"[run]\nschema = 1\n\n[apply]\ninput = {out / 'results.csv'}\n",
    )
    rep_out = tmp_path / "rep"
    assert main(["apply", "--config", str(apply_ini), "--out", str(rep_out)]) == EXIT_OK
    header, rep_rows = _read_rows(rep_out / "report.csv")
    assert header == ["estimator", "coverage", "length", "index", "rank"]
    # the index column reproduces the study output exactly
    for src, got in zip(prop_rows, rep_rows):
        assert src[0] == got[0]
        assert src[3] == got[3]
    ranks = sorted(int(r[4]) for r in rep_rows)
    assert ranks == list(range(1, 12))
    # rank 1 belongs to the largest index
    best = max(rep_rows, key=lambda r: float(r[3]))
    assert int(best[4]) == 1
    # no seed line on apply output
    first_line = (rep_out / "report.csv").read_text().splitlines()[0]
    assert first_line.startswith("# plan_sha256=") and "master_seed" not in first_line


def test_apply_groups_and_tie_break(tmp_path):
    table = (
        "estimator,n,coverage,length\n"
        "first,10,0.9500,0.5000\n"
        "twin_a,10,0.9000,0.4000\n"
        "twin_b,10,0.9000,0.4000\n"
        "other,20,0.8000,0.3000\n"
    )
    data = _write(tmp_path, "perf.csv", table)
    cfg = _write(tmp_path, "apply.ini", f"[run]\nschema = 1\n\n[apply]\ninput = {data}\n")
    out = tmp_path / "out"
    assert main(["apply", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = _read_rows(out / "report.csv")
    assert header == ["estimator", "n", "coverage", "length", "index", "rank"]
    by_name = {r[0]: r for r in rows}
    assert by_name["first"][5] == "1"
    assert by_name["twin_a"][5] == "2"  # tie broken by input order
    assert by_name["twin_b"][5] == "3"
    assert by_name["other"][5] == "1"  # alone in its group


def test_apply_index_library_rank_semantics():
    cfg = IndexConfig()
    rows = [
        ExternalPerformanceRow("a", (), 0.95, 0.5),
        ExternalPerformanceRow("b", (), 0.95, 0.5),
        ExternalPerformanceRow("c", (), 0.5, 5.0),
    ]
    report = apply_index(rows, cfg)
    assert [r.rank_within_group for r in report] == [1, 2, 3]
    assert report[0].index == report[1].index
    assert isinstance(report[0], ReportRow)


def test_published_cv_cell_through_apply(tmp_path):
    # one published 15-estimator cell; printed indexes are 4 dp
    cell = CV_ROWS[(15, 0.1)]
    lines = ["estimator,coverage,length"]
    for label, (cov, length, _idx) in zip(CV_ROW_ORDER, cell):
        lines.append(f"{label},{cov},{length}")
    data = _write(tmp_path, "cell.csv", "\n".join(lines) + "\n")
    cfg = _write(tmp_path, "apply.ini", f"[run]\nschema = 1\n\n[apply]\ninput = {data}\n")
    out = tmp_path / "out"
    assert main(["apply", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _header, rows = _read_rows(out / "report.csv")
    assert len(rows) == 15
    for row, (label, (_cov, _length, idx)) in zip(rows, zip(CV_ROW_ORDER, cell)):
        assert row[0] == label
        assert float(row[3]) == pytest.approx(idx, abs=2e-3)
    by_name = {r[0]: r for r in rows}
    assert by_name["S.K"][4] == "15"  # lowest coverage, last place


def test_plot_data_long_format(tmp_path):
    table = (
        "estimator,n,coverage,length\n"
        "a,10,0.9500,0.5000\n"
        "b,10,0.9000,0.4000\n"
        "c,20,0.8000,0.3000\n"
    )
    data = _write(tmp_path, "perf.csv", table)
    cfg = _write(tmp_path, "plot.ini", f"[run]\nschema = 1\n\n[plot]\ninput = {data}\n")
    out = tmp_path / "out"
    assert main(["plot-data", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = _read_rows(out / "plot_data.csv")
    assert header == ["group", "estimator", "series", "value"]
    # per group: one coverage and one index row per estimator plus one nominal
    assert len(rows) == (2 * 2 + 1) + (2 * 1 + 1)
    nominal = [r for r in rows if r[2] == "nominal"]
    assert len(nominal) == 2
    assert all(r[3] == "0.950000" and r[1] == "" for r in nominal)
    assert {r[0] for r in rows} == {"n=10", "n=20"}
    cov_a = next(r for r in rows if r[1] == "a" and r[2] == "coverage")
    assert cov_a[3] == "0.950000"


def test_plot_data_echoes_apply_bit_for_bit(tmp_path):
    cfg = _write(tmp_path, "prop.ini", PROP_INI)
    out = tmp_path / "prop"
    main(["simulate-proportion", "--config", str(cfg), "--out", str(out)])
    plot_ini = _write(
        tmp_path, "plot.ini", f"[run]\nschema = 1\n\n[plot]\ninput = {out / 'results.csv'}\n"
    )
    pout = tmp_path / "plot"
    assert main(["plot-data", "--config", str(plot_ini), "--out", str(pout)]) == EXIT_OK
    _h, study_rows = _read_rows(out / "results.csv")
    _h, plot_rows = _read_rows(pout / "plot_data.csv")
    study_cov = {r[0]: r[1] for r in study_rows}
    study_idx = {r[0]: r[3] for r in study_rows}
    for row in plot_rows:
        if row[2] == "coverage":
            assert row[3] == study_cov[row[1]]
        elif row[2] == "index":
            assert row[3] == study_idx[row[1]]
    assert len(plot_rows) == 2 * 11 + 1


def test_alpha_flag_changes_nominal(tmp_path):
    table = "estimator,coverage,length\na,0.9500,0.5000\n"
    data = _write(tmp_path, "perf.csv", table)
    cfg = _write(tmp_path, "plot.ini", f"[run]\nschema = 1\n\n[plot]\ninput = {data}\n")
    out = tmp_path / "out"
    assert main(["plot-data", "--config", str(cfg), "--out", str(out), "--alpha", "0.10"]) == EXIT_OK
    _h, rows = _read_rows(out / "plot_data.csv")
    nominal = next(r for r in rows if r[2] == "nominal")
    assert nominal[3] == "0.900000"


def test_row_level_validation_message(tmp_path, capsys):
    # a number out of range and a cell that is no number: one message form
    for row, fragment in (("bad,1.2,0.5", "coverage"), ("bad,x,0.5", "could not convert string to float: 'x'")):
        data = _write(tmp_path, "perf.csv", f"estimator,coverage,length\nok,0.9,0.5\n{row}\n")
        cfg = _write(tmp_path, "apply.ini", f"[run]\nschema = 1\n\n[apply]\ninput = {data}\n")
        out = tmp_path / "out"
        assert main(["apply", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "perf.csv row 2: " in err and fragment in err
        assert not out.exists()


def test_config_validation_failures(tmp_path, capsys):
    bad_schema = _write(tmp_path, "s.ini", "[run]\nschema = 9\n")
    assert main(["apply", "--config", str(bad_schema), "--out", str(tmp_path)]) == EXIT_VALIDATION

    unknown = _write(tmp_path, "u.ini", "[run]\nschema = 1\n\n[extra]\nx = 1\n")
    assert main(["apply", "--config", str(unknown), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "extra" in capsys.readouterr().err

    mismatch = _write(tmp_path, "m.ini", MEAN_INI)
    assert main(["calibrate", "--config", str(mismatch), "--out", str(tmp_path)]) == EXIT_VALIDATION

    missing = _write(tmp_path, "n.ini", "[run]\nschema = 1\n")
    assert main(["apply", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_VALIDATION

    no_seed = _write(
        tmp_path,
        "ns.ini",
        "[run]\nschema = 1\n\n[model]\nkind = normal\nmu = 0.0\nsigma2 = 1.0\n\n[study]\nn = 5\nN = 5\nB = 5\nR = 2\n",
    )
    assert main(["simulate-mean", "--config", str(no_seed), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "seed" in capsys.readouterr().err


def test_lognormal_model_with_an_overflowing_mean_exits_2(tmp_path, capsys):
    # the model's mean exp(mu_log + sigma2_log / 2), or its variance, is not
    # a float: a bad config, rejected before any draw (so with no numpy
    # overflow warning) and before --out is made
    for mu_log, sigma2_log in (("0", "1500"), ("700", "1")):
        model = f"kind = lognormal\nmu_log = {mu_log}\nsigma2_log = {sigma2_log}\n"
        text = MEAN_INI.replace("kind = normal\nmu = 2.0\nsigma2 = 1.0\n", model)
        cfg = _write(tmp_path, "big.ini", text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert (
            f"lognormal model (mu_log = {float(mu_log)}, sigma2_log = {float(sigma2_log)}) needs a finite mean"
            in capsys.readouterr().err
        )
        assert not out.exists()


def test_workers_above_cpu_count_rejected(tmp_path, capsys):
    # validated with the config, before any process pool is built
    cfg = _write(tmp_path, "w.ini", MEAN_INI + f"workers = {(os.cpu_count() or 1) + 1}\n")
    out = tmp_path / "out"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert not (out / "run_metadata.json").exists()
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["workers = 999", "B = 7", "N = 3", "skip_delta = 0.2"])
def test_binomial_rejects_unread_study_keys(tmp_path, capsys, line):
    # a proportion study reads only n, R and estimators from [study]
    cfg = _write(tmp_path, "p.ini", PROP_INI + line + "\n")
    out = tmp_path / "out"
    assert main(["simulate-proportion", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert f"[study] {line.split()[0]} does not apply to the simulate-proportion mode" in capsys.readouterr().err
    assert not (out / "run_metadata.json").exists()


@pytest.mark.parametrize("run_line, flags, setting", [
    ("scale = desk\n", [], "[run] scale"), ("", ["--scale", "paper"], "--scale"),
], ids=["key", "flag"])
def test_binomial_rejects_a_scale(tmp_path, capsys, run_line, flags, setting):
    # the R/N/B preset never reaches a proportion study: R defaults to 1000
    cfg = _write(tmp_path, "p.ini", PROP_INI.replace("seed = 99\n", "seed = 99\n" + run_line))
    out = tmp_path / "out"
    assert main(["simulate-proportion", "--config", str(cfg), "--out", str(out), *flags]) == EXIT_VALIDATION
    assert f"{setting} does not apply to the simulate-proportion mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section", [("apply", "apply"), ("plot-data", "plot")])
@pytest.mark.parametrize("run_line, flags, unread", [
    ("seed = 5\n", [], "[run] seed"),
    ("scale = desk\n", [], "[run] scale"),
    ("", ["--seed", "5"], "--seed"),
    ("", ["--scale", "paper"], "--scale"),
    ("seed = 5\n", ["--scale", "desk"], "--scale"),
], ids=["seed-key", "scale-key", "seed-flag", "scale-flag", "both"])
def test_score_modes_reject_a_seed_or_scale(tmp_path, capsys, command, section, run_line, flags, unread):
    # apply and plot-data draw nothing and run no study
    data = _write(tmp_path, "perf.csv", "estimator,n,coverage,length\na,10,0.95,0.5\n")
    cfg = _write(tmp_path, "a.ini", f"[run]\nschema = 1\n{run_line}\n[{section}]\ninput = {data}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == EXIT_VALIDATION
    assert f"{unread} does not apply to the {command} mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text, setting", [
    ("simulate-proportion", PROP_INI.replace("p = 0.3\n", "p = 0.3\nmu = 5.0\nsigma2_log = 2.0\n"), "[model] mu"),
    ("simulate-mean", MEAN_INI.replace("sigma2 = 1.0\n", "sigma2 = 1.0\nn_trials = 10\nmu_log = 3.0\n"),
     "[model] n_trials"),
    ("simulate-mean", MEAN_INI + "skip_delta = 0.3\n", "[study] skip_delta"),
    ("apply", "[study]\nn = 5\n", "[study]"),
    ("apply", "[model]\nkind = normal\nmu = 2.0\nsigma2 = 1.0\n", "[model]"),
    ("apply", "[plot]\ninput = perf.csv\n", "[plot]"),
    ("simulate-mean", MEAN_INI + "\n[apply]\ninput = nowhere.csv\n", "[apply]"),
    ("simulate-mean", PROP_INI, "[model] kind binomial"),
    ("calibrate", PROP_INI, "[model] kind binomial"),
    ("simulate-proportion", MEAN_INI.replace("mode = simulate-mean\n", ""), "[model] kind normal"),
], ids=["proportion-model-keys", "mean-model-keys", "mean-skip_delta", "apply-study", "apply-model",
        "apply-plot", "mean-apply", "mean-binomial", "calibrate-binomial", "proportion-normal"])
def test_a_setting_the_mode_does_not_read_is_rejected(tmp_path, capsys, command, text, setting):
    # the first seven ran and ignored the setting; a mode now reads every
    # setting it is given, and runs only its own model kinds
    _write(tmp_path, "perf.csv", "estimator,n,coverage,length\na,10,0.95,0.5\n")
    if command == "apply":
        text = f"[run]\nschema = 1\n\n[apply]\ninput = perf.csv\n\n{text}"
    cfg = _write(tmp_path, "c.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert f"{setting} does not apply to the {command} mode" in capsys.readouterr().err
    assert not out.exists()


def test_a_sample_moment_overflow_exits_2(tmp_path, capsys):
    # normal draws near 1e105: the Johnson t skewness's m2 ** 1.5 passes the float range
    cfg = _write(tmp_path, "big.ini", MEAN_INI.replace("sigma2 = 1.0\n", "sigma2 = 1e210\n"))
    out = tmp_path / "out"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "sample moments overflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, estimators, code",
    [
        ("simulate-mean", "normal_theory,johnson_t,bootstrap_percentile,bca", EXIT_VALIDATION),
        ("simulate-mean", "johnson_t", EXIT_VALIDATION),
        ("calibrate", "normal_theory,johnson_t,bootstrap_percentile,bca", EXIT_VALIDATION),
        ("calibrate", "bootstrap_percentile", EXIT_VALIDATION),
        ("simulate-mean", "bootstrap_percentile", EXIT_OK),
    ],
    ids=["mean-all", "mean-johnson_t", "calibrate-all", "calibrate-percentile", "mean-percentile"],
)
def test_lognormal_draws_whose_squares_overflow(tmp_path, capsys, command, estimators, code):
    # lognormal(353, 1.5) has a finite variance, but its draws reach e^355,
    # whose squares overflow: every sd, skewness or acceleration an
    # estimator reads, and every resample sd a calibrated level reads, is
    # refused with no numpy warning; the percentile interval reads none
    model = "kind = lognormal\nmu_log = 353.0\nsigma2_log = 1.5\n"
    text = MEAN_INI.replace("kind = normal\nmu = 2.0\nsigma2 = 1.0\n", model).replace("seed = 414243", "seed = 1")
    text = text.replace("mode = simulate-mean", f"mode = {command}")
    cfg = _write(tmp_path, "big.ini", text + f"estimators = {estimators}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert not caught and "RuntimeWarning" not in err
    if code == EXIT_VALIDATION:
        assert "sample moments overflow" in err
        assert not out.exists()
    else:
        assert out.exists()


@pytest.mark.parametrize("estimators", ["", "estimators = bootstrap_percentile\n"], ids=["all", "percentile"])
def test_an_overflowing_first_moment_exits_2(tmp_path, capsys, estimators):
    # normal draws near 1e308: five of them sum past the float range, so the
    # sample mean and every resample mean are refused as an overflow
    text = MEAN_INI.replace("seed = 414243", "seed = 1").replace("mu = 2.0", "mu = 1e308")
    cfg = _write(tmp_path, "big.ini", text + estimators)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate-mean", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert not caught and "RuntimeWarning" not in err
    assert "sample moments overflow" in err
    assert not out.exists()


_MODEL_FIELDS = {"normal": {"mu": "2.0", "sigma2": "1.0"}, "lognormal": {"mu_log": "0.0", "sigma2_log": "1.0"},
                 "binomial": {"n_trials": "10", "p": "0.3"}}


def _config_with(command: str, section: str, key: str, value: str, kind: str | None = None) -> str:
    # a config the mode runs, with [section] key set to value; kind picks the model
    reads = _READS[command]
    kind = kind or reads.get("model", (None,))[0]
    sections = {"run": {"schema": "1"}}
    if "seed" in reads["run"]:
        sections["run"]["seed"] = "1"
    if kind is not None:
        sections["model"] = {"kind": kind, **_MODEL_FIELDS[kind]}
        sections["study"] = {"R": "3"} if kind == "binomial" else {"n": "5", "N": "10", "B": "10", "R": "3"}
    for name in ("apply", "plot"):
        if name in reads:
            sections[name] = {"input": "perf.csv"}
    sections.setdefault(section, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())


_TYPED_KEYS = [
    (command, section, key, typed, None)
    for command, reads in _READS.items() for section, keys in reads.items() if section != "model"
    for key, typed in keys.items() if typed.__name__ != "str"  # a str key's parser only checks a rule
] + [
    (next(command for command, reads in _READS.items() if kind in reads.get("model", ())), "model", key, typed, kind)
    for kind, fields in _FIELDS.items() for key, typed in fields.items()
]


@pytest.mark.parametrize("command, section, key, typed, kind", _TYPED_KEYS,
                         ids=[f"{c}-{k}" if s != "model" else f"{m}-{k}" for c, s, k, _t, m in _TYPED_KEYS])
def test_a_value_that_does_not_parse_as_its_type_exits_2(tmp_path, capsys, command, section, key, typed, kind):
    # every value is parsed once, as its key's type, before any work
    _write(tmp_path, "perf.csv", "estimator,n,coverage,length\na,10,0.95,0.5\n")
    cfg = _write(tmp_path, "c.ini", _config_with(command, section, key, "x1", kind))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert f"[{section}] {key} must be a {typed.__name__}, got 'x1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, raw, flags, typed", [
    ("seed", "abc", ["--seed", "5"], "int"),
    ("rescaled", "maybe", ["--rescaled"], "bool"),
    ("alpha", "oops", ["--alpha", "0.1"], "float"),
], ids=["seed", "rescaled", "alpha"])
def test_a_malformed_value_a_flag_overrides_exits_2(tmp_path, capsys, key, raw, flags, typed):
    # the config is read whole: a flag replaces a value, and does not hide a
    # bad one (these ran, and wrote outputs, while only flags were checked)
    text = MEAN_INI.replace("seed = 414243\n", "" if key == "seed" else "seed = 414243\n")
    cfg = _write(tmp_path, "c.ini", text.replace("schema = 1\n", f"schema = 1\n{key} = {raw}\n"))
    out = tmp_path / "out"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out), *flags]) == EXIT_VALIDATION
    assert f"[run] {key} must be a {typed}, got {raw!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw, flags, message", [
    ("scale = bogus", ["--scale", "desk"], "[run] scale must be one of ['desk', 'paper'], got 'bogus'"),
    ("loss = cubic", ["--loss", "squared"], "[run] loss must be one of ('absolute', 'squared'), got 'cubic'"),
    ("alpha = 2", ["--alpha", "0.1"], "[run] alpha must lie strictly between 0 and 1, got 2.0"),
    ("alpha = nan", ["--alpha", "0.1"], "[run] alpha must lie strictly between 0 and 1, got nan"),
    ("scale = bogus", [], "[run] scale must be one of ['desk', 'paper'], got 'bogus'"),
], ids=["scale", "loss", "alpha", "alpha-nan", "scale-no-flag"])
def test_a_value_its_rule_refuses_exits_2_when_a_flag_overrides_it(tmp_path, capsys, raw, flags, message):
    # each value is checked where it is parsed, before the flags fold in
    # (these ran, and wrote outputs, while only the folded values were checked)
    cfg = _write(tmp_path, "c.ini", MEAN_INI.replace("schema = 1\n", f"schema = 1\n{raw}\n"))
    out = tmp_path / "out"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out), *flags]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("apply", "[DEFAULT]\nalpha = 0.1\n\n[run]\nschema = 1\n\n[apply]\ninput = perf.csv\n"),
    ("simulate-mean", "[DEFAULT]\nseed = 5\n\n" + MEAN_INI),
], ids=["apply", "simulate-mean"])
def test_a_default_section_exits_2(tmp_path, capsys, command, text):
    # configparser would merge [DEFAULT] into every section, and an error
    # would then blame a section the file does not set the key in
    _write(tmp_path, "perf.csv", "estimator,n,coverage,length\na,10,0.95,0.5\n")
    cfg = _write(tmp_path, "c.ini", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "[DEFAULT]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section", [("apply", "apply"), ("plot-data", "plot")])
@pytest.mark.parametrize("text, message", [
    ("", "this mode needs a [{section}] section with an input path"),
    ("\n[{section}]\n", "[{section}] input is required"),
    ("\n[{section}]\ninput =\n", "[{section}] input is required"),
], ids=["no-section", "no-input", "empty-input"])
def test_an_absent_input_section_differs_from_an_absent_input(tmp_path, capsys, command, section, text, message):
    cfg = _write(tmp_path, "a.ini", "[run]\nschema = 1\n" + text.format(section=section))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert message.format(section=section) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "run_line, flags, key",
    [
        ("alpha = 1.5\n", [], "alpha"),
        ("alpha = nan\n", [], "alpha"),
        ("loss = cubic\n", [], "loss"),
        ("", ["--alpha", "0"], "alpha"),
    ],
    ids=["alpha-1.5", "alpha-nan", "loss-cubic", "flag-alpha-0"],
)
def test_bad_index_settings_rejected(tmp_path, capsys, run_line, flags, key):
    # IndexConfig owns these rules; the CLI passes its DomainError on as exit 2
    text = MEAN_INI.replace("seed = 414243\n", "seed = 414243\n" + run_line)
    cfg = _write(tmp_path, "bad.ini", text)
    out = tmp_path / "out"
    assert main(["simulate-mean", "--config", str(cfg), "--out", str(out), *flags]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert not (out / "run_metadata.json").exists()


def test_byte_order_mark_is_accepted(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a BOM; so may a config
    table = "estimator,n,coverage,length\na,10,0.9500,0.5000\nb,10,0.9000,0.4000\n"
    rows = {}
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        data = _write(tmp_path, f"{name}.csv", bom + table)
        cfg = _write(
            tmp_path, f"{name}.ini", f"{bom}[run]\nschema = 1\n\n[apply]\ninput = {data}\n"
        )
        out = tmp_path / name
        assert main(["apply", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows[name] = _read_rows(out / "report.csv")
    assert rows["bom"] == rows["plain"]


@pytest.mark.parametrize("bad", ["config", "input"])
def test_non_utf8_file_is_a_validation_error(tmp_path, capsys, bad):
    # a config comment or a table cell in Latin-1: exit 2 naming the file,
    # and no output written
    data = tmp_path / "t.csv"
    label = b"w\xe9ld" if bad == "input" else b"weld"
    data.write_bytes(b"estimator,coverage,length\n" + label + b",0.9,0.2\n")
    cfg = tmp_path / "a.ini"
    comment = b"# caf\xe9\n" if bad == "config" else b""
    cfg.write_bytes(comment + f"[run]\nschema = 1\n\n[apply]\ninput = {data}\n".encode())
    out = tmp_path / "out"
    assert main(["apply", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(data if bad == "input" else cfg) in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "raw",
    [
        b"estimator,g,coverage,length\r\na,x,0.9,0.2\r\nb,y,0.8,0.1\r\n",
        b"# note\restimator,g,coverage,length\ra,x,0.9,0.2\rb,y,0.8,0.1\r",
        'estimator,g,coverage,length\n"a\u2028b",x\x85y,0.9,0.2\nc\x0bd,z\x1c,0.8,0.1\n'.encode(),
        '\ufeffestimator,g,coverage,length\n"a\r\nb",x,0.9,0.2\n'.encode(),
    ],
    ids=["crlf", "lone-cr", "unicode-breaks", "bom"],
)
def test_input_lines_split_as_in_a_text_mode_file(tmp_path, raw):
    # the rows parsed from the text read once are those csv.reader gives over
    # the text-mode file; str.splitlines would also break at \u2028, \x85,
    # \x0b and \x1c
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    with open(path, encoding="utf-8-sig") as handle:
        table = [r for r in csv.reader(ln for ln in handle if not ln.startswith("#")) if r]
    text, data = _read_text(path, "input")
    assert data == raw
    group_cols, rows = _read_performance_csv(text, path.name)
    assert group_cols == [table[0][1]]
    assert [(r.estimator_label, r.group_keys[0][1], r.coverage, r.mean_length) for r in rows] == [
        (label.strip(), group.strip(), float(cov), float(length))
        for label, group, cov, length in table[1:]
    ]


@pytest.mark.parametrize("command, section", [("apply", "apply"), ("plot-data", "plot")])
def test_each_input_is_read_once(tmp_path, monkeypatch, command, section):
    # one read parses the table and hashes it for input_sha256
    data = _write(tmp_path, "perf.csv", "estimator,n,coverage,length\na,10,0.95,0.5\n")
    cfg = _write(tmp_path, "a.ini", f"[run]\nschema = 1\n\n[{section}]\ninput = {data}\n")
    real_open = io.open
    reads = []

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            reads.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert reads.count(str(data)) == 1 and reads.count(str(cfg)) == 1


def test_readme_documents_every_config_key():
    # each mode's list names the settings it reads beyond those every mode
    # reads, and the key table names every key and each kind's fields
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    every_mode = section.split("Every mode reads", 1)[1].split("\n\n", 1)[0]
    lines = {item.split("`")[1]: item for item in section.split("\n* ")[1:]}
    shared = set.intersection(*(set(reads["run"]) for reads in _READS.values()))
    for mode, reads in _READS.items():
        for name, keys in reads.items():
            own = [key for key in keys if name != "run" or key not in shared]
            if own:
                assert f"`[{name}]`" in lines[mode], (mode, name)
            assert all(f"`{key}`" in lines[mode] for key in own), (mode, name)
            assert all(f"`{key}`" in every_mode for key in keys if key not in own), (mode, name)
    table = section.split("Every key:", 1)[1]
    settings = {(name, key) for reads in _READS.values() for name, keys in reads.items() if name != "model"
                for key in keys}
    settings |= {("model", key) for fields in _FIELDS.values() for key in ("kind", *fields)}
    for name, key in settings:
        assert f"`[{name}]`" in table and f"`{key}`" in table, (name, key)


@pytest.mark.parametrize("command, section", [("apply", "apply"), ("plot-data", "plot")])
@pytest.mark.parametrize(
    "table",
    [None, b"estimator,coverage,length\nw\xe9ld,0.9,0.2\n", b"estimator,coverage,length\nbad,1.2,0.5\n"],
    ids=["missing", "non-utf8", "invalid"],
)
def test_rejected_input_makes_no_out_directory(tmp_path, command, section, table):
    # --out is made only when a run writes its outputs
    data = tmp_path / "t.csv"
    if table is not None:
        data.write_bytes(table)
    cfg = _write(tmp_path, "a.ini", f"[run]\nschema = 1\n\n[{section}]\ninput = {data}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_missing_input_file(tmp_path):
    cfg = _write(tmp_path, "a.ini", "[run]\nschema = 1\n\n[apply]\ninput = nope.csv\n")
    assert main(["apply", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_calibrate_mode_csv(tmp_path):
    ini = """\
[run]
schema = 1
seed = 8

[model]
kind = lognormal
mu_log = 0.0
sigma2_log = 1.0

[study]
n = 8
N = 20
B = 20
R = 3
skip_delta = 0.0001
"""
    cfg = _write(tmp_path, "cal.ini", ini)
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = _read_rows(out / "calibration.csv")
    assert header == ["estimator", "variant", "coverage", "length", "index", "skipped", "mean_beta"]
    assert len(rows) == 4 * 2
    assert {r[1] for r in rows} == {"uncalibrated", "calibrated"}
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["calibration_resamples"] == "reused"
    # the echo lists every plan field; "calibrate" marks the calibrate mode
    assert sorted(meta["plan"]) == [
        "B", "N", "R", "alpha", "calibrate", "estimators", "loss", "master_seed",
        "mode", "model", "n", "rescaled", "skip_delta",
    ]
    assert meta["plan"]["calibrate"] is True
    assert meta["plan"]["model"] == {"kind": "lognormal", "mu_log": 0.0, "sigma2_log": 1.0}


def test_python_m_ciindex_matches_main(tmp_path):
    config = str(REPO / "configs" / "proportion.ini")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "ciindex", "simulate-proportion", "--config", config,
         "--out", str(tmp_path / "child")],
        cwd=REPO, env=env, capture_output=True, text=True, check=False,
    )
    assert child.returncode == EXIT_OK, child.stderr
    assert main(["simulate-proportion", "--config", config, "--out", str(tmp_path / "here")]) == EXIT_OK
    written = (tmp_path / "child" / "results.csv").read_bytes()
    assert written == (tmp_path / "here" / "results.csv").read_bytes()


def test_import_leaves_scipy_stats_unloaded():
    # nothing in the package imports scipy.stats, and the process pool is
    # imported only by a multi-worker run; a fresh process is needed
    # because this suite itself loads both
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, ciindex, ciindex.cli; "
         "print([m in sys.modules for m in ('scipy.stats', 'concurrent.futures.process')])"],
        cwd=REPO, env=env, capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[False, False]"


def test_rank_demo_ranks_every_row_of_its_data(run_child):
    child = run_child("demos/rank_estimators.py")
    assert child.returncode == 0, child.stderr
    with open(REPO / "demos" / "data" / "cv_estimator_performance.csv", encoding="utf-8") as handle:
        sizes = Counter((rec["n"], rec["cv"]) for rec in csv.DictReader(handle)).values()
    lines = child.stdout.splitlines()
    ranks = [int(line.split()[0]) for line in lines if line.split()[:1] and line.split()[0].isdigit()]
    # every (n, cv) group of the data, each ranked 1, 2, ... in turn
    assert ranks == [rank for size in sizes for rank in range(1, size + 1)]
    assert lines[-1].startswith("lowest index overall: ")
