"""Every output byte of the bundled configs and the demos' stdout, pinned.

``tests/golden/<config>/`` holds the files ``ciindex <mode> --config
configs/<config>.ini`` writes, and ``tests/golden/demos/<demo>.txt`` what
``python3 demos/<demo>.py`` prints from the repository root.  A change that
claims to keep every output byte-identical must leave them all equal.
``configs/paper.ini`` runs for hours and is left out.

The outputs depend on the numpy, scipy and Python versions (and record
them in ``run_metadata.json``), so under any other version than the one
recorded the test skips, naming both; it never passes on a mismatch.
"""

import json
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from ciindex import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
CONFIGS = ["apply", "calibrate", "desk", "plot", "proportion"]
DEMOS = sorted(path.stem for path in (GOLDEN / "demos").glob("*.txt"))

_RECORDED = json.loads((GOLDEN / "desk" / "run_metadata.json").read_text(encoding="utf-8"))["versions"]
_RUNNING = {"numpy": numpy.__version__, "python": sys.version.split()[0], "scipy": scipy.__version__}
_MISMATCH = [f"{name} {_RECORDED[name]} recorded, {version} running"
             for name, version in _RUNNING.items() if _RECORDED[name] != version]

_recorded_versions = pytest.mark.skipif(bool(_MISMATCH), reason="golden outputs need the recorded versions: "
                                        + "; ".join(_MISMATCH))


def test_every_bundled_config_but_paper_has_golden_outputs():
    bundled = {path.stem for path in (REPO / "configs").glob("*.ini")}
    assert bundled - set(CONFIGS) == {"paper"}
    assert DEMOS == sorted(path.stem for path in (REPO / "demos").glob("*.py"))


@_recorded_versions
@pytest.mark.parametrize("config", CONFIGS)
def test_config_outputs_match_golden(config, tmp_path):
    path = REPO / "configs" / f"{config}.ini"
    mode = cli._load_config(path).get("run", "mode")
    assert cli.main([mode, "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    expected = GOLDEN / config
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in expected.iterdir())
    for golden in expected.iterdir():
        assert (tmp_path / golden.name).read_bytes() == golden.read_bytes(), golden.name


@_recorded_versions
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_matches_golden(demo, run_child):
    proc = run_child(f"demos/{demo}.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode("utf-8") == (GOLDEN / "demos" / f"{demo}.txt").read_bytes()
