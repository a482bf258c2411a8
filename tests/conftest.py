"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _child(*args: str) -> subprocess.CompletedProcess:
    # a fresh interpreter on this checkout's sources, run from its root
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, env=env, capture_output=True, text=True, check=False,
    )


@pytest.fixture
def run_child():
    """Run ``python *args`` in a fresh interpreter; returns the completed process."""
    return _child
