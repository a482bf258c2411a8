"""Time set-up in a fresh process, up to the first study call.

Usage: python3 perfbench/setup_probe.py SRC MODE CONFIG OUT

Set-up is ``import ciindex`` (which imports numpy and scipy), reading the
config, and building and validating the plan.  The study itself does not
run: the study functions the CLI calls are replaced by one that stops the
process as soon as it is entered.  Prints the seconds taken, then the
seconds of one reference unit (hostspeed.py) run right after, by which
the caller scales them.
"""

import os
import sys
import time

start = time.perf_counter()
src, mode, config, out = sys.argv[1:5]
sys.path.insert(0, src)

import ciindex.cli as cli  # noqa: E402  (timed: the import is part of set-up)


class StudyReached(BaseException):
    """Raised at the first study call; BaseException so the CLI's handlers pass it on."""


def _stop(*args, **kwargs):
    raise StudyReached


for name in ("run_mean_study", "run_calibration_study", "run_proportion_study", "apply_index"):
    if hasattr(cli, name):
        setattr(cli, name, _stop)
try:
    cli.main([mode, "--config", config, "--out", out])
except StudyReached:
    took = time.perf_counter() - start
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hostspeed

    print(repr(took), repr(hostspeed.reference_seconds()))
    sys.exit(0)
sys.exit("setup_probe: the CLI returned without reaching a study call")
