"""A fixed reference unit of work that tracks the host's speed.

The benchmark host is a shared VM whose speed drifts by up to 1.6x within
seconds and over minutes (README.md, "Why times are scaled").  Every
timed interval is therefore measured together with a reference unit:
the same fixed work each time, made of the kinds of work a study does
(small numpy draws, gathers and reductions, scalar scipy quantiles, and
pure-Python float and dict work) and calling no ciindex code, so a
change to the package cannot change it.  An interval's scaled time is its wall time
times ``REFERENCE_S`` over the unit's time: the wall time it would have
taken had the unit run in ``REFERENCE_S``.  A pass is scaled by the mean
of the units run just before and after it in the same process; a set-up
probe, which is a process of its own, by a unit that the probe runs
right after its set-up.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy import special

# Median time of one unit on the host the baseline comes from (2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17), so that scaled times
# read as that host's typical wall times.
REFERENCE_S = 0.07
UNIT_ROUNDS = 240


def _unit() -> float:
    total = 0.0
    for k in range(UNIT_ROUNDS):
        rng = np.random.default_rng(np.random.SeedSequence([11, k]))
        values = rng.normal(2.0, 1.0, size=10)
        means = values[rng.integers(0, 10, size=(200, 10))].mean(axis=1)
        total += float(means.std(ddof=1)) + float(np.quantile(means, 0.975))
        level = 0.9 + k / (10.0 * UNIT_ROUNDS)
        total += float(special.ndtri(level)) + float(special.betaincinv(3.0, 7.0, level))
        acc: dict[int, float] = {}
        for j in range(100):
            acc[j % 16] = acc.get(j % 16, 0.0) + math.sqrt(j + 1.0)
        total += sum(sorted(acc.values()))
    return total


def reference_seconds() -> float:
    """Wall seconds of one reference unit."""
    start = perf_counter()
    _unit()
    return perf_counter() - start


def scaled(seconds: float, unit_seconds: float) -> float:
    """``seconds`` as they would read on a host that runs the unit in ``REFERENCE_S``."""
    return seconds * REFERENCE_S / unit_seconds


def bracketed(times: list[float], refs: list[float]) -> list[float]:
    """``times[i]`` scaled by the mean of the units ``refs[i]`` and ``refs[i + 1]`` around it."""
    return [scaled(t, (refs[i] + refs[i + 1]) / 2.0) for i, t in enumerate(times)]
