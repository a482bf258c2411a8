"""Seeded data generation and bootstrap resampling.

Three data models are supported: normal, lognormal (parameterized by the
mean and variance of the underlying normal, so ``lognormal(0, 3)`` has
population mean ``exp(1.5)``), and binomial counts.  Draws are driven by
:class:`SeedSpec`, a (master seed, stream path) pair mapped onto a
counter-based Philox generator.  Distinct paths give independent streams,
and a given (seed, path) pair yields identical draws regardless of how
work is scheduled across processes, which is what makes parallel
simulation runs bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import _check_prob_open

__all__ = [
    "DataModel",
    "SeedSpec",
    "binomial_model",
    "bootstrap_resamples",
    "draw_sample",
    "lognormal_model",
    "lognormal_skewness",
    "normal_model",
    "true_parameter",
]

_KINDS = ("normal", "lognormal", "binomial")


@dataclass(frozen=True)
class DataModel:
    """One of the three sampling models, tagged by ``kind``.

    Use the factory functions :func:`normal_model`,
    :func:`lognormal_model`, and :func:`binomial_model` rather than
    filling fields by hand; only the fields belonging to ``kind`` may be
    set.
    """

    kind: str
    mu: float | None = None
    sigma2: float | None = None
    mu_log: float | None = None
    sigma2_log: float | None = None
    n_trials: int | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        expected = {
            "normal": ("mu", "sigma2"),
            "lognormal": ("mu_log", "sigma2_log"),
            "binomial": ("n_trials", "p"),
        }[self.kind]
        for name in ("mu", "sigma2", "mu_log", "sigma2_log", "n_trials", "p"):
            value = getattr(self, name)
            if name in expected:
                if value is None:
                    raise DomainError(f"{self.kind} model requires {name}")
            elif value is not None:
                raise DomainError(f"{self.kind} model does not take {name}")
        if self.kind == "normal":
            if not (math.isfinite(self.mu) and math.isfinite(self.sigma2) and self.sigma2 > 0):
                raise DomainError("normal model needs finite mu and sigma2 > 0")
        elif self.kind == "lognormal":
            if not (
                math.isfinite(self.mu_log)
                and math.isfinite(self.sigma2_log)
                and self.sigma2_log > 0
            ):
                raise DomainError("lognormal model needs finite mu_log and sigma2_log > 0")
        else:
            if not (isinstance(self.n_trials, int) and self.n_trials >= 1):
                raise DomainError(f"n_trials must be a positive integer, got {self.n_trials!r}")
            _check_prob_open(self.p)


def normal_model(mu: float, sigma2: float) -> DataModel:
    """Normal model with mean ``mu`` and variance ``sigma2``."""
    return DataModel(kind="normal", mu=mu, sigma2=sigma2)


def lognormal_model(mu_log: float, sigma2_log: float) -> DataModel:
    """Lognormal model; parameters are those of the underlying normal."""
    return DataModel(kind="lognormal", mu_log=mu_log, sigma2_log=sigma2_log)


def binomial_model(n_trials: int, p: float) -> DataModel:
    """Binomial count model with ``n_trials`` trials and success rate ``p``."""
    return DataModel(kind="binomial", n_trials=n_trials, p=p)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream path identifying one random stream.

    The same (master_seed, stream_path) always produces the same draws;
    different paths produce statistically independent streams.  Paths are
    tuples of small non-negative integers, conventionally (purpose,
    replication, sample) indices chosen by the caller.
    """

    master_seed: int
    stream_path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            raise DomainError(
                f"master_seed must be an integer in [0, 2^64), got {self.master_seed!r}"
            )
        path = tuple(self.stream_path)
        for entry in path:
            if not (isinstance(entry, int) and entry >= 0):
                raise DomainError(f"stream_path entries must be non-negative integers, got {entry!r}")
        object.__setattr__(self, "stream_path", path)

    def child(self, *indices: int) -> "SeedSpec":
        """Seed for a sub-stream: this path extended by ``indices``."""
        return SeedSpec(self.master_seed, self.stream_path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator for this stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream_path)
        return np.random.Generator(np.random.Philox(seq))


def true_parameter(model: DataModel) -> float:
    """Population value targeted by the interval estimators.

    The mean for normal and lognormal models, the success probability
    for the binomial model.
    """
    if model.kind == "normal":
        return float(model.mu)
    if model.kind == "lognormal":
        return float(math.exp(model.mu_log + model.sigma2_log / 2.0))
    return float(model.p)


def lognormal_skewness(sigma2_log: float) -> float:
    """Skewness of a lognormal law with underlying variance ``sigma2_log``.

    Equals ``(exp(s) + 2) * sqrt(exp(s) - 1)`` with ``s`` the variance of
    the underlying normal; it does not depend on the location parameter.
    """
    if not (isinstance(sigma2_log, (int, float)) and sigma2_log > 0):
        raise DomainError(f"sigma2_log must be > 0, got {sigma2_log!r}")
    e = math.exp(sigma2_log)
    return (e + 2.0) * math.sqrt(e - 1.0)


def draw_sample(model: DataModel, n: int, seed: SeedSpec) -> np.ndarray:
    """``n`` i.i.d. draws from ``model``, deterministic under ``seed``.

    Returns a float array for continuous models and an integer array of
    counts in ``[0, n_trials]`` for the binomial model.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return _draw(model, n, seed)


def _draw(model: DataModel, size, seed: SeedSpec) -> np.ndarray:
    # the one mapping from model to generator call; ``size`` is an int or
    # a shape, and callers validate it
    rng = seed.generator()
    if model.kind == "normal":
        return rng.normal(model.mu, math.sqrt(model.sigma2), size=size)
    if model.kind == "lognormal":
        return rng.lognormal(model.mu_log, math.sqrt(model.sigma2_log), size=size)
    return rng.binomial(model.n_trials, model.p, size=size)


def bootstrap_resamples(values: np.ndarray, B: int, seed: SeedSpec) -> np.ndarray:
    """``B`` with-replacement resamples of ``values`` as one (B, n) block.

    The index matrix is drawn in one ``integers(0, n, size=(B, n))`` call,
    so a seed always yields the same resample set whichever caller asks.
    ``values`` must be a nonempty one-dimensional array; callers validate.
    """
    idx = seed.generator().integers(0, values.size, size=(B, values.size))
    return values[idx]
