"""Seeded data generation and bootstrap resampling.

Three data models are supported: normal, lognormal (parameterized by the
mean and variance of the underlying normal, so ``lognormal(0, 3)`` has
population mean ``exp(1.5)``), and binomial counts.  Draws are driven by
:class:`SeedSpec`, a (master seed, stream path) pair mapped onto a
counter-based Philox generator.  Distinct paths give independent streams,
and a given (seed, path) pair yields identical draws regardless of how
work is scheduled across processes, which is what makes parallel
simulation runs bit-reproducible.

:meth:`SeedSpec.generator` is the definition of a stream: numpy's
``SeedSequence(master_seed, spawn_key=path)`` keys a fresh Philox.  A
Philox stream is only its key and a zero counter, so when the harness
needs many sibling streams ``path + (i,)`` it derives all their keys in
one vectorized pass that reproduces ``SeedSequence`` word for word, and
re-keys a single generator per stream.  The draws are the same bits;
``tests/test_sampling.py`` pins the keys against numpy's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
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


def bootstrap_resamples(values, B: int, seed: SeedSpec) -> np.ndarray:
    """``B`` with-replacement resamples of ``values`` as one (B, n) block.

    The index matrix is drawn in one ``integers(0, n, size=(B, n))`` call,
    so a seed always yields the same resample set whichever caller asks.
    ``values`` must be nonempty and one-dimensional, ``B`` an integer of at
    least 2.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise DomainError(f"values must be one-dimensional, got shape {values.shape}")
    if values.size == 0:
        raise InsufficientDataError("values must be nonempty")
    if not (isinstance(B, int) and B >= 2):
        raise DomainError(f"B must be an integer >= 2, got {B!r}")
    return _resample(values, B, seed.generator())


def _resample(values: np.ndarray, B: int, rng: np.random.Generator) -> np.ndarray:
    # the one resample draw, from a stream already opened
    return values[rng.integers(0, values.size, size=(B, values.size))]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _words(value: int) -> list[int]:
    # one non-negative integer as 32-bit words, low word first, as numpy
    # splits entropy and spawn-key entries (0 is one word)
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _stream_keys(seed: SeedSpec, count: int) -> np.ndarray:
    # The (count, 2) uint64 Philox keys of the streams seed.stream_path +
    # (i,), i < count: row i equals SeedSequence(master, spawn_key=path +
    # (i,)).generate_state(2, np.uint64), which is how SeedSpec.generator()
    # keys its Philox.  One pass of numpy's SeedSequence over uint32 columns:
    # the words common to every stream are (1,) columns and broadcast
    # against the (count,) column of the last path entry.
    if not (isinstance(count, int) and 0 <= count < 2**32):
        raise DomainError(f"count must be an integer in [0, 2^32), got {count!r}")
    run = _words(seed.master_seed)
    common = run + [0] * (_POOL_SIZE - len(run))  # numpy pads spawned run entropy
    common += [w for entry in seed.stream_path for w in _words(entry)]
    entropy = [np.array([w], dtype=np.uint32) for w in common]
    entropy.append(np.arange(count, dtype=np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, np.uint64): four uint32 words, paired low word first
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const
        state.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def _stream_generators(seed: SeedSpec, count: int):
    # One generator per stream seed.stream_path + (i,), i < count, in
    # order, drawing exactly what SeedSpec.generator() would draw.  Philox
    # is counter-based, so a fresh stream is its key with a zero counter:
    # one Philox is re-keyed per stream (counter 0, empty buffer, no spare
    # 32-bit word), and the same Generator object is yielded each time, so
    # each must be used up before the next is asked for.
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in _stream_keys(seed, count):
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng
