"""Seeded data generation and bootstrap resampling.

Three data models are supported: normal, lognormal (parameterized by the
mean and variance of the underlying normal, so ``lognormal(0, 3)`` has
population mean ``exp(1.5)``), and binomial counts.  Draws are driven by
:class:`SeedSpec`, a (master seed, stream path) pair mapped onto a
counter-based Philox generator.  Distinct paths give independent streams,
and a given (seed, path) pair yields identical draws regardless of how
work is scheduled across processes, which is what makes parallel
simulation runs bit-reproducible.  Every bootstrap resample set is one
``(B, n)`` index draw on the sample's stream, made and reduced to its
means and sds by ``_resample_moments``.

:meth:`SeedSpec.generator` is the definition of a stream: numpy's
``SeedSequence(master_seed, spawn_key=path)`` keys a fresh Philox.  A
Philox stream is only its key and a zero counter, so for many sibling
streams ``path + (i,)`` the harness mixes every last word ``i`` into
numpy's own entropy pool for ``path`` in one vectorized pass, and re-keys
a single generator per stream.  The draws are the same bits;
``tests/test_sampling.py`` pins the keys against numpy's own.
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
    "draw_sample",
    "lognormal_model",
    "lognormal_skewness",
    "normal_model",
    "true_parameter",
]

# each model kind's fields and their types, in argument order
_FIELDS = {"normal": {"mu": float, "sigma2": float}, "lognormal": {"mu_log": float, "sigma2_log": float},
           "binomial": {"n_trials": int, "p": float}}


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
        if self.kind not in _FIELDS:
            raise DomainError(f"kind must be one of {tuple(_FIELDS)}, got {self.kind!r}")
        for name in (name for fields in _FIELDS.values() for name in fields):
            if (getattr(self, name) is None) == (name in _FIELDS[self.kind]):
                verb = "requires" if name in _FIELDS[self.kind] else "does not take"
                raise DomainError(f"{self.kind} model {verb} {name}")
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
            try:
                # the variance too: a finite mean can still have draws whose squares overflow
                variance = math.expm1(self.sigma2_log) * math.exp(2.0 * self.mu_log + self.sigma2_log)
                finite = math.isfinite(true_parameter(self)) and math.isfinite(variance)
            except OverflowError:
                finite = False
            if not finite:
                raise DomainError(f"lognormal model (mu_log = {self.mu_log!r}, sigma2_log = {self.sigma2_log!r}) "
                                  "needs a finite mean exp(mu_log + sigma2_log / 2) and variance")
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


def _resample_moments(values: np.ndarray, B: int, rng: np.random.Generator, means, sds=None) -> None:
    # the one resample draw, on a stream already opened, written into the
    # (B,) means and sds (when given) with the bits of boot.mean(axis=1) and
    # boot.std(axis=1, ddof=1): numpy's own steps without its wrappers or
    # std's second pass for the mean, centring and squaring the (B, n) set in place
    n = values.size
    boot = values[rng.integers(0, n, size=(B, n))]
    # a short row costs more to start than to add: from about 48n
    # resamples up, adding whole columns is cheaper, and 64n keeps a margin
    by_columns = B >= 64 * n and 2 <= n < 16
    if by_columns:
        _column_sum(boot, means)
    else:
        np.add.reduce(boot, axis=1, out=means)
    means /= n
    if sds is not None:
        np.subtract(boot, means[:, None], out=boot)
        np.square(boot, out=boot)
        if by_columns:
            _column_sum(boot, sds)
        else:
            np.add.reduce(boot, axis=1, out=sds)
        sds /= n - 1
        np.sqrt(sds, out=sds)


def _column_sum(boot: np.ndarray, out: np.ndarray) -> None:
    # np.add.reduce(boot, axis=1, out=out) bit for bit for a (B, n) boot
    # with 2 <= n < 16, adding whole columns in the order of numpy's
    # pairwise_sum: sequentially below 8 columns; from 8, the tree
    # ((c0+c1)+(c2+c3)) + ((c4+c5)+(c6+c7)) and then the rest in turn.
    # The reduction starts from its identity 0.0, so a row of -0.0 sums
    # to +0.0; adding it last gives that and changes no other value.
    cols = boot.T
    np.add(cols[0], cols[1], out=out)
    if len(cols) < 8:
        rest = cols[2:]
    else:
        pair = cols[2] + cols[3]
        out += pair
        np.add(cols[4], cols[5], out=pair)
        pair += cols[6] + cols[7]
        out += pair
        rest = cols[8:]
    for col in rest:
        out += col
    out += 0.0


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _stream_keys(seed: SeedSpec, count: int) -> np.ndarray:
    # The (count, 2) uint64 Philox keys of the streams seed.stream_path +
    # (i,), i < count: row i equals SeedSequence(master, spawn_key=path +
    # (i,)).generate_state(2, np.uint64), as SeedSpec.generator() keys its
    # Philox.  numpy mixes entropy words in order, so its pool for the path
    # is every stream's pool before word i; only i is mixed in by hand.
    if not (isinstance(count, int) and 0 <= count < 2**32):
        raise DomainError(f"count must be an integer in [0, 2^32), got {count!r}")
    prefix = np.random.SeedSequence(seed.master_seed, spawn_key=seed.stream_path)
    # (4, 1) rows, so every wrapping uint32 product is an array product
    pool = list(prefix.pool.reshape(4, 1))
    # SeedSpec bounds the master below 2^64: its run entropy is at most 4
    # words, zero-filled to the pool's 4, which take 16 hash calls to mix;
    # then each 32-bit word of each path entry (0 is one word) takes 4
    n_words = sum(max(1, -(-entry.bit_length() // 32)) for entry in seed.stream_path)
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * n_words, 2**32) & _MASK32
    last = np.arange(count, dtype=np.uint32)
    for dst in range(4):
        value = last ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ (value >> _XSHIFT))
        pool[dst] = mixed ^ (mixed >> _XSHIFT)

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
