"""The confidence-interval index: a scalar score for interval estimators.

An estimator that produced empirical coverage ``eta`` and mean interval
length ``L`` at significance level ``alpha`` receives

    I(L, eta; alpha) = k_alpha * (1 - (1 + H(eta; alpha)) / (2 * (1 + eta / (1 + L))))

where ``H`` penalizes the deviation of coverage from the nominal ``1 -
alpha`` (absolute loss ``|1 - alpha - eta|`` by default, squared loss as an
alternative) and ``k_alpha = (4 - 2 alpha)/(3 - 2 alpha)`` scales the result
so that its range sits near the [0, 1] coverage scale.  Larger is better:
the index decreases in length, decreases in coverage deviation, and equals
1 exactly in the ideal limit of zero length at nominal coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import _check_prob_open

__all__ = [
    "IndexConfig",
    "IntervalPerformance",
    "compute_index",
    "compute_index_array",
    "index_range",
    "k_alpha",
    "limit_case",
    "rescale_index",
]

_LOSSES = ("absolute", "squared")
_LIMIT_CASES = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class IndexConfig:
    """Index configuration: level, loss choice, and output scale.

    Parameters
    ----------
    alpha : float
        Significance level in (0, 1); nominal coverage is ``1 - alpha``.
    loss : str
        ``"absolute"`` or ``"squared"`` coverage-deviation penalty.
    rescaled : bool
        When true, index values are affinely mapped so the attainable
        range starts at 0 instead of ``k_alpha * alpha / 2``.
    """

    alpha: float = 0.05
    loss: str = "absolute"
    rescaled: bool = False

    def __post_init__(self) -> None:
        _check_prob_open(self.alpha, "alpha")
        if self.loss not in _LOSSES:
            raise DomainError(f"loss must be one of {_LOSSES}, got {self.loss!r}")


@dataclass(frozen=True)
class IntervalPerformance:
    """Empirical performance of one estimator: coverage and mean length."""

    coverage: float
    mean_length: float

    def __post_init__(self) -> None:
        if not (isinstance(self.coverage, (int, float)) and 0.0 <= self.coverage <= 1.0):
            raise DomainError(f"coverage must lie in [0, 1], got {self.coverage!r}")
        if not (
            isinstance(self.mean_length, (int, float))
            and math.isfinite(self.mean_length)
            and self.mean_length >= 0.0
        ):
            raise DomainError(f"mean_length must be finite and >= 0, got {self.mean_length!r}")


def k_alpha(alpha: float) -> float:
    """Scaling constant (4 - 2 alpha) / (3 - 2 alpha)."""
    _check_prob_open(alpha, "alpha")
    return (4.0 - 2.0 * alpha) / (3.0 - 2.0 * alpha)


def compute_index(perf: IntervalPerformance, cfg: IndexConfig) -> float:
    """Index of one (coverage, mean length) pair under ``cfg``.

    Total on its domain: any coverage in [0, 1] and any nonnegative
    length produce a finite value.  Evaluated by
    :func:`compute_index_array`; with ``cfg.rescaled`` the affine map of
    :func:`rescale_index`, range check included, is applied to the result.
    """
    raw = IndexConfig(cfg.alpha, cfg.loss) if cfg.rescaled else cfg
    value = float(compute_index_array(perf.coverage, perf.mean_length, raw))
    return rescale_index(value, cfg) if cfg.rescaled else value


def compute_index_array(coverage, mean_length, cfg: IndexConfig):
    """Vectorized :func:`compute_index` over numpy arrays.

    ``coverage`` and ``mean_length`` broadcast against each other; the
    result is a float64 array.  Inputs must already satisfy the domain
    (coverage in [0, 1], length >= 0).
    """
    eta = np.asarray(coverage, dtype=float)
    length = np.asarray(mean_length, dtype=float)
    if eta.size and (eta.min() < 0.0 or eta.max() > 1.0):
        raise DomainError("coverage values must lie in [0, 1]")
    if length.size and length.min() < 0.0:
        raise DomainError("mean_length values must be >= 0")
    dev = 1.0 - cfg.alpha - eta
    h = np.abs(dev) if cfg.loss == "absolute" else dev * dev
    value = k_alpha(cfg.alpha) * (1.0 - 0.5 * (1.0 + h) / (1.0 + eta / (1.0 + length)))
    if cfg.rescaled:
        lo, _ = index_range(IndexConfig(cfg.alpha, cfg.loss, rescaled=False))
        value = (value - lo) / (1.0 - lo)
    return value


def index_range(cfg: IndexConfig) -> tuple[float, float]:
    """Nominal (lower, upper) endpoints of the index for ``cfg.loss``.

    Absolute loss: ``(k_alpha * alpha / 2, 1)``, which is exactly the
    attainable range.  Squared loss: ``(alpha (2 - alpha)^2 / (3 - 2
    alpha), 1)``; the lower endpoint is attained but values slightly above
    1 are possible near zero length with coverage above nominal (see
    :func:`rescale_index`).
    """
    if cfg.loss == "absolute":
        lo = k_alpha(cfg.alpha) * cfg.alpha / 2.0
    else:
        lo = cfg.alpha * (2.0 - cfg.alpha) ** 2 / (3.0 - 2.0 * cfg.alpha)
    return (lo, 1.0)


def _squared_sup(alpha: float) -> float:
    # supremum of the squared-loss index, reached as length -> 0 and
    # coverage -> 1: k_alpha * (1 - (1 + alpha^2) / 4)
    return k_alpha(alpha) * (1.0 - (1.0 + alpha * alpha) / 4.0)


def rescale_index(i_value: float, cfg: IndexConfig) -> float:
    """Affine map sending ``index_range`` onto [0, 1].

    ``f(x) = (x - lo) / (1 - lo)`` with ``lo`` the loss-specific lower
    endpoint, so ``f(lo) = 0`` and ``f(1) = 1`` exactly.  Inputs outside
    the attainable values (1e-9 slack) raise.  Under squared loss the
    attainable supremum exceeds 1 slightly, so rescaled values may exceed
    1; they are passed through unchanged.
    """
    lo, hi = index_range(cfg)
    slack = 1e-9
    upper = hi if cfg.loss == "absolute" else _squared_sup(cfg.alpha)
    if not (lo - slack <= i_value <= upper + slack):
        raise DomainError(
            f"index value {i_value!r} outside [{lo}, {upper}] beyond slack"
        )
    return (i_value - lo) / (1.0 - lo)


def limit_case(case_id: str, cfg: IndexConfig) -> float:
    """Index limit at the four extreme corners of (length, coverage).

    ``"I"``: length -> 0, coverage -> 0.  ``"II"``: length -> inf,
    coverage -> 0.  ``"III"``: length -> inf, coverage -> nominal.
    ``"IV"``: length -> 0, coverage -> nominal (the ideal, limit 1).
    """
    if case_id not in _LIMIT_CASES:
        raise DomainError(f"case_id must be one of {_LIMIT_CASES}, got {case_id!r}")
    k = k_alpha(cfg.alpha)
    if case_id in ("I", "II"):
        if cfg.loss == "absolute":
            return k * cfg.alpha / 2.0
        return k * cfg.alpha * (2.0 - cfg.alpha) / 2.0
    if case_id == "III":
        return k / 2.0
    return 1.0
