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
        When true, index values are affinely mapped so the lower end of
        :func:`index_range` goes to 0.
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
    length produce a finite value.  The one-pair case of
    :func:`compute_index_array`, evaluated on plain numbers.
    """
    return float(_index(perf.coverage, perf.mean_length, cfg))


def compute_index_array(coverage, mean_length, cfg: IndexConfig):
    """The index of every (coverage, mean length) pair, as a float64 array.

    ``coverage`` and ``mean_length`` broadcast against each other and must
    satisfy :class:`IntervalPerformance`'s domain (coverage in [0, 1],
    length finite and >= 0; NaN is neither).  With ``cfg.rescaled`` the
    values go through :func:`rescale_index`, range check included.
    """
    eta = np.asarray(coverage, dtype=float)
    length = np.asarray(mean_length, dtype=float)
    if not np.all((eta >= 0.0) & (eta <= 1.0)):
        raise DomainError("coverage values must lie in [0, 1]")
    if not np.all(np.isfinite(length) & (length >= 0.0)):
        raise DomainError("mean_length values must be finite and >= 0")
    return _index(eta, length, cfg)


def _index(eta, length, cfg: IndexConfig):
    # on checked numbers or arrays alike: the same IEEE operations
    dev = 1.0 - cfg.alpha - eta
    h = abs(dev) if cfg.loss == "absolute" else dev * dev
    value = k_alpha(cfg.alpha) * (1.0 - 0.5 * (1.0 + h) / (1.0 + eta / (1.0 + length)))
    return rescale_index(value, cfg) if cfg.rescaled else value


def index_range(cfg: IndexConfig) -> tuple[float, float]:
    """Nominal (lower, upper) endpoints of the index for ``cfg.loss``.

    The lower end is the infimum over all coverages and lengths:
    ``k_alpha * min(alpha, 1 - alpha) / 2`` under absolute loss, and
    ``alpha (2 - alpha)^2 / (3 - 2 alpha)`` (for alpha <= 0.5) or
    ``k_alpha * (1 - alpha^2) / 2`` (above) under squared loss.  For
    alpha <= 0.5 it is attained at zero coverage; above 0.5 it is only
    approached, at full coverage as the length grows without bound.  The
    upper end 1 is the value at zero length and nominal coverage, and the
    supremum under absolute loss; under squared loss values slightly
    above 1 are possible near zero length with coverage above nominal
    (see :func:`rescale_index`).
    """
    k = k_alpha(cfg.alpha)
    if cfg.loss == "absolute":
        lo = k * min(cfg.alpha, 1.0 - cfg.alpha) / 2.0
    elif cfg.alpha <= 0.5:
        lo = cfg.alpha * (2.0 - cfg.alpha) ** 2 / (3.0 - 2.0 * cfg.alpha)
    else:
        lo = k * (1.0 - cfg.alpha * cfg.alpha) / 2.0
    return (lo, 1.0)


def _squared_sup(alpha: float) -> float:
    # supremum of the squared-loss index, reached at length 0: below
    # alpha = 2 - sqrt(3) at coverage 1, k_alpha * (1 - (1 + alpha^2) / 4);
    # from there on at coverage sqrt(1 + d^2) - 1 with d = 2 - alpha
    if alpha < 2.0 - math.sqrt(3.0):
        return k_alpha(alpha) * (1.0 - (1.0 + alpha * alpha) / 4.0)
    d = 2.0 - alpha
    return k_alpha(alpha) * (1.0 - math.sqrt(1.0 + d * d) + d)


def rescale_index(i_value, cfg: IndexConfig):
    """Affine map sending ``index_range`` onto [0, 1].

    ``f(x) = (x - lo) / (1 - lo)`` with ``lo`` the loss-specific lower
    endpoint, so ``f(lo) = 0`` and ``f(1) = 1`` exactly.  ``i_value`` is
    a float or an array of them, and the result has the same shape.
    Inputs outside the attainable values (1e-9 slack) raise.  Under
    squared loss the attainable supremum exceeds 1 slightly, so rescaled
    values may exceed 1; they are passed through unchanged.
    """
    lo, hi = index_range(cfg)
    slack = 1e-9
    upper = hi if cfg.loss == "absolute" else _squared_sup(cfg.alpha)
    values = np.asarray(i_value, dtype=float)
    inside = (lo - slack <= values) & (values <= upper + slack)
    if not inside.all():
        raise DomainError(
            f"index value {float(values[~inside][0])!r} outside [{lo}, {upper}] beyond slack"
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
