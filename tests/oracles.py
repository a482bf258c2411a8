"""Monte-Carlo-free references for the mean studies, computed from the laws alone.

Nothing here runs the harness: each reference is a closed form or a sum
over a known distribution, so a simulated table can be checked against
it without a tolerance for its own Monte Carlo error.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from ciindex import IndexConfig, compute_index_array, k_alpha
from ciindex.special import _binomial_pmf

NORMAL_ORACLE_N = 1000


def _normal_theory_law(n: int, alpha: float) -> tuple[float, float, float]:
    """Coverage p and the length's mean E L and variance of one normal_theory interval on N(mu, 1) data.

    The interval covers with p = P(|T_{n-1}| <= z), z = z_{1-alpha/2}, and
    its length 2 z s / sqrt(n) has mean 2 z c4(n) / sqrt(n) and variance
    (2 z / sqrt(n))^2 (1 - c4(n)^2).
    """
    z = float(special.ndtri(1.0 - alpha / 2.0))
    p = 2.0 * float(special.stdtr(n - 1, z)) - 1.0
    c4 = math.sqrt(2.0 / (n - 1)) * math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0))
    return p, 2.0 * z * c4 / math.sqrt(n), (2.0 * z / math.sqrt(n)) ** 2 * (1.0 - c4 * c4)


def _normal_theory_oracle(n: int, N: int, cfg: IndexConfig) -> tuple[float, float]:
    """E[mean index] of normal_theory on N(mu, 1) data, and the length-variance bound.

    One replication's coverage is Binomial(N, p) / N, with p and E L from
    :func:`_normal_theory_law`, so E[index] = sum_k Binom(k; N, p) I(k / N, E L).
    """
    p, mean_length, length_var = _normal_theory_law(n, cfg.alpha)
    index = compute_index_array(np.arange(N + 1) / N, mean_length, cfg)
    var_length = length_var / N
    sd_eta = math.sqrt(p * (1.0 - p) / N)
    bound = k_alpha(cfg.alpha) * (1.5 * sd_eta * math.sqrt(var_length) + var_length)
    return float(_binomial_pmf(N, p) @ index), bound
