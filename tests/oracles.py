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


def _normal_theory_oracle(n: int, N: int, cfg: IndexConfig) -> tuple[float, float]:
    """E[mean index] of normal_theory on N(mu, 1) data, and the length-variance bound.

    A sample's interval covers with p = P(|T_{n-1}| <= z) and has expected
    length 2 z sigma c4(n) / sqrt(n); one replication's coverage is
    Binomial(N, p) / N, so E[index] = sum_k Binom(k; N, p) I(k / N, E L).
    """
    z = float(special.ndtri(1.0 - cfg.alpha / 2.0))
    p = 2.0 * float(special.stdtr(n - 1, z)) - 1.0
    c4 = math.sqrt(2.0 / (n - 1)) * math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0))
    mean_length = 2.0 * z * c4 / math.sqrt(n)
    index = compute_index_array(np.arange(N + 1) / N, mean_length, cfg)
    var_length = (2.0 * z / math.sqrt(n)) ** 2 * (1.0 - c4 * c4) / N
    sd_eta = math.sqrt(p * (1.0 - p) / N)
    bound = k_alpha(cfg.alpha) * (1.5 * sd_eta * math.sqrt(var_length) + var_length)
    return float(_binomial_pmf(N, p) @ index), bound
