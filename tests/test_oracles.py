"""Table-only pins of the Monte-Carlo-free references in ``oracles.py``, and
the study engine checked against them without the paper."""

import math

import pytest

from ciindex import IndexConfig, SimulationPlan, normal_model, run_mean_study
from oracles import NORMAL_ORACLE_N, _normal_theory_law, _normal_theory_oracle

# E[mean index] of normal_theory on normal data, N = NORMAL_ORACLE_N, alpha = 0.05
NORMAL_THEORY_INDEX = {10: 0.85504, 20: 0.89026, 50: 0.92372, 500: 0.97083, 1000: 0.97837}


def test_normal_theory_oracle_pins_the_expected_index():
    cfg = IndexConfig(alpha=0.05)
    assert NORMAL_ORACLE_N == 1000
    for n, want in NORMAL_THEORY_INDEX.items():
        got, _bound = _normal_theory_oracle(n, NORMAL_ORACLE_N, cfg)
        assert abs(got - want) <= 1e-4, (n, got)


@pytest.mark.parametrize("n", [10, 20, 50])
def test_engine_matches_the_normal_theory_law(n):
    # pooled over R * N samples, normal_theory's coverage lands within 3
    # binomial SE of p and its mean length within 3 SE of E L
    plan = SimulationPlan(model=normal_model(2.0, 1.0), n=n, N=500, B=2, R=20, alpha=0.05,
                          estimators=("normal_theory",), master_seed=20260815)
    results = run_mean_study(plan)
    p, mean_length, length_var = _normal_theory_law(n, plan.alpha)
    samples = plan.R * plan.N
    assert abs(results.coverage.mean() - p) <= 3.0 * math.sqrt(p * (1.0 - p) / samples)
    assert abs(results.mean_length.mean() - mean_length) <= 3.0 * math.sqrt(length_var / samples)
