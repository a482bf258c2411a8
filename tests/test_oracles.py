"""Table-only pins of the Monte-Carlo-free references in ``oracles.py``."""

from ciindex import IndexConfig
from oracles import NORMAL_ORACLE_N, _normal_theory_oracle

# E[mean index] of normal_theory on normal data, N = NORMAL_ORACLE_N, alpha = 0.05
NORMAL_THEORY_INDEX = {10: 0.85504, 20: 0.89026, 50: 0.92372, 500: 0.97083, 1000: 0.97837}


def test_normal_theory_oracle_pins_the_expected_index():
    cfg = IndexConfig(alpha=0.05)
    assert NORMAL_ORACLE_N == 1000
    for n, want in NORMAL_THEORY_INDEX.items():
        got, _bound = _normal_theory_oracle(n, NORMAL_ORACLE_N, cfg)
        assert abs(got - want) <= 1e-4, (n, got)
