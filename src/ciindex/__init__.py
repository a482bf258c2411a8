"""ciindex: a single-number index for comparing confidence-interval estimators.

The index trades empirical coverage against mean interval length, so a
catalog of interval estimators can be ranked on one scale.  The package
bundles the index itself, four mean-interval and eleven
binomial-proportion estimators, single-level bootstrap calibration, an
exact binomial performance oracle, and a seeded, reproducible Monte Carlo
harness with a CSV-reporting command line front end (``ciindex``).
"""

from .calibration import CalibrationResult, calibrate_level
from .errors import CiindexError, ConfigError, DomainError, InsufficientDataError
from .harness import (
    DESK_SCALE,
    PAPER_SCALE,
    CalibrationStudy,
    IndexSummary,
    SimulationPlan,
    StudyResults,
    calibrated_interval,
    run_calibration_study,
    run_mean_study,
    run_proportion_study,
    summarize_index,
)
from .index import (
    IndexConfig,
    IntervalPerformance,
    compute_index,
    compute_index_array,
    index_range,
    k_alpha,
    limit_case,
    rescale_index,
)
from .mean_intervals import (
    MEAN_ESTIMATORS,
    ConfidenceInterval,
    bca_interval,
    bootstrap_percentile_interval,
    johnson_t_interval,
    normal_theory_interval,
)
from .proportion_intervals import (
    PROPORTION_ESTIMATORS,
    BinomialObservation,
    exact_performance,
    proportion_interval,
)
from .sampling import (
    DataModel,
    SeedSpec,
    binomial_model,
    draw_sample,
    lognormal_model,
    lognormal_skewness,
    normal_model,
    true_parameter,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialObservation",
    "CalibrationStudy",
    "CalibrationResult",
    "CiindexError",
    "ConfidenceInterval",
    "ConfigError",
    "DESK_SCALE",
    "DataModel",
    "DomainError",
    "IndexConfig",
    "IndexSummary",
    "InsufficientDataError",
    "IntervalPerformance",
    "MEAN_ESTIMATORS",
    "PAPER_SCALE",
    "PROPORTION_ESTIMATORS",
    "SeedSpec",
    "SimulationPlan",
    "StudyResults",
    "__version__",
    "bca_interval",
    "binomial_model",
    "bootstrap_percentile_interval",
    "calibrate_level",
    "calibrated_interval",
    "compute_index",
    "compute_index_array",
    "draw_sample",
    "exact_performance",
    "index_range",
    "johnson_t_interval",
    "k_alpha",
    "limit_case",
    "lognormal_model",
    "lognormal_skewness",
    "normal_model",
    "normal_theory_interval",
    "proportion_interval",
    "rescale_index",
    "run_calibration_study",
    "run_mean_study",
    "run_proportion_study",
    "summarize_index",
    "true_parameter",
]
