"""Every name a module lists in ``__all__`` resolves.

A stale entry is not caught by importing the module: it breaks only
``from ciindex.x import *``, and removing a public name leaves one behind
unless its list is edited too.
"""

import importlib
import pkgutil

import pytest

import ciindex

MODULES = ["ciindex"] + sorted(f"ciindex.{m.name}" for m in pkgutil.iter_modules(ciindex.__path__))


def test_every_module_is_listed():
    # a new module joins the check below without editing it
    assert {"ciindex.calibration", "ciindex.mean_intervals", "ciindex.sampling"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # noqa: S102 - the import under test
    assert set(exported) <= set(namespace)


# the root's public set: the 44 names it listed by hand before it
# re-exported each module's __all__, plus mean_intervals' two
# *_from_boot_means forms, which that re-export added
ROOT_NAMES = {
    "BinomialObservation", "CalibrationResult", "CalibrationStudy", "CiindexError", "ConfidenceInterval",
    "ConfigError", "DESK_SCALE", "DataModel", "DomainError", "IndexConfig", "IndexSummary",
    "InsufficientDataError", "IntervalPerformance", "MEAN_ESTIMATORS", "PAPER_SCALE", "PROPORTION_ESTIMATORS",
    "SeedSpec", "SimulationPlan", "StudyResults", "__version__", "bca_interval", "binomial_model",
    "bootstrap_percentile_interval", "calibrate_level", "calibrated_interval", "compute_index",
    "compute_index_array", "draw_sample", "exact_performance", "index_range", "johnson_t_interval", "k_alpha",
    "limit_case", "lognormal_model", "lognormal_skewness", "normal_model", "normal_theory_interval",
    "proportion_interval", "rescale_index", "run_calibration_study", "run_mean_study", "run_proportion_study",
    "summarize_index", "true_parameter",
} | {"bca_from_boot_means", "percentile_from_boot_means"}


def test_root_public_set_is_pinned():
    assert len(ROOT_NAMES) == 46
    assert set(ciindex.__all__) == ROOT_NAMES


def test_module_all_lists_are_disjoint():
    # so the root's concatenation of them lists no name twice
    seen: dict[str, str] = {}
    for name in MODULES[1:]:
        for entry in getattr(importlib.import_module(name), "__all__", []):
            assert entry not in seen, f"{entry} is in both {seen[entry]} and {name}"
            seen[entry] = name
