"""ciindex: a single-number index for comparing confidence-interval estimators.

The index trades empirical coverage against mean interval length, so a
catalog of interval estimators can be ranked on one scale.  The package
bundles the index itself, four mean-interval and eleven
binomial-proportion estimators, single-level bootstrap calibration, an
exact binomial performance oracle, and a seeded, reproducible Monte Carlo
harness with a CSV-reporting command line front end (``ciindex``).

The root re-exports each module's ``__all__``; a public name is listed
once, in its own module.  ``ciindex.cli`` is not re-exported.
"""

from . import calibration, errors, harness, index, mean_intervals, proportion_intervals, sampling
from .calibration import *  # noqa: F403
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .index import *  # noqa: F403
from .mean_intervals import *  # noqa: F403
from .proportion_intervals import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *calibration.__all__,
    *errors.__all__,
    *harness.__all__,
    *index.__all__,
    *mean_intervals.__all__,
    *proportion_intervals.__all__,
    *sampling.__all__,
    "__version__",
]
