"""One sample's bootstrap resample means, drawn with plain numpy.

An independent reference for the package's one resample path: the
stream's single ``integers(0, n, size=(B, n))`` index draw, gathered and
averaged by ``mean(axis=1)``, as the benchmark's replay draws it.
"""

import numpy as np


def boot_means(values, B: int, seed) -> np.ndarray:
    """The B resample means of ``values`` on ``seed``'s stream."""
    values = np.asarray(values, dtype=float)
    idx = seed.generator().integers(0, values.size, size=(B, values.size))
    return values[idx].mean(axis=1)
