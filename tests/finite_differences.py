"""The finite-difference oracle the analytic gradients are checked against.

A non-finite evaluation fails the calling test with an ``AssertionError`` that
names the coordinate; it is raised, not asserted, so it also holds under ``-O``.
"""

from collections.abc import Callable

import numpy as np

FD_STEP = 1e-5


def finite_difference_gradient(f: Callable[[np.ndarray], float], x) -> np.ndarray:
    """Central-difference gradient estimate, step ``FD_STEP``, of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = FD_STEP
        fp = float(f(x + step))
        fm = float(f(x - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise AssertionError(f"non-finite evaluation while differencing coordinate {i}")
        g[i] = (fp - fm) / (2.0 * FD_STEP)
    return g
