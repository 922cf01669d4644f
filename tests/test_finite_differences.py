"""The finite-difference oracle itself, on functions whose gradient is known."""

import numpy as np
import pytest

from finite_differences import finite_difference_gradient


class TestFiniteDifferences:
    def test_linear_function(self):
        g = finite_difference_gradient(lambda v: float(v.sum()), np.array([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(g, 1.0, atol=1e-9)

    def test_quadratic(self):
        g = finite_difference_gradient(lambda v: float(v @ v), np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(AssertionError, match="non-finite evaluation while differencing "
                                                 "coordinate 0"):
            finite_difference_gradient(lambda v: float("nan"), np.array([1.0, 2.0]))
