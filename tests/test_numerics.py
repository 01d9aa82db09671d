"""Dense kernel: cosine against naive oracles and extreme magnitudes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsem import numerics
from tripsem.errors import DimensionError, UndefinedSimilarityError
from tripsem.numerics import cosine

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_module_exports_cosine_and_least_squares_only():
    # the name is kept so the test id stays stable; least_squares is gone
    assert numerics.__all__ == ["cosine"]


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_identical_is_exactly_one(self):
        v = [0.3, -0.7, 0.001]
        assert cosine(v, v) == 1.0

    def test_opposite_is_exactly_minus_one(self):
        v = np.array([0.3, -0.7, 0.001])
        assert cosine(v, -v) == -1.0

    def test_halfway(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))

    def test_zero_vectors_are_undefined(self):
        with pytest.raises(UndefinedSimilarityError):
            cosine([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(UndefinedSimilarityError):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(UndefinedSimilarityError):
            cosine([1.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize(
        "u, v, expected",
        [
            ([1e200, 1e200], [1e200, -1e199], 0.9 / math.sqrt(2 * 1.01)),
            ([1e-200, 1e-200], [1e-200, -1e-201], 0.9 / math.sqrt(2 * 1.01)),
            ([5e-324, 0.0], [5e-324, 5e-324], 1 / math.sqrt(2)),
        ],
    )
    def test_extreme_magnitudes_give_the_rescaled_cosine(self, u, v, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cosine(u, v) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "u, error, message",
        [
            ([[1.0, 0.0]], DimensionError, r"^expected a 1-D vector, got shape \(1, 2\)$"),
            ([1.0, math.inf], ValueError, "^vector entries must be finite$"),
            ([1.0, math.nan], ValueError, "^vector entries must be finite$"),
        ],
    )
    def test_input_other_than_a_finite_vector_rejected(self, u, error, message):
        with pytest.raises(error, match=message):
            cosine(u, [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine([1.0], [1.0, 2.0])

    @given(
        st.lists(finite_floats, min_size=2, max_size=8),
        st.lists(finite_floats, min_size=2, max_size=8),
    )
    def test_stays_in_unit_interval(self, xs, ys):
        size = min(len(xs), len(ys))
        u, v = np.array(xs[:size]), np.array(ys[:size])
        # norm, not any(): tiny subnormal entries can underflow to norm 0
        if np.linalg.norm(u) == 0.0 or np.linalg.norm(v) == 0.0:
            return
        assert -1.0 <= cosine(u, v) <= 1.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant_in_positive_scalars(self, c):
        u = np.array([0.3, -1.2, 0.5])
        v = np.array([1.0, 0.2, -0.4])
        assert cosine(c * u, v) == pytest.approx(cosine(u, v), abs=1e-12)
