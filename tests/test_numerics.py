"""Dense kernel: cosine and least squares against naive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsem import numerics
from tripsem.errors import DimensionError, UndefinedSimilarityError
from tripsem.numerics import cosine, least_squares

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_module_exports_cosine_and_least_squares_only():
    assert numerics.__all__ == ["cosine", "least_squares"]


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


class TestLeastSquares:
    def test_square_exact(self):
        x, res = least_squares([[2.0, 0.0], [0.0, 3.0]], [4.0, 9.0])
        np.testing.assert_allclose(x, [2.0, 3.0], rtol=1e-14)
        assert res == pytest.approx(0.0, abs=1e-13)

    def test_identity_design_returns_targets(self):
        t = [0.25, -3.0, 7.5]
        x, res = least_squares(np.eye(3), t)
        np.testing.assert_allclose(x, t, rtol=1e-14)
        assert res <= 1e-9 * (1.0 + np.linalg.norm(t))

    def test_residual_never_beats_zero_solution(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.standard_normal((12, 3))
            b = rng.standard_normal(12)
            _, res = least_squares(a, b)
            assert res <= float(np.linalg.norm(b)) + 1e-12

    def test_overdetermined_inconsistent(self):
        # rows x = 0 and x = 2: best compromise x = 1, residual sqrt(2)
        x, res = least_squares([[1.0], [1.0]], [0.0, 2.0])
        assert x[0] == pytest.approx(1.0)
        assert res == pytest.approx(np.sqrt(2.0))

    def test_rank_deficient_returns_min_norm(self):
        # x1 + x2 = 2 has a line of solutions; the min-norm one is (1, 1)
        x, res = least_squares([[1.0, 1.0]], [2.0])
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-12)
        assert res == pytest.approx(0.0, abs=1e-13)

    def test_matches_normal_equations_oracle(self):
        """Cross-check against an independent closed-form solve."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            rows = int(rng.integers(5, 30))
            cols = int(rng.integers(1, 5))
            a = rng.standard_normal((rows, cols))
            b = rng.standard_normal(rows)
            x, res = least_squares(a, b)
            x_ne = np.linalg.solve(a.T @ a, a.T @ b)
            np.testing.assert_allclose(x, x_ne, rtol=1e-8, atol=1e-10)
            assert res == pytest.approx(float(np.linalg.norm(a @ x_ne - b)), rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            least_squares(np.eye(2), [1.0, 2.0, 3.0])

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(DimensionError):
            least_squares(np.ones(3), [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            least_squares(np.ones((2, 2, 1)), [1.0, 2.0])
        # a NaN or inf entry is rejected before it reaches the solver
        with pytest.raises(ValueError, match="design entries must be finite"):
            least_squares([[np.nan]], [1.0])
        with pytest.raises(ValueError, match="design entries must be finite"):
            least_squares([[np.inf, 0.0]], [1.0])
