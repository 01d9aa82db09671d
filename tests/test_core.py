"""Tripartite types and the negation/inversion algebra."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tripsem.core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    invert_vector,
    make_negation_matrix,
    negate_vector,
    split_segments,
)
from tripsem.errors import DegenerateNegationError, DimensionError

LAY211 = SegmentLayout(2, 1, 1)

mus = st.floats(min_value=1e-6, max_value=1.0, exclude_max=False, allow_nan=False)
small_mus = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)
entries = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def vec(values, layout=LAY211):
    return SemanticVector(values, layout)


class TestSegmentLayout:
    def test_slices_partition_the_vector(self):
        lay = SegmentLayout(3, 2, 1)
        assert lay.n == 6
        assert (lay.domain_slice, lay.stable_slice, lay.inverted_slice) == (
            slice(0, 3),
            slice(3, 5),
            slice(5, 6),
        )

    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            SegmentLayout(-1, 1, 1)
        with pytest.raises(ValueError):
            SegmentLayout(0, 0, 0)
        with pytest.raises(ValueError):
            SegmentLayout(1.5, 1, 1)
        # a bool is an int to isinstance, but no count
        for counts, name in [
            ((True, 0, 1), "d_domain"), ((True, False, True), "d_domain"), ((1, 0, True), "d_inverted"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got True$"):
                SegmentLayout(*counts)


class TestSemanticVector:
    def test_length_must_match_layout(self):
        with pytest.raises(DimensionError):
            SemanticVector([1.0, 2.0], LAY211)

    def test_entries_must_be_finite(self):
        with pytest.raises(ValueError):
            SemanticVector([1.0, 2.0, np.nan, 4.0], LAY211)

    def test_values_are_read_only(self):
        v = vec([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            v.values[0] = 9.0

    def test_equality(self):
        assert vec([1.0, 2.0, 3.0, 4.0]) == vec([1.0, 2.0, 3.0, 4.0])
        assert vec([1.0, 2.0, 3.0, 4.0]) != vec([1.0, 2.0, 3.0, 5.0])
        assert vec([1.0, 2.0, 3.0, 4.0]) != SemanticVector(
            [1.0, 2.0, 3.0, 4.0], SegmentLayout(1, 2, 1)
        )

    def test_zeros(self):
        assert SemanticVector.zeros(LAY211) == vec([0.0, 0.0, 0.0, 0.0])


class TestFunctionMatrix:
    def test_must_be_square_of_layout_size(self):
        with pytest.raises(DimensionError):
            FunctionMatrix(np.zeros((3, 3)), LAY211)
        with pytest.raises(DimensionError):
            FunctionMatrix(np.zeros((4, 3)), LAY211)

    def test_identity_and_zeros(self):
        assert np.array_equal(FunctionMatrix(np.eye(4), LAY211).entries, np.eye(4))
        assert not FunctionMatrix.zeros(LAY211).entries.any()

    def test_frobenius_norm(self):
        m = FunctionMatrix(np.full((4, 4), 0.5), LAY211)
        assert m.frobenius_norm() == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "entries, expected",
        [(np.diag([1e200, 1.0, 1.0, 1.0]), 1e200), (np.full((4, 4), 1e-180), 4e-180)],
    )
    def test_frobenius_norm_of_extreme_entries(self, entries, expected):
        m = FunctionMatrix(entries, LAY211)
        assert m.frobenius_norm() == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "value", [vec([1.0, 2.0, 3.0, 4.0]), FunctionMatrix(np.eye(4), LAY211)], ids=["vector", "matrix"]
)
def test_a_value_type_is_unequal_to_another_type(value):
    assert value.__eq__(1.0) is NotImplemented
    assert value != "x" and not value == 1.0


class TestNegationOperator:
    @pytest.mark.parametrize("bad_mu", [0.0, -0.5, 1.0000001, np.nan, np.inf])
    def test_mu_outside_unit_interval_rejected(self, bad_mu):
        with pytest.raises(ValueError):
            NegationOperator(bad_mu, LAY211)

    def test_boundary_mu_one_allowed(self):
        assert NegationOperator(1.0, LAY211).mu == 1.0


class TestLexicalEntry:
    def test_layouts_must_agree(self):
        other = SegmentLayout(1, 2, 1)
        with pytest.raises(DimensionError):
            LexicalEntry(
                "w", vec([1.0, 0.0, 0.0, 0.0]), FunctionMatrix(np.eye(4), other), 1.0
            )

    def test_alpha_must_be_nonnegative_finite(self):
        v, m = vec([1.0, 0.0, 0.0, 0.0]), FunctionMatrix(np.eye(4), LAY211)
        with pytest.raises(ValueError):
            LexicalEntry("w", v, m, -0.1)
        with pytest.raises(ValueError):
            LexicalEntry("w", v, m, np.inf)
        assert LexicalEntry("w", v, m, 0.0).alpha == 0.0

    def test_token_must_be_nonempty(self):
        v, m = vec([1.0, 0.0, 0.0, 0.0]), FunctionMatrix(np.eye(4), LAY211)
        with pytest.raises(ValueError):
            LexicalEntry("", v, m, 1.0)


class TestMakeNegationMatrix:
    def test_half_scale(self):
        m = make_negation_matrix(NegationOperator(0.5, LAY211))
        assert np.array_equal(m.entries, np.diag([1.0, 1.0, 1.0, -0.5]))

    def test_pure_inversion(self):
        m = make_negation_matrix(NegationOperator(1.0, LAY211))
        assert np.array_equal(m.entries, np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_empty_inverted_segment_gives_identity(self):
        m = make_negation_matrix(NegationOperator(0.5, SegmentLayout(2, 2, 0)))
        assert np.array_equal(m.entries, np.eye(4))

    def test_off_diagonal_exactly_zero(self):
        m = make_negation_matrix(NegationOperator(0.3, SegmentLayout(3, 2, 2)))
        off = m.entries[~np.eye(7, dtype=bool)]
        assert not off.any()


class TestNegateVector:
    def test_forced_arithmetic(self):
        out = negate_vector(vec([1.0, 2.0, 3.0, 4.0]), NegationOperator(0.5, LAY211))
        assert out == vec([1.0, 2.0, 3.0, -2.0])

    def test_zero_vector_is_fixed(self):
        z = SemanticVector.zeros(LAY211)
        assert negate_vector(z, NegationOperator(0.5, LAY211)) == z

    def test_twice_at_half(self):
        op = NegationOperator(0.5, LAY211)
        out = negate_vector(negate_vector(vec([1.0, 2.0, 3.0, 4.0]), op), op)
        assert out == vec([1.0, 2.0, 3.0, 1.0])

    def test_layout_mismatch(self):
        with pytest.raises(DimensionError):
            negate_vector(vec([1.0, 2.0, 3.0, 4.0]), NegationOperator(0.5, SegmentLayout(1, 2, 1)))

    def test_no_inverted_segment_is_degenerate(self):
        lay = SegmentLayout(2, 2, 0)
        with pytest.raises(DegenerateNegationError):
            negate_vector(SemanticVector.zeros(lay), NegationOperator(0.5, lay))

    @given(st.lists(entries, min_size=4, max_size=4), mus)
    def test_agrees_with_matrix_route(self, values, mu):
        op = NegationOperator(mu, LAY211)
        direct = negate_vector(vec(values), op).values
        via_matrix = make_negation_matrix(op).entries @ np.array(values)
        np.testing.assert_allclose(direct, via_matrix, rtol=1e-12, atol=0.0)

    @given(st.lists(entries, min_size=4, max_size=4), mus)
    def test_domain_and_stable_bits_unchanged(self, values, mu):
        out = negate_vector(vec(values), NegationOperator(mu, LAY211))
        assert np.array_equal(out.values[:3], np.array(values, dtype=float)[:3])

    @given(st.lists(entries, min_size=4, max_size=4), small_mus, small_mus)
    @example([0.0, 0.0, 0.0, 2.225073858507e-311], 0.125, 0.5)
    @example([0.0, 0.0, 0.0, 5e-324], 0.9, 0.9)
    @example([0.0, 0.0, 0.0, -5e-324], 1e-6, 0.5)
    def test_double_negation_is_diminutive(self, values, mu, nu):
        """The contract of ``check_double_negation``: a strict shrink with the
        sign kept where mu * nu * |x| is a normal double; below that, where
        the two roundings land on the subnormal grid, no growth and the sign
        kept or lost to zero."""
        v = vec(values)
        lay = v.layout
        twice = negate_vector(
            negate_vector(v, NegationOperator(mu, lay)), NegationOperator(nu, lay)
        )
        x = v.values[lay.inverted_slice]
        y = twice.values[lay.inverted_slice]
        # two roundings on the subnormal grid are off by at most one unit
        subnormal_unit = np.finfo(float).smallest_subnormal
        np.testing.assert_allclose(y, mu * nu * x, rtol=1e-12, atol=subnormal_unit)
        nonzero = x != 0.0
        normal = nonzero & (mu * nu * np.abs(x) >= np.finfo(float).tiny)
        assert np.all(np.abs(y[normal]) < np.abs(x[normal]))
        assert np.all(np.sign(y[normal]) == np.sign(x[normal]))
        assert np.all(np.abs(y) <= np.abs(x))
        assert np.all((np.sign(y) == np.sign(x)) | (y == 0.0))


class TestInvertVector:
    def test_flips_inverted_segment(self):
        assert invert_vector(vec([1.0, 2.0, 3.0, 4.0]), LAY211) == vec([1.0, 2.0, 3.0, -4.0])

    def test_zero_inverted_segment_is_fixed_point(self):
        v = vec([5.0, 5.0, 0.0, 0.0])
        assert invert_vector(v, LAY211) == v

    @given(st.lists(entries, min_size=4, max_size=4))
    def test_involution(self, values):
        v = vec(values)
        assert invert_vector(invert_vector(v, LAY211), LAY211) == v


class TestSplitSegments:
    def test_direct_slicing(self):
        d, s, i = split_segments(vec([1.0, 2.0, 3.0, 4.0]))
        assert (d.tolist(), s.tolist(), i.tolist()) == ([1.0, 2.0], [3.0], [4.0])

    def test_degenerate_layout(self):
        d, s, i = split_segments(SemanticVector([7.0], SegmentLayout(1, 0, 0)))
        assert (d.tolist(), s.tolist(), i.tolist()) == ([7.0], [], [])

    def test_concat_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            counts = [int(k) for k in rng.integers(0, 4, size=3)]
            if sum(counts) < 1:
                continue
            lay = SegmentLayout(*counts)
            v = SemanticVector(rng.standard_normal(lay.n), lay)
            parts = split_segments(v)
            assert np.array_equal(np.concatenate(parts), v.values)
