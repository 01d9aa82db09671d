"""Negation constraint fits, double-negation/scope reports, similarities."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsem.analysis import (
    SampleSet,
    check_double_negation,
    default_demo_samples,
    domain_similarity,
    fit_negation_baseline,
    fit_negation_improved,
    scope_invariance_report,
    value_similarity,
)
from tripsem.composition import CompositionConfig
from tripsem.core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    invert_vector,
    make_negation_matrix,
    negate_vector,
)
from tripsem.errors import (
    DegenerateNegationError,
    DimensionError,
    UndefinedSimilarityError,
)
from tripsem.lexicon import init_random, set_function_word
from tripsem.numerics import scaled_norm
from tripsem.treeio import parse_bracketed

LAY211 = SegmentLayout(2, 1, 1)
SENTENCE = "(S (NP (Det this) (N car)) (VP (VBZ is) (RB not) (ADJP (JJ blue))))"


def spanning_samples(layout=LAY211, count=10, seed=0):
    """Random entries dense enough to pin the constraint solution."""
    rng = np.random.default_rng(seed)
    n = layout.n
    entries = []
    for i in range(count):
        entries.append(
            LexicalEntry(
                f"s{i}",
                SemanticVector(rng.uniform(-1.0, 1.0, n), layout),
                FunctionMatrix(np.eye(n) + 0.2 * rng.standard_normal((n, n)), layout),
                1.0,
            )
        )
    return SampleSet(tuple(entries))


def op211(mu):
    return NegationOperator(mu, LAY211)


class TestSampleSet:
    def test_entry_assumptions_enforced(self):
        good = spanning_samples().entries[0]
        zero_v = LexicalEntry("z", SemanticVector.zeros(LAY211), good.M, 1.0)
        with pytest.raises(ValueError):
            SampleSet((zero_v,))
        zero_m = LexicalEntry("z", good.v, FunctionMatrix.zeros(LAY211), 1.0)
        with pytest.raises(ValueError):
            SampleSet((zero_m,))
        identity_m = LexicalEntry("z", good.v, FunctionMatrix(np.eye(4), LAY211), 1.0)
        with pytest.raises(ValueError):
            SampleSet((identity_m,))
        with pytest.raises(ValueError):
            SampleSet(())

    def test_mixed_layouts_rejected(self):
        a = spanning_samples().entries[0]
        other = SegmentLayout(1, 2, 1)
        b = LexicalEntry(
            "b",
            SemanticVector([1.0, 2.0, 3.0, 4.0], other),
            FunctionMatrix(np.eye(4) + 0.5, other),
            1.0,
        )
        with pytest.raises(DimensionError):
            SampleSet((a, b))

    def test_from_lexicon_skips_function_words(self):
        lex = init_random(["blue", "red", "car"], LAY211, seed=2, noise=0.2)
        lex = set_function_word(lex, "not")
        lex = lex.with_entry(LexicalEntry(
            "and", SemanticVector.zeros(LAY211), FunctionMatrix(np.eye(4), LAY211), 1.0))
        samples = SampleSet.from_lexicon(lex)
        tokens = {e.token for e in samples.entries}
        assert tokens == {"blue", "red", "car"}

    def test_from_lexicon_needs_content_words(self):
        lex = init_random(["x"], LAY211, seed=0, noise=0.0)  # M = I exactly
        with pytest.raises(ValueError):
            SampleSet.from_lexicon(lex)

    def test_stacked_screen_matches_the_rule_word_by_word(self):
        lex = init_random(["p", "q", "r", "s"], LAY211, seed=5, noise=0.2)
        zero_v, zero_m = SemanticVector.zeros(LAY211), FunctionMatrix.zeros(LAY211)
        for entry in (
            replace(lex["p"], token="zero_v", v=zero_v),
            replace(lex["p"], token="zero_m", M=zero_m),
            replace(lex["p"], token="zero_both", v=zero_v, M=zero_m),
            replace(lex["q"], token="identity", M=FunctionMatrix(np.eye(4), LAY211)),
        ):
            lex = lex.with_entry(entry)
        lex = set_function_word(lex, "not").with_entry(LexicalEntry(
            "and", SemanticVector.zeros(LAY211), FunctionMatrix(np.eye(4), LAY211), 1.0))
        entries = list(lex)
        assert [e.token for e in SampleSet.from_lexicon(lex).entries] == [
            e.token for e in entries if not per_entry_fault(e)
        ]
        for k in range(len(entries)):  # every rotation: a different word comes first
            order = entries[k:] + entries[:k]
            first = next((e for e in order if per_entry_fault(e)), None)
            if first is None:
                SampleSet(tuple(order))
                continue
            with pytest.raises(ValueError) as err:
                SampleSet(tuple(order))
            assert str(err.value) == f"sample {first.token!r} has {per_entry_fault(first)}"

    def test_arrays_are_the_entries_stacked_and_read_only(self):
        samples = spanning_samples(count=4)
        assert samples.v.shape == (4, LAY211.n) and samples.m.shape == (4, LAY211.n, LAY211.n)
        for row, entry in enumerate(samples.entries):
            assert samples.v[row].tobytes() == entry.v.values.tobytes()
            assert samples.m[row].tobytes() == entry.M.entries.tobytes()
        for stacked in (samples.v, samples.m):
            with pytest.raises(ValueError):
                stacked[0] = 0.0


def per_entry_fault(entry):
    """The sample assumptions checked one entry at a time."""
    if not np.any(entry.v.values):
        return "a zero vector"
    if not np.any(entry.M.entries):
        return "a zero function matrix"
    if np.array_equal(entry.M.entries, np.eye(entry.layout.n)):
        return "the identity as function matrix"
    return ""


class TestDefaultDemoSamples:
    def test_shape_and_determinism(self):
        s1 = default_demo_samples()
        s2 = default_demo_samples()
        assert len(s1) == 50
        assert s1.layout == SegmentLayout(4, 2, 2)
        for a, b in zip(s1.entries, s2.entries):
            assert np.array_equal(a.v.values, b.v.values)
            assert np.array_equal(a.M.entries, b.M.entries)
            assert a.alpha == 1.0

    def test_zero_noise_is_rejected_not_redrawn_forever(self):
        with pytest.raises(ValueError, match="^sample 'w00' has the identity as function matrix$"):
            default_demo_samples(noise=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"noise": -0.1}, "^noise must be finite and >= 0"),
            ({"count": 0}, "^tokens must be nonempty$"),
        ],
    )
    def test_negative_noise_and_zero_count_are_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            default_demo_samples(**kwargs)


def naive_joint_system(samples, mu, nu):
    """Independent row construction with explicit index loops."""
    n = samples.layout.n
    cut = samples.layout.d_domain + samples.layout.d_stable
    diag_mu = np.array([1.0] * cut + [-mu] * (n - cut))
    diag_nu = np.array([1.0] * cut + [-nu] * (n - cut))
    rows, rhs = [], []
    for e in samples.entries:
        v, m = e.v.values, e.M.entries
        once = diag_mu * v
        for w, target in ((v, once), (once, diag_nu * once)):
            for i in range(n):
                row = np.zeros(n * n + n)
                for j in range(n):
                    row[i * n + j] = w[j]
                for k in range(n):
                    row[n * n + k] = m[i, k]
                rows.append(row)
                rhs.append(target[i])
    for _ in samples.entries:
        for scale in (1.0, 2.0):
            for i in range(n):
                for j in range(n):
                    row = np.zeros(n * n + n)
                    row[i * n + j] = scale
                    rows.append(row)
                    rhs.append(0.0)
    return np.array(rows), np.array(rhs)


class TestBaselineFit:
    def test_joint_residual_matches_independent_normal_equations(self):
        samples = spanning_samples()
        fit = fit_negation_baseline(samples, op211(0.5), op211(0.5))
        design, rhs = naive_joint_system(samples, 0.5, 0.5)
        x = np.linalg.solve(design.T @ design, design.T @ rhs)
        oracle = float(np.linalg.norm(design @ x - rhs))
        assert fit.residual_total == pytest.approx(oracle, rel=1e-9)

    def test_joint_fit_is_contradictory(self):
        fit = fit_negation_baseline(spanning_samples(), op211(0.5), op211(0.5))
        assert fit.residual_total > 0.1
        assert fit.residual_value > 0.0 and fit.residual_function > 0.0

    def test_residuals_combine_in_quadrature(self):
        fit = fit_negation_baseline(spanning_samples(), op211(0.5), op211(0.5))
        assert fit.residual_total**2 == pytest.approx(
            fit.residual_value**2 + fit.residual_function**2, rel=1e-9
        )

    def test_value_only_recovers_the_negation_operator(self):
        samples = spanning_samples()
        j_mu = make_negation_matrix(op211(0.5)).entries
        fit = fit_negation_baseline(samples, op211(0.5), op211(0.5), constraints="value")
        assert np.linalg.norm(fit.M_not_hat.entries - j_mu) <= 1e-9
        assert np.linalg.norm(fit.v_not_hat.values) <= 1e-9
        assert fit.residual_value <= 1e-9
        assert fit.residual_function == 0.0  # no function rows present

    def test_value_system_has_full_column_rank(self):
        """The spanning set really does pin (M_not, v_not) uniquely."""
        samples = spanning_samples()
        design, _ = naive_joint_system(samples, 0.5, 0.5)
        value_rows = 2 * samples.layout.n * len(samples)
        assert (
            np.linalg.matrix_rank(design[:value_rows])
            == samples.layout.n**2 + samples.layout.n
        )

    def test_function_only_recovers_zero(self):
        fit = fit_negation_baseline(
            spanning_samples(), op211(0.5), op211(0.5), constraints="function"
        )
        assert np.linalg.norm(fit.M_not_hat.entries) <= 1e-9
        assert fit.residual_function <= 1e-9

    def test_alpha_absent_for_baseline(self):
        fit = fit_negation_baseline(spanning_samples(), op211(0.5), op211(0.5))
        assert fit.alpha_not_hat is None

    def test_operator_layout_must_match_samples(self):
        other = NegationOperator(0.5, SegmentLayout(4, 2, 2))
        with pytest.raises(DimensionError):
            fit_negation_baseline(spanning_samples(), other, other)

    def test_unknown_constraint_family(self):
        with pytest.raises(ValueError):
            fit_negation_baseline(
                spanning_samples(), op211(0.5), op211(0.5), constraints="half"
            )


class TestLayoutWithoutInvertedSegment:
    """At 2,1,0 negation has nothing to flip: the fits that negate raise
    DegenerateNegationError, as every other negation does; the
    function-only fit negates nothing and is unaffected."""

    LAY210 = SegmentLayout(2, 1, 0)

    def fit_args(self):
        op = NegationOperator(0.5, self.LAY210)
        return spanning_samples(self.LAY210, count=6), op, op

    @pytest.mark.parametrize("constraints", ["both", "value"])
    def test_negating_fits_raise(self, constraints):
        with pytest.raises(DegenerateNegationError):
            fit_negation_baseline(*self.fit_args(), constraints=constraints)
        with pytest.raises(DegenerateNegationError):
            fit_negation_improved(*self.fit_args())

    def test_function_only_fit_is_unaffected(self):
        fit = fit_negation_baseline(*self.fit_args(), constraints="function")
        assert fit.solver == "closed-form"
        assert not fit.M_not_hat.entries.any() and fit.residual_total == 0.0


class TestOverflowingSamples:
    """Six 1,1,1 samples at about 1e308: the solve itself overflows."""

    @pytest.mark.parametrize("fit, name", [
        (lambda s, op: fit_negation_baseline(s, op, op), "both"),
        (lambda s, op: fit_negation_baseline(s, op, op, constraints="value"), "value"),
        (lambda s, op: fit_negation_improved(s, op, op), "value"),
    ], ids=["baseline-both", "baseline-value", "improved"])
    def test_fit_raises_one_value_error_and_no_warning(self, fit, name):
        layout = SegmentLayout(1, 1, 1)
        samples = SampleSet(tuple(
            replace(entry, v=SemanticVector(1e308 * entry.v.values, layout))
            for entry in spanning_samples(layout, count=6).entries
        ))
        op = NegationOperator(0.5, layout)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                fit(samples, op)
        assert str(info.value) == f"the {name!r} fit overflows: sample values too large"



def scale_vectors(samples, factor):
    return SampleSet(tuple(
        replace(entry, v=SemanticVector(factor * entry.v.values, entry.layout))
        for entry in samples.entries
    ))


class TestHugeSamples:
    """The solve never squares the samples, so fits answer far beyond
    where their squares overflow, and anything not finite is refused."""

    def test_value_fit_at_1e156_matches_the_unit_scale_fit(self):
        samples = default_demo_samples(50)
        op = NegationOperator(0.5, samples.layout)
        unit = fit_negation_baseline(samples, op, op, constraints="value")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = fit_negation_baseline(scale_vectors(samples, 1e156), op, op, constraints="value")
        assert np.max(np.abs(huge.M_not_hat.entries - unit.M_not_hat.entries)) <= 1e-12
        assert np.max(np.abs(huge.v_not_hat.values / 1e156 - unit.v_not_hat.values)) <= 1e-12

    def test_value_fit_at_1e169_matches_the_unit_scale_fit(self):
        # the residual entries near 1e153 would square past the largest double
        samples = default_demo_samples(50)
        op = NegationOperator(0.5, samples.layout)
        unit = fit_negation_baseline(samples, op, op, constraints="value")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = fit_negation_baseline(scale_vectors(samples, 1e169), op, op, constraints="value")
        assert np.max(np.abs(huge.M_not_hat.entries - unit.M_not_hat.entries)) <= 1e-12
        assert np.max(np.abs(huge.v_not_hat.values / 1e169 - unit.v_not_hat.values)) <= 1e-12
        assert 0.0 < huge.residual_value < 1e-12 * 1e169

    def test_a_system_that_is_not_finite_is_refused_not_cut_to_rank_zero(self):
        # |M_a| overflows, so no cut can be measured against it
        samples = SampleSet(tuple(
            replace(entry, M=FunctionMatrix(1e160 * entry.M.entries, entry.layout))
            for entry in default_demo_samples(50).entries
        ))
        op = NegationOperator(0.5, samples.layout)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the 'value' fit overflows"):
                fit_negation_baseline(samples, op, op, constraints="value")

EQUIVALENCE_LAYOUTS = (SegmentLayout(2, 1, 1), SegmentLayout(4, 2, 2), SegmentLayout(6, 3, 3))


def uniqueness_threshold(layout):
    """Fewest samples that pin (M_not, v_not) down from the value rows."""
    return layout.n - layout.d_inverted + 1


def explicit_fit(samples, mu, nu, constraints):
    """The SVD of the explicit rows of ``naive_joint_system``, cut at the
    package's 1e-10 relative tolerance.

    Returns (solution, residual_value, residual_function, residual_total).
    """
    design, rhs = naive_joint_system(samples, mu, nu)
    n_value = 2 * samples.layout.n * len(samples)
    keep = {
        "both": slice(None),
        "value": slice(0, n_value),
        "function": slice(n_value, None),
    }[constraints]
    x = np.linalg.lstsq(design[keep], rhs[keep], rcond=1e-10)[0]
    # One refinement step: at the uniqueness threshold the design's condition
    # number can pass 1e5, where the SVD's own forward error exceeds 1e-9.
    x += np.linalg.lstsq(design[keep], rhs[keep] - design[keep] @ x, rcond=1e-10)[0]
    residual = design @ x - rhs
    res_value = np.linalg.norm(residual[:n_value]) if constraints != "function" else 0.0
    res_function = np.linalg.norm(residual[n_value:]) if constraints != "value" else 0.0
    return x, res_value, res_function, math.hypot(res_value, res_function)


def fit_problem(count_range):
    """Strategy for (samples, mu, nu, constraints) at a count drawn from
    ``count_range(threshold)``; nu equals mu half of the time."""

    @st.composite
    def problem(draw):
        layout = draw(st.sampled_from(EQUIVALENCE_LAYOUTS))
        low, high = count_range(uniqueness_threshold(layout))
        count = draw(st.integers(low, high))
        samples = spanning_samples(layout, count, draw(st.integers(0, 2**32 - 1)))
        mu = draw(st.floats(0.05, 1.0))
        nu = draw(st.one_of(st.just(mu), st.floats(0.05, 1.0)))
        constraints = draw(st.sampled_from(("both", "value", "function")))
        return samples, mu, nu, constraints

    return problem()


def fit_vector(fit):
    return np.concatenate([fit.M_not_hat.entries.reshape(-1), fit.v_not_hat.values])


def assert_residuals_agree(fit, reference):
    # consistent systems leave residuals at rounding level on both sides,
    # where no relative agreement exists: hence the 1e-12 absolute floor
    for got, want in zip(
        (fit.residual_value, fit.residual_function, fit.residual_total), reference[1:]
    ):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestStructuredSolveMatchesExplicitSvd:
    """The structured solve agrees with the SVD of the explicit design."""

    @settings(max_examples=40, deadline=None)
    @given(fit_problem(lambda threshold: (threshold + 1, threshold + 6)))
    def test_above_threshold(self, problem):
        samples, mu, nu, constraints = problem
        layout = samples.layout
        fit = fit_negation_baseline(
            samples, NegationOperator(mu, layout), NegationOperator(nu, layout), constraints
        )
        reference = explicit_fit(samples, mu, nu, constraints)
        # v_not appears in no function row, and M_not = 0 meets every one
        assert fit.solver == ("closed-form" if constraints == "function" else "structured")
        assert np.max(np.abs(fit_vector(fit) - reference[0])) <= 1e-12
        assert_residuals_agree(fit, reference)

    @settings(max_examples=40, deadline=None)
    @given(fit_problem(lambda threshold: (1, threshold - 1)))
    def test_below_threshold(self, problem):
        samples, mu, nu, constraints = problem
        layout = samples.layout
        fit = fit_negation_baseline(
            samples, NegationOperator(mu, layout), NegationOperator(nu, layout), constraints
        )
        reference = explicit_fit(samples, mu, nu, constraints)
        if constraints == "both":
            # the function rows pin M_not, and through it v_not
            assert fit.solver == "structured"
            assert np.max(np.abs(fit_vector(fit) - reference[0])) <= 1e-12
        else:
            assert fit.solver == ("closed-form" if constraints == "function" else "min-norm")
            assert np.max(np.abs(fit_vector(fit) - reference[0])) <= 1e-12
        assert_residuals_agree(fit, reference)

    @settings(max_examples=20, deadline=None)
    @given(fit_problem(lambda threshold: (threshold, threshold)))
    def test_at_threshold(self, problem):
        """With the fewest samples that pin the solution the design's
        condition number reaches 1e4 and more (2e5 in one draw, where the
        unrefined SVD was 1.7e-9 from the exact solution), so forward
        errors approach 1e-9: agreement is checked to the 1e-9 that the
        verify checks use."""
        samples, mu, nu, constraints = problem
        layout = samples.layout
        fit = fit_negation_baseline(
            samples, NegationOperator(mu, layout), NegationOperator(nu, layout), constraints
        )
        reference = explicit_fit(samples, mu, nu, constraints)
        assert np.max(np.abs(fit_vector(fit) - reference[0])) <= 1e-9
        assert_residuals_agree(fit, reference)

    @pytest.mark.parametrize("count", [5, 10])
    def test_improved_fit_shares_the_value_solve(self, count):
        samples = default_demo_samples(count)
        op, op2 = NegationOperator(0.5, samples.layout), NegationOperator(0.75, samples.layout)
        value = fit_negation_baseline(samples, op, op2, constraints="value")
        improved = fit_negation_improved(samples, op, op2)
        assert improved.solver == value.solver == ("min-norm" if count < 7 else "structured")
        assert np.array_equal(fit_vector(improved), fit_vector(value))
        assert improved.residual_value == value.residual_value

    def test_fallback_fires_exactly_below_the_readme_threshold(self):
        for count in range(1, 12):
            samples = default_demo_samples(count)
            op = NegationOperator(0.5, samples.layout)
            fit = fit_negation_baseline(samples, op, op, constraints="value")
            assert fit.solver == ("min-norm" if count < 7 else "structured"), count



class TestBadlyScaledSamples:
    """Sample vectors scaled by 1e0 to 1e12: the joint minimum is still
    reached. Squaring the data, as normal equations do, loses it."""

    @pytest.mark.parametrize("layout", [
        SegmentLayout(4, 2, 2), SegmentLayout(6, 3, 3), SegmentLayout(8, 4, 4),
    ], ids=["4,2,2", "6,3,3", "8,4,4"])
    @pytest.mark.parametrize("constraints", ["both", "value"])
    def test_residual_reaches_the_explicit_minimum(self, layout, constraints):
        op = NegationOperator(0.5, layout)
        for seed in (0, 1):
            samples = default_demo_samples(layout.n // 4, layout, seed)
            for exponent in range(0, 13, 2):
                scaled = scale_vectors(samples, 10.0**exponent)
                fit = fit_negation_baseline(scaled, op, op, constraints)
                _, rhs = naive_joint_system(scaled, 0.5, 0.5)
                targets = rhs[: 2 * layout.n * len(scaled)]
                bound = explicit_fit(scaled, 0.5, 0.5, constraints)[3]
                assert fit.residual_total <= bound + 1e-12 * np.linalg.norm(targets), (
                    seed, exponent,
                )


@pytest.mark.parametrize("quarter, count, constraints, solver, bound", [
    (16, 40, "value", "min-norm", 32e6),  # n = 64, below the uniqueness threshold 49
    (32, 72, "both", "structured", 40e6),  # n = 128: each M_a once, one running triangle
], ids=["value-n64", "joint-n128"])
def test_fit_peak_memory_stays_small(quarter, count, constraints, solver, bound):
    layout = SegmentLayout(2 * quarter, quarter, quarter)
    samples = default_demo_samples(count, layout)
    op = NegationOperator(0.5, layout)
    tracemalloc.start()
    try:
        fit = fit_negation_baseline(samples, op, op, constraints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.solver == solver
    assert peak < bound


def test_the_min_norm_fit_peaks_at_most_twice_the_joint_fit():
    """n = 128 with 72 samples: the value rows alone leave v_not not unique,
    and the min-norm step folds its rows block by block as the v_not system
    does, where it used to stack them all (43 MB against the joint 7.4 MB)."""
    layout = SegmentLayout(64, 32, 32)
    samples = default_demo_samples(72, layout)
    op = NegationOperator(0.5, layout)
    peaks = {}
    for constraints in ("value", "both"):
        tracemalloc.start()
        try:
            fit = fit_negation_baseline(samples, op, op, constraints)
            peaks[fit.solver] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["min-norm"] <= 2 * peaks["structured"]


class TestImprovedFit:
    def test_exact_solution(self):
        samples = spanning_samples()
        j_mu = make_negation_matrix(op211(0.5)).entries
        fit = fit_negation_improved(samples, op211(0.5), op211(0.5))
        assert abs(fit.alpha_not_hat) <= 1e-9
        assert np.linalg.norm(fit.M_not_hat.entries - j_mu) <= 1e-9
        assert np.linalg.norm(fit.v_not_hat.values) <= 1e-9
        assert fit.residual_total <= 1e-9

    def test_mismatched_operators_leave_a_residual(self):
        fit = fit_negation_improved(spanning_samples(), op211(0.25), op211(0.75))
        assert fit.residual_value > 1e-3
        assert fit.residual_total > 1e-3

    def test_requires_positive_alphas(self):
        good = spanning_samples().entries[0]
        flat = LexicalEntry(good.token, good.v, good.M, 0.0)
        with pytest.raises(ValueError):
            fit_negation_improved(SampleSet((flat,)), op211(0.5), op211(0.5))

    def test_total_is_quadrature_of_parts(self):
        fit = fit_negation_improved(spanning_samples(), op211(0.3), op211(0.9))
        assert fit.residual_total == pytest.approx(
            math.hypot(fit.residual_value, fit.residual_function), rel=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(fit_problem(lambda threshold: (1, 3 * (threshold + 1))))
    def test_alpha_step_is_the_least_squares_solution(self, problem):
        """The closed-form alpha step equals the SVD least-squares solution
        of the explicit one-column design of the Z-cleared rows, which is
        the reference."""
        samples, mu, nu, _ = problem
        layout = samples.layout
        fit = fit_negation_improved(
            samples, NegationOperator(mu, layout), NegationOperator(nu, layout)
        )
        columns = []
        for entry in samples.entries:
            columns.append(fit.M_not_hat.entries.reshape(-1))
            columns.append(entry.M.entries.reshape(-1))
        design = np.concatenate(columns)[:, None]
        alpha = np.linalg.lstsq(design, np.zeros(len(design)), rcond=1e-10)[0]
        residual = float(np.linalg.norm(design @ alpha))
        assert fit.alpha_not_hat == alpha[0] == 0.0
        assert math.copysign(1.0, fit.alpha_not_hat) == 1.0
        assert fit.residual_function == residual == 0.0
        assert fit.residual_total == fit.residual_value


class TestCheckDoubleNegation:
    def test_forced_arithmetic(self):
        values = np.array([[1.0, 2.0, 3.0, 4.0]])
        once, twice, *flags, _ = check_double_negation(values, LAY211, op211(0.5), op211(0.5))
        assert once.tolist() == [[1.0, 2.0, 3.0, -2.0]]
        assert twice.tolist() == [[1.0, 2.0, 3.0, 1.0]]
        assert [flag.tolist() for flag in flags] == [[True]] * 3

    def test_pure_inversion_boundary(self):
        values = np.array([[1.0, 2.0, 3.0, 4.0]])
        _, twice, _, signs_restored, diminutive, _ = check_double_negation(
            values, LAY211, op211(1.0), op211(1.0)
        )
        assert twice.tobytes() == values.tobytes()
        assert signs_restored[0]
        assert not diminutive[0]  # magnitudes are equal, not smaller

    def test_degenerate_layout(self):
        lay = SegmentLayout(2, 2, 0)
        with pytest.raises(DegenerateNegationError):
            check_double_negation(
                np.ones((1, 4)), lay, NegationOperator(0.5, lay), NegationOperator(0.5, lay)
            )

    @pytest.mark.parametrize("shape", [(4,), (1, 5), (2, 3), (1, 1, 4)])
    def test_values_of_another_shape_are_rejected(self, shape):
        with pytest.raises(DimensionError, match=r"values must have shape \(W, 4\)"):
            check_double_negation(np.ones(shape), LAY211, op211(0.5), op211(0.5))

    def test_seeded_sweep_is_diminutive(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            values = rng.uniform(-2.0, 2.0, 4)
            mu, nu = rng.uniform(0.01, 0.99, size=2)
            _, _, *flags, _ = check_double_negation(values[None], LAY211, op211(mu), op211(nu))
            domain_unchanged, signs_restored, diminutive = (bool(flag[0]) for flag in flags)
            assert domain_unchanged
            assert signs_restored
            assert diminutive


TINY = np.finfo(float).tiny
row_entries = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, 1e300, -1e300]) | st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False
)
row_mus = st.just(1.0) | st.floats(min_value=1e-6, max_value=1.0)


def reference_double_negation(row, layout, mu, nu):
    """Once, twice and the report's four flags for one vector, entry by entry."""
    k = layout.d_domain + layout.d_stable
    once = [x if i < k else x * -mu for i, x in enumerate(row)]
    twice = [x if i < k else x * -nu for i, x in enumerate(once)]
    signs, shrinks, underflowed = True, True, 0
    for x, y in zip(row[k:], twice[k:]):
        small = x != 0.0 and mu * nu * abs(x) < TINY
        underflowed += small
        signs = signs and (np.sign(y) == np.sign(x) or (small and y == 0.0))
        if x != 0.0:
            shrinks = shrinks and (abs(y) <= abs(x) if small else abs(y) < abs(x))
    return once, twice, row[:k] == once[:k] == twice[:k], signs, shrinks, underflowed


@given(st.lists(st.lists(row_entries, min_size=4, max_size=4), min_size=1, max_size=6),
       row_mus, row_mus)
def test_double_negation_rows_match_the_rule_entry_by_entry(rows, mu, nu):
    layout = SegmentLayout(1, 1, 2)
    op, op2 = NegationOperator(mu, layout), NegationOperator(nu, layout)
    once, twice, *flags = check_double_negation(np.array(rows), layout, op, op2)
    for r, row in enumerate(rows):
        want_once, want_twice, *want_flags = reference_double_negation(row, layout, mu, nu)
        assert once[r].tobytes() == np.array(want_once).tobytes()
        assert twice[r].tobytes() == np.array(want_twice).tobytes()
        assert [bool(f[r]) for f in flags[:3]] + [int(flags[3][r])] == want_flags


class TestScopeInvariance:
    @pytest.fixture
    def lexicon(self):
        lex = init_random(["this", "car", "is", "blue"], LAY211, seed=23, noise=0.15)
        return set_function_word(lex, "not")

    @pytest.fixture
    def perturbation(self):
        return FunctionMatrix(
            np.random.default_rng(31).standard_normal((4, 4)), LAY211
        )

    def test_improved_model_contains_the_change(self, lexicon, perturbation):
        delta = scope_invariance_report(
            parse_bracketed(SENTENCE),
            lexicon,
            CompositionConfig(model="improved"),
            perturbation,
        )
        assert delta <= 1e-12

    def test_baseline_model_leaks_the_change_exactly_once(self, lexicon, perturbation):
        delta = scope_invariance_report(
            parse_bracketed(SENTENCE), lexicon, CompositionConfig(), perturbation
        )
        expected = float(np.linalg.norm(perturbation.entries))
        assert delta == pytest.approx(expected, abs=1e-12)

    def test_null_perturbation(self, lexicon):
        zero = FunctionMatrix.zeros(LAY211)
        for model in ("baseline", "improved"):
            delta = scope_invariance_report(
                parse_bracketed(SENTENCE),
                lexicon,
                CompositionConfig(model=model),
                zero,
            )
            assert delta == 0.0

    def test_a_huge_perturbation_does_not_overflow_the_delta(self, lexicon, perturbation):
        """Entries near 1e200 square past the float range; the delta is
        taken with exact power-of-two scaling, as the fits' norms are."""
        huge = FunctionMatrix(perturbation.entries * 1e200, LAY211)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            baseline, improved = (
                scope_invariance_report(
                    parse_bracketed(SENTENCE), lexicon, CompositionConfig(model=model), huge
                )
                for model in ("baseline", "improved")
            )
        assert baseline == scaled_norm(huge.entries)
        assert math.isfinite(baseline) and baseline > 1e200
        assert improved == 0.0

    def test_requires_exactly_one_not_leaf(self, lexicon, perturbation):
        with pytest.raises(ValueError):
            scope_invariance_report(
                parse_bracketed("(S (N this) (N car))"),
                lexicon,
                CompositionConfig(),
                perturbation,
            )
        with pytest.raises(ValueError):
            scope_invariance_report(
                parse_bracketed("(S (RB not) (RB not))"),
                lexicon,
                CompositionConfig(),
                perturbation,
            )

    def test_perturbation_layout_checked(self, lexicon):
        bad = FunctionMatrix.zeros(SegmentLayout(4, 2, 2))
        with pytest.raises(DimensionError):
            scope_invariance_report(
                parse_bracketed(SENTENCE), lexicon, CompositionConfig(), bad
            )


class TestSimilarities:
    def _entry(self, values, layout=LAY211):
        return LexicalEntry(
            "w",
            SemanticVector(values, layout),
            FunctionMatrix(np.eye(layout.n), layout),
            1.0,
        )

    def test_negation_keeps_domain_similarity_at_exactly_one(self):
        entry = self._entry([0.3, -0.8, 0.5, 0.9])
        negated = negate_vector(entry.v, op211(0.5))
        assert domain_similarity(entry, negated) == 1.0

    def test_inversion_flips_value_similarity_when_all_value_dims_invert(self):
        lay = SegmentLayout(2, 0, 2)
        entry = self._entry([0.3, -0.8, 0.5, 0.9], lay)
        inverted = invert_vector(entry.v, lay)
        assert value_similarity(entry, inverted) == -1.0

    def test_value_similarity_drops_under_negation(self):
        entry = self._entry([0.3, -0.8, 0.5, 0.9])
        negated = negate_vector(entry.v, op211(0.5))
        # direct cosine over the stable+inverted slice
        u, v = entry.v.values[2:], negated.values[2:]
        expected = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert value_similarity(entry, negated) == pytest.approx(expected, rel=1e-12)
        assert value_similarity(entry, negated) < 1.0

    def test_zero_segments_are_undefined(self):
        a = self._entry([0.0, 0.0, 1.0, 1.0])
        b = self._entry([0.0, 0.0, 2.0, 2.0])
        with pytest.raises(UndefinedSimilarityError):
            domain_similarity(a, b)

    def test_layout_mismatch(self):
        a = self._entry([1.0, 1.0, 1.0, 1.0])
        b = self._entry([1.0, 1.0, 1.0, 1.0], SegmentLayout(1, 2, 1))
        with pytest.raises(DimensionError):
            domain_similarity(a, b)

    def test_accepts_bare_vectors(self):
        v = SemanticVector([1.0, 2.0, 3.0, 4.0], LAY211)
        assert domain_similarity(v, v) == 1.0
        assert value_similarity(v, v) == 1.0
