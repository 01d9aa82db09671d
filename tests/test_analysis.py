"""Negation constraint fits, double-negation/scope reports, similarities."""

import math
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
from tripsem.numerics import least_squares
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
        identity_m = LexicalEntry("z", good.v, FunctionMatrix.identity(LAY211), 1.0)
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
        lex = set_function_word(lex, "not", "negation", mu=0.5)
        lex = set_function_word(lex, "and", "identity")
        samples = SampleSet.from_lexicon(lex)
        tokens = {e.token for e in samples.entries}
        assert tokens == {"blue", "red", "car"}

    def test_from_lexicon_needs_content_words(self):
        lex = init_random(["x"], LAY211, seed=0, noise=0.0)  # M = I exactly
        with pytest.raises(ValueError):
            SampleSet.from_lexicon(lex)


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


class TestOverflowingSamples:
    """Six 1,1,1 samples at about 1e200: the normal equations overflow."""

    @pytest.mark.parametrize("fit, name", [
        (lambda s, op: fit_negation_baseline(s, op, op), "both"),
        (lambda s, op: fit_negation_baseline(s, op, op, constraints="value"), "value"),
        (lambda s, op: fit_negation_improved(s, op, op), "value"),
    ], ids=["baseline-both", "baseline-value", "improved"])
    def test_fit_raises_one_value_error_and_no_warning(self, fit, name):
        layout = SegmentLayout(1, 1, 1)
        samples = SampleSet(tuple(
            replace(entry, v=SemanticVector(1e200 * entry.v.values, layout))
            for entry in spanning_samples(layout, count=6).entries
        ))
        op = NegationOperator(0.5, layout)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                fit(samples, op)
        assert str(info.value) == f"the {name!r} fit overflows: sample values too large"


EQUIVALENCE_LAYOUTS = (SegmentLayout(2, 1, 1), SegmentLayout(4, 2, 2), SegmentLayout(6, 3, 3))


def uniqueness_threshold(layout):
    """Fewest samples that pin (M_not, v_not) down from the value rows."""
    return layout.n - layout.d_inverted + 1


def explicit_fit(samples, mu, nu, constraints):
    """least_squares on the explicit rows of ``naive_joint_system``.

    Returns (solution, residual_value, residual_function, residual_total).
    """
    design, rhs = naive_joint_system(samples, mu, nu)
    n_value = 2 * samples.layout.n * len(samples)
    keep = {
        "both": slice(None),
        "value": slice(0, n_value),
        "function": slice(n_value, None),
    }[constraints]
    x, _ = least_squares(design[keep], rhs[keep])
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
            assert fit.solver == ("closed-form" if constraints == "function" else "svd")
            assert np.array_equal(fit_vector(fit), reference[0])
        assert_residuals_agree(fit, reference)

    @settings(max_examples=20, deadline=None)
    @given(fit_problem(lambda threshold: (threshold, threshold)))
    def test_at_threshold(self, problem):
        """With the fewest samples that pin the solution the design's
        condition number reaches 1e4 and more, and the SVD's own forward
        error approaches 1e-12: agreement is checked to the 1e-9 that the
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
        assert improved.solver == value.solver == ("svd" if count < 7 else "structured")
        assert np.array_equal(fit_vector(improved), fit_vector(value))
        assert improved.residual_value == value.residual_value

    def test_fallback_fires_exactly_below_the_readme_threshold(self):
        for count in range(1, 12):
            samples = default_demo_samples(count)
            op = NegationOperator(0.5, samples.layout)
            fit = fit_negation_baseline(samples, op, op, constraints="value")
            assert fit.solver == ("svd" if count < 7 else "structured"), count


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
        """The closed-form alpha step equals least_squares on the explicit
        one-column design of the Z-cleared rows, which is the reference."""
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
        alpha, residual = least_squares(design, np.zeros(len(design)))
        assert fit.alpha_not_hat == alpha[0] == 0.0
        assert math.copysign(1.0, fit.alpha_not_hat) == 1.0
        assert fit.residual_function == residual == 0.0
        assert fit.residual_total == fit.residual_value


class TestCheckDoubleNegation:
    def _entry(self, values, layout=LAY211):
        return LexicalEntry(
            "w",
            SemanticVector(values, layout),
            FunctionMatrix(np.eye(layout.n) + 0.5, layout),
            1.0,
        )

    def test_forced_arithmetic(self):
        report = check_double_negation(
            self._entry([1.0, 2.0, 3.0, 4.0]), op211(0.5), op211(0.5)
        )
        assert report.once.values.tolist() == [1.0, 2.0, 3.0, -2.0]
        assert report.twice.values.tolist() == [1.0, 2.0, 3.0, 1.0]
        assert report.domain_unchanged and report.signs_restored and report.diminutive

    def test_pure_inversion_boundary(self):
        report = check_double_negation(
            self._entry([1.0, 2.0, 3.0, 4.0]), op211(1.0), op211(1.0)
        )
        assert report.twice == self._entry([1.0, 2.0, 3.0, 4.0]).v
        assert report.signs_restored
        assert not report.diminutive  # magnitudes are equal, not smaller

    def test_degenerate_layout(self):
        lay = SegmentLayout(2, 2, 0)
        entry = LexicalEntry(
            "w",
            SemanticVector([1.0, 1.0, 1.0, 1.0], lay),
            FunctionMatrix(np.eye(4) + 0.5, lay),
            1.0,
        )
        with pytest.raises(DegenerateNegationError):
            check_double_negation(entry, NegationOperator(0.5, lay), NegationOperator(0.5, lay))

    def test_seeded_sweep_is_diminutive(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            values = rng.uniform(-2.0, 2.0, 4)
            mu, nu = rng.uniform(0.01, 0.99, size=2)
            report = check_double_negation(self._entry(values), op211(mu), op211(nu))
            assert report.domain_unchanged
            assert report.signs_restored
            assert report.diminutive


class TestScopeInvariance:
    @pytest.fixture
    def lexicon(self):
        lex = init_random(["this", "car", "is", "blue"], LAY211, seed=23, noise=0.15)
        return set_function_word(lex, "not", "negation", mu=0.5)

    @pytest.fixture
    def perturbation(self):
        return FunctionMatrix(
            np.random.default_rng(31).standard_normal((4, 4)), LAY211
        )

    def test_improved_model_contains_the_change(self, lexicon, perturbation):
        report = scope_invariance_report(
            parse_bracketed(SENTENCE),
            lexicon,
            CompositionConfig(model="improved"),
            perturbation,
        )
        assert report.model == "improved"
        assert report.delta <= 1e-12

    def test_baseline_model_leaks_the_change_exactly_once(self, lexicon, perturbation):
        report = scope_invariance_report(
            parse_bracketed(SENTENCE), lexicon, CompositionConfig(), perturbation
        )
        expected = float(np.linalg.norm(perturbation.entries))
        assert report.perturbation_norm == pytest.approx(expected, rel=1e-15)
        assert report.delta == pytest.approx(expected, abs=1e-12)

    def test_null_perturbation(self, lexicon):
        zero = FunctionMatrix.zeros(LAY211)
        for model in ("baseline", "improved"):
            report = scope_invariance_report(
                parse_bracketed(SENTENCE),
                lexicon,
                CompositionConfig(model=model),
                zero,
            )
            assert report.delta == 0.0

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
            FunctionMatrix.identity(layout),
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
