"""The composition step under both models, and tree-driven composition."""

import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsem import composition
from tripsem.composition import CompositionConfig, compose_pair, compose_tree
from tripsem.core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    make_negation_matrix,
)
from tripsem.errors import (
    DegenerateWeightsError,
    DimensionError,
    TreeArityError,
    UnknownTokenError,
)
from tripsem.lexicon import Lexicon, init_random, set_function_word
from tripsem.treeio import ParseTree, binarize, parse_bracketed

LAY211 = SegmentLayout(2, 1, 1)
DEFAULT = CompositionConfig()
IMPROVED = CompositionConfig(model="improved")


def entry(token, values, matrix, alpha=1.0, layout=LAY211):
    return LexicalEntry(
        token,
        SemanticVector(values, layout),
        FunctionMatrix(matrix, layout),
        alpha,
    )


@pytest.fixture
def not_and_blue():
    j = make_negation_matrix(NegationOperator(0.5, LAY211))
    a = LexicalEntry("not", SemanticVector.zeros(LAY211), j, 0.0)
    b = entry("blue", [1.0, 2.0, 3.0, 4.0], np.eye(4) + 0.25)
    return a, b


class TestConfig:
    def test_defaults(self):
        assert DEFAULT.model == "baseline"
        assert [f.name for f in fields(CompositionConfig)] == ["model"]

    def test_rejects_unknown_choices(self):
        with pytest.raises(ValueError):
            CompositionConfig(model="quadratic")

    def test_module_exports_one_step(self):
        assert composition.__all__ == ["CompositionConfig", "compose_pair", "compose_tree"]


class TestComposeBaseline:
    def test_identity_matrices_add_vectors(self):
        a = entry("a", [1.0, 0.0, 0.0, 0.0], np.eye(4))
        b = entry("b", [0.0, 1.0, 0.0, 0.0], np.eye(4))
        p = compose_pair(a, b, DEFAULT)
        assert p.v.values.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert np.array_equal(p.M.entries, 2.0 * np.eye(4))

    def test_negation_preset_applies_j_mu(self, not_and_blue):
        a, b = not_and_blue
        p = compose_pair(a, b, DEFAULT)
        assert p.v.values.tolist() == [1.0, 2.0, 3.0, -2.0]

    def test_negation_matrix_leaks_into_parent(self, not_and_blue):
        # the additive matrix rule propagates J_mu beyond its own composition step
        a, b = not_and_blue
        p = compose_pair(a, b, DEFAULT)
        assert np.array_equal(p.M.entries, a.M.entries + b.M.entries)

    def test_alpha_is_max(self):
        a = entry("a", [1.0, 0.0, 0.0, 0.0], np.eye(4), alpha=0.25)
        b = entry("b", [0.0, 1.0, 0.0, 0.0], np.eye(4), alpha=2.0)
        assert compose_pair(a, b, DEFAULT).alpha == 2.0

    def test_layout_mismatch(self):
        # alpha 0 on both sides: the layout is checked before the weights
        a = entry("a", [1.0, 0.0, 0.0, 0.0], np.eye(4), alpha=0.0)
        other = SegmentLayout(1, 2, 1)
        b = entry("b", [1.0, 0.0, 0.0, 0.0], np.eye(4), alpha=0.0, layout=other)
        for cfg in (DEFAULT, IMPROVED):
            with pytest.raises(DimensionError):
                compose_pair(a, b, cfg)

    def test_operand_order_and_token(self):
        rng = np.random.default_rng(0)
        a = entry("a", rng.standard_normal(4), rng.standard_normal((4, 4)))
        b = entry("b", rng.standard_normal(4), rng.standard_normal((4, 4)))
        p = compose_pair(a, b, DEFAULT)
        ma, mb = a.M.entries, b.M.entries
        assert np.array_equal(p.v.values, ma @ b.v.values + mb @ a.v.values)
        assert np.array_equal(p.M.entries, ma + mb)
        assert p.token == "(a b)"


class TestComposeImproved:
    def test_zero_alpha_function_word_does_not_leak(self, not_and_blue):
        a, b = not_and_blue
        p = compose_pair(a, b, IMPROVED)
        assert np.array_equal(p.M.entries, b.M.entries)  # exactly M_b

    def test_equal_alphas_average_matrices(self):
        a = entry("a", [1.0, 0.0, 0.0, 0.0], 2.0 * np.eye(4))
        b = entry("b", [0.0, 1.0, 0.0, 0.0], 4.0 * np.eye(4))
        p = compose_pair(a, b, IMPROVED)
        assert np.array_equal(p.M.entries, 3.0 * np.eye(4))

    def test_weights_sum_to_exactly_one(self):
        # alpha ratios that do not divide evenly still weight by w and 1 - w
        rng = np.random.default_rng(21)
        for _ in range(50):
            aa, ab = rng.uniform(0.01, 3.0, size=2)
            a = entry("a", rng.standard_normal(4), rng.standard_normal((4, 4)), aa)
            b = entry("b", rng.standard_normal(4), rng.standard_normal((4, 4)), ab)
            p = compose_pair(a, b, IMPROVED)
            w = a.alpha / (a.alpha + b.alpha)
            expected = w * a.M.entries + (1.0 - w) * b.M.entries
            assert np.array_equal(p.M.entries, expected)
            assert p.alpha == max(a.alpha, b.alpha)

    def test_vector_rule_matches_baseline(self, not_and_blue):
        a, b = not_and_blue
        base = compose_pair(a, b, DEFAULT)
        imp = compose_pair(a, b, IMPROVED)
        assert np.array_equal(base.v.values, imp.v.values)

    def test_alpha_is_max(self, not_and_blue):
        a, b = not_and_blue
        p = compose_pair(a, b, IMPROVED)
        assert p.alpha == 1.0

    def test_both_alphas_zero_errors_by_default(self):
        a = entry("a", [1.0, 0.0, 0.0, 0.0], np.eye(4), alpha=0.0)
        b = entry("b", [0.0, 1.0, 0.0, 0.0], np.eye(4), alpha=0.0)
        with pytest.raises(DegenerateWeightsError) as err:
            compose_pair(a, b, IMPROVED)
        assert str(err.value) == "both alphas are zero at 'a' and 'b'"


@pytest.mark.parametrize("cfg", [DEFAULT, IMPROVED])
def test_compose_pair_overflow_is_one_error_without_numpy_warnings(cfg):
    left = entry("left", [1e300] * 4, 1e10 * np.eye(4))
    right = entry("right", [1e300] * 4, 1e10 * np.eye(4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            compose_pair(left, right, cfg)
    assert [w.message for w in caught] == []
    assert str(err.value) == (
        "semantic vector entries are not finite after composing 'left' and 'right'"
    )


def test_compose_pair_and_compose_tree_run_one_step(monkeypatch, not_and_blue):
    calls = []
    step = composition._step

    def counted(*args):
        calls.append(args[-1]())
        return step(*args)

    monkeypatch.setattr(composition, "_step", counted)
    a, b = not_and_blue
    compose_pair(a, b, DEFAULT)
    lex = Lexicon(LAY211, {"not": a, "blue": b})
    compose_tree(parse_bracketed("(S (A (W not) (W blue)) (W blue))"), lex, IMPROVED)
    assert calls == [
        "'not' and 'blue'",
        "node 'A' over leaves 1-2",
        "node 'S' over leaves 1-3",
    ]


def test_compose_pair_dispatches_on_model(not_and_blue):
    a, b = not_and_blue
    assert np.array_equal(
        compose_pair(a, b, DEFAULT).M.entries, a.M.entries + b.M.entries
    )
    # alpha_not = 0, so the improved weights are (0, 1)
    assert np.array_equal(compose_pair(a, b, IMPROVED).M.entries, b.M.entries)


@pytest.fixture
def sentence_lexicon():
    lex = init_random(["this", "car", "is", "blue"], LAY211, seed=13, noise=0.2)
    return set_function_word(lex, "not", "negation", mu=0.5)


class TestComposeTree:
    def test_single_leaf_returns_entry(self, sentence_lexicon):
        root = compose_tree(ParseTree.leaf("N", "car"), sentence_lexicon, DEFAULT)
        assert root == sentence_lexicon["car"]

    def test_not_blue_subtree(self, sentence_lexicon):
        tree = parse_bracketed("(ADJP (RB not) (JJ blue))")
        root = compose_tree(tree, sentence_lexicon, DEFAULT)
        j_mu = make_negation_matrix(NegationOperator(0.5, LAY211)).entries
        np.testing.assert_array_equal(
            root.v.values, j_mu @ sentence_lexicon["blue"].v.values
        )

    @pytest.mark.parametrize("model", ["baseline", "improved"])
    def test_matches_hand_unrolled_sentence(self, sentence_lexicon, model):
        """Fully unrolled evaluation of the five-leaf sentence tree."""
        lex = sentence_lexicon
        cfg = CompositionConfig(model=model)
        tree = binarize(
            parse_bracketed(
                "(S (NP (Det this) (N car)) (VP (VBZ is) (RB not) (ADJP (JJ blue))))"
            )
        )
        root = compose_tree(tree, lex, cfg)

        def pair(x, y):
            ma, mb = x.M.entries, y.M.entries
            va, vb = x.v.values, y.v.values
            v = ma @ vb + mb @ va
            if model == "baseline":
                m = ma + mb
            else:
                z = x.alpha + y.alpha
                m = (x.alpha / z) * ma + (y.alpha / z) * mb
            return LexicalEntry(
                "p",
                SemanticVector(v, LAY211),
                FunctionMatrix(m, LAY211),
                max(x.alpha, y.alpha),
            )

        np_node = pair(lex["this"], lex["car"])
        not_blue = pair(lex["not"], lex["blue"])
        vp = pair(lex["is"], not_blue)
        expected = pair(np_node, vp)

        np.testing.assert_allclose(root.v.values, expected.v.values, rtol=1e-12)
        np.testing.assert_allclose(root.M.entries, expected.M.entries, rtol=1e-12)
        assert root.alpha == expected.alpha

    def test_unknown_token_named_in_error(self, sentence_lexicon):
        tree = parse_bracketed("(S (N car) (N spaceship))")
        with pytest.raises(UnknownTokenError) as err:
            compose_tree(tree, sentence_lexicon, DEFAULT)
        assert "spaceship" in str(err.value)

    def test_nonbinary_node_rejected(self, sentence_lexicon):
        tree = parse_bracketed("(S (N this) (N car) (N is))")
        with pytest.raises(TreeArityError):
            compose_tree(tree, sentence_lexicon, DEFAULT)


class TestRootMatrixPropagation:
    """How far a leaf's matrix reaches under each model."""

    def _compose(self, lex, cfg):
        tree = binarize(
            parse_bracketed(
                "(S (NP (Det this) (N car)) (VP (VBZ is) (RB not) (ADJP (JJ blue))))"
            )
        )
        return compose_tree(tree, lex, cfg)

    def test_improved_root_m_ignores_zero_alpha_leaf(self, sentence_lexicon):
        cfg = CompositionConfig(model="improved")
        base = self._compose(sentence_lexicon, cfg)
        swapped = sentence_lexicon.with_entry(
            LexicalEntry(
                "not",
                sentence_lexicon["not"].v,
                FunctionMatrix(np.random.default_rng(4).standard_normal((4, 4)), LAY211),
                0.0,
            )
        )
        other = self._compose(swapped, cfg)
        np.testing.assert_allclose(
            other.M.entries, base.M.entries, rtol=0.0, atol=1e-12
        )

    def test_baseline_root_m_shifts_by_exactly_delta(self, sentence_lexicon):
        base = self._compose(sentence_lexicon, DEFAULT)
        delta = np.random.default_rng(6).standard_normal((4, 4))
        shifted = sentence_lexicon.with_entry(
            LexicalEntry(
                "not",
                sentence_lexicon["not"].v,
                FunctionMatrix(sentence_lexicon["not"].M.entries + delta, LAY211),
                0.0,
            )
        )
        other = self._compose(shifted, DEFAULT)
        np.testing.assert_allclose(
            other.M.entries - base.M.entries, delta, rtol=0.0, atol=1e-12
        )


def post_order(tree):
    """Every node of ``tree``, children before their parent, left to right."""
    for child in tree.children:
        yield from post_order(child)
    yield tree


def fold(tree, lexicon, cfg):
    """The recursive post-order fold of ``compose_pair`` that
    ``compose_tree`` must reproduce: the arity of every node is checked
    first, then each step runs on the way up."""
    for node in post_order(tree):
        if len(node.children) not in (0, 2):
            raise TreeArityError(f"node {node.tag!r} has {len(node.children)} children")

    def up(node):
        if node.is_leaf:
            return lexicon[node.token]
        return compose_pair(*map(up, node.children), cfg)

    return up(tree)


FAULTS = (UnknownTokenError, TreeArityError, DegenerateWeightsError, ValueError)


def outcome(compose, tree, lexicon, cfg):
    """The root entry, or the error raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return compose(tree, lexicon, cfg)
    except FAULTS as err:
        return err


@st.composite
def lexicons(draw):
    """Two to four words with some zero alphas; a large scale makes some
    compositions overflow."""
    scale = draw(st.sampled_from([1.0, 1.0, 1e100, 1e160]))
    floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    words = {}
    for k in range(draw(st.integers(min_value=2, max_value=4))):
        v = np.array(draw(st.lists(floats, min_size=4, max_size=4))) * scale
        m = np.array(draw(st.lists(floats, min_size=16, max_size=16))).reshape(4, 4)
        alpha = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]))
        words[f"w{k}"] = entry(f"w{k}", v, m * scale, alpha)
    return Lexicon(LAY211, words)


@st.composite
def trees(draw, tokens, wide, depth=0):
    """Binary trees over ``tokens``; with ``wide``, some nodes are unary
    or ternary."""
    if depth >= 5 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return ParseTree.leaf("W", draw(st.sampled_from(tokens)))
    widths = [1, 2, 2, 2, 3] if wide else [2]
    children = [
        draw(trees(tokens, wide, depth + 1)) for _ in range(draw(st.sampled_from(widths)))
    ]
    return ParseTree.node(draw(st.sampled_from(["S", "NP", "VP"])), children)


class TestComposeTreeIsTheFold:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), lexicons(), st.sampled_from([DEFAULT, IMPROVED]))
    def test_same_root_or_same_error(self, data, lexicon, cfg):
        tokens = list(lexicon.entries) + data.draw(st.sampled_from([[], ["ghost"]]))
        tree = data.draw(trees(tokens, data.draw(st.booleans())))
        got = outcome(compose_tree, tree, lexicon, cfg)
        want = outcome(fold, tree, lexicon, cfg)
        if isinstance(want, Exception):
            assert type(got) is type(want)
            if isinstance(want, TreeArityError):  # both name the same node
                assert str(got).startswith(str(want))
            return
        assert got.token == want.token
        assert np.array_equal(got.v.values, want.v.values)
        assert np.array_equal(got.M.entries, want.M.entries)
        assert got.alpha == want.alpha

    @pytest.mark.parametrize(
        "text, wide",
        [
            ("(S (N ghost) (VP (N is) (N not) (N blue)))", "VP"),
            ("(S (VP (N is) (N not) (N blue)) (N ghost))", "VP"),
            ("(S (NP (N ghost)) (N car))", "NP"),
            ("(S (N car) (NP (N ghost) (N car) (N car)))", "NP"),
            # the first non-binary node in post-order, not the outermost
            ("(S (A (N ghost)) (N car) (N car))", "A"),
        ],
    )
    def test_arity_is_checked_first(self, sentence_lexicon, text, wide):
        tree = parse_bracketed(text)
        for compose in (fold, compose_tree):
            with pytest.raises(TreeArityError, match=f"^node '{wide}' has "):
                compose(tree, sentence_lexicon, DEFAULT)

    def test_overflow_names_the_first_node_in_post_order(self):
        big = entry("big", [1e300] * 4, 1e10 * np.eye(4))
        one = entry("one", [1.0] * 4, np.eye(4))
        lex = Lexicon(LAY211, {"big": big, "one": one})
        tree = parse_bracketed("(S (A (W one) (W one)) (B (W one) (C (W big) (W big))))")
        with pytest.raises(ValueError) as err:
            compose_tree(tree, lex, DEFAULT)
        assert str(err.value) == (
            "semantic vector entries are not finite after composing "
            "node 'C' over leaves 4-5"
        )


class TestDeepChain:
    def test_hundred_thousand_levels_compose_like_an_explicit_loop(self):
        """A right-branching chain 10^5 deep over words whose M = 0.5 I:
        the vectors stay bounded, and an explicit loop from the bottom
        up, doing compose_pair's arithmetic, gives the same root."""
        depth = 10**5
        rng = np.random.default_rng(3)
        words = {}
        for k in range(5):
            words[f"w{k}"] = entry(f"w{k}", rng.uniform(-1, 1, 4), 0.5 * np.eye(4), k / 2)
        lex = Lexicon(LAY211, words)
        tokens = [f"w{k}" for k in rng.integers(0, 5, depth + 1)]
        text = "".join(f"(C (W {t}) " for t in tokens[:-1]) + f"(W {tokens[-1]})" + ")" * depth
        root = compose_tree(parse_bracketed(text), lex, IMPROVED)

        arrays = {t: (e.v.values, e.M.entries, e.alpha) for t, e in words.items()}
        v, m, alpha = arrays[tokens[-1]]
        for token in reversed(tokens[:-1]):
            v_a, m_a, alpha_a = arrays[token]
            v = m_a @ v + m @ v_a
            weight = alpha_a / (alpha_a + alpha)
            m = weight * m_a + (1.0 - weight) * m
            alpha = max(alpha_a, alpha)
        assert np.array_equal(root.v.values, v)
        assert np.array_equal(root.M.entries, m)
        assert root.alpha == alpha
        assert root.token == "(" + " (".join(tokens[:-1]) + " " + tokens[-1] + ")" * depth
