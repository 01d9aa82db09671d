"""The composition step under both models, and tree-driven composition."""

import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripsem import composition, treeio
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
from tripsem.treeio import ParseTree, binarize, format_tree, parse_bracketed

LAY211 = SegmentLayout(2, 1, 1)
DEFAULT = CompositionConfig()
IMPROVED = CompositionConfig(model="improved")
MODELS = ["baseline", "improved"]


def entry(token, values, matrix, alpha=1.0, layout=LAY211):
    return LexicalEntry(
        token,
        SemanticVector(values, layout),
        FunctionMatrix(matrix, layout),
        alpha,
    )


def balanced_text(subtrees) -> str:
    """A balanced tree, its internal nodes tagged S, over a power-of-two
    list of bracketed subtrees."""
    while len(subtrees) > 1:
        subtrees = [f"(S {a} {b})" for a, b in zip(subtrees[::2], subtrees[1::2])]
    return subtrees[0]


def wide_levels(tree) -> list:
    """The levels ``compose_tree`` runs as stacked steps."""
    lo, starts, arity = treeio._shape(tree)
    return composition._wide_levels(starts, lo, arity)


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
        assert p.token == "a b"


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

    def counted(*args, **kwargs):
        # a labelled step's label; a stacked one's count of nodes
        where, ma = args[7], args[1]
        calls.append(where() if where else len(ma))
        return step(*args, **kwargs)

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
    # the two wide levels of a balanced 64-leaf tree, then its narrow top through the fold
    calls.clear()
    compose_tree(parse_bracketed(balanced_text(["(W blue)"] * 64)), lex, IMPROVED)
    top = ["1-8", "9-16", "1-16", "17-24", "25-32", "17-32", "1-32",
           "33-40", "41-48", "33-48", "49-56", "57-64", "49-64", "33-64", "1-64"]
    assert calls == [32, 16] + [f"node 'S' over leaves {span}" for span in top]


def test_compose_pair_dispatches_on_model(not_and_blue):
    a, b = not_and_blue
    assert np.array_equal(
        compose_pair(a, b, DEFAULT).M.entries, a.M.entries + b.M.entries
    )
    # alpha_not = 0, so the improved weights are (0, 1)
    assert np.array_equal(compose_pair(a, b, IMPROVED).M.entries, b.M.entries)


@pytest.mark.parametrize("n", [1, 8, 12, 32, 64])
def test_the_step_gives_the_bits_of_the_matmul_formula(n):
    """One node's matvecs run through ``ndarray.dot``: its v must be
    M_a @ v_b + M_b @ v_a bit for bit."""
    layout = SegmentLayout(0, 0, n)
    rng = np.random.default_rng(n)
    for _ in range(300):
        a, b = (
            entry(t, rng.standard_normal(n), rng.standard_normal((n, n)), layout=layout)
            for t in "ab"
        )
        want = a.M.entries @ b.v.values + b.M.entries @ a.v.values
        assert np.array_equal(compose_pair(a, b, DEFAULT).v.values, want)


@pytest.fixture
def sentence_lexicon():
    lex = init_random(["this", "car", "is", "blue"], LAY211, seed=13, noise=0.2)
    return set_function_word(lex, "not")


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


class TestPhraseTokens:
    """A composed entry's token is the phrase it covers: its leaf tokens,
    left to right, joined by single spaces."""

    SENTENCE = "(S (NP (Det this) (N car)) (VP (VBZ is) (RB not) (ADJP (JJ blue))))"

    @pytest.mark.parametrize("model", MODELS)
    def test_both_binarizations_give_the_phrase(self, sentence_lexicon, model):
        tree = parse_bracketed(self.SENTENCE)
        cfg = CompositionConfig(model=model)
        right, left = (
            compose_tree(binarize(tree, strategy), sentence_lexicon, cfg)
            for strategy in ("right", "left")
        )
        assert right.token == left.token == "this car is not blue"
        assert right.token == " ".join(tree.fringe())

    def test_compose_pair_joins_composed_phrases(self, sentence_lexicon):
        lex = sentence_lexicon
        not_blue = compose_pair(lex["not"], lex["blue"], DEFAULT)
        assert not_blue.token == "not blue"
        assert compose_pair(lex["is"], not_blue, DEFAULT).token == "is not blue"
        this_car = compose_pair(lex["this"], lex["car"], IMPROVED)
        assert compose_pair(this_car, not_blue, IMPROVED).token == "this car not blue"

    def test_a_leaf_root_is_the_lexicon_entry_itself(self, sentence_lexicon):
        for tree in (ParseTree.leaf("N", "car"), binarize(parse_bracketed("(S (NP (N car)))"))):
            assert compose_tree(tree, sentence_lexicon, DEFAULT) is sentence_lexicon["car"]


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


def wide_tree(shape: str, leaves: int, rng, tokens) -> ParseTree:
    """A binary tree over ``leaves`` words drawn from ``tokens`` whose bottom
    levels are wide: ``balanced``; ``random``, each node split at a uniform
    point; or ``caterpillar``, a right-branching spine with a balanced rung
    of 2, 4 or 8 leaves on each step, so that only the rungs' levels are wide."""
    words = [str(token) for token in rng.choice(tokens, leaves)]

    def build(lo, hi):
        if hi - lo == 1:
            return f"(W {words[lo]})"
        mid = int(rng.integers(lo + 1, hi)) if shape == "random" else (lo + hi) // 2
        return f"(S {build(lo, mid)} {build(mid, hi)})"

    if shape != "caterpillar":
        return parse_bracketed(build(0, leaves))
    rung = 2 ** int(rng.integers(1, 4))
    rungs = [build(lo, min(lo + rung, leaves)) for lo in range(0, leaves, rung)]
    spine = "".join(f"(C {r} " for r in rungs[:-1]) + rungs[-1] + ")" * (len(rungs) - 1)
    return parse_bracketed(spine)


@st.composite
def wide_trees(draw, tokens):
    """Trees of 64 to 512 leaves with at least one wide level."""
    tree = wide_tree(
        draw(st.sampled_from(["balanced", "random", "caterpillar"])),
        draw(st.integers(min_value=64, max_value=512)),
        np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))),
        tokens,
    )
    assume(wide_levels(tree))
    return tree


@st.composite
def tame_lexicons(draw):
    """Two to five words with M near I / 2 and alpha > 0, on which every
    tree from ``wide_trees`` composes to a finite root under both models."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    words = {}
    for k in range(draw(st.integers(min_value=2, max_value=5))):
        m = 0.5 * np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        alpha = draw(st.sampled_from([0.5, 1.0, 3.0]))
        words[f"w{k}"] = entry(f"w{k}", rng.uniform(-1.0, 1.0, 4), m, alpha)
    return Lexicon(LAY211, words)


def assert_same_root(got, want) -> None:
    assert got.token == want.token
    assert np.array_equal(got.v.values, want.v.values)
    assert np.array_equal(got.M.entries, want.M.entries)
    assert got.alpha == want.alpha


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
            # more children than one byte counts
            ("(S (N car) (V " + "(N car) " * 300 + "))", "V"),
        ],
    )
    def test_arity_is_checked_first(self, sentence_lexicon, text, wide):
        tree = parse_bracketed(text)
        for compose in (fold, compose_tree):
            with pytest.raises(TreeArityError, match=f"^node '{wide}' has "):
                compose(tree, sentence_lexicon, DEFAULT)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), lexicons(), st.sampled_from([DEFAULT, IMPROVED]))
    def test_wide_trees_give_the_same_root_or_the_same_error(self, data, lexicon, cfg):
        """Wide levels run as stacked steps; zero alphas and large scales
        put Z = 0 pairs and overflows inside them."""
        tokens = list(lexicon.entries) + data.draw(st.sampled_from([[], ["ghost"]]))
        tree = data.draw(wide_trees(tokens))
        got = outcome(compose_tree, tree, lexicon, cfg)
        want = outcome(fold, tree, lexicon, cfg)
        if isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            assert_same_root(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), tame_lexicons())
    def test_wide_trees_give_the_fold_root_bit_for_bit(self, data, lexicon):
        tree = data.draw(wide_trees(list(lexicon.entries)))
        for cfg in (DEFAULT, IMPROVED):
            got = compose_tree(tree, lexicon, cfg)
            assert np.isfinite(got.v.values).all()
            assert_same_root(got, fold(tree, lexicon, cfg))

    @pytest.mark.parametrize(
        "layout",
        [SegmentLayout(*sizes) for sizes in [(0, 0, 1), (4, 2, 2), (6, 3, 3), (16, 8, 8)]],
    )
    @pytest.mark.parametrize("shape", ["balanced", "random", "caterpillar"])
    def test_init_random_lexicons_give_the_fold_root_bit_for_bit(self, layout, shape):
        words = [f"w{k:02d}" for k in range(40)]
        lexicon = set_function_word(
            init_random(words, layout, seed=5, noise=0.1), "not"
        )
        rng = np.random.default_rng(11)
        tree = wide_tree(shape, 300, rng, words)
        # one "not" leaf, at a drawn position
        leaves = [j for j, token in enumerate(tree._tokens) if token is not None]
        tokens = list(tree._tokens)
        tokens[leaves[int(rng.integers(300))]] = "not"
        tree = ParseTree(tree._tags, tuple(tokens), tree._starts, tree._arity, tree._i)
        assert wide_levels(tree)
        for cfg in (DEFAULT, IMPROVED):
            got = compose_tree(tree, lexicon, cfg)
            assert np.isfinite(got.v.values).all()
            assert_same_root(got, fold(tree, lexicon, cfg))

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


def wide_text(cherries: dict, count: int = 32) -> str:
    """A balanced tree over ``count`` pairs of ``one`` leaves, pair k
    replaced by ``cherries[k]``: 2 * count leaves, with wide bottom levels."""
    pairs = [cherries.get(k, "(S (W one) (W one))") for k in range(count)]
    return balanced_text(pairs)


# Faults inside wide levels: each pair below is in the bottom level.
WIDE_ZERO = wide_text({2: "(B (W nil) (W nil))"})
WIDE_OVERFLOW = wide_text({5: "(A (W big) (W big))"})
WIDE_GHOST = wide_text({7: "(S (W one) (W ghost))"})


def spine_text(cherries: dict, count: int) -> str:
    """``count`` pairs of ``one`` leaves, pair k replaced by ``cherries[k]``,
    on a right-branching spine of C nodes: every pair has height 1 and
    only the lowest C node shares a height, 2, with another node."""
    pairs = [cherries.get(k, "(S (W one) (W one))") for k in range(count)]
    return "".join(f"(C {p} " for p in pairs[:-1]) + pairs[-1] + ")" * (count - 1)


# T, of height 2, overflows first in post-order and is in the narrow top:
# the 62 leaves on the right are 31 pairs on a spine, so with U height 1,
# 32 nodes wide, is a wide level and height 2 has only T and one C. A
# baseline matrix overflow and a Z = 0 pair follow in that level.
TOP_FIRST = (
    "(R (T (W big) (U (W big) (W one))) "
    + spine_text({3: "(B (W huge) (W huge))", 9: "(B (W nil) (W nil))"}, 31)
    + ")"
)
# The same shape. T in the top meets Z = 0 between a nil leaf and the row
# of the level's nil pair B, whose own Z = 0 comes first in post-order.
TOP_ZERO = "(R (T (W nil) (B (W nil) (W nil))) " + spine_text({}, 31) + ")"
# A ghost leaf of T in the top, after the level's overflowing pair A in
# post-order, then before it.
GHOST_T = "(T (W ghost) (U (W one) (W one)))"
OVERFLOW_SPINE = spine_text({3: "(A (W big) (W big))"}, 31)
TOP_GHOST_LAST = f"(R {OVERFLOW_SPINE} {GHOST_T})"
TOP_GHOST_FIRST = f"(R {GHOST_T} {OVERFLOW_SPINE})"


class TestRootOnlyFiniteTest:
    """``compose_tree`` tests finiteness at the root alone and, when that
    fails or the loop raises, replays the loop testing every step. It must
    raise what the fold raises, at the same step: the fold names a step by
    its two tokens and ``compose_tree`` by its node."""

    @pytest.fixture
    def lexicon(self):
        return Lexicon(
            LAY211,
            {
                "one": entry("one", [1.0] * 4, np.eye(4)),
                # a pair of these overflows its matrix alone under baseline
                "huge": entry("huge", [0.0] * 4, 1.5e308 * np.eye(4)),
                # a pair of these overflows its vector alone
                "big": entry("big", [1e300] * 4, 1e10 * np.eye(4)),
                "nil": entry("nil", [1.0] * 4, np.eye(4), alpha=0.0),
            },
        )

    VECTOR = "semantic vector entries are not finite after composing {}"
    MATRIX = "function matrix entries are not finite after composing {}"
    ZERO = "both alphas are zero at {}"
    GHOST = "token 'ghost' is not in the lexicon"

    @pytest.mark.parametrize(
        "text, models, kind, message, pair, node",
        [
            ("(S (W one) (A (W huge) (W huge)))", ["baseline"], ValueError, MATRIX,
             "'huge' and 'huge'", "node 'A' over leaves 2-3"),
            ("(S (A (W big) (W big)) (W one))", MODELS, ValueError, VECTOR,
             "'big' and 'big'", "node 'A' over leaves 1-2"),
            # an overflow before an unknown token in post-order, then after one
            ("(S (A (W big) (W big)) (W ghost))", MODELS, ValueError, VECTOR,
             "'big' and 'big'", "node 'A' over leaves 1-2"),
            ("(S (W ghost) (A (W big) (W big)))", MODELS, UnknownTokenError, GHOST,
             None, None),
            # an overflow before a Z = 0 node in post-order, then after one
            ("(S (A (W big) (W big)) (B (W nil) (W nil)))", ["improved"], ValueError,
             VECTOR, "'big' and 'big'", "node 'A' over leaves 1-2"),
            ("(S (B (W nil) (W nil)) (A (W big) (W big)))", ["improved"],
             DegenerateWeightsError, ZERO, "'nil' and 'nil'", "node 'B' over leaves 1-2"),
            # wide trees, whose bottom levels run as stacked steps
            (WIDE_ZERO, ["improved"], DegenerateWeightsError, ZERO, "'nil' and 'nil'",
             "node 'B' over leaves 5-6"),
            (WIDE_OVERFLOW, MODELS, ValueError, VECTOR, "'big' and 'big'",
             "node 'A' over leaves 11-12"),
            (WIDE_GHOST, MODELS, UnknownTokenError, GHOST, None, None),
            (TOP_FIRST, MODELS, ValueError, VECTOR, "'big' and 'big one'",
             "node 'T' over leaves 1-3"),
            # faults in the narrow top, whose fold reads level rows and leaves
            (TOP_ZERO, ["improved"], DegenerateWeightsError, ZERO, "'nil' and 'nil'",
             "node 'B' over leaves 2-3"),
            (TOP_GHOST_LAST, MODELS, ValueError, VECTOR, "'big' and 'big'",
             "node 'A' over leaves 7-8"),
            (TOP_GHOST_FIRST, MODELS, UnknownTokenError, GHOST, None, None),
        ],
    )
    def test_same_error_at_the_same_step_as_the_fold(
        self, lexicon, text, models, kind, message, pair, node
    ):
        tree = parse_bracketed(text)
        for model in models:
            cfg = CompositionConfig(model=model)
            got = outcome(compose_tree, tree, lexicon, cfg)
            want = outcome(fold, tree, lexicon, cfg)
            assert type(got) is type(want) is kind
            assert str(want) == message.format(pair)
            assert str(got) == message.format(node)

    @pytest.mark.parametrize(
        "text, inside, outside",
        [
            (WIDE_ZERO, {"B"}, set()),
            (WIDE_OVERFLOW, {"A"}, set()),
            (WIDE_GHOST, {"S"}, set()),
            (TOP_FIRST, {"B", "U"}, {"T", "R"}),
            (TOP_ZERO, {"B"}, {"T", "R"}),
            (TOP_GHOST_LAST, {"A", "U"}, {"T", "R"}),
            (TOP_GHOST_FIRST, {"A", "U"}, {"T", "R"}),
        ],
    )
    def test_the_wide_faults_are_where_they_are_meant_to_be(self, text, inside, outside):
        """Tags of nodes inside and outside the wide levels."""
        tree = parse_bracketed(text)
        levelled = {tree._tags[j] for nodes, *_ in wide_levels(tree) for j in nodes}
        assert inside <= levelled
        assert not outside & levelled

    def test_near_overflow_matrices_stay_finite_under_improved(self, lexicon):
        """The improved matrix rule is a convex combination, so the pair
        that overflows under baseline composes to a finite root."""
        tree = parse_bracketed("(S (W one) (A (W huge) (W huge)))")
        got = compose_tree(tree, lexicon, IMPROVED)
        want = fold(tree, lexicon, IMPROVED)
        assert np.array_equal(got.M.entries, want.M.entries)
        assert np.array_equal(got.v.values, want.v.values)

    @settings(max_examples=300, deadline=None)
    @given(
        st.data(),
        st.sampled_from([True, False]),
        st.sampled_from([0, 1, 2, 3]),
        st.sampled_from([np.inf, -np.inf, np.nan]),
    )
    def test_a_non_finite_child_gives_a_non_finite_parent(self, data, baseline, which, bad):
        """Why the root test is exact: under both models, with any weights,
        a NaN or inf in either child's vector or matrix reaches the parent,
        through 0 * inf = NaN when that child's weight is 0."""
        values = st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 1e-300, 1e300])
        arrays = [
            np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
            for size in (4, 16, 4, 16)
        ]
        arrays[which].flat[data.draw(st.integers(0, arrays[which].size - 1))] = bad
        va, ma, vb, mb = arrays
        aa, ab = data.draw(
            st.sampled_from([(0.0, 1.0), (1.0, 0.0), (1e-300, 1.0), (1.0, 3.0)])
        )
        with np.errstate(over="ignore", invalid="ignore"):
            v, m, _ = composition._step(
                va, ma.reshape(4, 4), aa, vb, mb.reshape(4, 4), ab, baseline, str
            )
        assert not (np.isfinite(v).all() and np.isfinite(m).all())

    def test_a_fault_free_tree_tests_finiteness_once(self, monkeypatch, lexicon):
        calls = []
        check = composition._check_finite

        def counted(v, m, where):
            calls.append(where)
            check(v, m, where)

        monkeypatch.setattr(composition, "_check_finite", counted)
        clean = parse_bracketed("(S (A (W one) (W big)) (B (W one) (W nil)))")
        wide = parse_bracketed(wide_text({k: "(A (W one) (W nil))" for k in range(0, 32, 3)}))
        for tree in (clean, wide):
            for cfg in (DEFAULT, IMPROVED):
                compose_tree(tree, lexicon, cfg)
        assert len(calls) == 4
        # a faulty tree: the root test, then the replay's steps up to the fault
        calls.clear()
        with pytest.raises(ValueError):
            compose_tree(parse_bracketed("(S (W one) (A (W big) (W big)))"), lexicon, DEFAULT)
        assert len(calls) == 2


PLAN_WORDS = [f"w{k:02d}" for k in range(30)]


def plan_lexicons(seeds=(5, 6)) -> list:
    """One lexicon per seed over ``PLAN_WORDS`` and ``not``: the same
    tokens, other values."""
    return [
        set_function_word(
            init_random(PLAN_WORDS, SegmentLayout(4, 2, 2), seed=seed, noise=0.1),
            "not",
        )
        for seed in seeds
    ]


def plan_texts() -> list:
    """A sentence, too narrow to batch, and three wide trees."""
    rng = np.random.default_rng(17)
    texts = ["(S (W w00) (VP (W not) (W w01)))"]
    for shape in ("balanced", "random", "caterpillar"):
        texts.append(format_tree(wide_tree(shape, 200, rng, PLAN_WORDS)))
    return texts


@pytest.mark.parametrize("count", [31, 32])
def test_a_tree_batches_from_twice_wide_nodes_of_height_1(count):
    """The batching edge: 2 WIDE pairs on a spine run as one stacked level,
    and one pair fewer node by node. Both give the fold's root."""
    pairs = {k: f"(S (W w{k % 30:02d}) (W w{(k * 7 + 1) % 30:02d}))" for k in range(count)}
    tree = parse_bracketed(spine_text(pairs, count))
    batched = count >= 2 * composition.WIDE
    assert [len(nodes) for nodes, *_ in wide_levels(tree)] == ([count] if batched else [])
    lexicon = plan_lexicons()[0]
    for cfg in (DEFAULT, IMPROVED):
        assert_same_root(compose_tree(tree, lexicon, cfg), fold(tree, lexicon, cfg))


class TestPlan:
    """``compose_tree`` plans a tree once per object and keeps the plan;
    every later compose of that object must give what a fresh parse of
    the same text gives, bit for bit."""

    @pytest.mark.parametrize("text", plan_texts())
    def test_a_kept_plan_gives_the_roots_of_a_fresh_tree(self, text):
        tree = parse_bracketed(text)
        assert tree._plan is None
        plan = None
        for lexicon in plan_lexicons():
            for cfg in (DEFAULT, IMPROVED):
                got = compose_tree(tree, lexicon, cfg)
                plan = plan or tree._plan
                assert tree._plan is plan is not None  # planned once, then kept
                assert_same_root(got, compose_tree(parse_bracketed(text), lexicon, cfg))
                assert_same_root(got, fold(tree, lexicon, cfg))
        fresh = parse_bracketed(text)
        assert fresh == tree and hash(fresh) == hash(tree)

    @pytest.mark.parametrize("wide", [False, True])
    def test_an_unknown_token_keeps_no_plan(self, wide):
        text = WIDE_GHOST if wide else "(S (W one) (A (W ghost) (W one)))"
        one = entry("one", [1.0] * 4, np.eye(4))
        lexicon = Lexicon(LAY211, {"one": one})
        tree = parse_bracketed(text)
        for _ in range(2):
            with pytest.raises(UnknownTokenError, match="^token 'ghost' is not in the lexicon$"):
                compose_tree(tree, lexicon, DEFAULT)
            assert tree._plan is None
        lexicon = lexicon.with_entry(entry("ghost", [2.0] * 4, 0.5 * np.eye(4)))
        for cfg in (DEFAULT, IMPROVED):
            got = compose_tree(tree, lexicon, cfg)
            assert tree._plan is not None
            assert_same_root(got, fold(parse_bracketed(text), lexicon, cfg))

    def test_a_non_binary_tree_keeps_no_plan(self, sentence_lexicon):
        tree = parse_bracketed("(S (N car) (VP (N is) (N not) (N blue)))")
        for _ in range(2):
            with pytest.raises(TreeArityError, match="^node 'VP' has 3 children"):
                compose_tree(tree, sentence_lexicon, DEFAULT)
            assert tree._plan is None

    @pytest.mark.parametrize("text", plan_texts()[1:], ids=["balanced", "random", "caterpillar"])
    def test_the_results_hold_the_unique_leaves_and_the_bottom_level(self, text):
        """Every node above the bottom level writes into an internal
        child's row, so only the bottom level takes new rows."""
        tree = parse_bracketed(text)
        leaves, rows, *_ = composition._plan(tree)
        assert set(leaves) == set(tree.fringe())
        assert rows == len(leaves) + len(wide_levels(tree)[0][0])

    @pytest.mark.parametrize("text", plan_texts()[1:])
    def test_a_child_view_composes_to_its_own_root(self, text):
        tree = parse_bracketed(text)
        lexicon = plan_lexicons()[0]
        for cfg in (DEFAULT, IMPROVED):
            compose_tree(tree, lexicon, cfg)
            for child in (*tree.children, *tree.children[0].children):
                got = compose_tree(child, lexicon, cfg)
                want = compose_tree(parse_bracketed(format_tree(child)), lexicon, cfg)
                assert_same_root(got, want)
                assert_same_root(got, fold(child, lexicon, cfg))


class TestBuiltEntries:
    """``compose_pair``'s result and a composed root wrap the step's own
    arrays, unchecked: they must still be read-only, own their data, equal
    the entry the public constructors build, and validate on ``replace``."""

    @pytest.fixture(params=["pair", "wide root"])
    def built(self, request):
        lexicon = plan_lexicons()[0]
        if request.param == "pair":
            return compose_pair(lexicon["w00"], lexicon["not"], IMPROVED)
        tree = parse_bracketed(balanced_text([f"(W w{k % 30:02d})" for k in range(64)]))
        assert wide_levels(tree)
        return compose_tree(tree, lexicon, IMPROVED)

    def test_the_arrays_are_read_only(self, built):
        for array in (built.v.values, built.M.entries):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_the_arrays_own_their_data(self, built):
        # so a root never holds the wide levels' results buffer alive
        assert built.v.values.flags.owndata and built.M.entries.flags.owndata

    @pytest.mark.parametrize("model", MODELS)
    def test_a_wide_root_owns_its_arrays_under_both_models(self, model):
        """The fold's last step makes the root's arrays, so no root holds
        the results array alive: for a balanced 4096-leaf tree of 64 words,
        1.2 MB at n = 8 and 18 MB at n = 32."""
        tree = parse_bracketed(balanced_text([f"(W w{k % 30:02d})" for k in range(64)]))
        assert wide_levels(tree)
        root = compose_tree(tree, plan_lexicons()[0], CompositionConfig(model=model))
        assert root.v.values.flags.owndata and root.M.entries.flags.owndata

    def test_equal_to_the_checked_entry(self, built):
        layout = built.layout
        checked = LexicalEntry(
            built.token,
            SemanticVector(built.v.values, layout),
            FunctionMatrix(built.M.entries, layout),
            built.alpha,
        )
        assert built == checked
        assert type(built.alpha) is float and layout == SegmentLayout(4, 2, 2)

    def test_replace_still_validates(self, built):
        with pytest.raises(ValueError, match="^alpha must be finite"):
            replace(built, alpha=-1.0)
        with pytest.raises(ValueError, match="^token must be nonempty$"):
            replace(built, token="")
        with pytest.raises(ValueError, match="^semantic vector entries must be finite$"):
            replace(built.v, values=np.full(8, np.nan))
        with pytest.raises(DimensionError):
            replace(built.M, entries=np.eye(3))
        assert replace(built, alpha=2).alpha == 2.0


class TestDeepChain:
    def test_a_deep_top_over_wide_levels_keeps_its_memory_and_bits(self):
        """A chain 3000 deep over a balanced 256-leaf subtree at n = 8: the
        subtree's levels run stacked and the 3000 top nodes in the fold,
        which takes no row for them, so the results array does not grow with
        the top (a fresh row per top node would add about 1.8 MB), and the
        root is the ``compose_pair`` fold's."""
        lexicon = plan_lexicons()[0]
        rng = np.random.default_rng(8)
        bottom = balanced_text([f"(W {PLAN_WORDS[k]})" for k in rng.integers(0, 30, 256)])
        chain = [PLAN_WORDS[k] for k in rng.integers(0, 30, 3000)]
        tree = parse_bracketed("".join(f"(X (W {t}) " for t in chain) + bottom + ")" * 3000)
        assert wide_levels(tree)
        for cfg in (DEFAULT, IMPROVED):
            compose_tree(tree, lexicon, cfg)  # plans the tree
            tracemalloc.start()
            try:
                root = compose_tree(tree, lexicon, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            want = fold(parse_bracketed(bottom), lexicon, cfg)
            for token in reversed(chain):
                want = compose_pair(lexicon[token], want, cfg)
            assert_same_root(root, want)

    def test_a_balanced_tree_beside_a_chain_at_n_32_gives_the_fold_root(self):
        """At n = 32, a tree of 256 units beside a chain 300 deep. Each unit
        is a pair with one more leaf on its left or its right, so the second
        level's nodes each have one leaf child and write into the other
        child's row, as the chain's nodes in the top do."""
        layout = SegmentLayout(16, 8, 8)
        lexicon = set_function_word(
            init_random(PLAN_WORDS, layout, seed=9, noise=0.1), "not"
        )
        rng = np.random.default_rng(9)
        words = [PLAN_WORDS[k] for k in rng.integers(0, 30, 3 * 256 + 300)]
        words[100] = words[900] = "not"
        units = [
            f"(U (W {a}) (S (W {b}) (W {c})))" if k % 2 else f"(U (S (W {a}) (W {b})) (W {c}))"
            for k, (a, b, c) in enumerate(zip(*[iter(words[:768])] * 3))
        ]
        chain = words[768:]
        text = f"(R {balanced_text(units)} {''.join(f'(X (W {t}) ' for t in chain)}(W w00)"
        tree = parse_bracketed(text + ")" * (len(chain) + 1))
        # the chain's two lowest nodes join the units in the first two levels
        assert [len(nodes) for nodes, *_ in wide_levels(tree)][:2] == [257, 257]
        for cfg in (DEFAULT, IMPROVED):
            got = compose_tree(tree, lexicon, cfg)
            assert np.isfinite(got.v.values).all() and np.isfinite(got.M.entries).all()
            assert_same_root(got, fold(tree, lexicon, cfg))

    def test_a_fresh_balanced_4096_leaf_compose_keeps_to_the_bottom_level(self):
        """A first compose, plan included, of a balanced 4096-leaf tree at
        n = 8: the results array holds the unique leaves and the bottom
        level's 2048 nodes, about 1.2 MB, and the peak is about 1.6 MiB. A
        new row for every wide-level node, 4080 of them, would peak at 2.6
        to 2.7 MiB."""
        lexicon = plan_lexicons()[0]
        rng = np.random.default_rng(4)
        text = balanced_text([f"(W {PLAN_WORDS[k]})" for k in rng.integers(0, 30, 4096)])
        for cfg in (DEFAULT, IMPROVED):
            tree = parse_bracketed(text)
            tracemalloc.start()
            try:
                compose_tree(tree, lexicon, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20

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
        assert root.token == " ".join(tokens)
