"""Bracketed tree parsing, printing, and binarization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tripsem.errors import TreeParseError
from tripsem.treeio import ParseTree, binarize, format_tree, parse_bracketed, parse_forest

SENTENCE = "(S (NP (Det this) (N car)) (VP (VBZ is) (RB not) (ADJP (JJ blue))))"


def leaves(tags_tokens):
    return tuple(ParseTree.leaf(t, w) for t, w in tags_tokens)


class TestParse:
    def test_single_leaf(self):
        tree = parse_bracketed("(JJ blue)")
        assert tree.is_leaf and tree.tag == "JJ" and tree.token == "blue"

    def test_example_sentence_shape(self):
        tree = parse_bracketed(SENTENCE)
        assert tree.tag == "S"
        np, vp = tree.children
        assert [c.tag for c in np.children] == ["Det", "N"]
        # the VP is ternary before binarization
        assert [c.tag for c in vp.children] == ["VBZ", "RB", "ADJP"]
        assert tree.fringe() == ("this", "car", "is", "not", "blue")

    def test_whitespace_is_insignificant(self):
        spaced = "( S\n  (NP (Det this)\t(N car))\n  (VP (VBZ is) (RB not) (ADJP (JJ blue))) )"
        assert parse_bracketed(spaced) == parse_bracketed(SENTENCE)

    def test_truncated_input_reports_end_offset(self):
        text = "(S (NP"
        with pytest.raises(TreeParseError) as err:
            parse_bracketed(text)
        assert err.value.offset == len(text)
        assert f"offset {len(text)}" in str(err.value)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "()",
            "(S)",
            "blue",
            "(S (NP (Det this))) trailing",
            "(S (JJ blue) extra_token)",
            "(JJ blue red)",
            "))",
        ],
    )
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(TreeParseError):
            parse_bracketed(bad)

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("  ", "expected '('", 2),
            ("x(S a)", "expected '('", 0),
            ("( ", "missing tag after '('", 2),
            ("((S a))", "missing tag after '('", 1),
            ("(S (A a) (B ))", "empty node", 13),
            ("(S (A a) (B", "unbalanced brackets: unexpected end of input", 11),
            ("(S a (B b))", "node mixes bare tokens with subtrees", 4),
            ("(S (B b) a c)", "node mixes bare tokens with subtrees", 10),
            ("(S (A a)\n (B b c))", "leaf has more than one token", 16),
            ("(S (A a)(B b))(C c)", "trailing content after tree", 14),
        ],
    )
    def test_each_error_names_its_offset(self, text, message, offset):
        with pytest.raises(TreeParseError) as err:
            parse_bracketed(text)
        assert str(err.value) == f"{message} (offset {offset})"
        assert err.value.offset == offset

    def test_offsets_point_at_the_problem(self):
        with pytest.raises(TreeParseError) as err:
            parse_bracketed("(S (NP (Det this))) trailing")
        assert err.value.offset == len("(S (NP (Det this))) ")


class TestFormat:
    def test_canonical_single_space(self):
        assert format_tree(parse_bracketed(SENTENCE)) == SENTENCE

    def test_parse_of_format_is_identity(self):
        tree = parse_bracketed(SENTENCE)
        assert parse_bracketed(format_tree(tree)) == tree


class TestForest:
    def test_blank_line_separated(self):
        text = "(JJ blue)\n\n(JJ red)\n"
        forest = parse_forest(text)
        assert [t.token for t in forest] == ["blue", "red"]

    def test_single_tree_spanning_lines(self):
        text = "(S (JJ blue)\n   (JJ red))\n"
        assert len(parse_forest(text)) == 1

    def test_empty_input(self):
        assert parse_forest("  \n\n") == []


class TestBinarize:
    def test_ternary_vp_right_fold(self):
        tree = parse_bracketed(SENTENCE)
        result = binarize(tree)
        assert format_tree(result) == (
            "(S (NP (Det this) (N car)) (VP (VBZ is) (VP* (RB not) (JJ blue))))"
        )

    def test_right_fold_keeps_not_next_to_the_adjective(self):
        vp = binarize(parse_bracketed("(VP (VBZ is) (RB not) (ADJP (JJ blue)))"))
        aux = vp.children[1]
        assert aux.tag == "VP*"
        assert aux.fringe() == ("not", "blue")

    def test_left_fold(self):
        tree = parse_bracketed("(X (A a) (B b) (C c))")
        assert format_tree(binarize(tree, strategy="left")) == "(X (X* (A a) (B b)) (C c))"

    def test_four_children_right(self):
        tree = parse_bracketed("(X (A a) (B b) (C c) (D d))")
        assert format_tree(binarize(tree)) == "(X (A a) (X* (B b) (X* (C c) (D d))))"

    def test_already_binary_unchanged(self):
        tree = parse_bracketed("(S (NP (Det this) (N car)) (VP (VBZ is) (JJ blue)))")
        assert binarize(tree) == tree

    def test_unary_chain_collapses_to_lower_tag(self):
        tree = parse_bracketed("(S (NP (ADJP (JJ blue))))")
        assert format_tree(binarize(tree)) == "(JJ blue)"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            binarize(parse_bracketed("(JJ blue)"), strategy="middle")


@st.composite
def random_trees(draw, depth=0):
    """Small n-ary trees with fixed tag/token alphabets."""
    tags = st.sampled_from(["S", "NP", "VP", "X"])
    tokens = st.sampled_from(["a", "b", "c", "d"])
    if depth >= 3 or draw(st.booleans()):
        return ParseTree.leaf(draw(tags), draw(tokens))
    width = draw(st.integers(min_value=1, max_value=4))
    children = tuple(draw(random_trees(depth=depth + 1)) for _ in range(width))
    return ParseTree.node(draw(tags), children)


class TestBinarizeProperties:
    @given(random_trees())
    def test_fringe_is_preserved(self, tree):
        assert binarize(tree).fringe() == tree.fringe()

    @given(random_trees())
    def test_idempotent(self, tree):
        once = binarize(tree)
        assert binarize(once) == once

    @given(random_trees())
    def test_every_internal_node_is_binary(self, tree):
        def check(t):
            if t.is_leaf:
                return
            assert len(t.children) == 2
            for child in t.children:
                check(child)

        check(binarize(tree))

    @given(random_trees())
    def test_round_trips_through_text(self, tree):
        assert parse_bracketed(format_tree(tree)) == tree


class TestDeepTrees:
    """Nothing recurses: a chain 10^5 levels deep goes through every tree
    operation with the default recursion limit."""

    DEPTH = 10**5

    @pytest.fixture(scope="class")
    def chain_text(self):
        # odd levels are unary, so binarize has nodes to collapse
        opens = "".join(
            "(U " if i % 2 else f"(X (W w{i % 7}) " for i in range(self.DEPTH)
        )
        return opens + "(W end)" + ")" * self.DEPTH

    @pytest.fixture(scope="class")
    def chain(self, chain_text):
        return parse_bracketed(chain_text)

    def test_parse_format_and_compare(self, chain_text, chain):
        assert format_tree(chain) == chain_text
        assert repr(chain) == f"<ParseTree {chain_text}>"
        again = parse_bracketed(format_tree(chain))
        assert again == chain and hash(again) == hash(chain)
        assert len(chain.fringe()) == self.DEPTH // 2 + 1
        assert chain.fringe()[-1] == "end"

    @pytest.mark.parametrize("strategy", ["right", "left"])
    def test_binarize_collapses_every_unary_level(self, chain, strategy):
        binary = binarize(chain, strategy)
        assert binary.fringe() == chain.fringe()
        text = format_tree(binary)
        assert "(U " not in text
        assert text.count("(X ") == self.DEPTH // 2
        assert binarize(binary, strategy) == binary
