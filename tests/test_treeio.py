"""Bracketed tree parsing, printing, and binarization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripsem.errors import TreeParseError
from tripsem.treeio import ParseTree, binarize, format_tree, parse_bracketed, parse_forest

SENTENCE = "(S (NP (Det this) (N car)) (VP (VBZ is) (RB not) (ADJP (JJ blue))))"

PARSE_ERRORS = [
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
    # the faulty token next to whitespace other than ASCII space and newline
    ("\u3000x(S a)", "expected '('", 1),
    ("(\xa0\u3000(S a))", "missing tag after '('", 3),
    ("(\u2003", "missing tag after '('", 2),
    ("(S\u3000(A a)\xa0(B\x85))", "empty node", 13),
    ("(S\t(A a)\u3000x)", "node mixes bare tokens with subtrees", 10),
    ("(JJ\xa0blue\x85red)", "leaf has more than one token", 12),
    ("(S (A a)\r\n\u3000(B", "unbalanced brackets: unexpected end of input", 13),
    ("(S a)\x1c(B b)", "trailing content after tree", 6),
]


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

    @pytest.mark.parametrize("text, message, offset", PARSE_ERRORS)
    def test_each_error_names_its_offset(self, text, message, offset):
        with pytest.raises(TreeParseError) as err:
            parse_bracketed(text)
        assert str(err.value) == f"{message} (offset {offset})"
        assert err.value.offset == offset

    def test_offsets_point_at_the_problem(self):
        with pytest.raises(TreeParseError) as err:
            parse_bracketed("(S (NP (Det this))) trailing")
        assert err.value.offset == len("(S (NP (Det this))) ")


class TestBuild:
    def test_leaf_token_with_whitespace_rejected(self):
        with pytest.raises(ValueError, match="^leaf token must be nonempty and whitespace-free"):
            ParseTree.leaf("JJ", "a b")

    def test_node_without_children_rejected(self):
        with pytest.raises(ValueError, match="^a node needs at least one child$"):
            ParseTree.node("S", [])

    def test_a_tree_is_unequal_to_another_type(self):
        tree = parse_bracketed(SENTENCE)
        assert tree.__eq__(SENTENCE) is NotImplemented
        assert tree != SENTENCE and not tree == 1


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

    @pytest.mark.parametrize(
        "text, message, offset", [case for case in PARSE_ERRORS if case[0].strip()]
    )
    def test_a_single_tree_keeps_its_offsets(self, text, message, offset):
        with pytest.raises(TreeParseError) as err:
            parse_forest(text + "\n")
        assert str(err.value) == f"{message} (offset {offset})"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize(
        "trees, message, marker, shift",
        [
            # the end of input is the end of the faulty tree's last line
            (["(W car)", "(S (W is)"], "unbalanced brackets: unexpected end of input", "(S (W is)", 9),
            (["(A a)", "(S (A a))\n(C c)"], "trailing content after tree", "(C c)", 0),
            (["(A a)", "(B\n b)", "(C\n (X x) (c)"], "empty node", "(c)", 3),
            (["(A a)", "(B b)", "(S (A a)\n (B b c))"], "leaf has more than one token", "c))", 1),
        ],
    )
    def test_offsets_count_from_the_start_of_the_text(
        self, trees, message, marker, shift, newline
    ):
        """An error in the 2nd or 3rd tree, with LF, CRLF or CR line endings."""
        text = (newline * 2).join(tree.replace("\n", newline) for tree in trees) + newline
        offset = text.rindex(marker) + shift
        with pytest.raises(TreeParseError) as err:
            parse_forest(text)
        assert str(err.value) == f"{message} (offset {offset})"
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text",
        [
            "(S (A a)\x85\x85(B b))\n",
            "(S (A a)\u2028\u2029(B b))",
            "(S\x0b\x0c(A a)\x1c\x1d\x1e(B b))",
        ],
    )
    def test_unicode_line_separators_are_spaces_within_a_line(self, text):
        assert parse_forest(text) == [parse_bracketed("(S (A a) (B b))")]

    def test_offsets_skip_leading_blank_lines(self):
        text = "\n \r\n\t\n  (S (A a) (B ))\n"
        with pytest.raises(TreeParseError) as err:
            parse_forest(text)
        assert err.value.offset == text.index("(B )") + 4


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


# Whitespace that str.split and re's \s both split on, beyond ASCII space
WHITESPACE = [" ", "\t", "\r\n", "\x1c", "\x85", "\xa0", "\u3000"]


def whitespace(min_size: int = 0):
    return st.lists(st.sampled_from(WHITESPACE), min_size=min_size, max_size=3).map("".join)


def text_tokens(tree) -> list:
    """The parens, tags and tokens of ``tree``'s bracketed text, in order."""
    if tree.is_leaf:
        return ["(", tree.tag, tree.token, ")"]
    return ["(", tree.tag, *(t for child in tree.children for t in text_tokens(child)), ")"]


class TestWhitespaceProperties:
    @given(random_trees(), st.data())
    def test_any_whitespace_parses_to_the_built_tree(self, tree, data):
        """A tree built with ParseTree.node and .leaf, printed with a random
        run of whitespace between any two tokens (at least one character
        between two words) and around the whole, parses back equal."""
        tokens = text_tokens(tree)
        text = data.draw(whitespace()) + tokens[0]
        for before, token in zip(tokens, tokens[1:]):
            words = before not in "()" and token not in "()"
            text += data.draw(whitespace(min_size=1 if words else 0)) + token
        text += data.draw(whitespace())
        assert parse_bracketed(text) == tree


LINE_BREAKS = ["\n", "\r\n", "\r"]
# every character str.isspace accepts but the line breaks of a tree file
SPACES = [c for c in map(chr, range(0x110000)) if c.isspace() and c not in "\n\r"]


def gap(data, breaks: int, min_size: int = 0) -> str:
    """A run of whitespace that holds ``breaks`` line breaks."""
    text = "".join(data.draw(st.lists(st.sampled_from(SPACES), min_size=min_size, max_size=3)))
    for _ in range(breaks):
        br = data.draw(st.sampled_from(LINE_BREAKS))
        # "\r" then "\n" would read as one CRLF break
        text += (" " if text.endswith("\r") and br == "\n" else "") + br
        text += "".join(data.draw(st.lists(st.sampled_from(SPACES), max_size=2)))
    return text


class TestForestProperties:
    @given(st.lists(random_trees(), min_size=1, max_size=4), st.data())
    def test_any_whitespace_and_blank_lines_parse_to_the_built_trees(self, trees, data):
        """Trees built with ParseTree.node and .leaf, each printed with runs
        of any Unicode whitespace (at most one line break) between its
        tokens and joined by blank lines of LF, CRLF or CR, parse back to
        the same forest."""
        text = gap(data, data.draw(st.integers(0, 2)))
        for n, tree in enumerate(trees):
            if n:
                text += gap(data, data.draw(st.integers(2, 4)))
            tokens = text_tokens(tree)
            text += tokens[0]
            for before, token in zip(tokens, tokens[1:]):
                words = before not in "()" and token not in "()"
                text += gap(data, data.draw(st.integers(0, 1)), 1 if words else 0) + token
        text += gap(data, data.draw(st.integers(0, 2)))
        assert parse_forest(text) == trees


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


# A reference model of n-ary trees that never reads the flat storage: a leaf
# is (tag, token) and a node is (tag, [children]); every walk below keeps
# an explicit stack, so a 10^5-deep chain goes through it too.
REF_TAGS = st.sampled_from(["S", "NP", "VP", "X"])
REF_TOKENS = st.sampled_from(["a", "b", "c", "not"])
ref_trees = st.recursive(
    st.tuples(REF_TAGS, REF_TOKENS),
    lambda kids: st.tuples(REF_TAGS, st.lists(kids, min_size=1, max_size=5)),
    max_leaves=40,
)


def ref_post_order(ref) -> list:
    """(tag, token, children, start) per node in post-order, start being the
    post-order index of the node's leftmost leaf."""
    out, todo = [], [(ref, False)]
    while todo:
        node, done = todo.pop()
        if isinstance(node[1], str):
            out.append((node[0], node[1], 0, len(out)))
        elif done:
            first = out[-1][3]  # the last child's, then walk to the first child
            for _ in node[1][1:]:
                first = out[first - 1][3]
            out.append((node[0], None, len(node[1]), first))
        else:
            todo.append((node, True))
            todo += ((child, False) for child in reversed(node[1]))
    return out


def ref_text(ref) -> str:
    out, todo = [], [ref]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node[1], str):
            out.append(f"({node[0]} {node[1]})")
        else:
            out.append(f"({node[0]}")
            todo.append(")")
            for child in reversed(node[1]):
                todo += (child, " ")
    return "".join(out)


def ref_fold(nodes, leaf, node):
    """Build bottom-up from a post-order list: leaf(tag, token) and
    node(tag, children) make each node."""
    built: list = []
    for tag, token, children, _ in nodes:
        if token is not None:
            built.append(leaf(tag, token))
        else:
            kids = built[len(built) - children :]
            del built[len(built) - children :]
            built.append(node(tag, kids))
    return built[0]


def ref_build(ref) -> ParseTree:
    """The tree built bottom-up with ParseTree.leaf and ParseTree.node."""
    return ref_fold(ref_post_order(ref), ParseTree.leaf, ParseTree.node)


def ref_views(tree, ref):
    """Each node of ``tree``, by its public API, beside its reference node
    and that node's post-order index."""
    nodes = ref_post_order(ref)
    pairs, todo = [], [(tree, len(nodes) - 1)]
    while todo:
        view, j = todo.pop()
        pairs.append((view, nodes[j], j))
        # node j's last child is j - 1, and each earlier one ends where the next starts
        kids, k = [], j - 1
        for _ in range(nodes[j][2]):
            kids.append(k)
            k = nodes[k][3] - 1
        todo += zip(view.children, reversed(kids))
    return pairs


def assert_views_agree(tree, ref) -> None:
    nodes = ref_post_order(ref)
    leaves = [t for _, t, _, _ in nodes]
    for view, (tag, token, children, start), j in ref_views(tree, ref):
        assert (view.tag, view.token, view.is_leaf) == (tag, token, token is not None)
        assert len(view.children) == children
        assert view._i == j and view._first() == start
        if j == len(nodes) - 1 or children > 2:  # a fringe costs its size
            assert view.fringe() == tuple(filter(None, leaves[start : j + 1]))


class TestStorageProperties:
    """The flat storage (subtree starts and child counts) against the
    reference model, over random n-ary trees with unary chains."""

    @settings(max_examples=150, deadline=None)
    @given(ref_trees)
    def test_views_agree_with_the_reference_walk(self, ref):
        assert_views_agree(parse_bracketed(ref_text(ref)), ref)

    @settings(max_examples=150, deadline=None)
    @given(ref_trees)
    def test_text_round_trips_and_node_builds_the_parsed_tree(self, ref):
        tree = parse_bracketed(ref_text(ref))
        assert format_tree(tree) == ref_text(ref)
        assert parse_bracketed(format_tree(tree)) == tree
        built = ref_build(ref)
        assert built == tree and hash(built) == hash(tree)
        assert format_tree(built) == ref_text(ref)

    @settings(max_examples=150, deadline=None)
    @given(ref_trees)
    def test_a_subtree_view_equals_its_own_parse(self, ref):
        tree = parse_bracketed(ref_text(ref))
        for view, _, _ in ref_views(tree, ref):
            alone = parse_bracketed(format_tree(view))
            assert view == alone and hash(view) == hash(alone)
            assert view.fringe() == alone.fringe()
            for strategy in ("right", "left"):
                assert binarize(view, strategy) == binarize(alone, strategy)

    @settings(max_examples=150, deadline=None)
    @given(ref_trees, st.sampled_from(["right", "left"]))
    def test_binarize_is_idempotent_and_binary(self, ref, strategy):
        tree = parse_bracketed(ref_text(ref))
        binary = binarize(tree, strategy)
        assert binarize(binary, strategy) == binary
        assert binarize(ref_build(ref), strategy) == binary
        assert binary.fringe() == tree.fringe()
        todo = [binary]
        while todo:
            kids = todo.pop().children
            assert len(kids) in (0, 2)
            todo += kids

    @settings(max_examples=150, deadline=None)
    @given(ref_trees, st.data())
    def test_a_tree_differing_in_one_tag_is_unequal(self, ref, data):
        nodes = ref_post_order(ref)
        j = data.draw(st.integers(0, len(nodes) - 1))
        retagged = [(tag + "x" if k == j else tag, *rest) for k, (tag, *rest) in enumerate(nodes)]
        tree = parse_bracketed(ref_text(ref))
        other = parse_bracketed(ref_text(ref_fold(retagged, lambda *a: a, lambda t, c: (t, c))))
        assert other != tree and other.fringe() == tree.fringe()
        wrapped = ParseTree.node("S", [tree])  # one more level: another arity
        assert wrapped != tree and wrapped.children[0] == tree


def wide_ref(width: int):
    """A node of ``width`` leaves between two leaves, under a unary chain."""
    middle = ("X", [("W", f"w{k}") for k in range(width)])
    return ("R", [("U", [("S", [("A", "a"), middle, ("B", "b")])])])


def deep_ref(depth: int, shape: str):
    """A chain ``depth`` levels deep: left- or right-branching pairs, or
    unary nodes over one leaf."""
    ref = ("W", "end")
    for k in range(depth):
        leaf = ("W", f"w{k % 7}")
        ref = ("U", [ref]) if shape == "unary" else ("X", [ref, leaf] if shape == "left" else [leaf, ref])
    return ref


@pytest.mark.parametrize(
    "one, other",
    [
        ("(R (X (W a) (W b)))", "(R (W a) (X (W b)))"),
        ("(R (X (W a) (W b)) (W c))", "(R (W a) (X (W b)) (W c))"),
        ("(R (X (X (W a) (W b))))", "(R (W a) (X (X (W b))))"),
    ],
)
def test_one_post_order_of_labels_in_two_shapes_is_two_trees(one, other):
    """Tags and tokens in post-order alone do not fix a tree: the child
    counts tell these apart."""
    a, b = parse_bracketed(one), parse_bracketed(other)
    assert [(t.tag, t.token) for t in post_order_views(a)] == [
        (t.tag, t.token) for t in post_order_views(b)
    ]
    assert a != b and format_tree(a) == one and format_tree(b) == other


def post_order_views(tree) -> list:
    out, todo = [], [(tree, False)]
    while todo:
        node, done = todo.pop()
        if done or node.is_leaf:
            out.append(node)
        else:
            todo.append((node, True))
            todo += ((child, False) for child in reversed(node.children))
    return out


class TestStorageEdges:
    """Nodes of 256 or more children and chains 10^5 deep, against the
    reference model."""

    @pytest.mark.parametrize(
        "ref",
        [wide_ref(255), wide_ref(256), wide_ref(300)]
        + [deep_ref(10**5, shape) for shape in ("left", "right", "unary")],
        ids=["wide-255", "wide-256", "wide-300", "deep-left", "deep-right", "deep-unary"],
    )
    def test_the_storage_agrees_with_the_reference(self, ref):
        text = ref_text(ref)
        tree = parse_bracketed(text)
        assert_views_agree(tree, ref)
        assert format_tree(tree) == text
        again = parse_bracketed(format_tree(tree))
        assert again == tree and hash(again) == hash(tree)
        for strategy in ("right", "left"):
            binary = binarize(tree, strategy)
            assert binarize(binary, strategy) == binary
            assert binary.fringe() == tree.fringe()

    @pytest.mark.parametrize("width", [255, 256, 300])
    def test_a_wide_node_keeps_its_children(self, width):
        tree = parse_bracketed(ref_text(wide_ref(width)))
        assert tree == ref_build(wide_ref(width))
        (s,) = tree.children[0].children
        middle = s.children[1]
        assert len(middle.children) == width
        assert [c.token for c in middle.children] == [f"w{k}" for k in range(width)]
        right = binarize(middle)
        assert format_tree(right).count("(X* ") == width - 2
        assert format_tree(binarize(middle, "left")).startswith("(X " + "(X* " * (width - 2))
