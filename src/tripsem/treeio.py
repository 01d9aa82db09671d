"""Bracketed parse-tree reading, printing, and binarization.

Trees use the usual Penn-style text form: ``(TAG child child ...)`` where a
leaf is ``(TAG token)``. Whitespace between elements is insignificant, and
``format_tree`` produces the canonical single-space rendering, so
``parse_bracketed(format_tree(t)) == t``. ``parse_forest`` separates trees
by blank lines, and its lines break only at ``\n``, ``\r\n`` and ``\r``:
``\x85``, form feed and U+2028 are spaces inside a line.

A tree is stored flat, in post-order: per node a tag, a token (None for an
internal node), its start (the index of its leftmost leaf) and its child
count. A subtree runs from its start to its root, a node's last child is
the node before it and each earlier one ends where the next starts, and
the arrays read as the shift-reduce sequence that ``compose_tree`` runs.
``ParseTree`` is a read-only view of one node of such arrays. The parser,
``binarize``, ``format_tree``, equality and hashing are loops over the
arrays; none recurses, so depth is bounded by memory alone.

Composition is strictly pairwise, so n-ary trees must be binarized first.
``binarize`` collapses unary chains into their child (keeping the lower tag;
a unary node carries no composition step) and then folds wider nodes into
nested pairs, introducing nodes tagged with the parent tag plus ``*``.
"""

from __future__ import annotations

import io

from .errors import TreeParseError

__all__ = ["ParseTree", "parse_bracketed", "parse_forest", "format_tree", "binarize"]


def _check_word(word, what: str) -> None:
    if not word or any(ch.isspace() for ch in word):
        raise ValueError(f"{what} must be nonempty and whitespace-free, got {word!r}")


class ParseTree:
    """Labelled tree: either a leaf (tag, token) or a node with children.

    A read-only view of node ``index`` of flat post-order arrays; build
    trees with ``parse_bracketed``, ``ParseTree.leaf`` and ``ParseTree.node``.
    """

    __slots__ = ("_tags", "_tokens", "_starts", "_arity", "_i", "_plan")

    def __init__(self, tags: tuple, tokens: tuple, starts: tuple, arity: tuple, index: int):
        self._tags, self._tokens, self._starts, self._arity = tags, tokens, starts, arity
        self._i = index
        self._plan = None  # composition's plan of this tree; see compose_tree

    @classmethod
    def leaf(cls, tag: str, token: str) -> "ParseTree":
        _check_word(tag, "tag")
        _check_word(token, "leaf token")
        return cls((tag,), (token,), (0,), (0,), 0)

    @classmethod
    def node(cls, tag: str, children) -> "ParseTree":
        """A node over ``children``. Each call copies its children's nodes into
        new flat arrays, O(size), so a depth-d chain built bottom-up costs
        O(d²); ``parse_bracketed`` reads a tree of any depth in one pass."""
        _check_word(tag, "tag")
        tags, tokens, starts, arity, count = [], [], [], [], 0
        for count, child in enumerate(children, 1):
            lo, hi = child._first(), child._i + 1
            starts += [s + len(tags) - lo for s in child._starts[lo:hi]]
            tags += child._tags[lo:hi]
            tokens += child._tokens[lo:hi]
            arity += child._arity[lo:hi]
        if not tags:
            raise ValueError("a node needs at least one child")
        return cls((*tags, tag), (*tokens, None), (*starts, 0), (*arity, count), len(tags))

    @property
    def tag(self) -> str:
        return self._tags[self._i]

    @property
    def token(self) -> str | None:
        return self._tokens[self._i]

    @property
    def children(self) -> tuple["ParseTree", ...]:
        kids, k = [], self._i - 1
        while k >= self._first():
            kids.append(self._node(k))
            k = self._starts[k] - 1
        return tuple(reversed(kids))

    @property
    def is_leaf(self) -> bool:
        return self._tokens[self._i] is not None

    def _node(self, j: int) -> "ParseTree":
        """Node j of the same arrays."""
        return ParseTree(self._tags, self._tokens, self._starts, self._arity, j)

    def _first(self) -> int:
        """Index of this subtree's first node, its leftmost leaf."""
        return self._starts[self._i]

    def fringe(self) -> tuple[str, ...]:
        """Leaf tokens, left to right."""
        return tuple(filter(None, self._tokens[self._first() : self._i + 1]))

    def _key(self) -> tuple:
        # Post-order (tag, token, arity) determines a tree uniquely.
        lo, hi = self._first(), self._i + 1
        return self._tags[lo:hi], self._tokens[lo:hi], self._arity[lo:hi]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParseTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<ParseTree {format_tree(self)}>"


def _shape(tree: ParseTree) -> tuple[int, tuple, bytes]:
    """(lo, starts, arity): ``tree`` is nodes lo to lo + len(arity) - 1 of its
    arrays; node j's subtree is nodes starts[j] to j, and arity[j - lo] its
    child count as a byte, 255 for 255 or more."""
    lo = tree._first()
    counts = tree._arity[lo : tree._i + 1]
    try:
        return lo, tree._starts, bytes(counts)
    except ValueError:  # a node of 256 or more children
        return lo, tree._starts, bytes(min(count, 255) for count in counts)


def format_tree(tree: ParseTree) -> str:
    """Canonical single-space bracketed rendering, in one pass over the
    nodes: a leaf opens the nodes that start at it, and a node closes."""
    tags, tokens, starts = tree._tags, tree._tokens, tree._starts
    lo, hi = tree._first(), tree._i + 1
    opens: dict[int, list] = {}  # leaf -> the tags of the nodes starting there
    for j in range(hi - 1, lo - 1, -1):  # outermost first
        if tokens[j] is None:
            opens.setdefault(starts[j], []).append(f"({tags[j]} ")
    out = []
    for j in range(lo, hi):
        token = tokens[j]
        out.append(")" if token is None else f" {''.join(opens.get(j, ()))}({tags[j]} {token})")
    return "".join(out)[1:]


def _error(span: tuple, message: str, k: int, end: bool = False) -> TreeParseError:
    """The error at the start (or end) of the k-th of the tokens ``toks`` of the
    span ``(text, pos, endpos, toks)``, or at ``endpos`` if it is the padding
    "". Only whitespace lies between tokens, so each is found after the last."""
    text, pos, endpos, toks = span
    for tok in toks[: k + 1]:
        start = text.index(tok, pos, endpos)
        pos = start + len(tok)
    return TreeParseError(message, endpos if not toks[k] else pos if end else start)


def parse_bracketed(text: str) -> ParseTree:
    """Parse a single balanced bracketed expression into a ParseTree."""
    return _parse(text, 0, len(text))


def _parse(text: str, pos: int, endpos: int) -> ParseTree:
    """``parse_bracketed`` of ``text[pos:endpos]``, offsets counted in ``text``.

    One loop over the tokens; a well-formed leaf ``( TAG tok )`` is taken
    in one step, and the k-th token of an error is found again by ``_error``."""
    toks = text[pos:endpos].replace("(", " ( ").replace(")", " ) ").split()
    toks += ("", "", "")  # so the tests below look ahead without a bounds test
    span = (text, pos, endpos, toks)
    if toks[0] != "(":
        raise _error(span, "expected '('", 0)
    tags, tokens, starts, arity = [], [], [], []
    opened: list[tuple[str, int]] = []  # (tag, start) per open node
    bare: dict[int, list[int]] = {}  # depth -> indices of its open node's bare tokens
    i = 0
    while True:
        tok = toks[i]
        if tok == "(":
            # a token holding a paren is one paren, and "" pads the end: both are in "()"
            if toks[i + 1] in "()":
                raise _error(span, "missing tag after '('", i + 1)
            if toks[i + 3] == ")" and toks[i + 2] not in "()":
                starts.append(len(tags))
                tags.append(toks[i + 1])
                tokens.append(toks[i + 2])
                arity.append(0)
                i += 4
            else:
                opened.append((toks[i + 1], len(tags)))
                i += 2
                continue
        elif tok == ")":
            # a node of one bare token is a leaf, which the branch above took
            mine = bare and bare.get(len(opened))
            tag, start = opened.pop()
            k, children = len(tags) - 1, 0
            while k >= start:  # hop back over the node's children
                k, children = starts[k] - 1, children + 1
            if mine:
                if children:
                    raise _error(span, "node mixes bare tokens with subtrees", mine[0], end=True)
                raise _error(span, "leaf has more than one token", mine[1], end=True)
            if not children:
                raise _error(span, "empty node", i, end=True)
            starts.append(start)
            tags.append(tag)
            tokens.append(None)
            arity.append(children)
            i += 1
        elif tok:
            bare.setdefault(len(opened), []).append(i)
            i += 1
            continue
        else:
            raise _error(span, "unbalanced brackets: unexpected end of input", i)
        if not opened:  # the root is complete
            break
    if toks[i]:
        raise _error(span, "trailing content after tree", i)
    return ParseTree(tuple(tags), tuple(tokens), tuple(starts), tuple(arity), len(tags) - 1)


def parse_forest(text: str) -> list[ParseTree]:
    """Parse several trees separated by blank lines; lines end only at ``\n``,
    ``\r\n`` and ``\r``. Each tree is parsed where it stands, up to its last
    line break, so an error's offset counts from the start of ``text``."""
    trees, start, pos = [], None, 0
    for line in io.StringIO(text, newline="").readlines() + [""]:  # "" ends the last tree
        if line.strip():
            start = pos if start is None else start
            end = pos + len(line.rstrip("\r\n"))
        elif start is not None:
            trees.append(_parse(text, start, end))
            start = None
        pos += len(line)
    return trees


def binarize(tree: ParseTree, strategy: str = "right") -> ParseTree:
    """Reduce every internal node to exactly two children.

    Unary chains collapse into their child (lower tag wins). Nodes with more
    than two children are folded pairwise: ``right`` turns (x y z) into
    (x (y z)), ``left`` into ((x y) z), recursively. Introduced nodes carry
    the parent tag suffixed with ``*``. The leaf sequence is preserved and
    the transform is idempotent.

    One forward pass over the post-order arrays writes the new ones; a new
    node starts at the new index of an old leaf. A right fold appends its
    introduced nodes after the wide node's children; a left fold appends
    each one right after the child it takes in, so the new arrays are in
    post-order too.
    """
    if strategy not in ("right", "left"):
        raise ValueError(f"strategy must be 'right' or 'left', got {strategy!r}")
    lo, starts, arity = _shape(tree)
    if not arity.translate(None, b"\0\2"):
        return tree
    tags, tokens = tree._tags, tree._tokens
    # Left fold: each child of a wide node but its first and last -> that node.
    wide = [j for j, count in enumerate(arity, lo) if count > 2] if strategy == "left" else []
    folds_into = {child._i: j for j in wide for child in tree._node(j).children[1:-1]}
    out = []  # (tag, token, start, arity) per new node
    new = {}  # leaf -> its new index
    for j, count in enumerate(arity, lo):
        if not count:
            new[j] = len(out)
            out.append((tags[j], tokens[j], len(out), 0))
        elif count > 1:  # a unary node collapses into its child
            k = starts[j - 1] - 1  # the child before the last, then each but the first
            while strategy == "right" and starts[k] > starts[j]:
                out.append((tags[j] + "*", None, new[starts[k]], 2))
                k = starts[k] - 1
            out.append((tags[j], None, new[starts[j]], 2))
        if j in folds_into:
            parent = folds_into[j]
            out.append((tags[parent] + "*", None, new[starts[parent]], 2))
    return ParseTree(*zip(*out), len(out) - 1)


def _describe(tree: ParseTree, j: int) -> str:
    """Node j of ``tree``'s arrays by its tag and 1-based leaf span."""
    node = tree._node(j)
    before = len(tuple(filter(None, tree._tokens[tree._first() : node._first()])))
    return f"node {node.tag!r} over leaves {before + 1}-{before + len(node.fringe())}"
