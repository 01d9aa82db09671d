"""Bracketed parse-tree reading, printing, and binarization.

Trees use the usual Penn-style text form: ``(TAG child child ...)`` where a
leaf is ``(TAG token)``. Whitespace between elements is insignificant, and
``format_tree`` produces the canonical single-space rendering, so
``parse_bracketed(format_tree(t)) == t``. ``parse_forest`` separates trees
by blank lines, and its lines break only at ``\n``, ``\r\n`` and ``\r``:
``\x85``, form feed and U+2028 are spaces inside a line.

A tree is stored flat, in post-order: per node a tag, a token (None for an
internal node) and a tuple of child indices. Every subtree is then a run
of indices ending at its root, its leaves appear left to right, and the
arrays read as the shift-reduce sequence that ``compose_tree`` evaluates
with one stack. ``ParseTree`` is a read-only view of one node of such
arrays. The parser, ``binarize``, ``format_tree``, equality and hashing
are loops over the arrays; none recurses, so depth is bounded by memory
alone.

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

    __slots__ = ("_tags", "_tokens", "_kids", "_i", "_plan")

    def __init__(self, tags: tuple, tokens: tuple, kids: tuple, index: int):
        self._tags, self._tokens, self._kids, self._i = tags, tokens, kids, index
        self._plan = None  # composition's plan of this tree; see compose_tree

    @classmethod
    def leaf(cls, tag: str, token: str) -> "ParseTree":
        _check_word(tag, "tag")
        _check_word(token, "leaf token")
        return cls((tag,), (token,), ((),), 0)

    @classmethod
    def node(cls, tag: str, children) -> "ParseTree":
        _check_word(tag, "tag")
        tags, tokens, kids, roots = [], [], [], []
        for child in children:
            lo, hi = child._first(), child._i + 1
            shift = len(tags) - lo
            tags += child._tags[lo:hi]
            tokens += child._tokens[lo:hi]
            kids += [tuple(k + shift for k in ks) for ks in child._kids[lo:hi]]
            roots.append(len(tags) - 1)
        if not roots:
            raise ValueError("a node needs at least one child")
        tags.append(tag)
        tokens.append(None)
        kids.append(tuple(roots))
        return cls(tuple(tags), tuple(tokens), tuple(kids), len(tags) - 1)

    @property
    def tag(self) -> str:
        return self._tags[self._i]

    @property
    def token(self) -> str | None:
        return self._tokens[self._i]

    @property
    def children(self) -> tuple["ParseTree", ...]:
        arrays = (self._tags, self._tokens, self._kids)
        return tuple(ParseTree(*arrays, k) for k in self._kids[self._i])

    @property
    def is_leaf(self) -> bool:
        return self._tokens[self._i] is not None

    def _first(self) -> int:
        """Index of this subtree's first node, its leftmost leaf."""
        i, kids = self._i, self._kids
        while kids[i]:
            i = kids[i][0]
        return i

    def fringe(self) -> tuple[str, ...]:
        """Leaf tokens, left to right."""
        return tuple(filter(None, self._tokens[self._first() : self._i + 1]))

    def _key(self) -> tuple:
        # Post-order (tag, token, arity) determines a tree uniquely.
        lo, hi = self._first(), self._i + 1
        return self._tags[lo:hi], self._tokens[lo:hi], tuple(map(len, self._kids[lo:hi]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParseTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<ParseTree {format_tree(self)}>"


def format_tree(tree: ParseTree) -> str:
    """Canonical single-space bracketed rendering, in one loop over a stack."""
    tags, tokens, kids = tree._tags, tree._tokens, tree._kids
    out = []
    todo: list = [tree._i]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif tokens[item] is not None:
            out.append(f"({tags[item]} {tokens[item]})")
        else:
            out.append("(" + tags[item])
            todo.append(")")
            for k in reversed(kids[item]):
                todo += (k, " ")
    return "".join(out)


def _error(span: tuple, message: str, k: int, end: bool = False) -> TreeParseError:
    """The error at the start (or end) of the k-th of the tokens ``toks`` of the
    span ``(text, pos, endpos, toks)``, or at ``endpos`` if there is none. Only
    whitespace lies between tokens, so each is found in the text after the last."""
    text, pos, endpos, toks = span
    for tok in toks[: k + 1]:
        start = text.index(tok, pos, endpos)
        pos = start + len(tok)
    return TreeParseError(message, endpos if k >= len(toks) else pos if end else start)


def parse_bracketed(text: str) -> ParseTree:
    """Parse a single balanced bracketed expression into a ParseTree."""
    return _parse(text, 0, len(text))


def _parse(text: str, pos: int, endpos: int) -> ParseTree:
    """``parse_bracketed`` of ``text[pos:endpos]``, offsets counted in ``text``.

    One loop over the tokens; a well-formed leaf ``( TAG tok )`` is taken
    in one step, and the k-th token of an error is found again by ``_error``."""
    toks = text[pos:endpos].replace("(", " ( ").replace(")", " ) ").split()
    span = (text, pos, endpos, toks)
    if not toks or toks[0] != "(":
        raise _error(span, "expected '('", 0)
    tags, tokens, kids = [], [], []
    # One (tag, child node indices, bare token indices) per open node.
    open_nodes: list[tuple[str, list[int], list[int]]] = []
    count, i = len(toks), 0
    while i < count:
        tok = toks[i]
        if tok == "(":
            # a token containing a paren is one paren, so `in "()"` tests for one
            if i + 1 == count or toks[i + 1] in "()":
                raise _error(span, "missing tag after '('", i + 1)
            if i + 3 < count and toks[i + 3] == ")" and toks[i + 2] not in "()":
                tags.append(toks[i + 1])
                tokens.append(toks[i + 2])
                kids.append(())
                i += 4
            else:
                open_nodes.append((toks[i + 1], [], []))
                i += 2
                continue
        elif tok == ")":
            # a node of one bare token is a leaf, which the branch above took
            tag, children, bare = open_nodes.pop()
            if children and bare:
                raise _error(span, "node mixes bare tokens with subtrees", bare[0], end=True)
            if bare:
                raise _error(span, "leaf has more than one token", bare[1], end=True)
            if not children:
                raise _error(span, "empty node", i, end=True)
            tags.append(tag)
            tokens.append(None)
            kids.append(tuple(children))
            i += 1
        else:
            open_nodes[-1][2].append(i)
            i += 1
            continue
        # node len(tags) - 1 is complete
        if not open_nodes:
            break
        open_nodes[-1][1].append(len(tags) - 1)
    else:
        raise _error(span, "unbalanced brackets: unexpected end of input", count)
    if i < count:
        raise _error(span, "trailing content after tree", i)
    return ParseTree(tuple(tags), tuple(tokens), tuple(kids), len(tags) - 1)


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

    One forward pass over the post-order arrays maps each node to its index
    in the new arrays. A right fold appends its introduced nodes after the
    wide node's children; a left fold appends each one right after the
    child it takes in, so the new arrays are in post-order too.
    """
    if strategy not in ("right", "left"):
        raise ValueError(f"strategy must be 'right' or 'left', got {strategy!r}")
    tags, tokens, kids = tree._tags, tree._tokens, tree._kids
    lo, hi = tree._first(), tree._i + 1
    if set(map(len, kids[lo:hi])) <= {0, 2}:
        return tree
    # Left fold: each child of a wide node but its last -> that node.
    folds_into = {}
    if strategy == "left":
        for j in range(lo, hi):
            if len(kids[j]) > 2:
                folds_into.update(dict.fromkeys(kids[j][:-1], j))
    acc: dict[int, int] = {}  # wide node -> new index of its folded prefix
    out_tags, out_tokens, out_kids = [], [], []
    new: list[int] = []  # new[j - lo]: the new index of node j

    def emit(tag, token, children):
        out_tags.append(tag)
        out_tokens.append(token)
        out_kids.append(children)
        return len(out_tags) - 1

    for j in range(lo, hi):
        ids = [new[k - lo] for k in kids[j]]
        if not ids:
            nj = emit(tags[j], tokens[j], ())
        elif len(ids) == 1:
            nj = ids[0]
        elif len(ids) == 2:
            nj = emit(tags[j], None, tuple(ids))
        elif strategy == "right":
            right = ids[-1]
            for left in reversed(ids[1:-1]):
                right = emit(tags[j] + "*", None, (left, right))
            nj = emit(tags[j], None, (ids[0], right))
        else:
            nj = emit(tags[j], None, (acc.pop(j), ids[-1]))
        new.append(nj)
        parent = folds_into.get(j)
        if parent is not None:
            acc[parent] = (
                emit(tags[parent] + "*", None, (acc[parent], nj)) if parent in acc else nj
            )
    return ParseTree(tuple(out_tags), tuple(out_tokens), tuple(out_kids), len(out_tags) - 1)


def _describe(tree: ParseTree, j: int) -> str:
    """Node j of ``tree``'s arrays by its tag and 1-based leaf span."""
    node = ParseTree(tree._tags, tree._tokens, tree._kids, j)
    before = len(tuple(filter(None, tree._tokens[tree._first() : node._first()])))
    return f"node {node.tag!r} over leaves {before + 1}-{before + len(node.fringe())}"
