"""Pairwise and tree-driven composition of (vector, matrix, alpha) entries.

One step, ``compose_pair``, defines both composition models. They share
the vector rule v_p = M_a v_b + M_b v_a and differ only in the weights
(w_a, w_b) of the matrix rule M_p = w_a M_a + w_b M_b:

* ``baseline``: weights (1, 1), so M_p = M_a + M_b and every word's
  function propagates all the way to the root.
* ``improved``: weights (alpha_a/Z, 1 - alpha_a/Z) with
  Z = alpha_a + alpha_b, computed as a complementary pair so they sum to
  exactly 1. A word with alpha = 0 applies its function in its own step
  but contributes nothing to any parent matrix. When Z = 0 the weights
  are undefined and the step raises ``DegenerateWeightsError``.

Under both models the parent weight is alpha_p = max(alpha_a, alpha_b),
and the parent's token is the phrase it covers: its leaf tokens, left to
right, joined by single spaces. Joining is associative, so a tree's root
token does not depend on how the tree was binarized.

Both public functions run one step kernel, ``_step``, on plain arrays.
``compose_tree`` runs each bottom level of at least ``WIDE`` nodes of equal
height as one stack through ``@`` over one results array, and every other
node through the fold, one ``ndarray.dot`` step at a time (the same bits,
tested). The array has a row for each unique leaf and each node of the
lowest level; a level node above it has height 2 or more, so an internal
child, whose row only it reads: it writes there. Finiteness is tested
once, apart from the step: ``compose_pair`` tests its parent and
``compose_tree`` its root, each wrapped as it is in a ``LexicalEntry``; on
a fault ``compose_tree`` runs the whole tree again (see there why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LexicalEntry, _entry
from .errors import DegenerateWeightsError, DimensionError, TreeArityError, UnknownTokenError
from .lexicon import Lexicon
from .treeio import ParseTree, _describe, _shape

__all__ = ["CompositionConfig", "compose_pair", "compose_tree"]

MODELS = ("baseline", "improved")
# compose_tree runs a level of at least WIDE nodes of equal height as one
# stacked step, CHUNK nodes at a time, which bounds the gathered copies.
WIDE = 16
CHUNK = 128


@dataclass(frozen=True)
class CompositionConfig:
    """Composition settings: which model's matrix weights to use."""

    model: str = "baseline"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")


def _step(va, ma, aa, vb, mb, ab, baseline: bool, where, top=max, dot=np.ndarray.dot) -> tuple:
    """The composition step on plain arrays: the parent's (v, M, alpha), new.

    One node is v (n,), M (n, n) and float alphas, its matvecs run by
    ``ndarray.dot``. A stack of k nodes is v (k, n, 1), M (k, n, n) and
    alphas (k, 1, 1), with ``top=np.maximum`` and ``dot=np.matmul``: the same
    bits, tested. A stack leaves a Z = 0 weight as NaN in M; one node raises
    and names ``where()``. Callers test the parent with ``_check_finite``
    and hold numpy's overflow and invalid-value warnings off."""
    v = dot(ma, vb) + dot(mb, va)
    if baseline:
        m = ma + mb
    else:
        try:
            weight_a = aa / (aa + ab)
        except ZeroDivisionError:
            raise DegenerateWeightsError(f"both alphas are zero at {where()}") from None
        m = weight_a * ma + (1.0 - weight_a) * mb
    return v, m, top(aa, ab)


def _check_finite(v, m, where) -> None:
    """Raise a one-line ``ValueError`` naming ``where()`` unless v and M are finite."""
    # Squares sum to a finite number only when every entry is finite,
    # unless a large finite entry overflows them: then look closer.
    if not math.isfinite(v.dot(v) + np.vdot(m, m)):
        for what, values in (("semantic vector", v), ("function matrix", m)):
            if not np.isfinite(values).all():
                raise ValueError(f"{what} entries are not finite after composing {where()}")


def compose_pair(a: LexicalEntry, b: LexicalEntry, cfg: CompositionConfig) -> LexicalEntry:
    """One composition step under the configured model."""
    layout = a.layout
    if layout != b.layout:
        raise DimensionError(
            f"cannot compose {a.token!r} (layout {layout}) with "
            f"{b.token!r} (layout {b.layout})"
        )

    def where() -> str:
        return f"{a.token!r} and {b.token!r}"

    with np.errstate(over="ignore", invalid="ignore"):
        v_p, m_p, alpha_p = _step(
            a.v.values, a.M.entries, a.alpha, b.v.values, b.M.entries, b.alpha,
            cfg.model == "baseline", where,
        )
        _check_finite(v_p, m_p, where)
    return _entry(f"{a.token} {b.token}", v_p, m_p, alpha_p, layout)


def _wide_levels(starts, lo: int, arity: bytes) -> list:
    """The bottom levels, of at least ``WIDE`` nodes each, of the binary tree
    whose nodes from lo on have the starts ``starts[lo:]`` and the child
    counts ``arity``, 0 or 2 each.

    Level h is the internal nodes of height h, as the indices (k,) of them
    and of their left and right children; every child is a leaf or in a
    lower level. Indices count from lo."""
    # in post-order, each node of height 1 is the run: leaf, leaf, node; a
    # tree of fewer than 2 WIDE such nodes composes faster node by node
    if arity.count(b"\0\0\2") < 2 * WIDE:
        return []
    arity = np.frombuffer(arity, np.uint8)
    inner = np.flatnonzero(arity)
    right = inner - 1  # and the left child ends where the right one starts
    left = np.fromiter(starts[lo : lo + len(arity)], np.intp, len(arity))[right] - (lo + 1)
    done = arity == 0  # nodes below the level being found
    levels = []
    while True:
        up = done[left] & done[right]
        if np.count_nonzero(up) < WIDE:
            return levels
        levels.append((inner[up], left[up], right[up]))
        done[inner[up]] = True
        inner, left, right = inner[~up], left[~up], right[~up]


def _plan(tree: ParseTree) -> tuple:
    """What composing ``tree`` needs that no lexicon changes, as the tuple
    (leaves, rows, steps, nodes, items, phrase): the unique leaf tokens, which
    take the first rows of the results; the number of rows; the steps, each
    a chunk of a level as (out, a, b), the rows of its results and of their
    children, a slice (in the lowest level) or an index array and two index
    arrays; the fold's nodes, as indices in the tree's arrays, and its items
    by index (see ``compose_tree``); and the root's token. Without wide
    levels, leaves and steps are empty and the items are the tree's tokens.
    Raises ``TreeArityError`` unless every node has 0 or 2 children."""
    tokens = tree._tokens
    lo, starts, arity = _shape(tree)
    hi = lo + len(arity)
    if arity.translate(None, b"\0\2"):
        wide = tree._node(hi - len(arity.lstrip(b"\0\2")))
        raise TreeArityError(
            f"node {wide.tag!r} has {len(wide.children)} children; "
            "composition needs a binary tree (binarize first)"
        )
    # a list: tuple() grows by reallocation over an iterator, creeping the heap
    fringe = list(filter(None, tokens[lo:hi]))
    phrase = " ".join(fringe)
    levels = _wide_levels(starts, lo, arity)
    if not levels:
        return (), 0, [], range(lo, hi), tokens, phrase
    leaf_rows = {t: r for r, t in enumerate(dict.fromkeys(fringe))}
    # row[j]: the row of node lo + j in the results: a new one in the lowest
    # level, above it the row of an internal child (see the module docstring)
    row, steps, rows = np.full(len(arity), -1), [], len(leaf_rows) + len(levels[0][0])
    row[np.frombuffer(arity, np.uint8) == 0] = list(map(leaf_rows.get, fringe))
    row[levels[0][0]] = np.arange(len(leaf_rows), rows)
    below = np.zeros(len(arity), bool)  # the children of level nodes, and theirs
    for level, (nodes, left, right) in enumerate(levels):
        below[left] = below[right] = True
        a, b = row[left], row[right]
        if level:  # a row below len(leaf_rows) is a leaf's
            row[nodes] = np.where(a >= len(leaf_rows), a, b)
        for s in range(0, len(nodes), CHUNK):
            o = row[nodes[s : s + CHUNK]]  # consecutive in the lowest level: a slice
            o = o if level else slice(o[0], o[-1] + 1)
            steps.append((o, a[s : s + CHUNK], b[s : s + CHUNK]))
    # the fold runs the nodes under no level node: the top, and what it reads
    top = (np.flatnonzero(~below) + lo).tolist()
    items = {j: r if r >= len(leaf_rows) else tokens[j] for j, r in zip(top, row[~below].tolist())}
    return tuple(leaf_rows), rows, steps, top, items, phrase


def compose_tree(tree: ParseTree, lexicon: Lexicon, cfg: CompositionConfig) -> LexicalEntry:
    """Evaluate a binary tree bottom-up, left to right.

    Leaves look up their lexicon entries; each internal node composes its
    two children. The tree must already be binary (see ``treeio.binarize``).

    Nodes of equal height never depend on each other, and levels only
    narrow going up. In a tree of at least ``2 * WIDE`` nodes of height 1
    (so no chain, nor any tree of under 64 leaves), each bottom level of at
    least ``WIDE`` nodes runs as one stacked step, ``CHUNK`` nodes at a
    time, over one results array (see the module docstring) of
    8 (n^2 + n + 1) bytes a row: 1.2 MB for a balanced 4096-leaf tree of 64
    words at n = 8, 18 MB at n = 32. Every other node runs in the fold, a
    stack of plain (v, M, alpha) arrays over its items in post-order: a
    leaf's token pushes its entry's arrays, a level node's row (its parent
    is in the top) that row's views, and ``None`` replaces an internal
    node's two children by the step ``compose_pair`` runs, in new arrays.
    A stack of nodes gives the same bits as one node, so the root is the
    post-order fold of ``compose_pair`` bit for bit and token for token: a
    leaf root its lexicon entry, any other a new ``LexicalEntry`` named
    ``" ".join(tree.fringe())``.

    What does not depend on the lexicon (the arity check, the steps and
    their rows, the fold's items, the unique leaves, the root's token) is
    planned once per tree object by ``_plan`` and kept in the tree, once a
    compose has succeeded; later calls on the same object, under either
    model or another lexicon, only look up the leaves and run the steps and
    the fold. The plan of a balanced 4096-leaf tree of 6-letter words holds
    about 129 KB: 82 KB of row indices and the 29 KB root token.

    Arity is checked first, over the whole tree: the first node in
    post-order with other than two children raises ``TreeArityError``
    before any lexicon lookup. The other errors are those of the fold, in
    its order: ``UnknownTokenError``, ``DegenerateWeightsError``, and a
    one-line ``ValueError`` naming the first node, by tag and leaf span,
    whose vector or matrix is not finite. Overflow is reported only
    through that error, never as a numpy warning.

    Finiteness is tested at the root only, which is exact: a NaN or inf in
    any node reaches the root, as the matrix rule is elementwise (``0 * inf``
    is NaN) and ``M @ v`` skips only zero entries of v; a stacked step
    leaves a Z = 0 weight as NaN. On a non-finite root or an error the fold
    reruns the whole tree, testing each step, to raise the first fault.
    """
    plan = tree._plan or _plan(tree)
    leaf_tokens, rows, steps, nodes, items, phrase = plan
    tokens, lo, hi = tree._tokens, tree._first(), tree._i + 1
    baseline = cfg.model == "baseline"

    def stacked():
        """Run the steps over one results array; return the rows in ``items``
        as the fold's leaves: a level node's row, which only its parent reads."""
        n = lexicon.layout.n
        vs, ms, alphas = np.empty((rows, n, 1)), np.empty((rows, n, n)), np.empty((rows, 1, 1))
        entries = [lexicon[token] for token in leaf_tokens]
        vs[: len(entries), :, 0] = [entry.v.values for entry in entries]
        ms[: len(entries)] = [entry.M.entries for entry in entries]
        alphas[: len(entries), 0, 0] = [entry.alpha for entry in entries]
        for out, a, b in steps:
            vs[out], ms[out], alphas[out] = _step(
                vs[a], ms[a], alphas[a], vs[b], ms[b], alphas[b], baseline, None,
                top=np.maximum, dot=np.matmul,
            )
        read = (r for r in items.values() if type(r) is int)
        return {r: (vs[r, :, 0], ms[r], float(alphas[r, 0, 0])) for r in read}

    def fold(nodes, items, leaves: dict, checked: bool) -> tuple:
        def where() -> str:  # reads the loop's j: the node being composed
            return _describe(tree, j)

        stack = []
        for j in nodes:
            item = items[j]
            if item is not None:
                leaf = leaves.get(item)
                if leaf is None:
                    entry = lexicon[item]
                    leaf = leaves[item] = (entry.v.values, entry.M.entries, entry.alpha)
                stack.append(leaf)
                continue
            vb, mb, ab = stack.pop()
            va, ma, aa = stack[-1]
            stack[-1] = parent = _step(va, ma, aa, vb, mb, ab, baseline, where)
            if checked:
                _check_finite(parent[0], parent[1], where)
        return stack[0]

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            v, m, alpha = fold(nodes, items, stacked() if steps else {}, False)
            _check_finite(v, m, lambda: _describe(tree, hi - 1))
        except (UnknownTokenError, ValueError):
            v = None
        if v is None:
            fold(range(lo, hi), tokens, {}, checked=True)  # raises the first fault
    tree._plan = plan
    if tokens[hi - 1] is not None:
        return lexicon[tokens[hi - 1]]
    return _entry(phrase, v, m, alpha, lexicon.layout)
