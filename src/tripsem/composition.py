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
``compose_tree`` runs a tree with wide levels as one list of steps over one
results array: each bottom level of at least ``WIDE`` nodes of equal height
as one stack through ``@``, each top node through ``ndarray.dot`` (the same
bits, tested); other trees node by node. The array has a row for each unique
leaf and each node of the lowest level. A node above that level has height 2
or more, so an internal child, whose row only it reads: it writes there.
Finiteness is tested apart from the step, once: ``compose_pair`` tests its
parent, ``compose_tree`` only its root, and each wraps those arrays as they
are in a ``LexicalEntry``. On a fault ``compose_tree`` runs the whole tree
again one node at a time (see there why that is exact).
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
    bits, tested. With numpy alphas, a stack's or one node's scalars, a
    Z = 0 weight is left as NaN in M for the caller's finiteness test; with
    float alphas it raises, and ``where()`` names the step in the error.
    Callers test the parent with ``_check_finite`` and hold numpy's overflow
    and invalid-value warnings off."""
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


def _wide_levels(starts, lo: int, arity: bytes) -> tuple:
    """The bottom levels, of at least ``WIDE`` nodes each, of the binary tree
    whose nodes from lo on have the starts ``starts[lo:]`` and the child
    counts ``arity``, 0 or 2 each.

    Level h is the internal nodes of height h, as the indices (k,) of them
    and of their left and right children; every child is a leaf or in a
    lower level. Also returns the rest, the top, as the same three arrays,
    in post-order. Indices count from lo."""
    # in post-order, each node of height 1 is the run: leaf, leaf, node; a
    # tree of fewer than 2 WIDE such nodes composes faster node by node
    if arity.count(b"\0\0\2") < 2 * WIDE:
        return [], ()
    arity = np.frombuffer(arity, np.uint8)
    inner = np.flatnonzero(arity)
    right = inner - 1  # and the left child ends where the right one starts
    left = np.fromiter(starts[lo : lo + len(arity)], np.intp, len(arity))[right] - (lo + 1)
    done = arity == 0  # nodes below the level being found
    levels = []
    while True:
        up = done[left] & done[right]
        if np.count_nonzero(up) < WIDE:
            break
        levels.append((inner[up], left[up], right[up]))
        done[inner[up]] = True
        inner, left, right = inner[~up], left[~up], right[~up]
    return levels, (inner, left, right)


def _plan(tree: ParseTree) -> tuple:
    """What composing ``tree`` needs that no lexicon changes, as the tuple
    (leaves, rows, steps, phrase): the unique leaf tokens, which take the
    first rows of the results; the number of rows; the steps, each as
    (out, a, b), the rows of its results and of their children, a slice
    (in the lowest level) or an index array and two index arrays for a chunk
    of a level and three ints for a top node; and the root's token. Without
    wide levels, leaves and steps are empty. Raises ``TreeArityError``
    unless every node has 0 or 2 children."""
    tokens = tree._tokens
    lo, starts, arity = _shape(tree)
    if arity.translate(None, b"\0\2"):
        wide = tree._node(lo + len(arity) - len(arity.lstrip(b"\0\2")))
        raise TreeArityError(
            f"node {wide.tag!r} has {len(wide.children)} children; "
            "composition needs a binary tree (binarize first)"
        )
    # a list: tuple() grows by reallocation over an iterator, creeping the heap
    fringe = list(filter(None, tokens[lo : lo + len(arity)]))
    phrase = " ".join(fringe)
    levels, top = _wide_levels(starts, lo, arity)
    if not levels:
        return (), 0, [], phrase
    leaf_rows = {t: r for r, t in enumerate(dict.fromkeys(fringe))}
    # row[j]: the row of node lo + j in the results: a new one in the lowest
    # level, above it the row of an internal child (see the module docstring)
    row, steps, rows = np.full(len(arity), -1), [], len(leaf_rows) + len(levels[0][0])
    row[np.frombuffer(arity, np.uint8) == 0] = list(map(leaf_rows.get, fringe))
    row[levels[0][0]] = np.arange(len(leaf_rows), rows)
    for level, (nodes, left, right) in enumerate(levels):
        a, b = row[left], row[right]
        if level:  # a row below len(leaf_rows) is a leaf's
            row[nodes] = np.where(a >= len(leaf_rows), a, b)
        for s in range(0, len(nodes), CHUNK):
            o = row[nodes[s : s + CHUNK]]  # consecutive in the lowest level: a slice
            o = o if level else slice(o[0], o[-1] + 1)
            steps.append((o, a[s : s + CHUNK], b[s : s + CHUNK]))
    row = row.tolist()
    for j, left, right in zip(*(nodes.tolist() for nodes in top)):
        a, b = row[left], row[right]
        row[j] = a if arity[left] else b
        steps.append((row[j], a, b))
    return tuple(leaf_rows), rows, steps, phrase


def compose_tree(tree: ParseTree, lexicon: Lexicon, cfg: CompositionConfig) -> LexicalEntry:
    """Evaluate a binary tree bottom-up, left to right.

    Leaves look up their lexicon entries; each internal node composes its
    two children. The tree must already be binary (see ``treeio.binarize``).

    Nodes of equal height never depend on each other, and levels only
    narrow going up. In a tree of at least ``2 * WIDE`` nodes of height 1
    (so no chain, nor any tree of under 64 leaves), each bottom level of at
    least ``WIDE`` nodes runs as one stacked step, ``CHUNK`` nodes at a
    time, then each node of the narrow top as a one-node step, over one
    results array (see the module docstring) of 8 (n^2 + n + 1) bytes a
    row: 1.2 MB for a balanced 4096-leaf tree of 64 words at n = 8, 18 MB
    at n = 32. Other trees fold the post-order arrays with a stack of plain
    (v, M, alpha) arrays: a leaf pushes its arrays, an internal node
    replaces its two children by the step ``compose_pair`` runs. A stack of
    nodes gives the same bits as one node, so the root is bit for bit the
    post-order fold of ``compose_pair``, token for token. A leaf root is its
    lexicon entry, any other a new ``LexicalEntry`` named
    ``" ".join(tree.fringe())``.

    What does not depend on the lexicon (the arity check, the steps and
    their rows, the unique leaves, the root's token) is planned once per
    tree object by ``_plan`` and kept in the tree, once a compose has
    succeeded; later calls on the same object, under either model or
    another lexicon, only look up the leaves and run the steps or the fold.
    The plan of a balanced 4096-leaf tree of 6-letter words holds about
    129 KB: 82 KB of row indices and the 29 KB root token.

    Arity is checked first, over the whole tree: the first node in
    post-order with other than two children raises ``TreeArityError``
    before any lexicon lookup. The other errors are those of the fold, in
    its order: ``UnknownTokenError``, ``DegenerateWeightsError``, and a
    one-line ``ValueError`` naming the first node, by tag and leaf span,
    whose vector or matrix is not finite. Overflow is reported only
    through that error, never as a numpy warning.

    Finiteness is tested at the root only, which is exact: a NaN or inf in
    any node reaches the root, as the matrix rule is elementwise (``0 * inf``
    is NaN) and ``M @ v`` skips only zero entries of v; a level or top step
    leaves a Z = 0 weight as NaN. On a non-finite root or an error the fold
    runs again over every node, one at a time, testing each step, to raise
    the first fault.
    """
    plan = tree._plan or _plan(tree)
    leaf_tokens, rows, steps, phrase = plan
    tokens, hi = tree._tokens, tree._i + 1
    baseline = cfg.model == "baseline"

    def stacked() -> tuple:
        """Run the steps over one results array; return the root's arrays."""
        n = lexicon.layout.n
        vs, ms, alphas = np.empty((rows, n, 1)), np.empty((rows, n, n)), np.empty((rows, 1, 1))
        end = len(leaf_tokens)
        entries = [lexicon[token] for token in leaf_tokens]
        vs[:end, :, 0] = [entry.v.values for entry in entries]
        ms[:end] = [entry.M.entries for entry in entries]
        alphas[:end, 0, 0] = [entry.alpha for entry in entries]
        v1, a1 = vs[:, :, 0], alphas[:, 0, 0]
        for out, a, b in steps:
            if type(out) is int:  # a top node, its alphas numpy scalars
                v1[out], ms[out], a1[out] = _step(
                    v1[a], ms[a], a1[a], v1[b], ms[b], a1[b], baseline, None
                )
            else:
                vs[out], ms[out], alphas[out] = _step(
                    vs[a], ms[a], alphas[a], vs[b], ms[b], alphas[b], baseline, None,
                    top=np.maximum, dot=np.matmul,
                )
        return v1[out].copy(), ms[out].copy(), float(a1[out])  # copies: a root must not pin vs

    def fold(checked: bool) -> tuple:
        def where() -> str:  # reads the loop's j: the node being composed
            return _describe(tree, j)

        stack, leaves = [], {}
        for j in range(tree._first(), hi):
            token = tokens[j]
            if token is not None:
                leaf = leaves.get(token)
                if leaf is None:
                    entry = lexicon[token]
                    leaf = leaves[token] = (entry.v.values, entry.M.entries, entry.alpha)
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
            v, m, alpha = stacked() if steps else fold(False)
            _check_finite(v, m, lambda: _describe(tree, hi - 1))
        except (UnknownTokenError, ValueError):
            v = None
        if v is None:
            fold(checked=True)  # raises the first fault
    tree._plan = plan
    if tokens[hi - 1] is not None:
        return lexicon[tokens[hi - 1]]
    return _entry(phrase, v, m, alpha, lexicon.layout)
