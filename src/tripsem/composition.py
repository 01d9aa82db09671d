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

Under both models the parent weight is alpha_p = max(alpha_a, alpha_b).

Both public functions run one step kernel, ``_step``, on plain arrays.
``compose_pair`` wraps its result in a ``LexicalEntry``; ``compose_tree``
evaluates a whole binary tree in one pass over its flat post-order arrays,
calling the kernel once per internal node, and wraps only the root.
It checks the arity of the whole tree before it looks up any leaf: a
node with other than two children raises ``TreeArityError`` naming the
first such node in post-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FunctionMatrix, LexicalEntry, SemanticVector
from .errors import DegenerateWeightsError, DimensionError, TreeArityError
from .lexicon import Lexicon
from .treeio import ParseTree, _bracketed, _describe

__all__ = ["CompositionConfig", "compose_pair", "compose_tree"]

MODELS = ("baseline", "improved")


@dataclass(frozen=True)
class CompositionConfig:
    """Composition settings: which model's matrix weights to use."""

    model: str = "baseline"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")


def _step(va, ma, aa, vb, mb, ab, baseline: bool, where) -> tuple:
    """The composition step on plain arrays: the parent's (v, M, alpha).

    ``where()`` names the step and is called only to word an error. Callers
    hold numpy's overflow warnings off: a non-finite parent is reported
    only through the ``ValueError`` here."""
    v = ma @ vb + mb @ va
    if baseline:
        m = ma + mb
    else:
        z = aa + ab
        if z == 0.0:
            raise DegenerateWeightsError(f"both alphas are zero at {where()}")
        weight_a = aa / z
        m = weight_a * ma + (1.0 - weight_a) * mb
    # Squares sum to a finite number only when every entry is finite,
    # unless a large finite entry overflows them: then look closer.
    if not math.isfinite(v.dot(v) + np.vdot(m, m)):
        for what, values in (("semantic vector", v), ("function matrix", m)):
            if not np.isfinite(values).all():
                raise ValueError(
                    f"{what} entries are not finite after composing {where()}"
                )
    return v, m, max(aa, ab)


def compose_pair(a: LexicalEntry, b: LexicalEntry, cfg: CompositionConfig) -> LexicalEntry:
    """One composition step under the configured model."""
    layout = a.layout
    if layout != b.layout:
        raise DimensionError(
            f"cannot compose {a.token!r} (layout {layout}) with "
            f"{b.token!r} (layout {b.layout})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        v_p, m_p, alpha_p = _step(
            a.v.values, a.M.entries, a.alpha, b.v.values, b.M.entries, b.alpha,
            cfg.model == "baseline", lambda: f"{a.token!r} and {b.token!r}",
        )
    return LexicalEntry(
        f"({a.token} {b.token})",
        SemanticVector(v_p, layout),
        FunctionMatrix(m_p, layout),
        alpha_p,
    )


def compose_tree(tree: ParseTree, lexicon: Lexicon, cfg: CompositionConfig) -> LexicalEntry:
    """Evaluate a binary tree bottom-up, left to right.

    Leaves look up their lexicon entries; each internal node composes its
    two children. The tree must already be binary (see ``treeio.binarize``).

    One loop over the post-order arrays keeps a stack of plain
    (v, M, alpha) arrays: a leaf pushes its entry's arrays, an internal node
    replaces its two children by the result of the step ``compose_pair``
    runs, so the root is bit for bit the post-order fold of
    ``compose_pair``. A leaf root is its lexicon entry; any other root is a
    new ``LexicalEntry`` whose token is the fold's ``"(a b)"`` string.

    Arity is checked first, over the whole tree: the first node in
    post-order with other than two children raises ``TreeArityError``
    before any lexicon lookup. The other errors are those of the fold, in
    its order: ``UnknownTokenError``, ``DegenerateWeightsError``, and a
    one-line ``ValueError`` naming the first node, by tag and leaf span,
    whose vector or matrix is not finite. Overflow is reported only
    through that error, never as a numpy warning.
    """
    tags, tokens, kids = tree._tags, tree._tokens, tree._kids
    lo, hi = tree._first(), tree._i + 1
    if not set(map(len, kids[lo:hi])) <= {0, 2}:
        wide = next(j for j in range(lo, hi) if len(kids[j]) not in (0, 2))
        raise TreeArityError(
            f"node {tags[wide]!r} has {len(kids[wide])} children; "
            "composition needs a binary tree (binarize first)"
        )
    baseline = cfg.model == "baseline"
    leaves: dict[str, tuple] = {}
    stack: list[tuple] = []

    def where() -> str:  # reads the loop's j: the node being composed
        return _describe(tree, j)

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(lo, hi):
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
            stack[-1] = _step(va, ma, aa, vb, mb, ab, baseline, where)
    if tokens[hi - 1] is not None:
        return lexicon[tokens[hi - 1]]
    v, m, alpha = stack[0]
    layout = lexicon.layout
    return LexicalEntry(
        _bracketed(tree, tagged=False),
        SemanticVector(v, layout),
        FunctionMatrix(m, layout),
        alpha,
    )
