"""Pairwise and tree-driven composition of (vector, matrix, alpha) entries.

One step, ``compose_pair``, serves both composition models. They share
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
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FunctionMatrix, LexicalEntry, SemanticVector
from .errors import DegenerateWeightsError, DimensionError, TreeArityError
from .lexicon import Lexicon
from .treeio import ParseTree

__all__ = ["CompositionConfig", "compose_pair", "compose_tree"]

MODELS = ("baseline", "improved")


@dataclass(frozen=True)
class CompositionConfig:
    """Composition settings: which model's matrix weights to use."""

    model: str = "baseline"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")


def compose_pair(a: LexicalEntry, b: LexicalEntry, cfg: CompositionConfig) -> LexicalEntry:
    """One composition step under the configured model."""
    layout = a.layout
    if layout != b.layout:
        raise DimensionError(
            f"cannot compose {a.token!r} (layout {layout}) with "
            f"{b.token!r} (layout {b.layout})"
        )
    ma, mb = a.M.entries, b.M.entries
    v_p = ma @ b.v.values + mb @ a.v.values
    if cfg.model == "baseline":
        m_p = ma + mb
    else:
        z = a.alpha + b.alpha
        if z == 0.0:
            raise DegenerateWeightsError(
                f"both alphas are zero composing {a.token!r} with {b.token!r}"
            )
        weight_a = a.alpha / z
        m_p = weight_a * ma + (1.0 - weight_a) * mb
    return LexicalEntry(
        f"({a.token} {b.token})",
        SemanticVector(v_p, layout),
        FunctionMatrix(m_p, layout),
        max(a.alpha, b.alpha),
    )


def compose_tree(tree: ParseTree, lexicon: Lexicon, cfg: CompositionConfig) -> LexicalEntry:
    """Evaluate a binary tree bottom-up, left to right.

    Leaves look up their lexicon entries; each internal node composes its
    two children. The tree must already be binary (see ``treeio.binarize``).
    """
    if tree.is_leaf:
        return lexicon[tree.token]
    if len(tree.children) != 2:
        raise TreeArityError(
            f"node {tree.tag!r} has {len(tree.children)} children; "
            "composition needs a binary tree (binarize first)"
        )
    left = compose_tree(tree.children[0], lexicon, cfg)
    right = compose_tree(tree.children[1], lexicon, cfg)
    return compose_pair(left, right, cfg)
