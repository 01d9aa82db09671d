"""Minimal dense kernel used by the rest of the package.

Everything runs in double precision on plain numpy arrays. The kernel is
deliberately tiny: cosine similarity, which validates its inputs, and
the exact power-of-two scaling that keeps norms from overflowing. The
negation fits' least-squares solve lives with them in ``analysis``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionError, UndefinedSimilarityError

__all__ = ["cosine"]


def unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a * 2**-e, e)``, with ``e`` bringing the largest magnitude into [0.5, 1)
    (0 for a zero array), so norms and dot products neither overflow nor underflow."""
    _, exp = math.frexp(float(np.max(np.abs(a), initial=0.0)))
    return np.ldexp(a, -exp), exp


def scaled_norm(a: np.ndarray) -> float:
    """The 2-norm of ``a``, taken of ``unit_scaled(a)``: no overflow short of its own."""
    scaled, exp = unit_scaled(a)
    return float(np.ldexp(np.linalg.norm(scaled), exp))


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity dot(u, v) / (|u| |v|), in [-1, 1].

    Undefined (raises UndefinedSimilarityError) when either vector is zero.
    Bitwise-identical and bitwise-opposite inputs short-circuit to exactly
    1.0 and -1.0, so the trivial cases are free of rounding fuzz. Each
    vector is first scaled by a power of two, exactly, so nothing overflows.
    """
    a, b = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    for arr in (a, b):
        if arr.ndim != 1:
            raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector entries must be finite")
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    a, b = unit_scaled(a)[0], unit_scaled(b)[0]
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 and norm_b == 0.0:
        raise UndefinedSimilarityError("cosine of two zero vectors is undefined")
    if norm_a == 0.0 or norm_b == 0.0:
        raise UndefinedSimilarityError("cosine with a zero vector is undefined")
    if np.array_equal(a, b):
        return 1.0
    if np.array_equal(a, -b):
        return -1.0
    value = float(np.dot(a, b) / (norm_a * norm_b))
    return min(1.0, max(-1.0, value))
