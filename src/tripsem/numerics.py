"""Minimal dense linear-algebra kernel used by the rest of the package.

Everything runs in double precision on row-major numpy arrays. The kernel
is deliberately tiny: an immutable matrix type, cosine similarity, and a
least-squares solve.
Matrices of a few hundred rows/columns are the intended scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, UndefinedSimilarityError

__all__ = ["DenseMatrix", "cosine", "least_squares"]

# Singular values below RANK_TOL * s_max are treated as zero in least_squares.
RANK_TOL = 1e-10


def as_vector(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Immutable dense real matrix, row-major.

    ``data`` is coerced to a fresh, read-only float64 array at construction,
    so instances may be shared freely between threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """Flat row-major view of the entries."""
        return self.data.reshape(-1)

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(np.zeros((rows, cols)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )

    __hash__ = None  # mutable-by-content semantics; not hashable


def _matrix_data(m) -> np.ndarray:
    """Accept a DenseMatrix or a 2-D array-like."""
    if isinstance(m, DenseMatrix):
        return m.data
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {arr.shape}")
    return arr


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity dot(u, v) / (|u| |v|), in [-1, 1].

    Undefined (raises UndefinedSimilarityError) when either vector is zero.
    Bitwise-identical and bitwise-opposite inputs short-circuit to exactly
    1.0 and -1.0, so the trivial cases are free of rounding fuzz.
    """
    a, b = as_vector(u), as_vector(v)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
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


def least_squares(design, targets: Sequence[float] | np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize |design @ x - targets| in the 2-norm.

    Returns ``(solution, residual_norm)``. Solved through an SVD-based
    orthogonal factorization; singular values below ``RANK_TOL`` times the
    largest are treated as zero, and rank-deficient systems deterministically
    yield the minimum-norm solution.
    """
    data = _matrix_data(design)
    b = as_vector(targets)
    if data.shape[0] != b.shape[0]:
        raise DimensionError(
            f"design has {data.shape[0]} rows but targets has length {b.shape[0]}"
        )
    if data.shape[0] < 1:
        raise DimensionError("design must have at least one row")
    solution, _, _, _ = np.linalg.lstsq(data, b, rcond=RANK_TOL)
    residual = float(np.linalg.norm(data @ solution - b))
    return solution, residual
