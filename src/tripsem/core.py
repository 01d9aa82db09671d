"""Tripartite semantic representation and the negation/inversion algebra.

A word's meaning is carried by three parts: a semantic vector split into a
*domain* region (what the word is about) and a *value* region (where it sits
inside that domain), plus a square *function* matrix describing how the word
transforms whatever it combines with. Negation leaves the domain untouched
and flips a trailing sub-segment of the value region, scaled by a factor
``mu``; ``mu = 1`` is pure inversion, ``0 < mu < 1`` is diminutive negation,
under which double negation lands between a word and its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNegationError, DimensionError
from .numerics import scaled_norm

__all__ = [
    "SegmentLayout",
    "SemanticVector",
    "FunctionMatrix",
    "NegationOperator",
    "LexicalEntry",
    "make_negation_matrix",
    "negate_vector",
    "invert_vector",
    "split_segments",
]


@dataclass(frozen=True)
class SegmentLayout:
    """Partition of an n-dimensional vector into domain / stable / inverted.

    ``d_domain`` leading entries identify the domain, the next ``d_stable``
    value entries are untouched by negation, and the trailing ``d_inverted``
    value entries are the ones negation flips.
    """

    d_domain: int
    d_stable: int
    d_inverted: int

    def __post_init__(self):
        for name in ("d_domain", "d_stable", "d_inverted"):
            count = getattr(self, name)
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {count!r}")
        if self.n < 1:
            raise ValueError("layout must have at least one dimension")

    @property
    def n(self) -> int:
        """Total dimensionality."""
        return self.d_domain + self.d_stable + self.d_inverted

    @property
    def domain_slice(self) -> slice:
        return slice(0, self.d_domain)

    @property
    def stable_slice(self) -> slice:
        return slice(self.d_domain, self.d_domain + self.d_stable)

    @property
    def inverted_slice(self) -> slice:
        return slice(self.d_domain + self.d_stable, self.n)


def _frozen_array(values, expected_shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.shape != expected_shape:
        raise DimensionError(f"{what} must have shape {expected_shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SemanticVector:
    """A word's domain+value content: n finite reals plus its layout."""

    values: np.ndarray
    layout: SegmentLayout

    def __post_init__(self):
        arr = _frozen_array(self.values, (self.layout.n,), "semantic vector")
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, layout: SegmentLayout) -> "SemanticVector":
        return cls(np.zeros(layout.n), layout)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemanticVector):
            return NotImplemented
        return self.layout == other.layout and bool(
            np.array_equal(self.values, other.values)
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class FunctionMatrix:
    """A word's functional content: an n-by-n matrix plus its layout."""

    entries: np.ndarray
    layout: SegmentLayout

    def __post_init__(self):
        n = self.layout.n
        arr = _frozen_array(self.entries, (n, n), "function matrix")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def zeros(cls, layout: SegmentLayout) -> "FunctionMatrix":
        return cls(np.zeros((layout.n, layout.n)), layout)

    def frobenius_norm(self) -> float:
        return scaled_norm(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionMatrix):
            return NotImplemented
        return self.layout == other.layout and bool(
            np.array_equal(self.entries, other.entries)
        )

    __hash__ = None


@dataclass(frozen=True)
class NegationOperator:
    """Scaled partial inversion, parametrized by ``mu`` in (0, 1].

    ``mu = 1`` flips the inverted segment outright (inversion); smaller
    values additionally shrink it (diminutive negation).
    """

    mu: float
    layout: SegmentLayout

    def __post_init__(self):
        mu = float(self.mu)
        if not math.isfinite(mu) or not (0.0 < mu <= 1.0):
            raise ValueError(f"mu must lie in (0, 1], got {self.mu!r}")
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class LexicalEntry:
    """A word: its token, semantic vector, function matrix, and the
    propagation weight alpha controlling how far its function carries."""

    token: str
    v: SemanticVector
    M: FunctionMatrix
    alpha: float

    def __post_init__(self):
        if not self.token:
            raise ValueError("token must be nonempty")
        if self.v.layout != self.M.layout:
            raise DimensionError(
                f"entry {self.token!r}: vector layout {self.v.layout} does not "
                f"match matrix layout {self.M.layout}"
            )
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def layout(self) -> SegmentLayout:
        return self.v.layout

    __hash__ = None


def _entry(token: str, v, m, alpha: float, layout: SegmentLayout) -> LexicalEntry:
    """The ``LexicalEntry`` of a nonempty ``token``, a float ``alpha`` >= 0 and
    new float64 arrays v (n,) and M (n, n) already tested finite, built without
    checking any of them again: the arrays are made read-only, not copied."""
    v.setflags(write=False)
    m.setflags(write=False)
    vector, matrix, entry = map(object.__new__, (SemanticVector, FunctionMatrix, LexicalEntry))
    vector.__dict__.update(values=v, layout=layout)
    matrix.__dict__.update(entries=m, layout=layout)
    entry.__dict__.update(token=token, v=vector, M=matrix, alpha=alpha)
    return entry


def make_negation_matrix(op: NegationOperator) -> FunctionMatrix:
    """Diagonal matrix that is identity on domain+stable and -mu on the
    inverted segment; all off-diagonal entries are exactly zero."""
    layout = op.layout
    diag = np.ones(layout.n)
    diag[layout.inverted_slice] = -op.mu
    return FunctionMatrix(np.diag(diag), layout)


def negate_vector(v: SemanticVector, op: NegationOperator) -> SemanticVector:
    """Apply negation: domain and stable segments are copied bit-for-bit,
    the inverted segment is multiplied by -mu."""
    return SemanticVector(negated(v.values, v.layout, op), v.layout)


def negated(values: np.ndarray, layout: SegmentLayout, op: NegationOperator) -> np.ndarray:
    """A copy of the vectors ``values`` (..., n) of ``layout``, each negated by ``op``."""
    if layout != op.layout:
        raise DimensionError(f"vector layout {layout} does not match operator layout {op.layout}")
    if layout.d_inverted < 1:
        raise DegenerateNegationError(
            "negation needs at least one inverted dimension (d_inverted >= 1)"
        )
    out = values.copy()
    out[..., layout.inverted_slice] *= -op.mu
    return out


def invert_vector(v: SemanticVector, layout: SegmentLayout) -> SemanticVector:
    """Pure inversion: negation with mu = 1."""
    return negate_vector(v, NegationOperator(1.0, layout))


def split_segments(v: SemanticVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (domain, stable, inverted) segments, in layout order.

    Views into the underlying read-only storage; concatenating them
    reproduces the vector exactly.
    """
    layout = v.layout
    return (
        v.values[layout.domain_slice],
        v.values[layout.stable_slice],
        v.values[layout.inverted_slice],
    )
