"""Negation constraint fitting and the diagnostic reports built on it.

The central question: can a single lexical entry (M_not, v_not) make the
composition model behave like the idealized negation operator on every
word it is applied to? For a sample word ``a`` the requirements are

* value, once:   f_v(not, a) = J_mu v_a
* value, twice:  f_v(not, f_v(not, a)) = J_nu J_mu v_a
* function, once and twice: the function of the composed term stays M_a

Under the baseline model with default weights these become linear
constraints on (M_not, v_not) and the two families contradict each other:
the value rows force M_not to be the scaled partial inversion while the
function rows force M_not = 0. The joint least-squares fit therefore has a
strictly positive residual, which ``fit_negation_baseline`` exhibits. The
alpha-weighted model clears its function constraints of the Z denominator
and satisfies everything exactly with alpha_not = 0, which
``fit_negation_improved`` recovers.

Two linearizations keep the systems linear, mirroring the order of the
underlying derivation:

* The twice-negated value rows treat the inner composed term as having the
  value and function the requirements assign it (v = J_mu v_a, M = M_a),
  so the outer step contributes rows M_not (J_mu v_a) + M_a v_not =
  J_nu J_mu v_a. The function of the inner term is exactly computable
  without such a substitution, giving rows 2 M_not = 0.
* The improved fit solves the value block first, then its alpha_not rows
  with the fitted matrix substituted (see ``fit_negation_improved``).

Unknowns are ordered [vec(M_not) row-major, then v_not]. ``_solve`` finds
the minimum-norm minimiser without forming the explicit design or the
normal equations; ``FitResult.solver`` says whether it is unique. It holds
each M_a once and folds the v_not system, and the min-norm step's rows,
each into one running triangle: O(S n^2) memory for S samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, compress

import numpy as np

from .composition import CompositionConfig, compose_tree
from .core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    negated,
)
from .errors import DimensionError
from .lexicon import Lexicon, init_random
from .numerics import cosine, scaled_norm
from .treeio import ParseTree, binarize

__all__ = [
    "FitResult",
    "SampleSet",
    "fit_negation_baseline",
    "fit_negation_improved",
    "check_double_negation",
    "ScopeInvarianceReport",
    "scope_invariance_report",
    "domain_similarity",
    "value_similarity",
    "default_demo_samples",
    "DEMO_LAYOUT",
    "DEMO_SEED",
    "DEMO_NOISE",
    "DEMO_COUNT",
]

CONSTRAINT_FAMILIES = ("both", "value", "function")

DEMO_LAYOUT = SegmentLayout(4, 2, 2)
DEMO_SEED = 0
DEMO_NOISE = 0.1
DEMO_COUNT = 50

# A singular value at or below RANK_TOL times its system's scale counts as
# zero: W's own largest singular value for W, |M_a| for the v_not system.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Least-squares solution of a negation constraint system.

    ``residual_value`` and ``residual_function`` are the 2-norms of the
    residuals over the value and function row families;
    ``residual_total`` is their quadrature sum. ``alpha_not_hat`` is None
    for baseline fits, which have no propagation-weight unknown; the
    improved fit's closed-form alpha step gives 0.0, with residual 0.0.
    ``solver`` says how (M_not, v_not) was found: "structured" when the
    minimiser is unique, "min-norm" when a rank cut left a null space and
    the minimum-norm minimiser is returned, "closed-form" for the
    function-only fit.
    """

    M_not_hat: FunctionMatrix
    v_not_hat: SemanticVector
    alpha_not_hat: float | None
    residual_value: float
    residual_function: float
    residual_total: float
    solver: str


SAMPLE_FAULTS = ("", "a zero vector", "a zero function matrix", "the identity as function matrix")


def _stacked(entries) -> tuple[np.ndarray, np.ndarray]:
    """The vectors (W, n) and matrices (W, n, n) of same-layout ``entries``."""
    return np.array([e.v.values for e in entries]), np.array([e.M.entries for e in entries])


def _sample_faults(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per row of the stacked vectors ``v`` and matrices ``m``, the index
    into SAMPLE_FAULTS of what breaks its sample assumptions (0: nothing)."""
    n = v.shape[1]
    zero_m, identity = ~m.reshape(-1, n * n).any(axis=1), (m == np.eye(n)).all(axis=(1, 2))
    return np.select([~v.any(axis=1), zero_m, identity], [1, 2, 3])


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sample words quantified over by the constraint system.

    Every entry must have a nonzero vector and a function matrix that is
    neither the zero matrix nor the identity, so the "varies and is
    non-zero" assumption behind the derivation actually holds. ``v`` (S, n)
    and ``m`` (S, n, n) stack the entries once, read-only, for the fits.
    """

    entries: tuple[LexicalEntry, ...]
    v: np.ndarray = field(init=False, repr=False)
    m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("sample set must be nonempty")
        layout = entries[0].layout
        # the first fault in order: a layout mismatch, or a fault before it
        same = next((i for i, e in enumerate(entries) if e.layout != layout), len(entries))
        v, m = _stacked(entries[:same])
        faults = _sample_faults(v, m)
        if faults.any():
            first = int(np.argmax(faults != 0))
            raise ValueError(f"sample {entries[first].token!r} has {SAMPLE_FAULTS[faults[first]]}")
        if same < len(entries):
            b = entries[same]
            raise DimensionError(f"sample {b.token!r} has layout {b.layout}, expected {layout}")
        v.flags.writeable = m.flags.writeable = False
        for name, value in (("entries", entries), ("v", v), ("m", m)):
            object.__setattr__(self, name, value)

    @property
    def layout(self) -> SegmentLayout:
        return self.entries[0].layout

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_lexicon(cls, lex: Lexicon) -> "SampleSet":
        """Build from a lexicon's qualifying content words.

        Entries violating the sample assumptions (zero vector, zero or
        identity matrix - e.g. function-word presets) are skipped.
        """
        words = tuple(lex)
        picked = tuple(compress(words, _sample_faults(*_stacked(words)) == 0 if words else ()))
        if not picked:
            raise ValueError("lexicon has no entries satisfying the sample assumptions")
        return cls(picked)


def default_demo_samples(
    count: int = DEMO_COUNT,
    layout: SegmentLayout = DEMO_LAYOUT,
    seed: int = DEMO_SEED,
    noise: float = DEMO_NOISE,
) -> SampleSet:
    """Seeded demonstration samples: the entries of ``init_random`` over the
    tokens w00, w01, ...: v uniform in [-1, 1], M = I + noise * G.

    The set is deterministic in (count, layout, seed, noise). A draw that
    violates the sample assumptions is not redrawn: ``SampleSet`` rejects
    it with ``ValueError``, as it does every draw at ``noise = 0``, where
    each M is the identity. ``init_random`` raises ``ValueError`` for a
    negative ``noise`` and for ``count = 0``.
    """
    tokens = [f"w{i:02d}" for i in range(count)]
    return SampleSet(tuple(init_random(tokens, layout, seed, noise)))


# ---------------------------------------------------------------------------
# constraint systems


def _check_fit_inputs(samples: SampleSet, op: NegationOperator, op2: NegationOperator):
    if op.layout != samples.layout or op2.layout != samples.layout:
        raise DimensionError(
            f"operator layouts {op.layout} / {op2.layout} do not match "
            f"sample layout {samples.layout}"
        )


def _rank_svd(
    a: np.ndarray, scale: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The SVD u, s, vt of ``a`` cut to the singular values above
    RANK_TOL * ``scale`` (by default the largest), and the null space of
    ``a`` as orthonormal columns.

    A system that is not finite raises LinAlgError, so an overflow never
    passes for a rank-0 cut.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    limit = RANK_TOL * (s[0] if scale is None else scale)
    if not (math.isfinite(limit) and np.all(np.isfinite(s))):
        raise np.linalg.LinAlgError("the system is not finite")
    rank = int(np.count_nonzero(s > limit))
    return u[:, :rank], s[:rank], vt[:rank], vt[rank:].T


def _lstsq(blocks, width: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solution of a x = b, for the rows [a | b]
    of ``blocks``, each (rows, width), and the null space of ``a``, under
    the RANK_TOL * ``scale`` cut. QR folds the rows into one running
    triangle, 16 triangles' rows at a time, which adds 1/16 to the work and
    bounds the rows held; only the triangle is decomposed."""
    rows = [np.empty((0, width))]
    for block in blocks:
        rows.append(block)
        if len(rows) * len(block) >= 16 * width:
            rows = [np.linalg.qr(np.vstack(rows), mode="r")]
    r = np.linalg.qr(np.vstack(rows), mode="r")
    u, s, vt, null = _rank_svd(r[:, :-1], scale)
    return vt.T @ (u.T @ r[:, -1] / s), null


def _solve(
    w: np.ndarray, ma: np.ndarray, t: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The minimum-norm minimiser (M, v) of sum_{s,j} |M w[s, j] + ma[s] v
    - t[s, j]|^2 + c |M|_F^2, and whether it is unique. A sample's once- and
    twice-negated value rows w[s], t[s] share its M_a = ma[s], held once.

    Row i of M meets every row through the same matrix W = [w; sqrt(c) I]:
    its rows are W m_i = [t[..., i] - M_a[:, i, :] v; 0]. With W = U S V^T
    cut to its rank, the best m_i for a given v is V S^-1 U^T of that
    right-hand side, zero along null(W). What it leaves is the part of
    the right-hand side outside the range of U: stacked over i, a
    least-squares problem in v alone, folded by QR into one running
    triangle. Its cut is measured against |M_a| over the 2S value rows,
    never against its own largest singular value, which can be rounding
    noise. Where it is rank-deficient, a step along its null space picks
    the v that minimises |M|_F^2 + |v|^2 jointly.
    """
    n, k = ma.shape[1], 2 * len(ma)
    w = w.reshape(k, n)
    u, s, vt, w_null = _rank_svd(np.vstack([w, math.sqrt(c) * np.eye(n)]) if c else w)
    # U^T M_a[:, i, :] z is (u_pairs.T @ (ma @ z))[:, i], U^T t[..., i] is
    # y[:, i]: a sample's two value rows meet the same M_a, so its rows of U add
    u_pairs, y = u[:k:2] + u[1:k:2], u[:k].T @ t.reshape(k, n)

    def value_rows(i: int) -> np.ndarray:  # what U leaves of [M_a[:, i, :] | t[..., i]]
        left = -u @ np.column_stack([u_pairs.T @ ma[:, i], y[:, i]])
        left[:k] += np.column_stack([np.repeat(ma[:, i], 2, axis=0), t[..., i].reshape(k)])
        return left

    # |M_a| over the 2S rows; einsum, as OpenBLAS threads np.linalg.norm's dot
    scale = math.sqrt(2 * np.einsum("rij,rij->", ma, ma))
    v, v_null = _lstsq(map(value_rows, range(n)), n + 1, scale)
    if v_null.shape[1]:
        # |M|_F = |(y - U^T M_a v) / s| = |e - d z| at v + v_null z, and v is
        # orthogonal to v_null: minimise |e - d z|^2 + |z|^2, by blocks of i
        k_null = v_null.shape[1]
        e = (y - u_pairs.T @ (ma @ v)) / s[:, None]
        step = max(1, 16 * (k_null + 1) // len(s))

        def null_rows(i: int) -> np.ndarray:
            d = u_pairs.T @ (ma[:, i : i + step] @ v_null).reshape(len(ma), -1) / s[:, None]
            return np.hstack([d.reshape(-1, k_null), e[:, i : i + step].reshape(-1, 1)])

        blocks = chain(map(null_rows, range(0, n, step)), [np.eye(k_null, k_null + 1)])
        z, _ = _lstsq(blocks, k_null + 1, 1.0)
        v = v + v_null @ z
    m = ((y - u_pairs.T @ (ma @ v)) / s[:, None]).T @ vt
    return m, v, not (w_null.shape[1] or v_null.shape[1])


def _fit(
    samples: SampleSet, op: NegationOperator, op2: NegationOperator, constraints: str
) -> FitResult:
    """The baseline fit of (M_not, v_not) under ``constraints``.

    The function rows M_not = 0 and 2 M_not = 0 of S samples weigh
    c = 5S on |M_not|_F^2. One orthogonal structured solve gives the
    minimum-norm minimiser, which is unique unless ``solver`` is
    "min-norm".
    """
    layout = samples.layout
    if constraints == "function":
        # v_not appears in no function row, and M_not = 0 satisfies every
        # one, so zero is the exact minimum-norm solution.
        return FitResult(
            FunctionMatrix.zeros(layout), SemanticVector.zeros(layout),
            None, 0.0, 0.0, 0.0, "closed-form",
        )
    # the value requirements M_not w + M_a v_not = t of each sample, once
    # negated (w = v_a, t = J_mu v_a) and twice (w = J_mu v_a, t = J_nu J_mu v_a)
    once = negated(samples.v, layout, op)
    w = np.stack([samples.v, once], axis=1)
    t = np.stack([once, negated(once, layout, op2)], axis=1)
    c = 0.0 if constraints == "value" else 5.0 * len(samples)
    # Huge sample values overflow the solve, or residuals that are taken
    # scaled: that is reported only through the ValueError below.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            m, v, unique = _solve(w, samples.m, t, c)
            res_value = scaled_norm(w @ m.T + (samples.m @ v)[:, None] - t)
            res_function = math.sqrt(c) * scaled_norm(m)
        except np.linalg.LinAlgError:
            res_value = res_function = math.nan
    if not math.isfinite(res_value + res_function):
        raise ValueError(f"the {constraints!r} fit overflows: sample values too large")
    return FitResult(
        FunctionMatrix(m, layout), SemanticVector(v, layout), None,
        res_value, res_function, math.hypot(res_value, res_function),
        "structured" if unique else "min-norm",
    )


def fit_negation_baseline(
    samples: SampleSet,
    op: NegationOperator,
    op2: NegationOperator,
    constraints: str = "both",
) -> FitResult:
    """Joint least-squares fit of (M_not, v_not) under the baseline model.

    ``constraints`` selects which requirement families enter the system:
    "value", "function", or "both" (default). With both active the system
    is inconsistent for any valid layout, so the residual is strictly
    positive: there is no baseline entry that negates every sample and
    leaves every sample's function alone.
    """
    if constraints not in CONSTRAINT_FAMILIES:
        raise ValueError(
            f"constraints must be one of {CONSTRAINT_FAMILIES}, got {constraints!r}"
        )
    _check_fit_inputs(samples, op, op2)
    return _fit(samples, op, op2, constraints)


def fit_negation_improved(
    samples: SampleSet, op: NegationOperator, op2: NegationOperator
) -> FitResult:
    """Fit (M_not, v_not, alpha_not) under the alpha-weighted model.

    The vector rule is unchanged, so the value block is identical to the
    baseline's and is solved first. The function requirements, cleared of
    the Z denominator, reduce to alpha_not * M_not = 0 and
    alpha_not * M_a = 0; with the fitted M_not substituted they are linear
    in alpha_not with a zero right-hand side, so their minimum-norm
    solution is alpha_not = 0 in closed form, with residual_function = 0.
    The whole system is therefore consistent and the total residual
    vanishes (up to solver tolerance) whenever the two operators agree.
    """
    _check_fit_inputs(samples, op, op2)
    for entry in samples.entries:
        if entry.alpha <= 0.0:
            raise ValueError(
                f"sample {entry.token!r} has alpha = {entry.alpha}; improved-model "
                "samples must have alpha > 0"
            )
    # The value-only fit has residual_function 0, and the alpha_not rows
    # have a zero right-hand side: min-norm alpha_not = 0.
    return replace(_fit(samples, op, op2, "value"), alpha_not_hat=0.0)


# ---------------------------------------------------------------------------
# reports


def check_double_negation(
    values: np.ndarray, layout: SegmentLayout, op: NegationOperator, op2: NegationOperator
) -> tuple[np.ndarray, ...]:
    """Negate the stacked vectors ``values`` (W, n) of ``layout`` by ``op``,
    then by ``op2``: ``once`` and ``twice`` (W, n), then per row
    ``domain_unchanged`` (domain and stable segments bitwise identical
    across all three vectors), ``signs_restored`` (the twice-negated
    inverted segment has the original signs), ``diminutive`` (every nonzero
    inverted entry strictly shrank in magnitude; false at mu = nu = 1,
    where double inversion restores the vector exactly) and
    ``underflowed``, the count of inverted entries whose checks are relaxed.

    Signs and shrink hold exactly only where mu * nu * |x| is at least the
    smallest normal double, ``np.finfo(float).tiny``. Below it the result
    is subnormal and rounds to a grid that can put it back on x itself
    (0.9 * 0.9 * 5e-324 rounds to 5e-324) or on zero. For such an entry
    the check requires |y| <= |x| in place of the strict shrink and
    accepts zero in place of the original sign.
    """
    if values.shape[1:] != (layout.n,):
        raise DimensionError(f"values must have shape (W, {layout.n}), got {values.shape}")
    once = negated(values, layout, op)
    twice = negated(once, layout, op2)
    keep, inverted = slice(0, layout.d_domain + layout.d_stable), layout.inverted_slice
    domain_unchanged = (values[:, keep] == once[:, keep]) & (values[:, keep] == twice[:, keep])
    x, y = values[:, inverted], twice[:, inverted]
    before, after = np.abs(x), np.abs(y)
    nonzero = x != 0.0
    small = nonzero & (op.mu * op2.mu * before < np.finfo(float).tiny)
    signs_restored = (np.sign(y) == np.sign(x)) | (small & (y == 0.0))
    shrunk = np.where(small, after <= before, after < before)
    return (
        once, twice, domain_unchanged.all(axis=1), signs_restored.all(axis=1),
        (shrunk | ~nonzero).all(axis=1), np.count_nonzero(small, axis=1),
    )


@dataclass(frozen=True)
class ScopeInvarianceReport:
    """Root-matrix response to perturbing the negation word's function.

    ``delta`` is the Frobenius norm of the root-matrix difference between
    composing with M_not and with M_not + perturbation. Under the improved
    model with alpha_not = 0 the perturbation cannot leave the negation's
    own composition step and delta is 0; under the baseline default it
    propagates additively and delta equals the perturbation norm.
    """

    model: str
    delta: float
    perturbation_norm: float


def scope_invariance_report(
    tree: ParseTree,
    lexicon: Lexicon,
    cfg: CompositionConfig,
    perturbation: FunctionMatrix,
    token: str = "not",
) -> ScopeInvarianceReport:
    """Measure how far a change to the negation word's matrix travels.

    The tree is right-binarized internally, so the raw n-ary parse can be
    passed in. It must contain exactly one ``token`` leaf.
    """
    if perturbation.layout != lexicon.layout:
        raise DimensionError(
            f"perturbation layout {perturbation.layout} does not match "
            f"lexicon layout {lexicon.layout}"
        )
    found = tree.fringe().count(token)
    if found != 1:
        raise ValueError(f"tree must contain exactly one {token!r} leaf, found {found}")
    binary = binarize(tree)
    base_entry = lexicon[token]
    root = compose_tree(binary, lexicon, cfg)
    perturbed_entry = replace(
        base_entry,
        M=FunctionMatrix(base_entry.M.entries + perturbation.entries, lexicon.layout),
    )
    root_perturbed = compose_tree(binary, lexicon.with_entry(perturbed_entry), cfg)
    delta = float(np.linalg.norm(root_perturbed.M.entries - root.M.entries))
    return ScopeInvarianceReport(
        model=cfg.model,
        delta=delta,
        perturbation_norm=float(np.linalg.norm(perturbation.entries)),
    )


# ---------------------------------------------------------------------------
# dual-space similarity


def _semantic_pair(
    a: LexicalEntry | SemanticVector, b: LexicalEntry | SemanticVector
) -> tuple[np.ndarray, np.ndarray, SegmentLayout]:
    """Both value arrays and the layout they must share."""
    va, vb = (x.v if isinstance(x, LexicalEntry) else x for x in (a, b))
    if va.layout != vb.layout:
        raise DimensionError(f"layout mismatch: {va.layout} vs {vb.layout}")
    return va.values, vb.values, va.layout


def domain_similarity(a: LexicalEntry | SemanticVector, b: LexicalEntry | SemanticVector) -> float:
    """Cosine over the domain segments only."""
    va, vb, layout = _semantic_pair(a, b)
    return cosine(va[layout.domain_slice], vb[layout.domain_slice])


def value_similarity(a: LexicalEntry | SemanticVector, b: LexicalEntry | SemanticVector) -> float:
    """Cosine over the joint stable+inverted (value) segments."""
    va, vb, layout = _semantic_pair(a, b)
    return cosine(va[layout.d_domain :], vb[layout.d_domain :])
