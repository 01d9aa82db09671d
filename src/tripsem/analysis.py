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
* The improved fit solves the value block first, then the alpha_not rows
  (alpha_not * M_not_hat = 0 and alpha_not * M_a = 0, the Z-cleared forms)
  with the fitted matrix substituted. Their right-hand side is zero, so
  that step is closed-form: alpha_not = 0 with residual 0.

Unknowns are ordered [vec(M_not) row-major, then v_not]. The systems are
solved through their normal equations, which have structure: the
M_not block is I kron H with H = sum w w^T + 5S I (S samples, function
rows present) and v_not couples to it through n columns only. One n x n
eigendecomposition of H and one of the n x n Schur complement of the
v_not block give the solution. When either is singular or has an
eigenvalue ratio above COND_LIMIT - a value system with fewer than
n - d_inverted + 1 samples - the explicit design is solved by SVD
instead, which yields the minimum-norm solution. The function-only
system, where v_not appears in no row, has the minimum-norm solution
zero in closed form. ``FitResult.solver`` says which ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .composition import CompositionConfig, compose_tree
from .core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    make_negation_matrix,
    negate_vector,
)
from .errors import DimensionError
from .lexicon import Lexicon, init_random
from .numerics import cosine, least_squares
from .treeio import ParseTree, binarize

__all__ = [
    "FitResult",
    "SampleSet",
    "fit_negation_baseline",
    "fit_negation_improved",
    "DoubleNegationReport",
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

# The structured solve hands the system to the SVD when an eigenvalue
# ratio exceeds this: the largest of H to its smallest, or the largest of
# A_vv (the v_not block) to the smallest of its Schur complement. The
# bound lies far inside the SVD's RANK_TOL cut, so every system the SVD
# would treat as rank-deficient takes the SVD path.
COND_LIMIT = 1e8


@dataclass(frozen=True)
class FitResult:
    """Least-squares solution of a negation constraint system.

    ``residual_value`` and ``residual_function`` are the 2-norms of the
    residuals over the value and function row families;
    ``residual_total`` is their quadrature sum. ``alpha_not_hat`` is None
    for baseline fits, which have no propagation-weight unknown; the
    improved fit's closed-form alpha step gives 0.0, with residual 0.0.
    ``solver`` names the path that solved for (M_not, v_not):
    "structured", "svd", or "closed-form" for the function-only fit.
    """

    M_not_hat: FunctionMatrix
    v_not_hat: SemanticVector
    alpha_not_hat: float | None
    residual_value: float
    residual_function: float
    residual_total: float
    solver: str


def _sample_fault(entry: LexicalEntry) -> str:
    """What breaks the sample assumptions for ``entry``, or "" if nothing."""
    if not np.any(entry.v.values):
        return "a zero vector"
    if not np.any(entry.M.entries):
        return "a zero function matrix"
    if np.array_equal(entry.M.entries, np.eye(entry.layout.n)):
        return "the identity as function matrix"
    return ""


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sample words quantified over by the constraint system.

    Every entry must have a nonzero vector and a function matrix that is
    neither the zero matrix nor the identity, so the "varies and is
    non-zero" assumption behind the derivation actually holds.
    """

    entries: tuple[LexicalEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("sample set must be nonempty")
        layout = entries[0].layout
        for entry in entries:
            if entry.layout != layout:
                raise DimensionError(
                    f"sample {entry.token!r} has layout {entry.layout}, "
                    f"expected {layout}"
                )
            fault = _sample_fault(entry)
            if fault:
                raise ValueError(f"sample {entry.token!r} has {fault}")
        object.__setattr__(self, "entries", entries)

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
        picked = [e for e in lex if not _sample_fault(e)]
        if not picked:
            raise ValueError("lexicon has no entries satisfying the sample assumptions")
        return cls(tuple(picked))


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


def _value_triples(
    samples: SampleSet, op: NegationOperator, op2: NegationOperator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (w, M_a, t) of the value requirements M_not w + M_a v_not = t.

    Each sample contributes its once-negated requirement (w = v_a,
    t = J_mu v_a) and then its twice-negated one (w = J_mu v_a,
    t = J_nu J_mu v_a), so triple r holds the r-th n-row block of the
    value design. Shapes are (2S, n), (2S, n, n) and (2S, n).
    """
    v = np.stack([entry.v.values for entry in samples.entries])
    m = np.stack([entry.M.entries for entry in samples.entries])
    once = v @ make_negation_matrix(op).entries.T
    twice = once @ make_negation_matrix(op2).entries.T
    n = v.shape[1]
    w = np.stack([v, once], axis=1).reshape(-1, n)
    t = np.stack([once, twice], axis=1).reshape(-1, n)
    return w, np.repeat(m, 2, axis=0), t


def _spd_inverse(a: np.ndarray, scale: float | None = None) -> np.ndarray | None:
    """Inverse of a symmetric matrix through its eigendecomposition.

    None unless the smallest eigenvalue exceeds ``scale`` / COND_LIMIT,
    where ``scale`` defaults to the largest eigenvalue of ``a``.
    """
    lam, q = np.linalg.eigh(a)
    top = lam[-1] if scale is None else scale
    if not lam[0] > top / COND_LIMIT:
        return None
    return (q / lam) @ q.T


def _solve_structured(
    w: np.ndarray, ma: np.ndarray, t: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Minimise sum_r |M w_r + M_a,r v - t_r|^2 + c |M|_F^2 over (M, v).

    The normal equations are M H + B v = R_M and B^T vec(M) + A_vv v = r_v,
    with H = sum w w^T + c I, the n^2 x n coupling B[i, j, k] =
    sum w_j M_a[i, k], A_vv = sum M_a^T M_a, R_M = sum t w^T and
    r_v = sum M_a^T t. Eliminating M = (R_M - B v) H^-1 leaves the n x n
    Schur complement A_vv - B^T (I kron H^-1) B for v. Returns None when H
    is too ill-conditioned for this route, or when elimination leaves too
    little of A_vv: the Schur complement's eigenvalues are then measured
    against A_vv's largest, since they can all be rounding noise at once.
    """
    n = w.shape[1]
    h_inv = _spd_inverse(w.T @ w + c * np.eye(n))
    if h_inv is None:
        return None
    b = np.einsum("rj,rik->ijk", w, ma)
    b_h = np.einsum("ijk,jl->ilk", b, h_inv)
    a_vv = np.einsum("rik,ril->kl", ma, ma)
    schur = a_vv - np.einsum("ijk,ijl->kl", b_h, b)
    s_inv = _spd_inverse(schur, np.linalg.eigvalsh(a_vv)[-1])
    if s_inv is None:
        return None

    def solve(g_m, g_v):
        g_m_h = g_m @ h_inv
        v = s_inv @ (g_v - np.einsum("ijk,ij->k", b, g_m_h))
        return g_m_h - (b @ v) @ h_inv, v

    m, v = solve(t.T @ w, np.einsum("rik,ri->k", ma, t))
    # Forming the normal equations squares the design's condition number.
    # Refining against the residual of the rows themselves (corrected
    # semi-normal equations) brings the error back to the SVD's level:
    # two steps do so at the uniqueness threshold, where the design's
    # condition number reaches 1e4.
    for _ in range(2):
        r = t - w @ m.T - ma @ v
        dm, dv = solve(r.T @ w - c * m, np.einsum("rik,ri->k", ma, r))
        m, v = m + dm, v + dv
    return m, v


def _solve_svd(
    w: np.ndarray, ma: np.ndarray, t: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """The same minimisation through the SVD of the explicit design.

    Triple r gives the rows [kron(I, w_r^T), M_a,r]. With c > 0 the
    function rows are the single block sqrt(c) I on vec(M): it has the
    same minimiser and function residual as the 2S blocks I and 2I it
    stands for. Rank-deficient systems yield the minimum-norm solution.
    """
    k, n = w.shape
    n_function = n * n if c else 0
    design = np.zeros((k * n + n_function, n * n + n))
    value = design[: k * n].reshape(k, n, n * n + n)
    for i in range(n):
        value[:, i, i * n : (i + 1) * n] = w
    value[:, :, n * n :] = ma
    diag = np.arange(n_function)
    design[k * n + diag, diag] = math.sqrt(c)
    targets = np.concatenate([t.reshape(-1), np.zeros(n_function)])
    x, _ = least_squares(design, targets)
    return x[: n * n].reshape(n, n), x[n * n :]


def _fit(
    samples: SampleSet, op: NegationOperator, op2: NegationOperator, constraints: str
) -> FitResult:
    """The baseline fit of (M_not, v_not) under ``constraints``.

    The function rows M_not = 0 and 2 M_not = 0 of S samples weigh
    c = 5S on |M_not|_F^2. The structured solve runs when it measures
    the system well-conditioned, the SVD otherwise.
    """
    layout = samples.layout
    if constraints == "function":
        # v_not appears in no function row, and M_not = 0 satisfies every
        # one, so zero is the exact minimum-norm solution.
        return FitResult(
            FunctionMatrix.zeros(layout), SemanticVector.zeros(layout),
            None, 0.0, 0.0, 0.0, "closed-form",
        )
    w, ma, t = _value_triples(samples, op, op2)
    c = 0.0 if constraints == "value" else 5.0 * len(samples)
    solver = "structured"
    solution = _solve_structured(w, ma, t, c)
    if solution is None:
        solver = "svd"
        solution = _solve_svd(w, ma, t, c)
    m, v = solution
    res_value = float(np.linalg.norm(w @ m.T + ma @ v - t))
    res_function = math.sqrt(c) * float(np.linalg.norm(m))
    return FitResult(
        FunctionMatrix(m, layout), SemanticVector(v, layout), None,
        res_value, res_function, math.hypot(res_value, res_function), solver,
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


@dataclass(frozen=True, eq=False)
class DoubleNegationReport:
    """Once- and twice-negated vectors plus the properties they exhibit.

    ``underflowed`` counts the inverted entries for which
    ``check_double_negation`` relaxes both checks.
    """

    original: SemanticVector
    once: SemanticVector
    twice: SemanticVector
    domain_unchanged: bool
    signs_restored: bool
    diminutive: bool
    underflowed: int


def check_double_negation(
    entry: LexicalEntry, op: NegationOperator, op2: NegationOperator
) -> DoubleNegationReport:
    """Negate twice and report what happened to each segment.

    ``domain_unchanged``: domain and stable segments are bitwise identical
    across all three vectors. ``signs_restored``: the twice-negated
    inverted segment has the original signs. ``diminutive``: every nonzero
    inverted entry strictly shrank in magnitude (false at mu = nu = 1,
    where double inversion restores the vector exactly).

    Both hold exactly only where mu * nu * |x| is at least the smallest
    normal double, ``np.finfo(float).tiny``. Below it the result is
    subnormal and rounds to a grid that can put it back on x itself
    (0.9 * 0.9 * 5e-324 rounds to 5e-324) or on zero. For such an entry
    the check requires |y| <= |x| in place of the strict shrink and
    accepts zero in place of the original sign.
    """
    original = entry.v
    once = negate_vector(original, op)
    twice = negate_vector(once, op2)
    layout = original.layout
    keep = slice(0, layout.d_domain + layout.d_stable)
    domain_unchanged = np.array_equal(
        original.values[keep], once.values[keep]
    ) and np.array_equal(original.values[keep], twice.values[keep])
    orig_inv = original.values[layout.inverted_slice]
    twice_inv = twice.values[layout.inverted_slice]
    nonzero = orig_inv != 0.0
    small = nonzero & (op.mu * op2.mu * np.abs(orig_inv) < np.finfo(float).tiny)
    same_sign = np.sign(twice_inv) == np.sign(orig_inv)
    signs_restored = bool(np.all(same_sign | (small & (twice_inv == 0.0))))
    before, after = np.abs(orig_inv), np.abs(twice_inv)
    shrunk = np.where(small, after <= before, after < before)
    diminutive = bool(np.all(shrunk[nonzero]))
    return DoubleNegationReport(
        original=original,
        once=once,
        twice=twice,
        domain_unchanged=bool(domain_unchanged),
        signs_restored=signs_restored,
        diminutive=diminutive,
        underflowed=int(np.count_nonzero(small)),
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
    not_leaves = [leaf for leaf in tree.leaves() if leaf.token == token]
    if len(not_leaves) != 1:
        raise ValueError(
            f"tree must contain exactly one {token!r} leaf, found {len(not_leaves)}"
        )
    binary = binarize(tree)
    base_entry = lexicon[token]
    root = compose_tree(binary, lexicon, cfg)
    perturbed_entry = LexicalEntry(
        base_entry.token,
        base_entry.v,
        FunctionMatrix(base_entry.M.entries + perturbation.entries, lexicon.layout),
        base_entry.alpha,
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


def _semantic_values(x: LexicalEntry | SemanticVector) -> tuple[np.ndarray, SegmentLayout]:
    if isinstance(x, LexicalEntry):
        return x.v.values, x.layout
    return x.values, x.layout


def domain_similarity(a: LexicalEntry | SemanticVector, b: LexicalEntry | SemanticVector) -> float:
    """Cosine over the domain segments only."""
    va, la = _semantic_values(a)
    vb, lb = _semantic_values(b)
    if la != lb:
        raise DimensionError(f"layout mismatch: {la} vs {lb}")
    return cosine(va[la.domain_slice], vb[la.domain_slice])


def value_similarity(a: LexicalEntry | SemanticVector, b: LexicalEntry | SemanticVector) -> float:
    """Cosine over the joint stable+inverted (value) segments."""
    va, la = _semantic_values(a)
    vb, lb = _semantic_values(b)
    if la != lb:
        raise DimensionError(f"layout mismatch: {la} vs {lb}")
    return cosine(va[la.d_domain :], vb[la.d_domain :])
