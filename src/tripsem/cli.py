"""Command-line interface.

Subcommands: lexicon-init, negate, compose, sim, verify. Reports are plain
text, one ``<command> <key>: <value>`` pair per line, with floats printed
as shortest round-trip decimals (so repeated runs are byte-identical and
reports can be diffed in tests). Exit status is 0 on success, 1 when a
verify check fails, and 2 on usage errors (bad flags, missing files,
unknown words, layout mismatches, an improved-model step whose alphas are
both zero, a composed vector or matrix that overflows), which print
nothing on stdout and a one-line ``tripsem: ...`` diagnostic on stderr.
A failing verify check (exit 1) still prints its whole report. A layout
too large to allocate and any other floating-point overflow exit 2 the
same way, never with a numpy warning. Trees of any depth are read and
composed; the parser and composer loop over flat arrays.

verify checks and their pass conditions:

* ``contradiction``: joint baseline fit has residual_total above the
  solver-noise threshold (the inconsistency is the point), while the
  value-only fit recovers (J_mu, 0) and the function-only fit recovers
  M_not = 0, each within 1e-9.
* ``improved-fit``: alpha_not, the M_not error against J_mu, the v_not
  norm, and residual_total are all within 1e-9.
* ``double-negation``: domain_unchanged and signs_restored hold for every
  lexicon word, and diminutive holds for every word with a nonzero
  inverted segment (when mu_default < 1). An inverted entry x with
  mu^2 |x| below the smallest normal double need only not grow, and may
  round to zero; words_underflowed counts the words that have one.
* ``scope --tree FILE``: with a seeded perturbation of the "not" matrix,
  the improved-model root-M delta is <= 1e-12 and the baseline delta
  equals the perturbation norm within 1e-12 relative.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    SampleSet,
    check_double_negation,
    domain_similarity,
    fit_negation_baseline,
    fit_negation_improved,
    scope_invariance_report,
    value_similarity,
)
from .composition import MODELS, CompositionConfig, compose_tree
from .core import (
    FunctionMatrix,
    NegationOperator,
    SegmentLayout,
    make_negation_matrix,
    negate_vector,
    split_segments,
)
from .errors import TripsemError
from .lexicon import Lexicon, init_random, load, save, set_function_word
from .numerics import cosine
from .treeio import binarize, parse_forest

__all__ = ["run", "main"]

# Fit results below FIT_TOL count as exact; contradiction residuals must
# clear RESIDUAL_FLOOR, far above lstsq noise on these problem sizes.
FIT_TOL = 1e-9
RESIDUAL_FLOOR = 1e-6
SCOPE_TOL = 1e-12


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, np.ndarray):
        return " ".join(repr(float(x)) for x in value)
    return str(value)


def _segments(key: str, vector) -> list:
    names = (f"{key}.domain", f"{key}.stable", f"{key}.inverted")
    return list(zip(names, split_segments(vector)))


def _parse_layout(text: str) -> SegmentLayout:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"layout must be D,S,I (three integers), got {text!r}")
    try:
        d, s, i = (int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"layout must be D,S,I (three integers), got {text!r}") from None
    return SegmentLayout(d, s, i)


def _read_words(path: str) -> list[str]:
    tokens = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens.append(line)
    if not tokens:
        raise ValueError(f"no words found in {path}")
    return tokens


def _read_one_tree(path: str):
    trees = parse_forest(Path(path).read_text(encoding="utf-8"))
    if len(trees) != 1:
        raise ValueError(f"{path} must contain exactly one tree, found {len(trees)}")
    return trees[0]


# ---------------------------------------------------------------------------
# subcommands: each maps the parsed args to (report rows, passed)


def _cmd_lexicon_init(args) -> tuple[list, bool]:
    tokens = _read_words(args.words)
    layout = _parse_layout(args.layout)
    lex = init_random(tokens, layout, args.seed, args.noise, mu_default=args.not_mu)
    lex = set_function_word(lex, "not", "negation", mu=args.not_mu)
    save(lex, args.out)
    return [
        ("words", len(lex)),
        ("layout", args.layout),
        ("seed", args.seed),
        ("noise", float(args.noise)),
        ("not_mu", float(args.not_mu)),
        ("out", args.out),
    ], True


def _cmd_negate(args) -> tuple[list, bool]:
    lex = load(args.lexicon)
    entry = lex[args.word]
    mu = lex.mu_default if args.mu is None else args.mu
    op = NegationOperator(mu, lex.layout)
    negated = negate_vector(entry.v, op)
    rows = [("word", args.word), ("mu", float(mu))]
    return rows + _segments("original", entry.v) + _segments("negated", negated), True


def _cmd_compose(args) -> tuple[list, bool]:
    lex = load(args.lexicon)
    tree = binarize(_read_one_tree(args.tree), strategy=args.binarize)
    cfg = CompositionConfig(model=args.model)
    root = compose_tree(tree, lex, cfg)
    return [
        ("model", args.model),
        ("tree", args.tree),
        *_segments("root.v", root.v),
        ("root.M.frobenius", root.M.frobenius_norm()),
        ("root.alpha", float(root.alpha)),
    ], True


_SIM_REGIONS = {
    "domain": domain_similarity,
    "value": value_similarity,
    "full": lambda a, b: cosine(a.v.values, b.v.values),
}


def _cmd_sim(args) -> tuple[list, bool]:
    lex = load(args.lexicon)
    value = _SIM_REGIONS[args.region](lex[args.a], lex[args.b])
    return [("a", args.a), ("b", args.b), ("region", args.region), ("cosine", value)], True


def _fit_inputs(lex: Lexicon):
    samples = SampleSet.from_lexicon(lex)
    op = NegationOperator(lex.mu_default, lex.layout)
    head = [("samples", len(samples)), ("mu", float(lex.mu_default))]
    return samples, op, make_negation_matrix(op).entries, head


def _verify_contradiction(lex: Lexicon, args) -> tuple[list, bool]:
    samples, op, j_mu, rows = _fit_inputs(lex)
    joint = fit_negation_baseline(samples, op, op)
    value_only = fit_negation_baseline(samples, op, op, constraints="value")
    function_only = fit_negation_baseline(samples, op, op, constraints="function")

    value_m_error = float(np.linalg.norm(value_only.M_not_hat.entries - j_mu))
    value_v_error = float(np.linalg.norm(value_only.v_not_hat.values))
    function_m_error = float(np.linalg.norm(function_only.M_not_hat.entries))

    rows += [
        ("residual_value", joint.residual_value),
        ("residual_function", joint.residual_function),
        ("residual_total", joint.residual_total),
        ("residual_floor", RESIDUAL_FLOOR),
        ("value_only.m_error", value_m_error),
        ("value_only.v_error", value_v_error),
        ("value_only.residual", value_only.residual_value),
        ("function_only.m_error", function_m_error),
        ("function_only.residual", function_only.residual_function),
        ("joint.solver", joint.solver),
        ("value_only.solver", value_only.solver),
        ("function_only.solver", function_only.solver),
    ]
    return rows, (
        joint.residual_total > RESIDUAL_FLOOR
        and value_m_error <= FIT_TOL
        and value_v_error <= FIT_TOL
        and value_only.residual_value <= FIT_TOL
        and function_m_error <= FIT_TOL
        and function_only.residual_function <= FIT_TOL
    )


def _verify_improved_fit(lex: Lexicon, args) -> tuple[list, bool]:
    samples, op, j_mu, rows = _fit_inputs(lex)
    fit = fit_negation_improved(samples, op, op)
    m_error = float(np.linalg.norm(fit.M_not_hat.entries - j_mu))
    v_error = float(np.linalg.norm(fit.v_not_hat.values))
    rows += [
        ("alpha_not", fit.alpha_not_hat),
        ("m_error", m_error),
        ("v_error", v_error),
        ("residual_total", fit.residual_total),
        ("tolerance", FIT_TOL),
        ("solver", fit.solver),
    ]
    return rows, (
        abs(fit.alpha_not_hat) <= FIT_TOL
        and m_error <= FIT_TOL
        and v_error <= FIT_TOL
        and fit.residual_total <= FIT_TOL
    )


def _verify_double_negation(lex: Lexicon, args) -> tuple[list, bool]:
    op = NegationOperator(lex.mu_default, lex.layout)
    expect_diminutive = lex.mu_default * lex.mu_default < 1.0
    reports = [check_double_negation(entry, op, op) for entry in lex]
    all_domain = all(r.domain_unchanged for r in reports)
    all_signs = all(r.signs_restored for r in reports)
    # diminutive is vacuously true for a word with no inverted mass.
    all_dim = all(r.diminutive for r in reports)
    inverted = lex.layout.inverted_slice
    return [
        ("mu", float(lex.mu_default)),
        ("nu", float(lex.mu_default)),
        ("words", len(lex)),
        ("words_with_inverted_mass", sum(bool(np.any(e.v.values[inverted])) for e in lex)),
        ("domain_unchanged", all_domain),
        ("signs_restored", all_signs),
        ("diminutive", all_dim),
        ("words_underflowed", sum(bool(r.underflowed) for r in reports)),
    ], all_domain and all_signs and (all_dim or not expect_diminutive)


def _verify_scope(lex: Lexicon, args) -> tuple[list, bool]:
    tree = _read_one_tree(args.tree)
    n = lex.layout.n
    rng = np.random.default_rng(0)
    perturbation = FunctionMatrix(rng.standard_normal((n, n)), lex.layout)
    baseline = scope_invariance_report(
        tree, lex, CompositionConfig(model="baseline"), perturbation
    )
    improved = scope_invariance_report(
        tree, lex, CompositionConfig(model="improved"), perturbation
    )
    p_norm = baseline.perturbation_norm
    baseline_error = abs(baseline.delta - p_norm)
    rows = [
        ("tree", args.tree),
        ("perturbation_norm", p_norm),
        ("baseline.delta", baseline.delta),
        ("baseline.error", baseline_error),
        ("improved.delta", improved.delta),
        ("tolerance", SCOPE_TOL),
    ]
    return rows, (
        improved.delta <= SCOPE_TOL
        and baseline_error <= SCOPE_TOL * max(1.0, p_norm)
    )


_VERIFY = {
    "contradiction": _verify_contradiction,
    "improved-fit": _verify_improved_fit,
    "double-negation": _verify_double_negation,
    "scope": _verify_scope,
}
VERIFY_CHECKS = tuple(_VERIFY)


def _cmd_verify(args) -> tuple[list, bool]:
    if args.check == "scope" and args.tree is None:
        raise ValueError("verify scope requires --tree")
    rows, ok = _VERIFY[args.check](load(args.lexicon), args)
    head = [("check", args.check), ("lexicon", args.lexicon)]
    return head + rows + [("result", "PASS" if ok else "FAIL")], ok


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripsem",
        description="Tripartite semantic vectors: negation, composition, fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lexicon-init", help="write a seeded random lexicon")
    p.add_argument("--words", required=True, help="word list, one token per line")
    p.add_argument("--out", required=True, help="output lexicon path")
    p.add_argument("--layout", default="4,2,2", help="segment sizes D,S,I")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--not-mu", type=float, default=0.5, dest="not_mu")
    p.set_defaults(func=_cmd_lexicon_init)

    p = sub.add_parser("negate", help="negate one word's vector")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--mu", type=float, default=None)
    p.set_defaults(func=_cmd_negate)

    p = sub.add_parser("compose", help="compose a bracketed tree bottom-up")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--model", choices=MODELS, default="baseline")
    p.add_argument("--binarize", choices=("right", "left"), default="right")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("sim", help="cosine similarity between two words")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--region", choices=tuple(_SIM_REGIONS), default="full")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("verify", help="run a negation analysis check")
    p.add_argument("check", choices=VERIFY_CHECKS)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--tree", default=None, help="tree file (scope check only)")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rows, ok = args.func(args)
    except (TripsemError, OSError, ValueError, FloatingPointError, MemoryError) as exc:
        print(f"tripsem: {exc}", file=sys.stderr)
        return 2
    for key, value in rows:
        print(f"{args.command} {key}: {_fmt(value)}".rstrip())
    return 0 if ok else 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
