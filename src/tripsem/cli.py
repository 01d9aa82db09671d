"""Command-line interface.

Subcommands: lexicon-init, negate, compose, sim, verify. Reports are plain
text, one ``<command> <key>: <value>`` pair per line, with floats printed
as shortest round-trip decimals (so repeated runs are byte-identical and
reports can be diffed in tests). Exit status is 0 on success, 1 when a
verify check fails (its whole report is still printed), and 2 on any
usage error or overflow, which prints nothing on stdout and a one-line
``tripsem: ...`` diagnostic on stderr, never a numpy warning. README's
CLI section lists the usage errors.

The pass condition of each verify check is the value its ``_verify_*``
function returns; README's CLI section states all four in words.
"""

from __future__ import annotations

import argparse
import functools
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
from .numerics import cosine, scaled_norm
from .treeio import binarize, parse_forest

__all__ = ["run", "main"]

# Fit results below FIT_TOL count as exact; contradiction residuals must
# clear RESIDUAL_FLOOR, far above lstsq noise; _fit_inputs scales both.
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
    try:
        d, s, i = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"layout must be D,S,I (three integers), got {text!r}") from None
    return SegmentLayout(d, s, i)


def _read_words(path: str) -> list[str]:
    # read_text turns CRLF and CR into LF, so lines break at those three only
    lines = (raw.strip() for raw in Path(path).read_text(encoding="utf-8").split("\n"))
    tokens = [line for line in lines if line and not line.startswith("#")]
    if not tokens:
        raise ValueError(f"no words found in {path}")
    return tokens


def _read_one_tree(path: str):
    # read without newline translation, so error offsets count the file's characters
    trees = parse_forest(Path(path).read_bytes().decode("utf-8"))
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
    # FIT_TOL and RESIDUAL_FLOOR in the samples' units, from their largest
    # magnitudes s_v and s_m: residuals have v's units, v_not those of v over M
    s_v, s_m = (float(np.abs(x).max()) for x in (samples.v, samples.m))
    tolerances = FIT_TOL * max(1.0, s_v), FIT_TOL * max(1.0, s_v / s_m)
    floor = RESIDUAL_FLOOR * min(1.0, s_v)
    return samples, op, make_negation_matrix(op).entries, head, *tolerances, floor


def _verify_contradiction(lex: Lexicon, args) -> tuple[list, bool]:
    samples, op, j_mu, rows, residual_tol, v_tol, residual_floor = _fit_inputs(lex)
    joint = fit_negation_baseline(samples, op, op)
    value_only = fit_negation_baseline(samples, op, op, constraints="value")
    function_only = fit_negation_baseline(samples, op, op, constraints="function")

    value_m_error = scaled_norm(value_only.M_not_hat.entries - j_mu)
    value_v_error = scaled_norm(value_only.v_not_hat.values)
    function_m_error = scaled_norm(function_only.M_not_hat.entries)

    rows += [
        ("residual_value", joint.residual_value),
        ("residual_function", joint.residual_function),
        ("residual_total", joint.residual_total),
        ("residual_floor", RESIDUAL_FLOOR),
        ("joint.residual_floor", residual_floor),
        ("value_only.m_error", value_m_error),
        ("value_only.v_error", value_v_error),
        ("value_only.residual", value_only.residual_value),
        ("value_only.v_tolerance", v_tol),
        ("value_only.residual_tolerance", residual_tol),
        ("function_only.m_error", function_m_error),
        ("function_only.residual", function_only.residual_function),
        ("joint.solver", joint.solver),
        ("value_only.solver", value_only.solver),
        ("function_only.solver", function_only.solver),
    ]
    return rows, (
        joint.residual_total > residual_floor
        and value_m_error <= FIT_TOL
        and value_v_error <= v_tol
        and value_only.residual_value <= residual_tol
        and function_m_error <= FIT_TOL
        and function_only.residual_function <= FIT_TOL
    )


def _verify_improved_fit(lex: Lexicon, args) -> tuple[list, bool]:
    samples, op, j_mu, rows, residual_tol, v_tol, _ = _fit_inputs(lex)
    fit = fit_negation_improved(samples, op, op)
    m_error = scaled_norm(fit.M_not_hat.entries - j_mu)
    v_error = scaled_norm(fit.v_not_hat.values)
    rows += [
        ("alpha_not", fit.alpha_not_hat),
        ("m_error", m_error),
        ("v_error", v_error),
        ("residual_total", fit.residual_total),
        ("tolerance", FIT_TOL),
        ("v_tolerance", v_tol),
        ("residual_tolerance", residual_tol),
        ("solver", fit.solver),
    ]
    return rows, (
        abs(fit.alpha_not_hat) <= FIT_TOL
        and m_error <= FIT_TOL
        and v_error <= v_tol
        and fit.residual_total <= residual_tol
    )


def _verify_double_negation(lex: Lexicon, args) -> tuple[list, bool]:
    layout = lex.layout
    op = NegationOperator(lex.mu_default, layout)
    expect_diminutive = lex.mu_default * lex.mu_default < 1.0
    values = np.array([entry.v.values for entry in lex]).reshape(len(lex), layout.n)
    _, _, domain, signs, diminutive, underflowed = check_double_negation(values, layout, op, op)
    # diminutive is vacuously true for a word with no inverted mass.
    all_domain, all_signs, all_dim = bool(domain.all()), bool(signs.all()), bool(diminutive.all())
    inverted_mass = values[:, layout.inverted_slice].any(axis=1)
    return [
        ("mu", float(lex.mu_default)),
        ("nu", float(lex.mu_default)),
        ("words", len(lex)),
        ("words_with_inverted_mass", int(np.count_nonzero(inverted_mass))),
        ("domain_unchanged", all_domain),
        ("signs_restored", all_signs),
        ("diminutive", all_dim),
        ("words_underflowed", int(np.count_nonzero(underflowed))),
    ], all_domain and all_signs and (all_dim or not expect_diminutive)


def _verify_scope(lex: Lexicon, args) -> tuple[list, bool]:
    tree = _read_one_tree(args.tree)
    n = lex.layout.n
    rng = np.random.default_rng(0)
    perturbation = FunctionMatrix(rng.standard_normal((n, n)), lex.layout)
    baseline, improved = (
        scope_invariance_report(tree, lex, CompositionConfig(model=model), perturbation)
        for model in MODELS
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


@functools.cache  # one parser per process, built by the first run
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
    try:
        args = build_parser().parse_args(argv)
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
