"""Acceptance gate.

One test per shipped guarantee, each printing a live ``[acceptance]``
pass/fail line (bypassing capture) so a full run reads as a checklist.
Tolerances here are the package's published numbers; loosening them is a
behavior change, not a test fix.
"""

import hashlib
import json

import numpy as np
import pytest

from tripsem.analysis import (
    SampleSet,
    default_demo_samples,
    domain_similarity,
    fit_negation_baseline,
    fit_negation_improved,
    scope_invariance_report,
    value_similarity,
)
from tripsem.cli import run
from tripsem.composition import CompositionConfig, compose_tree
from tripsem.core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    invert_vector,
    make_negation_matrix,
    negate_vector,
)
from tripsem.lexicon import init_random, load, save, set_function_word
from tripsem.treeio import ParseTree, format_tree, parse_bracketed

LAYOUT = SegmentLayout(4, 2, 2)
REL_TOL = 1e-12
FIT_TOL = 1e-9


def _report(capsys, cid, ok, detail=""):
    line = f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line = f"{line} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _close(got, want, rel=REL_TOL):
    return bool(np.allclose(got, want, rtol=rel, atol=rel))


def test_c1_negation_matches_matrix_route(capsys):
    rng = np.random.default_rng(101)
    vectors = rng.uniform(-3.0, 3.0, (1000, LAYOUT.n))
    keep = LAYOUT.d_domain + LAYOUT.d_stable
    worst = 0.0
    bitwise_ok = True
    for mu in (0.25, 0.5, 0.9):
        op = NegationOperator(mu, LAYOUT)
        j_mu = make_negation_matrix(op).entries
        for row in vectors:
            v = SemanticVector(row, LAYOUT)
            got = negate_vector(v, op).values
            want = j_mu @ row
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
            bitwise_ok = bitwise_ok and got[:keep].tobytes() == row[:keep].tobytes()
    _report(
        capsys,
        "C1 negation-algebra",
        worst <= REL_TOL and bitwise_ok,
        f"worst rel error {worst:.3e}, bitwise={bitwise_ok}",
    )


def test_c2_double_negation_is_diminutive(capsys):
    rng = np.random.default_rng(202)
    vectors = [
        SemanticVector(row, LAYOUT)
        for row in rng.uniform(-2.0, 2.0, (1000, LAYOUT.n))
    ]
    pairs = rng.uniform(1e-3, 1.0 - 1e-3, (100, 2))
    inv = LAYOUT.inverted_slice
    ok = True
    detail = ""
    for mu, nu in pairs:
        op_mu = NegationOperator(float(mu), LAYOUT)
        op_nu = NegationOperator(float(nu), LAYOUT)
        for v in vectors:
            twice = negate_vector(negate_vector(v, op_mu), op_nu).values[inv]
            original = v.values[inv]
            want = mu * nu * original
            if not _close(twice, want):
                ok, detail = False, f"mu={mu} nu={nu} value mismatch"
                break
            if not np.array_equal(np.sign(twice), np.sign(original)):
                ok, detail = False, f"mu={mu} nu={nu} sign flipped"
                break
            nonzero = original != 0.0
            if not np.all(np.abs(twice[nonzero]) < np.abs(original[nonzero])):
                ok, detail = False, f"mu={mu} nu={nu} not strictly smaller"
                break
        if not ok:
            break
    if ok:
        op_one = NegationOperator(1.0, LAYOUT)
        for v in vectors:
            twice = negate_vector(negate_vector(v, op_one), op_one).values
            if not _close(twice, v.values):
                ok, detail = False, "mu=nu=1 not an involution"
                break
    _report(capsys, "C2 double-negation", ok, detail)


def test_c3_baseline_contradiction_clears_oracle_bound(capsys, fixtures_dir):
    fixture = json.loads((fixtures_dir / "contradiction_bound.json").read_text())
    samples = default_demo_samples()

    digest = hashlib.sha256()
    for entry in samples.entries:
        digest.update(entry.v.values.tobytes())
        digest.update(entry.M.entries.tobytes())
    if digest.hexdigest() != fixture["sample_sha256"]:
        _report(
            capsys,
            "C3 baseline-contradiction",
            False,
            "demo samples diverged from the frozen oracle inputs",
        )

    op = NegationOperator(fixture["params"]["mu"], samples.layout)
    j_mu = make_negation_matrix(op).entries
    joint = fit_negation_baseline(samples, op, op)
    value_only = fit_negation_baseline(samples, op, op, constraints="value")
    function_only = fit_negation_baseline(samples, op, op, constraints="function")

    cleared = joint.residual_total >= fixture["lower_bound"]
    value_ok = (
        float(np.linalg.norm(value_only.M_not_hat.entries - j_mu)) <= FIT_TOL
        and float(np.linalg.norm(value_only.v_not_hat.values)) <= FIT_TOL
    )
    function_ok = float(np.linalg.norm(function_only.M_not_hat.entries)) <= FIT_TOL
    _report(
        capsys,
        "C3 baseline-contradiction",
        cleared and value_ok and function_ok,
        f"residual_total={joint.residual_total!r} vs bound {fixture['lower_bound']!r}, "
        f"value_ok={value_ok}, function_ok={function_ok}",
    )


def test_c4_improved_fit_is_exact(capsys):
    samples = default_demo_samples()
    op = NegationOperator(0.5, samples.layout)
    j_mu = make_negation_matrix(op).entries
    fit = fit_negation_improved(samples, op, op)
    m_error = float(np.linalg.norm(fit.M_not_hat.entries - j_mu))
    v_error = float(np.linalg.norm(fit.v_not_hat.values))
    ok = (
        abs(fit.alpha_not_hat) <= FIT_TOL
        and m_error <= FIT_TOL
        and v_error <= FIT_TOL
        and fit.residual_total <= FIT_TOL
    )
    _report(
        capsys,
        "C4 improved-fit",
        ok,
        f"alpha={fit.alpha_not_hat!r} m_err={m_error:.3e} "
        f"v_err={v_error:.3e} residual={fit.residual_total:.3e}",
    )


def test_c5_scope_invariance(capsys, demo_lexicon_path, figure3_tree_path):
    lex = load(demo_lexicon_path)
    tree = parse_bracketed(figure3_tree_path.read_text(encoding="utf-8"))
    rng = np.random.default_rng(404)
    ok = True
    detail = ""
    for _ in range(10):
        perturbation = FunctionMatrix(
            rng.standard_normal((lex.layout.n, lex.layout.n)), lex.layout
        )
        improved = scope_invariance_report(
            tree, lex, CompositionConfig(model="improved"), perturbation
        )
        baseline = scope_invariance_report(
            tree, lex, CompositionConfig(model="baseline"), perturbation
        )
        p_norm = float(np.linalg.norm(perturbation.entries))
        if improved > REL_TOL:
            ok, detail = False, f"improved delta {improved!r}"
            break
        if abs(baseline - p_norm) > REL_TOL * max(1.0, p_norm):
            ok, detail = False, f"baseline delta {baseline!r} vs {p_norm!r}"
            break
    _report(capsys, "C5 scope-invariance", ok, detail)


def _random_binary_tree(rng, tokens, depth, budget):
    """Random binary tree, at most ``depth`` levels and ``budget`` leaves."""
    if depth == 0 or budget == 1 or rng.random() < 0.25:
        return ParseTree.leaf("W", str(rng.choice(tokens))), 1
    left, used = _random_binary_tree(rng, tokens, depth - 1, int(rng.integers(1, budget)))
    right, more = _random_binary_tree(rng, tokens, depth - 1, budget - used)
    return ParseTree.node("N", (left, right)), used + more


def _unrolled(tree, lex, model):
    """Pairwise composition spelled out with raw arrays."""
    if tree.is_leaf:
        entry = lex[tree.token]
        return entry.v.values, entry.M.entries, entry.alpha
    v_a, m_a, alpha_a = _unrolled(tree.children[0], lex, model)
    v_b, m_b, alpha_b = _unrolled(tree.children[1], lex, model)
    v = m_a @ v_b + m_b @ v_a
    if model == "baseline":
        m = m_a + m_b
    else:
        weight_a = alpha_a / (alpha_a + alpha_b)
        m = weight_a * m_a + (1.0 - weight_a) * m_b
    return v, m, max(alpha_a, alpha_b)


def test_c6_tree_composition_matches_unrolled_oracle(capsys):
    rng = np.random.default_rng(606)
    tokens = [f"w{i:02d}" for i in range(20)]
    lex = init_random(tokens, LAYOUT, seed=42, noise=0.25)
    for token in tokens:  # spread alphas so the improved weights vary
        entry = lex[token]
        lex = lex.with_entry(
            LexicalEntry(token, entry.v, entry.M, float(rng.uniform(0.1, 2.0)))
        )
    ok = True
    detail = ""
    for i in range(100):
        tree, leaves = _random_binary_tree(rng, tokens, depth=5, budget=16)
        assert leaves <= 16
        for model in ("baseline", "improved"):
            root = compose_tree(tree, lex, CompositionConfig(model=model))
            v, m, alpha = _unrolled(tree, lex, model)
            if not (_close(root.v.values, v) and _close(root.M.entries, m)):
                ok, detail = False, f"tree {i} model {model} diverged"
                break
            if root.alpha != alpha:
                ok, detail = False, f"tree {i} model {model} alpha {root.alpha} != {alpha}"
                break
        if not ok:
            break
    _report(capsys, "C6 composition-oracle", ok, detail)


def test_c7_dual_space_similarity(capsys, demo_lexicon_path):
    lex = load(demo_lexicon_path)
    op = NegationOperator(lex.mu_default, lex.layout)
    checked = 0
    ok = True
    detail = ""
    for entry in lex:
        if not np.any(entry.v.values[lex.layout.domain_slice]):
            continue  # the "not" preset stores a zero vector; cosine undefined
        checked += 1
        sim = domain_similarity(entry, negate_vector(entry.v, op))
        if abs(sim - 1.0) > REL_TOL:
            ok, detail = False, f"{entry.token}: domain sim {sim!r}"
            break
    ok = ok and checked >= 50

    if ok:
        stable_free = SegmentLayout(4, 0, 4)
        mirror = init_random([f"m{i}" for i in range(20)], stable_free, seed=77, noise=0.1)
        for entry in mirror:
            sim = value_similarity(entry, invert_vector(entry.v, stable_free))
            if abs(sim + 1.0) > REL_TOL:
                ok, detail = False, f"{entry.token}: value sim {sim!r}"
                break
    _report(capsys, "C7 dual-similarity", ok, detail or f"checked={checked}")


def test_c8_io_round_trips(capsys, tmp_path):
    layouts = (
        SegmentLayout(4, 2, 2),
        SegmentLayout(2, 1, 1),
        SegmentLayout(1, 2, 1),
        SegmentLayout(4, 0, 4),
        SegmentLayout(3, 3, 3),
    )
    ok = True
    detail = ""
    for seed in range(50):
        layout = layouts[seed % len(layouts)]
        mu = 0.1 + 0.8 * seed / 49.0
        lex = init_random(
            [f"w{i}" for i in range(8)], layout, seed=seed, noise=0.3, mu_default=mu
        )
        lex = set_function_word(lex, "not")
        path = tmp_path / f"roundtrip{seed}.lex"
        save(lex, path)
        back = load(path)
        if back.mu_default != lex.mu_default or len(back) != len(lex):
            ok, detail = False, f"seed {seed}: header drift"
            break
        for entry in lex:
            twin = back[entry.token]
            if not (
                entry.v.values.tobytes() == twin.v.values.tobytes()
                and entry.M.entries.tobytes() == twin.M.entries.tobytes()
                and entry.alpha == twin.alpha
            ):
                ok, detail = False, f"seed {seed}: {entry.token} not value-exact"
                break
        if not ok:
            break

    if ok:
        rng = np.random.default_rng(808)
        tokens = ["this", "car", "is", "not", "blue"]
        for seed in range(50):
            tree, _ = _random_binary_tree(rng, tokens, depth=5, budget=16)
            text = format_tree(tree)
            if parse_bracketed(text) != tree or format_tree(parse_bracketed(text)) != text:
                ok, detail = False, f"tree {seed}: print/parse drift"
                break
    _report(capsys, "C8 io-round-trips", ok, detail)


def test_c9_cli_verify_contract(capsys, demo_lexicon_path, figure3_tree_path):
    lex_args = ["--lexicon", str(demo_lexicon_path)]

    def capture(argv):
        code = run(argv)
        out = capsys.readouterr().out.splitlines()
        return code, {
            line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in out if line
        }

    ok = True
    detail = ""

    code, fields = capture(["verify", "contradiction", *lex_args])
    if not (
        code == 0
        and float(fields["verify residual_total"]) > 0.0
        and fields["verify result"] == "PASS"
    ):
        ok, detail = False, f"contradiction: exit {code}, fields {sorted(fields)}"

    if ok:
        code, fields = capture(["verify", "improved-fit", *lex_args])
        if not (
            code == 0
            and fields["verify alpha_not"] == "0.0"
            and float(fields["verify residual_total"]) <= FIT_TOL
        ):
            ok, detail = False, f"improved-fit: exit {code}"

    if ok:
        code, fields = capture(["verify", "double-negation", *lex_args])
        if not (code == 0 and fields["verify result"] == "PASS"):
            ok, detail = False, f"double-negation: exit {code}"

    if ok:
        code, fields = capture(
            ["verify", "scope", *lex_args, "--tree", str(figure3_tree_path)]
        )
        if not (
            code == 0
            and fields["verify result"] == "PASS"
            and float(fields["verify improved.delta"]) <= 1e-12
        ):
            ok, detail = False, f"scope: exit {code}"

    if ok:
        code, fields = capture(
            ["sim", *lex_args, "--a", "blue", "--b", "not_blue", "--region", "domain"]
        )
        if not (code == 0 and fields["sim cosine"] == "1.0"):
            ok, detail = False, f"sim: exit {code}, cosine {fields.get('sim cosine')}"

    _report(capsys, "C9 cli-contract", ok, detail)
