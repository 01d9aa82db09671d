"""Inputs, operations and independent checks of the three workloads.

Each workload writes its inputs from a seed, runs one operation at a time
against tripsem, and checks every operation's output against what this
module computes on its own: its own lexicon writer, parser and PCG64
regeneration, its own bracketed-tree writer and binarizer, its own
post-order composition with an explicit stack, and its own
normal-equations solve of the contradiction system. None of these call
tripsem, so a fault in the program cannot hide behind the same fault in
the check.

This module imports tripsem; ``run.py`` imports it only after it has
timed ``import tripsem`` in a fresh process.
"""

from __future__ import annotations

import contextlib
import io
import string
from pathlib import Path

import numpy as np

from tripsem import cli
from tripsem import lexicon as program_lexicon
from tripsem import composition, treeio

NOISE = 0.1
# The workload seed draws tokens, lexicon values, mu and the forest order.
# Tree shapes come from this fixed seed instead, so that a pass over the
# forest costs the same on every workload seed.
SHAPE_SEED = 20130610

FIT_TOL = 1e-9
ORACLE_RTOL = 1e-6
SCOPE_RTOL = 1e-12
ROOT_RTOL = 1e-12


# ---------------------------------------------------------------------------
# lexicons: the documented recipe, writer and parser


def make_words(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct lowercase tokens, none of them ``not``."""
    letters = np.array(list(string.ascii_lowercase))
    words: list[str] = []
    seen = {"not"}
    while len(words) < count:
        word = "".join(rng.choice(letters, 6))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def regenerate_lexicon(words, layout, seed, noise, mu):
    """token -> (v, M, alpha) by the README's "Determinism" recipe, plus
    the ``not`` preset: zero vector, J_mu, alpha 0."""
    n = sum(layout)
    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    entries = {}
    for word in words:
        v = rng.uniform(-1.0, 1.0, n)
        m = eye + noise * rng.standard_normal((n, n))
        entries[word] = (v, m, 1.0)
    diag = np.ones(n)
    diag[layout[0] + layout[1]:] = -mu
    entries["not"] = (np.zeros(n), np.diag(diag), 0.0)
    return entries


def lexicon_text(entries, layout, mu) -> str:
    """The ``TRIPSEM 1`` file format, floats as shortest round-trip decimals."""
    lines = ["TRIPSEM 1", "layout %d %d %d" % tuple(layout), f"# mu_default {float(mu)!r}"]
    for token, (v, m, alpha) in entries.items():
        lines.append(f"word {token} {float(alpha)!r}")
        lines.append("v " + " ".join(repr(float(x)) for x in v))
        lines.extend("m " + " ".join(repr(float(x)) for x in row) for row in m)
    return "\n".join(lines) + "\n"


def parse_lexicon_text(text: str):
    """(layout, mu_default, token -> (v, M, alpha)); raises ValueError."""
    mu = 0.5
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "mu_default":
                mu = float(parts[1])
        elif line:
            rows.append(line.split())
    if not rows or rows[0] != ["TRIPSEM", "1"]:
        raise ValueError("missing 'TRIPSEM 1' header")
    if len(rows) < 2 or rows[1][0] != "layout" or len(rows[1]) != 4:
        raise ValueError("missing layout line")
    layout = tuple(int(x) for x in rows[1][1:])
    n = sum(layout)
    entries = {}
    i = 2
    while i < len(rows):
        word = rows[i]
        block = rows[i + 1:i + 2 + n]
        if word[0] != "word" or len(word) != 3 or len(block) != n + 1:
            raise ValueError(f"bad entry at row {i}")
        if block[0][0] != "v" or any(r[0] != "m" for r in block[1:]):
            raise ValueError(f"bad entry {word[1]!r}")
        v = np.array([float(x) for x in block[0][1:]])
        m = np.array([[float(x) for x in r[1:]] for r in block[1:]])
        if v.shape != (n,) or m.shape != (n, n):
            raise ValueError(f"entry {word[1]!r} has the wrong size")
        entries[word[1]] = (v, m, float(word[2]))
        i += n + 2
    return layout, mu, entries


def lexicon_mismatch(text, layout, mu, expected) -> str | None:
    """Why ``text`` does not load back bit for bit as ``expected``, or None."""
    try:
        got_layout, got_mu, got = parse_lexicon_text(text)
    except (ValueError, IndexError) as exc:
        return f"lexicon file does not parse: {exc}"
    if got_layout != tuple(layout):
        return f"layout {got_layout} != {tuple(layout)}"
    if got_mu != mu:
        return f"mu_default {got_mu!r} != {mu!r}"
    if got.keys() != expected.keys():
        return "token set differs"
    for token, (v, m, alpha) in expected.items():
        gv, gm, galpha = got[token]
        if gv.tobytes() != v.tobytes() or gm.tobytes() != m.tobytes() or galpha != alpha:
            return f"entry {token!r} differs"
    return None


# ---------------------------------------------------------------------------
# trees: a leaf is (tag, token), a node is (tag, [children])


def is_leaf(tree) -> bool:
    return isinstance(tree[1], str)


def tree_text(tree) -> str:
    out = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif is_leaf(item):
            out.append(f"({item[0]} {item[1]})")
        else:
            out.append(f"({item[0]}")
            stack.append(")")
            for child in reversed(item[1]):
                stack.append(child)
                stack.append(" ")
    return "".join(out)


def fringe(tree) -> list[str]:
    tokens = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if is_leaf(item):
            tokens.append(item[1])
        else:
            stack.extend(reversed(item[1]))
    return tokens


def _post_order(tree, on_leaf, on_node):
    """Fold a tree bottom-up with an explicit stack."""
    done = []
    stack = [(tree, False)]
    while stack:
        item, expanded = stack.pop()
        if is_leaf(item):
            done.append(on_leaf(item))
        elif not expanded:
            stack.append((item, True))
            stack.extend((child, False) for child in reversed(item[1]))
        else:
            k = len(item[1])
            kids = done[-k:]
            del done[-k:]
            done.append(on_node(item[0], kids))
    return done[0]


def binarize_ref(tree):
    """Right-fold wide nodes (aux tag ``parent*``), collapse unary chains."""

    def node(tag, kids):
        if len(kids) == 1:
            return kids[0]
        acc = kids[-1]
        for child in reversed(kids[1:-1]):
            acc = (tag + "*", [child, acc])
        return (tag, [kids[0], acc])

    return _post_order(tree, lambda leaf: leaf, node)


def compose_ref(binary_tree, entries, model):
    """Root (v, M) by v_p = M_a v_b + M_b v_a and, for the matrix,
    M_a + M_b (baseline) or (a_a/Z) M_a + (1 - a_a/Z) M_b (improved)."""

    def node(_tag, kids):
        (va, ma, aa), (vb, mb, ab) = kids
        v = ma @ vb + mb @ va
        if model == "baseline":
            m = ma + mb
        else:
            wa = aa / (aa + ab)
            m = wa * ma + (1.0 - wa) * mb
        return v, m, max(aa, ab)

    v, m, _ = _post_order(binary_tree, lambda leaf: entries[leaf[1]], node)
    return v, m


def sentence_shape(rng: np.random.Generator):
    """An n-ary sentence skeleton and its leaf count. Leaves hold slot
    numbers; adjacent runs of 2-4 constituents are grouped until one root
    is left, and some groups get a chain of unary parents."""
    size = int(rng.integers(6, 21))
    leaf_tags = ("DT", "NN", "VB", "JJ", "IN", "PRP", "NNS")
    phrase_tags = ("NP", "VP", "PP", "ADJP", "ADVP", "SBAR")
    nodes = [(str(rng.choice(leaf_tags)), i) for i in range(size)]
    while len(nodes) > 1:
        width = min(len(nodes), int(rng.choice((2, 3, 4), p=(0.4, 0.3, 0.3))))
        start = int(rng.integers(0, len(nodes) - width + 1))
        group = (str(rng.choice(phrase_tags)), nodes[start:start + width])
        for _ in range(int(rng.choice((0, 0, 0, 1, 2)))):
            group = (str(rng.choice(phrase_tags)), [group])
        nodes[start:start + width] = [group]
    return ("S", nodes[0][1]), size


def fill_shape(shape, tokens):
    """Replace the slot numbers of a skeleton by ``tokens[slot]``."""
    if isinstance(shape[1], int):
        token = tokens[shape[1]]
        return ("RB" if token == "not" else shape[0], token)
    return (shape[0], [fill_shape(child, tokens) for child in shape[1]])


def sentence(shape_and_size, rng, words):
    """Fill a skeleton with content words and exactly one ``not``."""
    shape, size = shape_and_size
    tokens = [str(w) for w in rng.choice(words, size)]
    tokens[int(rng.integers(size))] = "not"
    return fill_shape(shape, tokens)


def balanced(leaves: int, rng, words):
    level = [("W", str(w)) for w in rng.choice(words, leaves)]
    while len(level) > 1:
        level = [("X", level[i:i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def chain(leaves: int, rng, words):
    """Right-branching: depth ``leaves - 1``."""
    tokens = [str(w) for w in rng.choice(words, leaves)]
    acc = ("W", tokens[-1])
    for token in reversed(tokens[:-1]):
        acc = ("C", [("W", token), acc])
    return acc


# ---------------------------------------------------------------------------
# CLI reports


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def parse_report(text: str, prefix: str) -> dict[str, str]:
    """``<prefix> <key>: <value>`` lines -> {key: value}; raises ValueError."""
    fields = {}
    for line in text.splitlines():
        head, sep, value = line.partition(": ")
        if not sep or not head.startswith(prefix + " "):
            raise ValueError(f"malformed report line {line!r}")
        fields[head[len(prefix) + 1:]] = value
    return fields


def verify_report(result, problems, name) -> dict[str, str]:
    """Fields of a ``verify`` run that must end in ``result: PASS``."""
    code, out, err = result
    if code != 0:
        problems.append(f"{name}: exit {code}: {err.strip()}")
    lines = out.splitlines()
    if not lines or lines[-1] != "verify result: PASS":
        problems.append(f"{name}: report does not end in 'verify result: PASS'")
    try:
        return parse_report(out, "verify")
    except ValueError as exc:
        problems.append(f"{name}: {exc}")
        return {}


def expect(problems, name, fields, key, test, what):
    try:
        ok = test(fields[key])
    except (KeyError, ValueError):
        ok = False
    if not ok:
        problems.append(f"{name}: {key}={fields.get(key)!r} is not {what}")


def small(value: str) -> bool:
    return abs(float(value)) <= FIT_TOL


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs written under ``workdir`` by ``__init__`` (the timed set-up),
    expected answers computed by ``prepare_checks()`` (untimed), and
    ``ops_per_round`` operations: ``run_op(k)`` runs one alone and
    ``check(k, output)`` returns its problems, empty when correct."""

    name = ""
    ops_per_round = 1


class VerifyFit(Workload):
    """The paper's argument as a user runs it: all four ``verify`` checks
    on one lexicon larger than the shipped 4,2,2 one."""

    name = "verify-fit"
    LAYOUT = (6, 3, 3)
    WORDS = 48

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.words = make_words(rng, self.WORDS)
        self.mu = round(float(rng.uniform(0.3, 0.7)), 3)
        self.entries = regenerate_lexicon(
            self.words, self.LAYOUT, int(rng.integers(2**31)), NOISE, self.mu
        )
        self.lex_path = str(workdir / "fit.lex")
        self.tree_path = str(workdir / "scope.tree")
        Path(self.lex_path).write_text(lexicon_text(self.entries, self.LAYOUT, self.mu))
        shape = sentence_shape(np.random.default_rng(SHAPE_SEED))
        Path(self.tree_path).write_text(tree_text(sentence(shape, rng, self.words)) + "\n")
        self.argvs = [
            ["verify", "contradiction", "--lexicon", self.lex_path],
            ["verify", "improved-fit", "--lexicon", self.lex_path],
            ["verify", "double-negation", "--lexicon", self.lex_path],
            ["verify", "scope", "--lexicon", self.lex_path, "--tree", self.tree_path],
        ]

    def prepare_checks(self) -> None:
        self.oracle_residual = contradiction_residual(
            [self.entries[w][:2] for w in self.words], self.LAYOUT, self.mu
        )

    def run_op(self, k):
        return [run_cli(argv) for argv in self.argvs]

    def check(self, k, output):
        problems: list[str] = []
        contradiction, improved, double, scope = (
            verify_report(result, problems, argv[1])
            for result, argv in zip(output, self.argvs)
        )
        for name, fields in (("contradiction", contradiction), ("improved-fit", improved)):
            expect(problems, name, fields, "samples", lambda x: int(x) == self.WORDS, str(self.WORDS))
            expect(problems, name, fields, "mu", lambda x: float(x) == self.mu, repr(self.mu))
        oracle = self.oracle_residual
        expect(
            problems, "contradiction", contradiction, "residual_total",
            lambda x: abs(float(x) - oracle) <= ORACLE_RTOL * oracle,
            f"within {ORACLE_RTOL} of the normal-equations residual {oracle!r}",
        )
        for key in ("value_only.m_error", "value_only.v_error"):
            expect(problems, "contradiction", contradiction, key, small, f"<= {FIT_TOL}")
        for key in ("alpha_not", "m_error", "v_error"):
            expect(problems, "improved-fit", improved, key, small, f"<= {FIT_TOL}")
        expect(problems, "double-negation", double, "words",
               lambda x: int(x) == self.WORDS + 1, str(self.WORDS + 1))
        pnorm = scope.get("perturbation_norm", "nan")
        expect(
            problems, "scope", scope, "baseline.delta",
            lambda x: abs(float(x) - float(pnorm)) <= SCOPE_RTOL * max(1.0, float(pnorm)),
            f"the perturbation norm {pnorm}",
        )
        return problems


def contradiction_residual(samples, layout, mu) -> float:
    """Residual of the joint baseline system, built row by row with index
    loops (as tools/contradiction_bound_oracle.py does) and solved through
    the normal equations. Unknowns: M_not row-major, then v_not."""
    n = sum(layout)
    j = np.ones(n)
    j[layout[0] + layout[1]:] = -mu
    rows, rhs = [], []
    for v, m in samples:
        once = j * v
        for w, target in ((v, once), (once, j * once)):
            for i in range(n):
                row = np.zeros(n * n + n)
                for col in range(n):
                    row[i * n + col] = w[col]
                for col in range(n):
                    row[n * n + col] = m[i, col]
                rows.append(row)
                rhs.append(target[i])
    for _ in samples:
        for scale in (1.0, 2.0):
            for i in range(n * n):
                row = np.zeros(n * n + n)
                row[i] = scale
                rows.append(row)
                rhs.append(0.0)
    design, target = np.array(rows), np.array(rhs)
    x = np.linalg.solve(design.T @ design, design.T @ target)
    return float(np.linalg.norm(design @ x - target))


class ComposeForest(Workload):
    """Library composition over a forest of sentences, balanced trees and
    chains; one operation is one tree."""

    name = "compose-forest"
    LAYOUT = (4, 2, 2)
    WORDS = 64
    SENTENCES = 40
    BALANCED = (1024, 2048, 4096)
    CHAINS = (64, 128, 192, 256)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        words = make_words(rng, self.WORDS)
        mu = round(float(rng.uniform(0.3, 0.7)), 3)
        self.entries = regenerate_lexicon(
            words, self.LAYOUT, int(rng.integers(2**31)), NOISE, mu
        )
        lex_path = workdir / "forest.lex"
        lex_path.write_text(lexicon_text(self.entries, self.LAYOUT, mu))
        self.lexicon = program_lexicon.load(lex_path)

        shape_rng = np.random.default_rng(SHAPE_SEED)
        trees = [sentence(sentence_shape(shape_rng), rng, words) for _ in range(self.SENTENCES)]
        trees += [balanced(size, rng, words) for size in self.BALANCED]
        trees += [chain(size, rng, words) for size in self.CHAINS]
        self.trees = [trees[i] for i in rng.permutation(len(trees))]
        forest_path = workdir / "forest.trees"
        forest_path.write_text("\n\n".join(tree_text(t) for t in self.trees) + "\n")
        self.texts = forest_path.read_text().split("\n\n")
        self.ops_per_round = len(self.texts)
        self.models = (
            composition.CompositionConfig(model="baseline"),
            composition.CompositionConfig(model="improved"),
        )

    def prepare_checks(self) -> None:
        self.expected = []
        for tree in self.trees:
            binary = binarize_ref(tree)
            self.expected.append(
                (fringe(tree), [compose_ref(binary, self.entries, cfg.model) for cfg in self.models])
            )

    def run_op(self, k):
        (tree,) = treeio.parse_forest(self.texts[k])
        binary = treeio.binarize(tree)
        return binary, [composition.compose_tree(binary, self.lexicon, cfg) for cfg in self.models]

    def check(self, k, output):
        binary, roots = output
        tokens, refs = self.expected[k]
        problems = []
        got_tokens, wide = binary_fringe(binary)
        if wide:
            problems.append(f"tree {k}: binarize left a node with {wide} children")
        if got_tokens != tokens:
            problems.append(f"tree {k}: binarize changed the leaf sequence")
        for cfg, root, (v, m) in zip(self.models, roots, refs):
            for what, got, want in (("v", root.v.values, v), ("M", root.M.entries, m)):
                scale = float(np.linalg.norm(want))
                if not float(np.linalg.norm(got - want)) <= ROOT_RTOL * scale:
                    problems.append(f"tree {k}: {cfg.model} root {what} differs")
        return problems


def binary_fringe(tree) -> tuple[list[str], int]:
    """Leaf tokens of a tripsem ParseTree and the width of a non-binary
    internal node (0 if all are binary), by an explicit stack."""
    tokens, wide = [], 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.token is not None:
            tokens.append(node.token)
            continue
        if len(node.children) != 2:
            wide = len(node.children)
        stack.extend(reversed(node.children))
    return tokens, wide


class LexiconIO(Workload):
    """``lexicon-init`` at layout 16,8,8, then ``verify double-negation``
    on the file just written."""

    name = "lexicon-io"
    LAYOUT = (16, 8, 8)
    WORDS = 100

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.words = make_words(rng, self.WORDS)
        self.mu = round(float(rng.uniform(0.3, 0.7)), 3)
        self.init_seed = int(rng.integers(2**31))
        words_path = workdir / "words.txt"
        words_path.write_text("\n".join(self.words) + "\n")
        self.lex_path = workdir / "io.lex"
        layout = ",".join(str(d) for d in self.LAYOUT)
        self.argvs = [
            ["lexicon-init", "--words", str(words_path), "--out", str(self.lex_path),
             "--layout", layout, "--seed", str(self.init_seed),
             "--noise", repr(NOISE), "--not-mu", repr(self.mu)],
            ["verify", "double-negation", "--lexicon", str(self.lex_path)],
        ]

    def prepare_checks(self) -> None:
        self.expected = regenerate_lexicon(self.words, self.LAYOUT, self.init_seed, NOISE, self.mu)

    def run_op(self, k):
        return [run_cli(argv) for argv in self.argvs]

    def check(self, k, output):
        problems: list[str] = []
        (init_code, init_out, init_err), double = output
        if init_code != 0:
            problems.append(f"lexicon-init: exit {init_code}: {init_err.strip()}")
        try:
            words = parse_report(init_out, "lexicon-init").get("words")
        except ValueError as exc:
            words = str(exc)
        if words != str(self.WORDS + 1):
            problems.append(f"lexicon-init: words={words!r}, expected {self.WORDS + 1}")
        mismatch = lexicon_mismatch(
            self.lex_path.read_text(), self.LAYOUT, self.mu, self.expected
        )
        if mismatch:
            problems.append(f"lexicon-init: {mismatch}")
        fields = verify_report(double, problems, "double-negation")
        for key in ("domain_unchanged", "signs_restored", "diminutive"):
            expect(problems, "double-negation", fields, key, lambda x: x == "true", "true")
        expect(problems, "double-negation", fields, "words",
               lambda x: int(x) == self.WORDS + 1, str(self.WORDS + 1))
        return problems


WORKLOADS = {w.name: w for w in (VerifyFit, ComposeForest, LexiconIO)}
