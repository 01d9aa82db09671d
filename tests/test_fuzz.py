"""Fuzzing the inputs the CLI reads: lexicon text, tree text, and argv.

Inputs are valid lexicons and trees, some of them mutated by deleting,
duplicating or replacing a piece. Lexicons are drawn at n <= 8. A mutation
grows a layout only by repeating one of its digits, which leaves every
vector line too short, so no large matrix is ever allocated. Argv is a
subcommand's over those files, or a malformed one that argparse rejects.
"""

import contextlib
import io

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tripsem.cli import VERIFY_CHECKS, run
from tripsem.core import FunctionMatrix, LexicalEntry, SegmentLayout, SemanticVector
from tripsem.errors import LexiconFormatError, TreeParseError
from tripsem.lexicon import Lexicon, dumps, loads
from tripsem.treeio import binarize, parse_forest

WORDS = ("not", "blue", "car", "is", "w0", "w1")
# Pieces a mutation may put in place of another: brackets, words of the
# lexicon format, and numbers that are zero, negative, subnormal, huge,
# or not finite once parsed.
PIECES = (
    "", " ", "\n", "(", ")", "#", "# mu_default", "TRIPSEM", "layout", "word",
    "v", "m", "not", "-0.0", "0", "nan", "inf", "-1", "1e999", "1e300",
    "5e-324", "0.5", "x",
)

SPECIAL = (0.0, -0.0, 5e-324, 1e-300, 1e150, -1e200, 1e300)


@st.composite
def lexicon_texts(draw):
    """The text of a valid lexicon with n <= 8: every word of WORDS and up
    to six more. Values are seeded uniforms at one of several scales, a few
    of them replaced by zeros, subnormals or huge numbers. Some lexicons
    give some words alpha = 0."""
    d, s, i = (draw(st.integers(min_value=0, max_value=top)) for top in (3, 3, 2))
    layout = SegmentLayout(d, s, i + (d + s + i == 0))
    n = layout.n
    extra = st.sampled_from([f"x{k}" for k in range(6)])
    tokens = WORDS + tuple(draw(st.lists(extra, max_size=6, unique=True)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-300, 1e150, 1e300]))
    block = rng.uniform(-2.0, 2.0, (len(tokens), n + n * n)) * scale
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        block.flat[draw(st.integers(min_value=0, max_value=block.size - 1))] = draw(
            st.sampled_from(SPECIAL)
        )
    alphas = [0.0, 0.5, 1.0, 2.0] if draw(st.booleans()) else [0.5, 1.0, 2.0]
    entries = {}
    for token, row in zip(tokens, block):
        alpha = draw(st.sampled_from(alphas))
        entries[token] = LexicalEntry(
            token,
            SemanticVector(row[:n], layout),
            FunctionMatrix(row[n:].reshape(n, n), layout),
            alpha,
        )
    mu = draw(st.sampled_from([0.25, 0.5, 0.9, 1.0]))
    return dumps(Lexicon(layout, entries, mu))


@st.composite
def tree_texts(draw, depth=0):
    """The text of a tree over WORDS with nodes of one to three children."""
    tag = draw(st.sampled_from(["S", "NP", "VP", "RB"]))
    if depth >= 4 or draw(st.integers(min_value=0, max_value=2)) == 0:
        return f"({tag} {draw(st.sampled_from(WORDS))})"
    width = draw(st.integers(min_value=1, max_value=3))
    return f"({tag} " + " ".join(draw(tree_texts(depth + 1)) for _ in range(width)) + ")"


@st.composite
def mutated(draw, texts):
    """A text from ``texts`` with up to three of its pieces deleted,
    duplicated or replaced; a piece is a character, a word or a line."""
    text = draw(texts)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not text:
            break
        unit = draw(st.sampled_from(["char", "word", "line"]))
        sep = {"char": "", "word": " ", "line": "\n"}[unit]
        parts = list(text) if unit == "char" else text.split(sep)
        k = draw(st.integers(min_value=0, max_value=len(parts) - 1))
        how = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if how == "delete":
            del parts[k]
        elif how == "duplicate":
            parts.insert(k, parts[k])
        else:
            parts[k] = draw(st.sampled_from(PIECES))
        text = sep.join(parts)
    return text


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutated(lexicon_texts()))
def test_loads_raises_only_lexicon_format_error(text):
    try:
        lex = loads(text)
    except LexiconFormatError:
        return
    assert loads(dumps(lex)) == lex


@FUZZ
@given(st.one_of(mutated(tree_texts()), st.text(alphabet="( )\nSVab", max_size=40)))
def test_parse_and_binarize_raise_only_tree_parse_error(text):
    try:
        trees = parse_forest(text)
    except TreeParseError:
        return
    for tree in trees:
        for strategy in ("right", "left"):
            binarize(tree, strategy)


def commands(lexicon, tree):
    """Every subcommand's argv over the two files, as strategies."""
    word = st.sampled_from(WORDS)
    return st.one_of(
        st.builds(lambda w: ["negate", "--lexicon", lexicon, "--word", w], word),
        st.builds(
            lambda model, side: [
                "compose", "--lexicon", lexicon, "--tree", tree,
                "--model", model, "--binarize", side,
            ],
            st.sampled_from(["baseline", "improved"]),
            st.sampled_from(["right", "left"]),
        ),
        st.builds(
            lambda a, b, region: [
                "sim", "--lexicon", lexicon, "--a", a, "--b", b, "--region", region,
            ],
            word, word, st.sampled_from(["domain", "value", "full"]),
        ),
        st.builds(
            lambda check: ["verify", check, "--lexicon", lexicon, "--tree", tree],
            st.sampled_from(VERIFY_CHECKS),
        ),
    )


def malformed(argvs, words, out):
    """Argv that argparse rejects: a command of ``argvs`` with an unknown flag
    or without its required --lexicon, or lexicon-init with a non-numeric
    --seed or --noise."""
    def without_lexicon(argv):
        k = argv.index("--lexicon")
        return argv[:k] + argv[k + 2:]

    return st.one_of(
        argvs.map(lambda argv: [*argv, "--frob", "1"]),
        argvs.map(without_lexicon),
        st.builds(
            lambda flag, text: ["lexicon-init", "--words", words, "--out", out, flag, text],
            st.sampled_from(["--seed", "--noise"]),
            st.sampled_from(["abc", "", "1,5", "0x1"]),
        ),
    )


@FUZZ
@given(st.data(), mutated(lexicon_texts()), mutated(tree_texts()))
def test_cli_exits_0_1_or_2_1_only_from_verify_2_with_empty_stdout(
    tmp_path_factory, data, lex_text, tree_text
):
    folder = tmp_path_factory.getbasetemp()
    lexicon, tree = folder / "fuzz.lex", folder / "fuzz.tree"
    lexicon.write_text(lex_text, encoding="utf-8")
    tree.write_text(tree_text, encoding="utf-8")
    argvs = commands(str(lexicon), str(tree))
    argv = data.draw(st.one_of(argvs, malformed(argvs, str(tree), str(folder / "fuzz-out.lex"))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("tripsem: ")
        assert err.getvalue().count("\n") == 1
