"""Regenerate the shipped test fixtures.

Writes, under tests/fixtures/:

* words.txt       word list fed to lexicon-init
* demo.lex        seeded demonstration lexicon (seed 7, layout 4,2,2,
                  noise 0.1, "not" at J_0.5) plus a "not_blue"
                  entry whose vector is negate(blue), used by the
                  similarity examples
* figure3.tree    the example sentence tree, unbinarized
* wide.tree       a balanced binary tree of 256 demo.lex words, one of
                  them "not", whose wide bottom levels compose_tree runs
                  as stacked steps
* big.tree        a balanced binary tree of 1024 demo.lex words beside a
                  right-branching chain of 300, one word of each "not"
* spaced.tree     figure3.tree spaced with tabs, CRLF line breaks and
                  ideographic spaces (U+3000); it composes as figure3.tree
* breaks.tree     figure3.tree with pairs of the whitespace that Unicode
                  calls line breaks but tree files do not (\x85, U+2028,
                  U+2029, form feed, \x1c, \x1d) between constituents;
                  it composes as figure3.tree

With --reports it writes instead, under tests/fixtures/reports/, the
golden copy of every CLI report that tests/test_reports.py compares
(its COMMANDS, run from the repository root; this needs pytest). Floats
in them may move in the last digits on another CPU, which that test
allows, so the default run leaves them alone, and --reports keeps every
golden that the test's assert_reports_match accepts as it is: it
rewrites only a missing report or one that changed beyond the test's
tolerance, so that a rerun followed by git diff shows real changes only.

The contradiction-bound fixture has its own generator,
tools/contradiction_bound_oracle.py, and is not touched here.

Run from the repository root:  python3 tools/make_fixtures.py [--reports]

The package is imported from src/ of this checkout, which goes first on
sys.path, so the script needs no install and never reads another copy.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tripsem import LexicalEntry, NegationOperator, negate_vector  # noqa: E402
from tripsem.cli import run  # noqa: E402
from tripsem.lexicon import load, save  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"

TREE = "(S (NP (Det this) (N car)) (VP (VBZ is) (RB not) (ADJP (JJ blue))))"

WORDS = ["this", "car", "is", "blue", "red"] + [f"w{i:02d}" for i in range(45)]

# WORDS over and over, with "not" in place of the "is" before the third "blue"
WIDE_LEAVES = [WORDS[i % len(WORDS)] for i in range(256)]
WIDE_LEAVES[102] = "not"

# WORDS in a stride of 7, with "not" at leaf 300 of the balanced tree
# and leaf 150 of the chain
BIG_BALANCED = [WORDS[7 * i % len(WORDS)] for i in range(1024)]
BIG_BALANCED[300] = "not"
BIG_CHAIN = [WORDS[7 * i % len(WORDS)] for i in range(300)]
BIG_CHAIN[150] = "not"

SPACED = (
    "(S\t(NP (Det this)\u3000(N car))\r\n"
    "\t(VP\u3000(VBZ\tis) (RB not)\r\n"
    "\u3000\u3000(ADJP (JJ\u3000blue))))\r\n"
)

BREAKS = (
    "(S (NP (Det this)\x85\x85(N car))\u2028\u2029"
    "(VP (VBZ is)\x0c\x0c(RB not)\x1c\x1d(ADJP (JJ blue))))\n"
)


def balanced(tokens) -> str:
    """A balanced binary tree over ``tokens``."""
    if len(tokens) == 1:
        return f"(W {tokens[0]})"
    half = len(tokens) // 2
    return f"(S {balanced(tokens[:half])} {balanced(tokens[half:])})"


def chain(tokens) -> str:
    """A right-branching chain over ``tokens``."""
    return "".join(f"(C (W {t}) " for t in tokens[:-1]) + f"(W {tokens[-1]})" + ")" * (len(tokens) - 1)


def write_reports():
    """Each report golden, as the CLI prints it from the repository root,
    unless the committed one already matches it."""
    if not __debug__:
        raise SystemExit("--reports compares with assert statements: run it without -O")
    sys.path.insert(0, str(ROOT / "tests"))
    from test_reports import COMMANDS, REPORTS, assert_reports_match

    os.chdir(ROOT)
    written = 0
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run(argv)
        if status != 0:
            raise SystemExit(f"{name}: tripsem exited with status {status}")
        golden = REPORTS / f"{name}.txt"
        try:
            assert_reports_match(out.getvalue(), golden.read_text(encoding="utf-8"))
        except (FileNotFoundError, AssertionError):
            golden.write_text(out.getvalue(), encoding="utf-8")
            written += 1
    print(f"{written} of {len(COMMANDS)} reports written under {REPORTS}, the rest kept")


def main():
    if sys.argv[1:] == ["--reports"]:
        return write_reports()
    if sys.argv[1:]:
        raise SystemExit("usage: python3 tools/make_fixtures.py [--reports]")
    FIXTURES.mkdir(parents=True, exist_ok=True)
    words_path = FIXTURES / "words.txt"
    words_path.write_text(
        "# demonstration word list\n" + "\n".join(WORDS) + "\n", encoding="utf-8"
    )
    lex_path = FIXTURES / "demo.lex"
    status = run(
        [
            "lexicon-init",
            "--words", str(words_path),
            "--out", str(lex_path),
            "--layout", "4,2,2",
            "--seed", "7",
            "--noise", "0.1",
            "--not-mu", "0.5",
        ]
    )
    if status != 0:
        raise SystemExit(f"lexicon-init failed with status {status}")

    lex = load(lex_path)
    blue = lex["blue"]
    op = NegationOperator(lex.mu_default, lex.layout)
    not_blue = LexicalEntry("not_blue", negate_vector(blue.v, op), blue.M, blue.alpha)
    save(lex.with_entry(not_blue), lex_path)

    (FIXTURES / "figure3.tree").write_text(TREE + "\n", encoding="utf-8")
    (FIXTURES / "wide.tree").write_text(balanced(WIDE_LEAVES) + "\n", encoding="utf-8")
    big = f"(S {balanced(BIG_BALANCED)} {chain(BIG_CHAIN)})"
    (FIXTURES / "big.tree").write_text(big + "\n", encoding="utf-8")
    # newline="" writes the CRLFs as they are on every platform
    (FIXTURES / "spaced.tree").write_text(SPACED, encoding="utf-8", newline="")
    (FIXTURES / "breaks.tree").write_text(BREAKS, encoding="utf-8", newline="")
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()
