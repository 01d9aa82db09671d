"""Regenerate the shipped test fixtures.

Writes, under tests/fixtures/:

* words.txt       word list fed to lexicon-init
* demo.lex        seeded demonstration lexicon (seed 7, layout 4,2,2,
                  noise 0.1, "not" preset at mu 0.5) plus a "not_blue"
                  entry whose vector is negate(blue), used by the
                  similarity examples
* figure3.tree    the example sentence tree, unbinarized
* wide.tree       a balanced binary tree of 256 demo.lex words, one of
                  them "not", whose wide bottom levels compose_tree runs
                  as stacked steps

The contradiction-bound fixture has its own generator,
tools/contradiction_bound_oracle.py, and is not touched here.

Run from the repository root:  python3 tools/make_fixtures.py

The package is imported from src/ of this checkout, which goes first on
sys.path, so the script needs no install and never reads another copy.
"""

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


def balanced(tokens) -> str:
    """A balanced binary tree over ``tokens``."""
    if len(tokens) == 1:
        return f"(W {tokens[0]})"
    half = len(tokens) // 2
    return f"(S {balanced(tokens[:half])} {balanced(tokens[half:])})"


def main():
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
    print(f"fixtures written under {FIXTURES}")


if __name__ == "__main__":
    main()
