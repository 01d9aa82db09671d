"""CLI reports on the shipped fixtures against stored golden copies.

Each file under ``tests/fixtures/reports/`` holds the stdout of one
command in ``COMMANDS``, run from the repository root so that the paths
printed in the report are the relative ones below. Keys, their order and
every non-float value must match exactly. Floats match to 1e-12 relative
with a 1e-12 absolute floor, because BLAS kernels may move the last
digits on another CPU.
"""

import math
from pathlib import Path

import pytest

from tripsem.cli import run

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ROOT / "tests" / "fixtures" / "reports"
LEX = ["--lexicon", "tests/fixtures/demo.lex"]
TREE = "tests/fixtures/figure3.tree"
WIDE = "tests/fixtures/wide.tree"
# a balanced tree of 1024 words beside a chain of 300: batched levels and a long fold
BIG = "tests/fixtures/big.tree"
# figure3.tree spaced with tabs, CRLF and U+3000: the same report bar its tree line
SPACED = "tests/fixtures/spaced.tree"
# figure3.tree with \x85, U+2028, form feeds and the like between constituents,
# all of them spaces within a line of a tree file: the same report bar its tree line
BREAKS = "tests/fixtures/breaks.tree"

COMPOSE = ["compose", *LEX, "--tree", TREE]
SIM = ["sim", *LEX, "--a", "blue", "--b", "not_blue"]

COMMANDS = {
    "compose_baseline_right": [*COMPOSE, "--model", "baseline", "--binarize", "right"],
    "compose_baseline_left": [*COMPOSE, "--model", "baseline", "--binarize", "left"],
    "compose_improved_right": [*COMPOSE, "--model", "improved", "--binarize", "right"],
    "compose_improved_left": [*COMPOSE, "--model", "improved", "--binarize", "left"],
    "compose_baseline_wide": ["compose", *LEX, "--tree", WIDE, "--model", "baseline"],
    "compose_improved_wide": ["compose", *LEX, "--tree", WIDE, "--model", "improved"],
    "compose_baseline_big": ["compose", *LEX, "--tree", BIG, "--model", "baseline"],
    "compose_improved_big": ["compose", *LEX, "--tree", BIG, "--model", "improved"],
    "compose_baseline_spaced": ["compose", *LEX, "--tree", SPACED, "--model", "baseline"],
    "compose_improved_spaced": ["compose", *LEX, "--tree", SPACED, "--model", "improved"],
    "compose_baseline_breaks": ["compose", *LEX, "--tree", BREAKS, "--model", "baseline"],
    "compose_improved_breaks": ["compose", *LEX, "--tree", BREAKS, "--model", "improved"],
    "verify_contradiction": ["verify", "contradiction", *LEX],
    "verify_improved_fit": ["verify", "improved-fit", *LEX],
    "verify_double_negation": ["verify", "double-negation", *LEX],
    "verify_scope": ["verify", "scope", *LEX, "--tree", TREE],
    "verify_scope_wide": ["verify", "scope", *LEX, "--tree", WIDE],
    "negate_blue": ["negate", *LEX, "--word", "blue"],
    "sim_domain": [*SIM, "--region", "domain"],
    "sim_value": [*SIM, "--region", "value"],
    "sim_full": [*SIM, "--region", "full"],
}

REL_TOL = 1e-12
ABS_TOL = 1e-12


def _is_float_token(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        pass
    else:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _split(line: str) -> tuple[str, list[str]]:
    key, _, value = line.partition(":")
    return key, value.split()


def assert_reports_match(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert [_split(g)[0] for g in got_lines] == [_split(w)[0] for w in want_lines]
    for g, w in zip(got_lines, want_lines):
        key, got_tokens = _split(g)
        _, want_tokens = _split(w)
        assert len(got_tokens) == len(want_tokens), key
        for gt, wt in zip(got_tokens, want_tokens):
            if _is_float_token(wt) and _is_float_token(gt):
                assert math.isclose(float(gt), float(wt), rel_tol=REL_TOL, abs_tol=ABS_TOL), (
                    f"{key}: {gt} != {wt}"
                )
            else:
                assert gt == wt, key


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden_copy(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run(COMMANDS[name]) == 0
    got = capsys.readouterr().out
    want = (REPORTS / f"{name}.txt").read_text(encoding="utf-8")
    assert_reports_match(got, want)


@pytest.mark.parametrize("model", ["baseline", "improved"])
@pytest.mark.parametrize("tree", ["spaced", "breaks"])
def test_respaced_trees_report_as_figure3_bar_their_tree_line(tree, model):
    def golden(name):
        lines = (REPORTS / f"{name}.txt").read_text(encoding="utf-8").splitlines()
        return [line for line in lines if not line.startswith("compose tree: ")]

    assert golden(f"compose_{model}_{tree}") == golden(f"compose_{model}_right")


def test_every_golden_copy_has_a_command():
    assert sorted(p.stem for p in REPORTS.glob("*.txt")) == sorted(COMMANDS)


class TestComparison:
    def test_last_digit_float_drift_is_accepted(self):
        assert_reports_match("x r: 1.0000000000000002\n", "x r: 1.0\n")

    def test_float_change_is_rejected(self):
        with pytest.raises(AssertionError):
            assert_reports_match("x r: 1.000000001\n", "x r: 1.0\n")

    def test_integer_and_word_changes_are_rejected(self):
        with pytest.raises(AssertionError):
            assert_reports_match("x samples: 17\n", "x samples: 16\n")
        with pytest.raises(AssertionError):
            assert_reports_match("x result: FAIL\n", "x result: PASS\n")

    def test_key_order_is_checked(self):
        with pytest.raises(AssertionError):
            assert_reports_match("x b: 1\nx a: 2\n", "x a: 2\nx b: 1\n")
