"""CLI behavior: report formats, exit codes, determinism."""

import codecs
import math
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tripsem.analysis import SampleSet
from tripsem.cli import build_parser, run
from tripsem.core import (
    FunctionMatrix, NegationOperator, SegmentLayout, SemanticVector, make_negation_matrix,
)
from tripsem.lexicon import Lexicon, init_random, load, save

DEMO_ARGS = lambda path: ["--lexicon", str(path)]  # noqa: E731

# The line breaks of str.splitlines() other than LF, CRLF and CR
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def lines_of(capsys):
    out = capsys.readouterr().out
    return [line for line in out.splitlines() if line]


def deep_chain(depth, words):
    """A right-branching tree ``depth`` levels deep over ``words`` in turn."""
    levels = "".join(f"(X (W {words[i % len(words)]}) " for i in range(depth))
    return "(S " + levels + "(X (W car) (W blue))" + ")" * (depth + 1)


def keys_of(lines, prefix):
    assert all(line.startswith(prefix + " ") for line in lines)
    return [line.split(":", 1)[0][len(prefix) + 1 :] for line in lines]


class TestLexiconInit:
    def test_writes_loadable_lexicon(self, tmp_path, fixtures_dir, capsys):
        out = tmp_path / "mini.lex"
        code = run(
            [
                "lexicon-init",
                "--words", str(fixtures_dir / "words.txt"),
                "--out", str(out),
                "--layout", "2,1,1",
                "--seed", "3",
                "--noise", "0.05",
                "--not-mu", "0.25",
            ]
        )
        assert code == 0
        lex = load(out)
        assert "not" in lex and "blue" in lex
        assert lex.mu_default == 0.25
        assert lex["not"].M.entries[3, 3] == -0.25
        report = lines_of(capsys)
        assert keys_of(report, "lexicon-init") == [
            "words", "layout", "seed", "noise", "not_mu", "out",
        ]
        assert "lexicon-init noise: 0.05" in report

    @pytest.mark.parametrize("mu", [0.25, 0.5, 1.0])
    def test_not_mu_sets_the_not_matrix(self, tmp_path, fixtures_dir, mu):
        out = tmp_path / "x.lex"
        words = str(fixtures_dir / "words.txt")
        assert run(["lexicon-init", "--words", words, "--out", str(out), "--not-mu", str(mu)]) == 0
        lex = load(out)
        assert lex["not"].M == make_negation_matrix(NegationOperator(mu, lex.layout))

    def test_missing_words_file(self, tmp_path, capsys):
        code = run(
            ["lexicon-init", "--words", str(tmp_path / "nope.txt"), "--out", "x"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("tripsem: ")

    def test_word_list_without_words(self, tmp_path, capsys):
        words = tmp_path / "empty.txt"
        words.write_text("# only a comment\n\n  \n", encoding="utf-8")
        code = run(["lexicon-init", "--words", str(words), "--out", str(tmp_path / "x.lex")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tripsem: no words found in {words}\n"

    @pytest.mark.parametrize("char", OTHER_BREAKS, ids=repr)
    def test_a_words_line_breaks_only_at_lf_crlf_and_cr(self, tmp_path, capsys, char):
        words = tmp_path / "words.txt"
        words.write_text(f"a{char}b\n", encoding="utf-8")
        code = run(["lexicon-init", "--words", str(words), "--out", str(tmp_path / "x.lex")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"tripsem: token must be nonempty and whitespace-free, got {'a' + char + 'b'!r}\n"
        )
        words.write_text("a\rb\r\nc\n", encoding="utf-8")
        assert run(["lexicon-init", "--words", str(words), "--out", str(tmp_path / "x.lex")]) == 0
        assert list(load(tmp_path / "x.lex").entries) == ["a", "b", "c", "not"]

    def test_bad_layout_string(self, tmp_path, fixtures_dir, capsys):
        code = run(
            [
                "lexicon-init",
                "--words", str(fixtures_dir / "words.txt"),
                "--out", str(tmp_path / "x.lex"),
                "--layout", "4,2",
            ]
        )
        assert code == 2
        assert "layout must be D,S,I" in capsys.readouterr().err

    def test_a_negative_seed_names_the_seed(self, tmp_path, fixtures_dir, capsys):
        out = tmp_path / "x.lex"
        words = str(fixtures_dir / "words.txt")
        code = run(["lexicon-init", "--words", words, "--out", str(out), "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "tripsem: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("mu, shown", [("2", "2.0"), ("0", "0.0"), ("nan", "nan")])
    def test_a_not_mu_out_of_range_names_the_flag(self, tmp_path, fixtures_dir, capsys, mu, shown):
        out = tmp_path / "x.lex"
        words = str(fixtures_dir / "words.txt")
        code = run(["lexicon-init", "--words", words, "--out", str(out), "--not-mu", mu])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tripsem: --not-mu must lie in (0, 1], got {shown}\n"
        assert not out.exists()

    def test_overflowing_noise_is_one_line_without_numpy_warnings(self, tmp_path, fixtures_dir):
        # a subprocess, so that numpy's warnings reach stderr unfiltered
        result = subprocess.run(
            [
                sys.executable, "-m", "tripsem.cli", "lexicon-init",
                "--words", str(fixtures_dir / "words.txt"),
                "--out", str(tmp_path / "x.lex"),
                "--noise", "1e308",
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 2
        assert result.stderr == "tripsem: function matrix entries must be finite\n"


class TestNegate:
    def test_report_shape(self, demo_lexicon_path, capsys):
        code = run(["negate", *DEMO_ARGS(demo_lexicon_path), "--word", "blue"])
        assert code == 0
        report = lines_of(capsys)
        assert keys_of(report, "negate") == [
            "word", "mu",
            "original.domain", "original.stable", "original.inverted",
            "negated.domain", "negated.stable", "negated.inverted",
        ]
        originals = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in report}
        # negation leaves domain and stable segments bit-identical
        assert originals["negate original.domain"] == originals["negate negated.domain"]
        assert originals["negate original.stable"] == originals["negate negated.stable"]
        assert originals["negate mu"] == "0.5"

    def test_mu_flag_overrides_lexicon_default(self, demo_lexicon_path, capsys):
        run(["negate", *DEMO_ARGS(demo_lexicon_path), "--word", "blue", "--mu", "1.0"])
        assert "negate mu: 1.0" in lines_of(capsys)

    @pytest.mark.parametrize("mu, shown", [("2", "2.0"), ("0", "0.0"), ("nan", "nan")])
    def test_a_mu_out_of_range_names_the_flag(self, demo_lexicon_path, capsys, mu, shown):
        code = run(["negate", *DEMO_ARGS(demo_lexicon_path), "--word", "blue", "--mu", mu])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tripsem: --mu must lie in (0, 1], got {shown}\n"

    def test_unknown_word(self, demo_lexicon_path, capsys):
        code = run(["negate", *DEMO_ARGS(demo_lexicon_path), "--word", "zzz"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("tripsem: ")
        assert "zzz" in err and '"' not in err

    def test_repeated_runs_are_byte_identical(self, demo_lexicon_path, capsys):
        run(["negate", *DEMO_ARGS(demo_lexicon_path), "--word", "red"])
        first = capsys.readouterr().out
        run(["negate", *DEMO_ARGS(demo_lexicon_path), "--word", "red"])
        assert capsys.readouterr().out == first


class TestCompose:
    @pytest.mark.parametrize("model", ["baseline", "improved"])
    def test_report_shape(self, demo_lexicon_path, figure3_tree_path, capsys, model):
        code = run(
            [
                "compose",
                *DEMO_ARGS(demo_lexicon_path),
                "--tree", str(figure3_tree_path),
                "--model", model,
            ]
        )
        assert code == 0
        report = lines_of(capsys)
        assert keys_of(report, "compose") == [
            "model", "tree",
            "root.v.domain", "root.v.stable", "root.v.inverted",
            "root.M.frobenius", "root.alpha",
        ]
        assert f"compose model: {model}" in report

    def test_models_disagree_on_deep_trees(
        self, demo_lexicon_path, figure3_tree_path, capsys
    ):
        argv = [
            "compose", *DEMO_ARGS(demo_lexicon_path), "--tree", str(figure3_tree_path)
        ]
        run(argv + ["--model", "baseline"])
        baseline = capsys.readouterr().out
        run(argv + ["--model", "improved"])
        improved = capsys.readouterr().out
        get = lambda text, key: [  # noqa: E731
            line for line in text.splitlines() if line.startswith(f"compose {key}:")
        ][0]
        assert get(baseline, "root.M.frobenius") != get(improved, "root.M.frobenius")
        assert get(baseline, "root.v.domain") != get(improved, "root.v.domain")

    def test_token_missing_from_lexicon(self, demo_lexicon_path, tmp_path, capsys):
        tree = tmp_path / "bad.tree"
        tree.write_text("(S (N spaceship) (N car))\n", encoding="utf-8")
        code = run(
            ["compose", *DEMO_ARGS(demo_lexicon_path), "--tree", str(tree)]
        )
        assert code == 2
        assert "spaceship" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["baseline", "improved"])
    def test_ten_thousand_deep_chain_composes(
        self, demo_lexicon_path, tmp_path, capsys, model
    ):
        # "not" has v = 0, so each step maps v to J_mu v and nothing overflows
        tree = tmp_path / "deep.tree"
        tree.write_text(deep_chain(10**4, ["not"]), encoding="utf-8")
        argv = ["compose", *DEMO_ARGS(demo_lexicon_path), "--tree", str(tree)]
        assert run(argv + ["--model", model]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "compose root.alpha: 1.0" in captured.out.splitlines()

    def test_overflow_on_a_deep_chain_names_the_node(
        self, demo_lexicon_path, tmp_path, capsys
    ):
        tree = tmp_path / "deep.tree"
        tree.write_text(deep_chain(10**5, ["car", "blue"]), encoding="utf-8")
        code = run(["compose", *DEMO_ARGS(demo_lexicon_path), "--tree", str(tree)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"tripsem: semantic vector entries are not finite after composing "
            r"node 'X' over leaves \d+-100002\n",
            captured.err,
        )

    def test_overflow_is_one_line_without_numpy_warnings(self, tmp_path):
        lex = tmp_path / "huge.lex"
        entry = "v 1e300 1e300 1e300\nm 1e10 0 0\nm 0 1e10 0\nm 0 0 1e10\n"
        lex.write_text(
            f"TRIPSEM 1\nlayout 1 1 1\nword a 1\n{entry}word b 1\n{entry}",
            encoding="utf-8",
        )
        tree = tmp_path / "pair.tree"
        tree.write_text("(S (W a) (W b))\n", encoding="utf-8")
        # a subprocess, so that numpy's warnings reach stderr unfiltered
        result = subprocess.run(
            [
                sys.executable, "-m", "tripsem.cli",
                "compose", "--lexicon", str(lex), "--tree", str(tree),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "tripsem: semantic vector entries are not finite after composing "
            "node 'S' over leaves 1-2\n"
        )

    def test_zero_alpha_pair_is_a_usage_error_only_when_improved(
        self, demo_lexicon_path, tmp_path, capsys
    ):
        # "not" has alpha 0, so Z = 0 when it composes with itself
        tree = tmp_path / "not_not.tree"
        tree.write_text("(S (RB not) (RB not))\n", encoding="utf-8")
        argv = ["compose", *DEMO_ARGS(demo_lexicon_path), "--tree", str(tree)]
        assert run(argv + ["--model", "improved"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tripsem: both alphas are zero ")
        assert len(captured.err.splitlines()) == 1
        assert run(argv + ["--model", "baseline"]) == 0
        assert "compose root.alpha: 0.0" in lines_of(capsys)

    def test_huge_finite_leaf_reports_a_finite_norm(self, tmp_path, capsys):
        lex = tmp_path / "huge.lex"
        lex.write_text(
            "TRIPSEM 1\nlayout 1 1 1\nword a 1\n"
            "v 1e200 1 1\nm 1e200 0 0\nm 0 1 0\nm 0 0 1\n",
            encoding="utf-8",
        )
        tree = tmp_path / "leaf.tree"
        tree.write_text("(W a)\n", encoding="utf-8")
        assert run(["compose", "--lexicon", str(lex), "--tree", str(tree)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "compose root.M.frobenius: 1e+200" in captured.out.splitlines()

    def test_tree_file_must_hold_one_tree(self, demo_lexicon_path, tmp_path, capsys):
        tree = tmp_path / "two.tree"
        tree.write_text("(N car)\n\n(N car)\n", encoding="utf-8")
        code = run(
            ["compose", *DEMO_ARGS(demo_lexicon_path), "--tree", str(tree)]
        )
        assert code == 2
        assert "exactly one tree, found 2" in capsys.readouterr().err

    @pytest.mark.parametrize("newline, offset", [("\n", 18), ("\r\n", 20)])
    def test_parse_error_offset_counts_from_the_start_of_the_file(
        self, demo_lexicon_path, tmp_path, capsys, newline, offset
    ):
        tree = tmp_path / "truncated.tree"
        tree.write_bytes(f"(W car){newline}{newline}(S (W is){newline}".encode())
        code = run(["compose", *DEMO_ARGS(demo_lexicon_path), "--tree", str(tree)])
        assert code == 2
        # the offset is the end of "(S (W is)", the last line of the second tree
        assert capsys.readouterr().err == (
            f"tripsem: unbalanced brackets: unexpected end of input (offset {offset})\n"
        )


class TestSim:
    def test_negated_word_keeps_domain_cosine_one(self, demo_lexicon_path, capsys):
        code = run(
            [
                "sim",
                *DEMO_ARGS(demo_lexicon_path),
                "--a", "blue",
                "--b", "not_blue",
                "--region", "domain",
            ]
        )
        assert code == 0
        report = lines_of(capsys)
        assert "sim cosine: 1.0" in report
        assert "sim region: domain" in report

    def test_value_region_drops_below_one(self, demo_lexicon_path, capsys):
        run(
            [
                "sim",
                *DEMO_ARGS(demo_lexicon_path),
                "--a", "blue",
                "--b", "not_blue",
                "--region", "value",
            ]
        )
        cosine_line = [
            line for line in lines_of(capsys) if line.startswith("sim cosine:")
        ][0]
        assert float(cosine_line.split(": ")[1]) < 1.0

    def test_full_region_self_similarity(self, demo_lexicon_path, capsys):
        code = run(["sim", *DEMO_ARGS(demo_lexicon_path), "--a", "car", "--b", "car"])
        assert code == 0
        assert "sim cosine: 1.0" in lines_of(capsys)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_give_the_true_cosine(self, tmp_path, capsys, scale):
        def word(name, v):
            return f"word {name} 1\nv {v}\nm 1 0 0\nm 0 1 0\nm 0 0 1\n"

        lex = tmp_path / "extreme.lex"
        lex.write_text(
            "TRIPSEM 1\nlayout 1 1 1\n"
            + word("a", f"{scale!r} {scale!r} 0")
            + word("b", f"{scale!r} {-scale / 10!r} 0"),
            encoding="utf-8",
        )
        assert run(["sim", "--lexicon", str(lex), "--a", "a", "--b", "b"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        value = float(captured.out.splitlines()[-1].removeprefix("sim cosine: "))
        assert value == pytest.approx(0.9 / math.sqrt(2 * 1.01), abs=1e-15)

    def test_zero_vector_is_a_usage_error(self, demo_lexicon_path, capsys):
        # the "not" preset stores an all-zero vector
        code = run(["sim", *DEMO_ARGS(demo_lexicon_path), "--a", "not", "--b", "car"])
        assert code == 2
        assert capsys.readouterr().err.startswith("tripsem: ")


class TestVerify:
    @pytest.mark.parametrize("check", ["contradiction", "improved-fit", "double-negation"])
    def test_lexicon_checks_pass(self, demo_lexicon_path, capsys, check):
        code = run(["verify", check, *DEMO_ARGS(demo_lexicon_path)])
        assert code == 0
        report = lines_of(capsys)
        assert report[0] == f"verify check: {check}"
        assert report[-1] == "verify result: PASS"

    @pytest.mark.parametrize("mu", ["0.9", "0.5"])
    def test_double_negation_of_a_subnormal_underflows(self, tmp_path, capsys, mu):
        # mu^2 * 5e-324 rounds back to 5e-324 at mu = 0.9, which cannot
        # shrink, and to zero at mu = 0.5, which loses the sign
        lex = tmp_path / "subnormal.lex"
        lex.write_text(
            f"TRIPSEM 1\nlayout 1 1 1\n# mu_default {mu}\n"
            "word tiny 1\nv 1 1 5e-324\nm 1 0 0\nm 0 1 0\nm 0 0 1\n",
            encoding="utf-8",
        )
        assert run(["verify", "double-negation", "--lexicon", str(lex)]) == 0
        assert lines_of(capsys)[-5:] == [
            "verify domain_unchanged: true",
            "verify signs_restored: true",
            "verify diminutive: true",
            "verify words_underflowed: 1",
            "verify result: PASS",
        ]

    def test_scope_passes_with_tree(
        self, demo_lexicon_path, figure3_tree_path, capsys
    ):
        code = run(
            [
                "verify", "scope",
                *DEMO_ARGS(demo_lexicon_path),
                "--tree", str(figure3_tree_path),
            ]
        )
        assert code == 0
        report = lines_of(capsys)
        assert report[-1] == "verify result: PASS"
        fields = keys_of(report, "verify")
        for key in (
            "perturbation_norm", "baseline.delta", "baseline.error", "improved.delta",
        ):
            assert key in fields

    def test_contradiction_report_fields(self, demo_lexicon_path, capsys):
        run(["verify", "contradiction", *DEMO_ARGS(demo_lexicon_path)])
        report = lines_of(capsys)
        fields = keys_of(report, "verify")
        for key in (
            "samples", "residual_value", "residual_function", "residual_total",
            "value_only.m_error", "function_only.m_error",
        ):
            assert key in fields
        by_key = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in report}
        assert by_key["verify samples"] == "51"
        assert float(by_key["verify residual_total"]) > 1.0

    def test_improved_fit_reports_alpha_zero(self, demo_lexicon_path, capsys):
        run(["verify", "improved-fit", *DEMO_ARGS(demo_lexicon_path)])
        assert "verify alpha_not: 0.0" in lines_of(capsys)

    def test_fits_report_their_solver(self, demo_lexicon_path, capsys):
        run(["verify", "contradiction", *DEMO_ARGS(demo_lexicon_path)])
        report = lines_of(capsys)
        # the solver lines follow every earlier line, just before the result
        assert report[-4:-1] == [
            "verify joint.solver: structured",
            "verify value_only.solver: structured",
            # v_not appears in no function row and M_not = 0 meets every
            # one, so zero is that system's minimum-norm solution
            "verify function_only.solver: closed-form",
        ]
        run(["verify", "improved-fit", *DEMO_ARGS(demo_lexicon_path)])
        assert lines_of(capsys)[-2:] == [
            "verify solver: structured",
            "verify result: PASS",
        ]

    def test_scope_without_tree(self, demo_lexicon_path, capsys):
        code = run(["verify", "scope", *DEMO_ARGS(demo_lexicon_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no partial report before the usage error
        assert "requires --tree" in captured.err

    def test_scope_tree_without_not_prints_no_report(self, demo_lexicon_path, tmp_path, capsys):
        tree = tmp_path / "no_not.tree"
        tree.write_text("(S (N car) (JJ blue))\n", encoding="utf-8")
        argv = ["verify", "scope", *DEMO_ARGS(demo_lexicon_path), "--tree", str(tree)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "tripsem: tree must contain exactly one 'not' leaf, found 0\n"

    def test_fit_without_samples_prints_no_report(self, tmp_path, capsys):
        # the "not" preset is not a sample, so no sample is left
        lex = tmp_path / "not_only.lex"
        lex.write_text(
            "TRIPSEM 1\nlayout 1 1 1\nword not 0.0\n"
            "v 0 0 0\nm 1 0 0\nm 0 1 0\nm 0 0 -0.5\n",
            encoding="utf-8",
        )
        assert run(["verify", "contradiction", "--lexicon", str(lex)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tripsem: ")
        assert captured.err.count("\n") == 1

    def test_double_negation_on_a_lexicon_without_words_exits_two(self, tmp_path, capsys):
        lex = tmp_path / "empty.lex"
        lex.write_text("TRIPSEM 1\nlayout 1 0 1\n", encoding="utf-8")
        assert run(["verify", "double-negation", "--lexicon", str(lex)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "tripsem: lexicon has no words\n"

    @pytest.mark.parametrize("check, fit", [("contradiction", "both"), ("improved-fit", "value")])
    def test_overflowing_fit_exits_two_naming_the_fit(self, tmp_path, capsys, check, fit):
        base = init_random([f"w{i}" for i in range(6)], SegmentLayout(1, 1, 1), 0, 0.1)
        huge = {e.token: replace(e, v=SemanticVector(1e308 * e.v.values, base.layout))
                for e in base}
        lex = tmp_path / "huge.lex"
        save(Lexicon(base.layout, huge), lex)
        assert run(["verify", check, "--lexicon", str(lex)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tripsem: the {fit!r} fit overflows: sample values too large\n"

    @pytest.mark.parametrize("check", ["contradiction", "improved-fit"])
    def test_fit_on_a_layout_without_inverted_segment_exits_two(self, tmp_path, capsys, check):
        lex = tmp_path / "no_inverted.lex"
        save(init_random([f"w{i}" for i in range(6)], SegmentLayout(2, 1, 0), 3, 0.1), lex)
        assert run(["verify", check, "--lexicon", str(lex)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "tripsem: negation needs at least one inverted dimension (d_inverted >= 1)\n"
        )

    @pytest.mark.parametrize(
        "count, v_scale, m_scale, passed",
        [
            (6, 1e200, 1.0, True), (6, 1e-200, 1.0, True),
            (6, 2.0**400, 2.0**400, True), (2, 2.0**400, 2.0**400, False),
        ],
    )
    @pytest.mark.parametrize("check, m_error", [
        ("contradiction", "value_only.m_error"), ("improved-fit", "m_error"),
    ])
    def test_fits_are_judged_in_the_samples_units(
        self, tmp_path, capsys, check, m_error, count, v_scale, m_scale, passed
    ):
        """Residuals are held to 1e-9 * max(1, s_v), v_not to
        1e-9 * max(1, s_v / s_M), and the joint residual must clear
        1e-6 * min(1, s_v); the M_not error, which is unitless, stays at
        1e-9. Two words cannot pin M_not, at any scale."""
        base = init_random([f"w{i}" for i in range(count)], SegmentLayout(1, 1, 1), 3, 0.1)
        scaled = {e.token: replace(
            e, v=SemanticVector(v_scale * e.v.values, base.layout),
            M=FunctionMatrix(m_scale * e.M.entries, base.layout),
        ) for e in base}
        lex = tmp_path / "scaled.lex"
        save(Lexicon(base.layout, scaled), lex)
        assert run(["verify", check, "--lexicon", str(lex)]) == (0 if passed else 1)
        report = dict(line.split(": ", 1) for line in lines_of(capsys))
        assert report["verify result"] == ("PASS" if passed else "FAIL")
        if passed:
            assert float(report[f"verify {m_error}"]) < 1e-14
        else:
            assert float(report[f"verify {m_error}"]) == pytest.approx(0.92, abs=0.005)

    @pytest.mark.parametrize("check, prefix, residual", [
        ("contradiction", "value_only.", "value_only.residual"),
        ("improved-fit", "", "residual_total"),
    ])
    def test_reports_print_the_scaled_tolerances(self, tmp_path, capsys, check, prefix, residual):
        """With vectors scaled by 1e200, v_error is far above the 1e-9 base
        and within the printed v tolerance, 1e-9 * s_v / s_M; the residual
        is within the printed 1e-9 * s_v."""
        base = init_random([f"w{i}" for i in range(6)], SegmentLayout(1, 1, 1), 3, 0.1)
        scaled = {e.token: replace(e, v=SemanticVector(1e200 * e.v.values, base.layout))
                  for e in base}
        lex = Lexicon(base.layout, scaled)
        save(lex, tmp_path / "scaled.lex")
        assert run(["verify", check, "--lexicon", str(tmp_path / "scaled.lex")]) == 0
        report = dict(line.removeprefix("verify ").split(": ", 1) for line in lines_of(capsys))
        samples = SampleSet.from_lexicon(lex)
        s_v, s_m = (float(np.abs(x).max()) for x in (samples.v, samples.m))
        assert float(report[prefix + "v_tolerance"]) == 1e-9 * (s_v / s_m)
        assert float(report[prefix + "residual_tolerance"]) == 1e-9 * s_v
        assert 1e-9 < float(report[prefix + "v_error"]) <= 1e-9 * (s_v / s_m)
        assert float(report[residual]) <= 1e-9 * s_v

    def test_contradiction_prints_the_joint_floor_its_verdict_uses(self, tmp_path, capsys):
        """With vectors scaled by 1e-200 the joint residual is far below the
        1e-6 base that ``residual_floor`` prints, and above the floor the
        verdict uses, 1e-6 * s_v, which ``joint.residual_floor`` prints."""
        base = init_random([f"w{i}" for i in range(6)], SegmentLayout(1, 1, 1), 3, 0.1)
        scaled = {e.token: replace(e, v=SemanticVector(1e-200 * e.v.values, base.layout))
                  for e in base}
        lex = Lexicon(base.layout, scaled)
        save(lex, tmp_path / "tiny.lex")
        assert run(["verify", "contradiction", "--lexicon", str(tmp_path / "tiny.lex")]) == 0
        report = dict(line.removeprefix("verify ").split(": ", 1) for line in lines_of(capsys))
        s_v = float(np.abs(SampleSet.from_lexicon(lex).v).max())
        assert report["residual_floor"] == "1e-06"
        assert float(report["joint.residual_floor"]) == 1e-6 * s_v
        assert float(report["joint.residual_floor"]) < float(report["residual_total"]) < 1e-6
        assert report["result"] == "PASS"

    def test_failing_check_exits_one(self, tmp_path, capsys):
        # five words cannot pin down 72 unknowns: the value-only fit finds a
        # different zero-residual operator, so the check honestly fails
        words = tmp_path / "few.txt"
        words.write_text("a\nb\nc\nd\ne\n", encoding="utf-8")
        lex_path = tmp_path / "few.lex"
        assert run(
            ["lexicon-init", "--words", str(words), "--out", str(lex_path)]
        ) == 0
        capsys.readouterr()
        code = run(["verify", "contradiction", "--lexicon", str(lex_path)])
        assert code == 1
        report = lines_of(capsys)
        assert report[-1] == "verify result: FAIL"
        assert "verify value_only.solver: min-norm" in report
        assert "verify joint.solver: structured" in report


def bom_copy(path, tmp_path):
    """A copy of ``path`` saved with a UTF-8 byte order mark in front."""
    copy = tmp_path / f"bom-{path.name}"
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


class TestByteOrderMark:
    """A file saved with a leading byte order mark reads as the file without it."""

    def test_words_file_writes_the_same_lexicon(self, tmp_path, fixtures_dir):
        words = fixtures_dir / "words.txt"
        written = []
        for source in (words, bom_copy(words, tmp_path)):
            written.append(tmp_path / f"{source.stem}.lex")
            assert run(["lexicon-init", "--words", str(source), "--out", str(written[-1])]) == 0
        assert written[0].read_bytes() == written[1].read_bytes()

    @pytest.mark.parametrize(
        "command", [["compose", "--tree", "figure3.tree"], ["verify", "double-negation"]]
    )
    def test_lexicon_and_tree_files_give_the_same_report(
        self, tmp_path, fixtures_dir, capsys, command
    ):
        reports = []
        for copy in (lambda path: path, lambda path: bom_copy(path, tmp_path)):
            args = [str(copy(fixtures_dir / a)) if a.endswith(".tree") else a for a in command]
            code = run([*args, "--lexicon", str(copy(fixtures_dir / "demo.lex"))])
            assert code == 0
            # the rows that name the input files differ; every other row must not
            reports.append([row for row in lines_of(capsys) if str(tmp_path) not in row
                            and str(fixtures_dir) not in row])
        assert reports[0] == reports[1]
        assert reports[0][-1] in ("compose root.alpha: 1.0", "verify result: PASS")

    def test_tree_offsets_count_from_after_the_mark(self, demo_lexicon_path, tmp_path, capsys):
        tree = tmp_path / "truncated.tree"
        tree.write_bytes(codecs.BOM_UTF8 + b"(W car)\n\n(S (W is)\n")
        assert run(["compose", *DEMO_ARGS(demo_lexicon_path), "--tree", str(tree)]) == 2
        assert capsys.readouterr().err == (
            "tripsem: unbalanced brackets: unexpected end of input (offset 18)\n"
        )


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["defenestrate"]) == 2

    def test_unknown_flag(self, demo_lexicon_path, capsys):
        code = run(
            ["negate", *DEMO_ARGS(demo_lexicon_path), "--word", "blue", "--frob", "1"]
        )
        assert code == 2

    def test_unknown_verify_check(self, demo_lexicon_path, capsys):
        assert run(["verify", "everything", *DEMO_ARGS(demo_lexicon_path)]) == 2

    def test_bad_mu_default_pragma_names_its_line(self, tmp_path, capsys):
        lex = tmp_path / "bad.lex"
        lex.write_text("TRIPSEM 1\nlayout 2 1 1\n# mu_default 2.0\n", encoding="utf-8")
        code = run(["negate", "--lexicon", str(lex), "--word", "a"])
        assert code == 2
        assert capsys.readouterr().err == (
            "tripsem: mu_default must lie in (0, 1], got 2.0 (line 3)\n"
        )

    # A 10^9 layout asks for 8 EB, which fails at allocation without
    # touching memory. Do not try layouts whose n^2 doubles could fit in RAM.
    def test_layout_too_large_to_allocate_exits_two(self, tmp_path, fixtures_dir, capsys):
        lex = tmp_path / "big.lex"
        lex.write_text("TRIPSEM 1\nlayout 1000000000 0 1\n", encoding="utf-8")
        tree = tmp_path / "pair.tree"
        tree.write_text("(S (RB not) (JJ blue))\n", encoding="utf-8")
        words = str(fixtures_dir / "words.txt")
        for argv in (
            ["lexicon-init", "--words", words, "--out", str(tmp_path / "x.lex"),
             "--layout", "1000000000,0,1"],
            ["verify", "scope", "--lexicon", str(lex), "--tree", str(tree)],
        ):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("tripsem: ") and err.count("\n") == 1
        assert not (tmp_path / "x.lex").exists()

    def test_missing_lexicon_file(self, tmp_path, capsys):
        code = run(["negate", "--lexicon", str(tmp_path / "gone.lex"), "--word", "a"])
        assert code == 2
        assert capsys.readouterr().err.startswith("tripsem: ")


class TestParserReuse:
    """One parser serves every run of a process and carries nothing between them."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_an_option_does_not_outlive_its_run(self, demo_lexicon_path, capsys):
        negate = ["negate", *DEMO_ARGS(demo_lexicon_path), "--word", "blue"]
        assert run(negate + ["--mu", "0.3"]) == 0
        assert "negate mu: 0.3" in lines_of(capsys)
        assert run(negate) == 0
        assert f"negate mu: {load(demo_lexicon_path).mu_default!r}" in lines_of(capsys)

    def test_a_usage_error_between_runs_changes_nothing(self, demo_lexicon_path, capsys):
        verify = ["verify", "double-negation", *DEMO_ARGS(demo_lexicon_path)]
        assert run(verify) == 0
        before = capsys.readouterr().out
        assert run(["verify", "everything", *DEMO_ARGS(demo_lexicon_path), "--tree"]) == 2
        assert capsys.readouterr().out == ""
        assert run(verify) == 0
        assert capsys.readouterr().out == before


def test_console_entry_point(demo_lexicon_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "tripsem.cli",
            "sim", "--lexicon", str(demo_lexicon_path),
            "--a", "blue", "--b", "red", "--region", "domain",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines()[0] == "sim a: blue"


def test_readme_cli_block_runs_from_the_repository_root(tmp_path, monkeypatch, capsys):
    """Every ``tripsem`` command of README's CLI block exits 0 when run
    from a copy of the repository root's ``tests/fixtures``."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in commands if line.startswith("tripsem ")]
    assert len(commands) == 6
    shutil.copytree(Path(__file__).parent / "fixtures", tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv[1:]) == 0, (argv, capsys.readouterr().err)
