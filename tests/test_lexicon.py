"""Lexicon construction, presets, and the text serialization format."""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tripsem.composition import CompositionConfig, compose_pair
from tripsem.core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    make_negation_matrix,
)
from tripsem.errors import (
    DegenerateNegationError,
    LexiconFormatError,
    UnknownTokenError,
)
from tripsem.lexicon import (
    Lexicon,
    dumps,
    init_random,
    load,
    loads,
    save,
    set_function_word,
)

LAY211 = SegmentLayout(2, 1, 1)

# The line breaks of str.splitlines() other than LF, CRLF and CR
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# Two valid 2,1,1 entries; word b is lines 9 to 14.
TWO_WORDS = (
    "TRIPSEM 1",
    "layout 2 1 1",
    "word a 1.0",
    "v 1.0 2.0 3.0 4.0",
    "m 1 0 0 0",
    "m 0 1 0 0",
    "m 0 0 1 0",
    "m 0 0 0 1",
    "word b 0.5",
    "v 0.5 -0.25 1 2",
    "m 2 0 0 0",
    "m 0 2 0 0",
    "m 0 0 2 0",
    "m 0 0 0 2",
)


class TestLexiconType:
    def test_lookup_and_membership(self):
        lex = init_random(["blue", "red"], LAY211, seed=0, noise=0.1)
        assert "blue" in lex and "nope" not in lex
        assert lex["blue"].token == "blue"
        assert len(lex) == 2
        assert tuple(lex.entries) == ("blue", "red")
        with pytest.raises(UnknownTokenError):
            lex["nope"]

    def test_with_entry_replaces_or_adds(self):
        lex = init_random(["blue"], LAY211, seed=0, noise=0.1)
        entry = LexicalEntry(
            "red",
            SemanticVector([1.0, 0.0, 0.0, 0.0], LAY211),
            FunctionMatrix(np.eye(4), LAY211),
            1.0,
        )
        bigger = lex.with_entry(entry)
        assert len(lex) == 1 and len(bigger) == 2  # original is untouched
        replaced = bigger.with_entry(
            LexicalEntry("red", entry.v, entry.M, 3.0)
        )
        assert replaced["red"].alpha == 3.0

    def test_mixed_layout_entries_rejected(self):
        other = SegmentLayout(1, 2, 1)
        good = LexicalEntry(
            "a",
            SemanticVector([1.0, 0.0, 0.0, 0.0], LAY211),
            FunctionMatrix(np.eye(4), LAY211),
            1.0,
        )
        bad = LexicalEntry(
            "b",
            SemanticVector([1.0, 0.0, 0.0, 0.0], other),
            FunctionMatrix(np.eye(4), other),
            1.0,
        )
        with pytest.raises(ValueError):
            Lexicon(LAY211, {"a": good, "b": bad})

    def test_entry_filed_under_another_token_rejected(self):
        entry = init_random(["a"], LAY211, seed=0, noise=0.1)["a"]
        with pytest.raises(ValueError, match="^entry token 'a' filed under 'b'$"):
            Lexicon(LAY211, {"b": entry})

    @pytest.mark.parametrize(
        "bad_mu, shown",
        [
            (0.0, "0.0"), (-0.5, "-0.5"), (1.0000001, "1.0000001"),
            (np.nan, "nan"), (np.inf, "inf"), (2, "2"),
        ],
    )
    def test_bad_mu_default_rejected(self, bad_mu, shown):
        with pytest.raises(ValueError) as err:
            Lexicon(LAY211, {}, mu_default=bad_mu)
        assert str(err.value) == f"mu_default must lie in (0, 1], got {shown}"


class TestInitRandom:
    def test_deterministic(self):
        a = init_random(["x", "y", "z"], LAY211, seed=5, noise=0.2)
        b = init_random(["x", "y", "z"], LAY211, seed=5, noise=0.2)
        assert a == b
        for token in a.entries:
            assert np.array_equal(a[token].v.values, b[token].v.values)
            assert np.array_equal(a[token].M.entries, b[token].M.entries)

    def test_zero_noise_gives_identity_matrices(self):
        lex = init_random(["x", "y"], LAY211, seed=1, noise=0.0)
        for entry in lex:
            assert np.array_equal(entry.M.entries, np.eye(4))

    def test_different_seeds_differ(self):
        a = init_random(["x"], LAY211, seed=7, noise=0.1)
        b = init_random(["x"], LAY211, seed=8, noise=0.1)
        assert not np.array_equal(a["x"].v.values, b["x"].v.values)

    def test_alpha_defaults_to_one(self):
        lex = init_random(["x"], LAY211, seed=0, noise=0.1)
        assert lex["x"].alpha == 1.0

    def test_vector_entries_in_unit_box(self):
        lex = init_random([f"w{i}" for i in range(40)], LAY211, seed=2, noise=0.1)
        for entry in lex:
            assert np.all(np.abs(entry.v.values) <= 1.0)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            init_random(["x", "x"], LAY211, seed=0, noise=0.1)

    def test_duplicate_among_many_tokens_is_found_in_linear_time(self):
        tokens = [f"w{i}" for i in range(40_000)] + ["w17"]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^duplicate tokens: w17$"):
            init_random(tokens, LAY211, seed=0, noise=0.1)
        assert time.perf_counter() - start < 2.0

    def test_overflowing_noise_is_one_error_without_numpy_warnings(self):
        # pyproject.toml's filterwarnings makes a numpy RuntimeWarning fail this test
        with pytest.raises(ValueError, match="^function matrix entries must be finite$"):
            init_random(["x", "y"], LAY211, seed=0, noise=1e308)

    def test_token_with_whitespace_rejected(self):
        with pytest.raises(ValueError, match="^token must be nonempty and whitespace-free"):
            init_random(["a b"], LAY211, seed=0, noise=0.1)

    def test_empty_token_list_rejected(self):
        with pytest.raises(ValueError):
            init_random([], LAY211, seed=0, noise=0.1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            init_random(["x"], LAY211, seed=0, noise=-0.1)


class TestFunctionWordPresets:
    def test_negation_preset_values(self):
        lex = init_random(["blue"], LAY211, seed=0, noise=0.1)
        lex = set_function_word(lex, "not")
        entry = lex["not"]
        assert not entry.v.values.any()
        assert np.array_equal(entry.M.entries, np.diag([1.0, 1.0, 1.0, -0.5]))
        assert entry.alpha == 0.0

    def test_negation_uses_lexicon_mu_default(self):
        lex = init_random(["blue"], LAY211, seed=0, noise=0.1, mu_default=0.25)
        lex = set_function_word(lex, "not")
        assert lex["not"].M.entries[3, 3] == -0.25

    def test_negation_needs_inverted_dimensions(self):
        lay = SegmentLayout(2, 2, 0)
        lex = init_random(["blue"], lay, seed=0, noise=0.1)
        with pytest.raises(DegenerateNegationError):
            set_function_word(lex, "not")

    def test_negation_preset_composes_to_scaled_inversion(self):
        """Composing the preset with any word applies J_mu to its vector."""
        lex = init_random(["blue"], LAY211, seed=3, noise=0.1)
        lex = set_function_word(lex, "not")
        j_mu = make_negation_matrix(NegationOperator(0.5, LAY211)).entries
        product = compose_pair(lex["not"], lex["blue"], CompositionConfig())
        np.testing.assert_array_equal(product.v.values, j_mu @ lex["blue"].v.values)


class TestSerialization:
    def test_dumps_loads_round_trip_is_exact(self):
        lex = init_random(["blue", "red", "car"], LAY211, seed=11, noise=0.3)
        lex = set_function_word(lex, "not")
        back = loads(dumps(lex))
        assert back == lex
        for token in lex.entries:
            assert np.array_equal(back[token].v.values, lex[token].v.values)
            assert np.array_equal(back[token].M.entries, lex[token].M.entries)
            assert back[token].alpha == lex[token].alpha

    def test_save_load_file_round_trip(self, tmp_path):
        lex = init_random(["a", "b"], SegmentLayout(4, 2, 2), seed=9, noise=0.1)
        path = tmp_path / "t.lex"
        save(lex, path)
        assert load(path) == lex

    def test_mu_default_survives_round_trip(self):
        lex = init_random(["a"], LAY211, seed=0, noise=0.1, mu_default=0.75)
        assert loads(dumps(lex)).mu_default == 0.75

    def test_bulk_read_is_bit_exact_at_n32(self):
        def bits(x):
            return np.asarray(x, dtype=np.float64).view(np.uint64)

        layout = SegmentLayout(16, 8, 8)
        lex = init_random(["a", "b", "c"], layout, seed=12, noise=0.3)
        special = [
            -0.0,
            5e-324,
            1.7976931348623157e308,
            0.30000000000000004,
            -1.0000000000000002,
            0.12345678901234568,
            -2.2250738585072014e-308,
            0.0,
        ]
        v = np.array(special * 4)
        m = np.reshape(special * 128, (32, 32)).T
        lex = lex.with_entry(
            LexicalEntry("d", SemanticVector(v, layout), FunctionMatrix(m, layout), 5e-324)
        )
        text = dumps(lex)
        for spelling in ("-0.0", "5e-324", "1.7976931348623157e+308", "0.12345678901234568"):
            assert f" {spelling} " in text
        for decorated in (text, text.replace("\nm ", "\n# row\n\nm ")):
            back = loads(decorated)
            assert back == lex
            for token, entry in lex.entries.items():
                assert np.array_equal(bits(back[token].v.values), bits(entry.v.values))
                assert np.array_equal(bits(back[token].M.entries), bits(entry.M.entries))
                assert bits(back[token].alpha) == bits(entry.alpha)

    def test_comments_and_blank_lines_ignored(self):
        lex = init_random(["a"], LAY211, seed=0, noise=0.1)
        text = dumps(lex)
        decorated = "# leading comment\n\n" + text.replace(
            "word a", "# entry follows\n\nword a"
        )
        assert loads(decorated) == lex

    def test_finite_values_whose_sum_overflows_load(self):
        lines = list(TWO_WORDS)
        lines[3] = "v 1e308 1e308 1e308 -1.7976931348623157e308"
        values = loads("\n".join(lines) + "\n")["a"].v.values
        assert values.tolist() == [1e308, 1e308, 1e308, -1.7976931348623157e308]

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=4,
            max_size=4,
        ),
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=16,
            max_size=16,
        ),
        st.one_of(st.just(-0.0), st.floats(min_value=0.0, allow_infinity=False)),
    )
    def test_any_finite_values_round_trip_bitwise(self, values, matrix, alpha):
        # bit patterns, not ==, so -0.0 and every subnormal must come back exactly
        entry = LexicalEntry(
            "w",
            SemanticVector(values, LAY211),
            FunctionMatrix(np.reshape(matrix, (4, 4)), LAY211),
            alpha,
        )
        lex = Lexicon(LAY211, {"w": entry})
        back = loads(dumps(lex))["w"]

        def bits(x):
            return np.asarray(x, dtype=np.float64).view(np.uint64)

        assert np.array_equal(bits(back.v.values), bits(values))
        for got, want in zip(back.M.entries, np.reshape(matrix, (4, 4))):
            assert np.array_equal(bits(got), bits(want))
        assert bits(back.alpha) == bits(alpha)


class TestLoadErrors:
    @pytest.mark.parametrize(
        "edits, keep, message, line",
        [
            ({10: "w 0.5 -0.25 1 2"}, 14, "expected 'v ...' for 'b'", 10),
            ({10: "v 0.5 -0.25 1"}, 14, "vector of 'b': expected 4 values, got 3", 10),
            ({10: "v 0.5 x 1 2"}, 14, "vector of 'b': bad number 'x'", 10),
            ({10: "v 0.5 -0.25 inf 2"}, 14, "vector of 'b': non-finite value", 10),
            ({11: "v 2 0 0 0"}, 14, "expected 'm ...' for 'b'", 11),
            ({13: "m 0 0 2"}, 14, "matrix row 3 of 'b': expected 4 values, got 3", 13),
            ({13: "m 0 0 2,0 0"}, 14, "matrix row 3 of 'b': bad number '2,0'", 13),
            ({14: "m 0 0 0 1e400"}, 14, "matrix row 4 of 'b': non-finite value", 14),
            ({}, 12, "unexpected end of file, expected matrix row 3 of 'b'", 12),
            (
                {11: "m 2 0 0 0\n# note\n", 12: "m 0 2 0"},
                14,
                "matrix row 2 of 'b': expected 4 values, got 3",
                14,
            ),
            (
                {10: "v 0.5 -0.25 1", 11: "n 2 0 0 0"},
                14,
                "vector of 'b': expected 4 values, got 3",
                10,
            ),
            (
                {9: "word b -1.0"},
                14,
                "invalid entry 'b': alpha must be finite and >= 0, got -1.0",
                9,
            ),
            (
                {9: "word b -1.0", 13: "m 0 0 2"},
                14,
                "invalid entry 'b': alpha must be finite and >= 0, got -1.0",
                9,
            ),
            (
                {2: "layout -1 2 2"},
                14,
                "bad layout: d_domain must be a non-negative integer, got -1",
                2,
            ),
            ({2: "layout 0 0 0"}, 14, "bad layout: layout must have at least one dimension", 2),
            ({9: "word a 0.5"}, 14, "duplicate word 'a'", 9),
            ({9: "word b x"}, 14, "alpha of 'b': bad number 'x'", 9),
            ({9: "word b inf"}, 14, "alpha of 'b': non-finite value", 9),
            ({}, 9, "unexpected end of file, expected v line of 'b'", 9),
            (
                {12: "m 0 2 0 0\n\n# end of file\n"},
                12,
                "unexpected end of file, expected matrix row 3 of 'b'",
                15,
            ),
            ({10: "v inf x 1 2"}, 14, "vector of 'b': bad number 'x'", 10),
            ({2: "layout 2 1 1\n# mu_default inf"}, 14, "mu_default: non-finite value", 3),
            (
                {12: "m 0 2 0 0\n# mu_default 2"},
                12,
                "mu_default must lie in (0, 1], got 2.0",
                13,
            ),
            (
                {3: "word a 1.0\n# mu_default 0.25\n"},
                3,
                "unexpected end of file, expected v line of 'a'",
                5,
            ),
        ],
        ids=[
            "v-keyword",
            "v-short",
            "v-bad-number",
            "v-inf",
            "m1-keyword",
            "m3-short",
            "m3-bad-number",
            "m4-overflow",
            "eof-after-m2",
            "comment-and-blank-counted",
            "v-fault-before-m1-keyword",
            "negative-alpha",
            "negative-alpha-before-m3-short",
            "layout-negative-count",
            "layout-no-dimension",
            "duplicate-word",
            "alpha-bad-number",
            "alpha-inf",
            "eof-after-word",
            "eof-then-blank-and-comment",
            "bad-number-beats-inf-in-its-row",
            "pragma-inf",
            "bad-pragma-on-the-last-line-of-a-truncated-block",
            "eof-after-a-valid-pragma-and-a-blank-line",
        ],
    )
    def test_first_fault_of_a_block_names_its_line(self, edits, keep, message, line):
        lines = [edits.get(k, text) for k, text in enumerate(TWO_WORDS[:keep], start=1)]
        with pytest.raises(LexiconFormatError) as err:
            loads("\n".join(lines) + "\n")
        assert str(err.value) == f"{message} (line {line})"
        assert err.value.line == line

    @pytest.mark.parametrize("char", OTHER_BREAKS, ids=repr)
    def test_other_line_breaks_are_whitespace_in_a_row(self, char):
        lines = list(TWO_WORDS)
        lines[3] = f"v 1.0{char}2.0 3.0 4.0{char}"
        assert loads("\n".join(lines) + "\n") == loads("\n".join(TWO_WORDS) + "\n")
        lines[9] = "v 0.5 x 1 2"
        text = "\n".join(lines) + "\n"
        with pytest.raises(LexiconFormatError) as err:
            loads(text)
        assert err.value.line == 10 == text[: text.index("x 1 2")].count("\n") + 1

    def test_bad_header_names_line_one(self):
        with pytest.raises(LexiconFormatError) as err:
            loads("NOTMAGIC 1\nlayout 2 1 1\n")
        assert err.value.line == 1

    def test_bad_layout_line(self):
        with pytest.raises(LexiconFormatError) as err:
            loads("TRIPSEM 1\nlayout 2 1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["2.0", "0.0", "-0.5"])
    def test_out_of_range_mu_default_pragma_names_its_line(self, value):
        text = f"TRIPSEM 1\nlayout 2 1 1\n\n# mu_default {value}\n"
        with pytest.raises(LexiconFormatError) as err:
            loads(text)
        assert err.value.line == 4
        assert "mu_default must lie in (0, 1]" in str(err.value)
        assert "(line 4)" in str(err.value)

    def test_bad_mu_default_pragma_is_reported_in_file_order(self):
        text = "NOTMAGIC 1\nlayout 2 1 1\nword a 1\nv x\n# mu_default 2.0\n"
        with pytest.raises(LexiconFormatError) as err:
            loads(text)
        assert str(err.value) == "bad header, expected 'TRIPSEM 1' (line 1)"

    def test_bad_mu_default_pragma_before_a_faulty_row_is_reported_first(self):
        lines = list(TWO_WORDS)
        lines[10:11] = ["# mu_default x", "m 2 0 0"]
        with pytest.raises(LexiconFormatError) as err:
            loads("\n".join(lines) + "\n")
        assert str(err.value) == "mu_default: bad number 'x' (line 11)"

    def test_first_faulty_block_is_reported_before_a_later_one(self):
        lines = list(TWO_WORDS)
        lines[10] = "m 2 x 0 0"  # block 2, line 11: a bad number
        lines += ["word c 1.0", "q 1 2 3 4"] + ["m 1 0 0 0"] * 4  # block 3: a bad keyword
        with pytest.raises(LexiconFormatError) as err:
            loads("\n".join(lines) + "\n")
        assert str(err.value) == "matrix row 1 of 'b': bad number 'x' (line 11)"

    def test_wrong_vector_length_names_its_line(self):
        text = "TRIPSEM 1\nlayout 2 1 1\nword a 1.0\nv 1.0 2.0\n"
        with pytest.raises(LexiconFormatError) as err:
            loads(text)
        assert err.value.line == 4
        assert "expected 4 values" in str(err.value)

    def test_bad_number_named(self):
        text = "TRIPSEM 1\nlayout 2 1 1\nword a 1.0\nv 1.0 2.0 x 4.0\n"
        with pytest.raises(LexiconFormatError) as err:
            loads(text)
        assert "bad number" in str(err.value) and err.value.line == 4

    def test_non_finite_rejected(self):
        text = "TRIPSEM 1\nlayout 2 1 1\nword a 1.0\nv 1.0 2.0 inf 4.0\n"
        with pytest.raises(LexiconFormatError) as err:
            loads(text)
        assert "non-finite" in str(err.value)

    def test_truncated_matrix(self):
        text = (
            "TRIPSEM 1\nlayout 2 1 1\nword a 1.0\n"
            "v 1.0 2.0 3.0 4.0\nm 1.0 0.0 0.0 0.0\n"
        )
        with pytest.raises(LexiconFormatError) as err:
            loads(text)
        assert "matrix row 2" in str(err.value)

    def test_duplicate_word(self):
        lex = init_random(["a"], LAY211, seed=0, noise=0.0)
        text = dumps(lex)
        body = text[text.index("word a") :]
        with pytest.raises(LexiconFormatError) as err:
            loads(text + body)
        assert "duplicate" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(LexiconFormatError) as err:
            loads("")
        assert str(err.value) == "unexpected end of file, expected header (line 0)"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# a comment\n\n# mu_default 0.25", "expected header (line 3)"),
            ("TRIPSEM 1\n\n", "expected layout line (line 2)"),
        ],
        ids=["comments-only", "header-only"],
    )
    def test_a_file_that_ends_before_its_layout_line(self, text, message):
        with pytest.raises(LexiconFormatError) as err:
            loads(text)
        assert str(err.value) == f"unexpected end of file, {message}"

    def test_header_and_layout_alone_are_an_empty_lexicon(self):
        lex = loads("TRIPSEM 1\nlayout 2 1 1\n")
        assert lex == Lexicon(LAY211) and len(lex) == 0 and lex.mu_default == 0.5


# Lines that are faulty, or out of place, almost anywhere in a lexicon
JUNK = [
    "", "junk", "TRIPSEM 1", "layout 1 1 1", "layout 1 1", "word a 1.0", "word c -1",
    "word c nan", "v 1 2 3", "v 1 2", "v 1 inf 3", "m 0 x 0", "m 1e400 0 0", "m 1 0 0 0",
    "# mu_default 2", "# mu_default x", "# mu_default 0.25", "# comment",
]


class TestFaultOrderProperties:
    @given(st.data())
    def test_a_fault_does_not_depend_on_the_lines_after_it(self, data):
        """Edit a dumped lexicon with junk lines until it has a fault at line
        L; junk in place of any lines after L leaves the same fault."""
        lex = init_random(["a", "b"], SegmentLayout(1, 1, 1), seed=4, noise=0.1)
        lines = dumps(lex).splitlines()
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(lines)))
            edit = data.draw(st.sampled_from(["insert", "replace", "delete"]))
            junk = data.draw(st.sampled_from(JUNK))
            lines[i : i + (edit != "insert")] = [] if edit == "delete" else [junk]
        newline, end = data.draw(st.sampled_from([("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")]))
        text = newline.join(lines) + end
        try:
            loads(text)
        except LexiconFormatError as exc:
            fault = exc
        else:
            return
        lines = text.splitlines()  # the file's own lines: no "" after its last newline
        for i in range(fault.line, len(lines)):
            lines[i] = data.draw(st.sampled_from([lines[i], *JUNK]))
        with pytest.raises(LexiconFormatError) as err:
            loads(newline.join(lines) + end)
        assert (str(err.value), err.value.line) == (str(fault), fault.line)


class TestTwoWordFixture:
    """The hand-written file must load to its documented entries."""

    def test_documented_values(self, fixtures_dir):
        lex = load(fixtures_dir / "two_word.lex")
        assert lex.layout == LAY211
        assert lex.mu_default == 0.5
        blue, red = lex["blue"], lex["red"]
        assert blue.alpha == 1.0 and red.alpha == 2.0
        assert blue.v.values.tolist() == [0.5, -0.25, 1.0, 2.0]
        assert red.v.values.tolist() == [0.5, -0.25, 1.0, -2.0]
        assert np.array_equal(blue.M.entries, np.eye(4))
        assert np.array_equal(red.M.entries, 0.5 * np.eye(4))
