"""Unit tests for the Fortran-subset lexer."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fortran.errors import LexError
from repro.fortran.lexer import tokenize_line
from repro.fortran.preprocessor import preprocess
from repro.fortran.tokens import TokenType
from repro.model import ModelConfig, build_model_source, list_patches


def types_and_values(text):
    toks = tokenize_line(text)
    return [(t.type, t.value) for t in toks if t.type is not TokenType.EOL]


class TestNames:
    def test_simple_identifier(self):
        assert types_and_values("gravit") == [(TokenType.NAME, "gravit")]

    def test_identifiers_are_lowercased(self):
        assert types_and_values("Gravit QRL") == [
            (TokenType.NAME, "gravit"),
            (TokenType.NAME, "qrl"),
        ]

    def test_identifier_with_digits_and_underscores(self):
        assert types_and_values("micro_mg_tend2") == [
            (TokenType.NAME, "micro_mg_tend2")
        ]


class TestNumbers:
    def test_integer(self):
        assert types_and_values("42") == [(TokenType.INTEGER, "42")]

    def test_simple_real(self):
        assert types_and_values("3.14") == [(TokenType.REAL, "3.14")]

    def test_real_with_exponent(self):
        assert types_and_values("8.1328e-3") == [(TokenType.REAL, "8.1328e-3")]

    def test_real_with_d_exponent(self):
        assert types_and_values("1.d0") == [(TokenType.REAL, "1.d0")]

    def test_real_with_kind_suffix(self):
        assert types_and_values("0.20_r8") == [(TokenType.REAL, "0.20_r8")]

    def test_integer_with_kind_suffix(self):
        assert types_and_values("1_i8") == [(TokenType.INTEGER, "1_i8")]

    def test_real_trailing_dot(self):
        assert types_and_values("2. * x") == [
            (TokenType.REAL, "2."),
            (TokenType.OPERATOR, "*"),
            (TokenType.NAME, "x"),
        ]

    def test_leading_dot_real(self):
        assert types_and_values(".5") == [(TokenType.REAL, ".5")]

    def test_number_followed_by_dotop(self):
        # "1 .and." style is unusual but the dot must not be eaten by the number
        vals = types_and_values("i == 1 .and. flag")
        assert (TokenType.DOTOP, ".and.") in vals

    def test_integer_abutting_dot_eq(self):
        # "1.eq.2" must not lex as REAL "1." / NAME "eq" / REAL ".2"
        assert types_and_values("1.eq.2") == [
            (TokenType.INTEGER, "1"),
            (TokenType.OPERATOR, "=="),
            (TokenType.INTEGER, "2"),
        ]

    def test_integer_abutting_dot_and(self):
        assert types_and_values("1.and.x") == [
            (TokenType.INTEGER, "1"),
            (TokenType.DOTOP, ".and."),
            (TokenType.NAME, "x"),
        ]

    def test_dot_exponent_still_real(self):
        assert types_and_values("2.e3") == [(TokenType.REAL, "2.e3")]

    def test_dot_d_exponent_still_real(self):
        assert types_and_values("1.d0") == [(TokenType.REAL, "1.d0")]

    def test_one_line_if_with_dot_eq(self):
        vals = types_and_values("if (1.eq.2) x = 1")
        assert (TokenType.INTEGER, "1") in vals
        assert (TokenType.OPERATOR, "==") in vals
        assert all(t is not TokenType.REAL for t, _ in vals)

    def test_real_abutting_dotop(self):
        # the fractional part ends where the dot-operator begins
        assert types_and_values("1.5.and.x") == [
            (TokenType.REAL, "1.5"),
            (TokenType.DOTOP, ".and."),
            (TokenType.NAME, "x"),
        ]


class TestStringsAndLogicals:
    def test_single_quoted_string(self):
        assert types_and_values("'QRL'") == [(TokenType.STRING, "QRL")]

    def test_double_quoted_string(self):
        assert types_and_values('"WSUB"') == [(TokenType.STRING, "WSUB")]

    def test_escaped_quote(self):
        assert types_and_values("'don''t'") == [(TokenType.STRING, "don't")]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize_line("'oops")

    def test_true_false(self):
        assert types_and_values(".true. .false.") == [
            (TokenType.LOGICAL, ".true."),
            (TokenType.LOGICAL, ".false."),
        ]

    def test_string_with_exclamation_is_not_comment(self):
        assert types_and_values("'a!b'") == [(TokenType.STRING, "a!b")]


class TestOperators:
    def test_arithmetic_operators(self):
        vals = [v for _, v in types_and_values("a + b - c * d / e ** f")]
        assert vals == ["a", "+", "b", "-", "c", "*", "d", "/", "e", "**", "f"]

    def test_relational_operators(self):
        vals = [v for _, v in types_and_values("a <= b >= c == d /= e")]
        assert "<=" in vals and ">=" in vals and "==" in vals and "/=" in vals

    def test_old_style_relational_operators_are_normalised(self):
        vals = [v for t, v in types_and_values("a .lt. b .ge. c .eq. d")]
        assert "<" in vals and ">=" in vals and "==" in vals

    def test_dot_logical_operators(self):
        out = types_and_values("a .and. b .or. .not. c")
        dotops = [v for t, v in out if t is TokenType.DOTOP]
        assert dotops == [".and.", ".or.", ".not."]

    def test_double_colon_and_arrow(self):
        vals = [v for _, v in types_and_values("real(r8) :: x => null()")]
        assert "::" in vals and "=>" in vals

    def test_percent_operator(self):
        vals = [v for _, v in types_and_values("state%omega(i,k)")]
        assert "%" in vals

    def test_comment_is_stripped(self):
        assert types_and_values("x ! a comment = 4") == [(TokenType.NAME, "x")]

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize_line("a $ b")


class TestStatementShapes:
    def test_assignment_statement(self):
        out = types_and_values("wsub(i) = 0.20_r8 * sqrt(tke(i,k))")
        names = [v for t, v in out if t is TokenType.NAME]
        assert names == ["wsub", "i", "sqrt", "tke", "i", "k"]
        # kind suffix stays attached to the literal, not a separate NAME
        assert (TokenType.REAL, "0.20_r8") in out

    def test_call_statement(self):
        out = types_and_values("call outfld('QRL', qrl, pcols, lchnk)")
        assert out[0] == (TokenType.NAME, "call")
        assert (TokenType.STRING, "QRL") in out

    def test_semicolon_emits_eol(self):
        toks = tokenize_line("a = 1; b = 2")
        assert sum(1 for t in toks if t.type is TokenType.EOL and t.value == ";") == 1


class TestLexerProperties:
    @given(st.from_regex(r"[a-z][a-z0-9_]{0,20}", fullmatch=True))
    def test_any_identifier_roundtrips(self, name):
        out = types_and_values(name)
        assert out == [(TokenType.NAME, name)]

    @given(st.integers(min_value=0, max_value=10**9))
    def test_any_integer_roundtrips(self, value):
        out = types_and_values(str(value))
        assert out == [(TokenType.INTEGER, str(value))]

    @given(
        st.floats(
            min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
        )
    )
    def test_any_float_repr_lexes_as_real(self, value):
        text = repr(float(value))
        out = types_and_values(text)
        assert len(out) == 1
        assert out[0][0] in (TokenType.REAL, TokenType.INTEGER)

    @given(st.text(alphabet="abcdefghij_ ()+-*/,=%", max_size=40))
    def test_lexer_never_crashes_on_benign_alphabet(self, text):
        # Either tokenizes or raises LexError -- never any other exception.
        try:
            tokenize_line(text)
        except LexError:
            pass

    @given(st.lists(st.sampled_from(["a", "b1", "c_2", "x"]), min_size=1, max_size=6))
    def test_token_count_matches_word_count(self, words):
        text = " ".join(words)
        out = types_and_values(text)
        assert len(out) == len(words)


def located(text):
    """``(type name, value, column)`` of every token, EOL included."""
    return [(t.type.name, t.value, t.location.column) for t in tokenize_line(text)]


class TestEdgeCases:
    """Where a per-character lexer and a pattern could part ways."""

    @pytest.mark.parametrize("text,tokens", [
        # a dot before e/d is a decimal point even with no exponent digit
        ("1.e", [("REAL", "1.", 1), ("NAME", "e", 3), ("EOL", "", 4)]),
        ("1.e5_r8", [("REAL", "1.e5_r8", 1), ("EOL", "", 8)]),
        ("1.eq.2", [("INTEGER", "1", 1), ("OPERATOR", "==", 2),
                    ("INTEGER", "2", 6), ("EOL", "", 7)]),
        ("1.eqv.2", [("INTEGER", "1", 1), ("DOTOP", ".eqv.", 2),
                     ("INTEGER", "2", 7), ("EOL", "", 8)]),
        (".5", [("REAL", ".5", 1), ("EOL", "", 3)]),
        # a kind suffix needs a name character after the underscore
        ("1_+", [("INTEGER", "1", 1), ("NAME", "_", 2),
                 ("OPERATOR", "+", 3), ("EOL", "", 4)]),
        (".EQ.", [("OPERATOR", "==", 1), ("EOL", "", 5)]),
        ("a;b", [("NAME", "a", 1), ("EOL", ";", 2), ("NAME", "b", 3),
                 ("EOL", "", 4)]),
        ("a\tb", [("NAME", "a", 1), ("NAME", "b", 3), ("EOL", "", 4)]),
        ("'don''t'", [("STRING", "don't", 1), ("EOL", "", 9)]),
        # the line's EOL sits where the comment starts
        ("x ! c", [("NAME", "x", 1), ("EOL", "", 3)]),
    ])
    def test_tokens_and_columns(self, text, tokens):
        assert located(text) == tokens

    def test_unterminated_string_names_its_column(self):
        with pytest.raises(LexError, match=r":3: unterminated string literal"):
            tokenize_line("a 'oops")
        with pytest.raises(LexError, match="unterminated string literal"):
            tokenize_line("'a" + "''")  # a doubled quote closes nothing

    def test_a_dot_before_a_name_is_no_number(self):
        with pytest.raises(LexError, match=r":2: unexpected character '\.'"):
            tokenize_line("1.x")

    def test_kelvin_sign_is_an_unexpected_character(self):
        """Source outside strings and comments is ASCII: U+212A KELVIN SIGN
        (which ``str.lower`` maps to ``k``) is no name character."""
        for text in ("\u212a", "a\u212a", "1_\u212a"):
            with pytest.raises(LexError, match="unexpected character"):
                tokenize_line(text)
        assert located("'\u212a' ! \u212a") == [
            ("STRING", "\u212a", 1), ("EOL", "", 5)]


#: sha256 of every token of every logical line of every file (compiled or
#: not) of the control build and of each registered patch's build, taken
#: with the per-character lexer the pattern replaced
MODEL_TOKENS_SHA256 = "ae03d0cba2043bf3813e32f938319799a40fb95ca43fbc364c1755d43b4f7133"


def test_every_model_line_lexes_as_pinned():
    digest = hashlib.sha256()
    lines = 0
    for patches in [()] + [(name,) for name in list_patches()]:
        src = build_model_source(ModelConfig(patches=patches))
        for name, text in src.files.items():
            digest.update(repr((patches, name)).encode() + b"\n")
            for line in preprocess(text, filename=name, macros=src.macros).lines:
                lines += 1
                for t in tokenize_line(line.text, filename=name, line=line.line):
                    digest.update(repr((t.type.name, t.value, t.location.line,
                                        t.location.column)).encode() + b"\n")
    assert lines == 10986
    assert digest.hexdigest() == MODEL_TOKENS_SHA256
