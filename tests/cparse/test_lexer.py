"""Unit tests for the C/OpenMP lexer."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import StaticRaceDetector
from repro.cparse.lexer import LexError, Token, TokenKind, tokenize
from repro.cparse.parser import ParseError


def kinds(tokens):
    return [t.kind for t in tokens]


class TestBasicTokens:
    def test_identifier_and_keyword(self):
        toks = tokenize("int foo;")
        assert toks[0].kind is TokenKind.KEYWORD and toks[0].text == "int"
        assert toks[1].kind is TokenKind.IDENT and toks[1].text == "foo"
        assert toks[2].is_punct(";")
        assert toks[-1].kind is TokenKind.EOF

    def test_integer_literal(self):
        toks = tokenize("x = 1000;")
        lit = [t for t in toks if t.kind is TokenKind.INT_LIT]
        assert len(lit) == 1 and lit[0].text == "1000"

    def test_float_literal(self):
        toks = tokenize("double y = 3.14;")
        assert any(t.kind is TokenKind.FLOAT_LIT and t.text == "3.14" for t in toks)

    def test_float_exponent(self):
        toks = tokenize("a = 1e-4;")
        assert any(t.kind is TokenKind.FLOAT_LIT for t in toks)

    def test_string_literal(self):
        toks = tokenize('printf("a[500]=%d\\n", a[500]);')
        strings = [t for t in toks if t.kind is TokenKind.STRING_LIT]
        assert len(strings) == 1
        assert strings[0].text.startswith('"')

    def test_char_literal(self):
        toks = tokenize("c = 'x';")
        assert any(t.kind is TokenKind.CHAR_LIT for t in toks)

    def test_multichar_punctuators(self):
        toks = tokenize("a += b; c && d; e <= f; g++;")
        texts = [t.text for t in toks if t.kind is TokenKind.PUNCT]
        assert "+=" in texts and "&&" in texts and "<=" in texts and "++" in texts


class TestDirectivesAndComments:
    def test_include(self):
        toks = tokenize("#include <stdio.h>\nint x;")
        assert toks[0].kind is TokenKind.INCLUDE
        assert "<stdio.h>" in toks[0].text

    def test_pragma_token_text(self):
        toks = tokenize("#pragma omp parallel for private(i)\nfor (i=0;i<10;i++) ;")
        pragma = toks[0]
        assert pragma.kind is TokenKind.PRAGMA
        assert pragma.text == "omp parallel for private(i)"

    def test_pragma_line_continuation(self):
        src = "#pragma omp parallel for \\\n  reduction(+:sum)\nx = 1;"
        toks = tokenize(src)
        assert toks[0].kind is TokenKind.PRAGMA
        assert "reduction(+:sum)" in toks[0].text

    def test_comments_dropped_by_default(self):
        src = "/* block */\n// line\nint x;"
        toks = tokenize(src)
        assert all(t.kind is not TokenKind.COMMENT for t in toks)

    def test_comments_kept_on_request(self):
        src = "/* Data race pair: a[i+1]@64:10:R vs. a[i]@64:5:W */\nint x;"
        toks = tokenize(src, keep_comments=True)
        comments = [t for t in toks if t.kind is TokenKind.COMMENT]
        assert len(comments) == 1
        assert "Data race pair" in comments[0].text

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"open')


class TestErrorContract:
    """Every front-end failure is a ``LexError`` with a location, never an
    untyped exception from inside the scanner."""

    @pytest.mark.parametrize(
        "source, line, col", [("#\nint x;", 1, 1), ("int x;\n  #   \nint y;", 2, 3)]
    )
    def test_bare_hash_line_raises_lex_error(self, source, line, col):
        with pytest.raises(LexError, match="empty preprocessor directive") as info:
            tokenize(source)
        assert (info.value.line, info.value.col) == (line, col)

    def test_bare_hash_line_through_the_analyzer(self):
        with pytest.raises(LexError):
            StaticRaceDetector().analyze_source("#\nint main() { return 0; }")

    # Superscript two, vulgar half, Arabic-Indic three.
    @pytest.mark.parametrize("digit", ["\u00b2", "\u00bd", "\u0663"])
    def test_non_ascii_digit_is_an_unexpected_character(self, digit):
        with pytest.raises(LexError, match="unexpected character") as info:
            tokenize(f"int x = {digit};")
        assert (info.value.line, info.value.col) == (1, 9)

    def test_non_ascii_digit_through_the_analyzer(self):
        with pytest.raises(LexError):
            StaticRaceDetector().analyze_source("int main() { int x = \u00b2; return x; }")

    def test_non_ascii_digit_does_not_extend_an_exponent(self):
        toks = tokenize("x = 1E\u00b2;")
        assert [(t.kind, t.text) for t in toks[2:4]] == [
            (TokenKind.INT_LIT, "1"),
            (TokenKind.IDENT, "E\u00b2"),
        ]
        with pytest.raises(ParseError):
            StaticRaceDetector().analyze_source("int main() { double x = 1E\u00b2; return 0; }")

    def test_unicode_identifiers_keep_their_rule(self):
        # Start: str.isalpha() or "_"; continue: str.isalnum() or "_".
        toks = tokenize("\u00e92 = \u00df\u00b2 + x\u0663;")
        idents = [t.text for t in toks if t.kind is TokenKind.IDENT]
        assert idents == ["\u00e92", "\u00df\u00b2", "x\u0663"]


class TestLocations:
    def test_line_and_column_tracking(self):
        src = "int a;\n  a = 1;\n"
        toks = tokenize(src)
        a_tokens = [t for t in toks if t.kind is TokenKind.IDENT and t.text == "a"]
        assert a_tokens[0].line == 1 and a_tokens[0].col == 5
        assert a_tokens[1].line == 2 and a_tokens[1].col == 3

    def test_columns_after_tabs_and_spaces(self):
        toks = tokenize("    x = y + z;")
        x = next(t for t in toks if t.text == "x")
        assert x.col == 5

    def test_multiline_positions(self):
        src = "int main()\n{\n  int i;\n}\n"
        toks = tokenize(src)
        brace = next(t for t in toks if t.is_punct("{"))
        assert brace.line == 2 and brace.col == 1


class TestLexerProperties:
    @given(
        st.lists(
            st.sampled_from(["x", "y", "foo", "1", "42", "+", "-", "*", ";", "(", ")"]),
            min_size=1,
            max_size=30,
        )
    )
    def test_token_count_matches_word_stream(self, pieces):
        """Space-separated simple tokens round-trip one-to-one (plus EOF)."""
        source = " ".join(pieces)
        toks = tokenize(source)
        assert len(toks) == len(pieces) + 1

    @given(st.text(alphabet="abcxyz_ (){}[];=+-*/<>0123456789\n\t", max_size=200))
    def test_terminates_on_supported_alphabet(self, text):
        """The lexer either tokenizes or reports a LexError; it never hangs or
        raises anything else (unterminated ``/*`` comments are legal failures)."""
        try:
            tokens = tokenize(text)
        except LexError:
            return
        assert tokens[-1].kind is TokenKind.EOF

    @given(st.integers(min_value=0, max_value=10**9))
    def test_integer_values_preserved(self, value):
        toks = tokenize(f"x = {value};")
        lit = next(t for t in toks if t.kind is TokenKind.INT_LIT)
        assert int(lit.text) == value
