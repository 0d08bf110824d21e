"""Differential tests: the compiled-pattern lexer against the reference
per-character scanner (``reference_lexer.py``).

For any input both must agree exactly: the same token list, or a
``LexError`` with the same message, line and column.
"""

from hypothesis import given, strategies as st

from reference_lexer import reference_tokenize
from repro.cparse.lexer import LexError, tokenize

#: Fragments that exercise every token shape and every error path.
_FRAGMENTS = [
    # punctuation, longest first where prefixes overlap
    "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
    ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
    # comments
    "/*", "*/", "//", "/* note */", "/**/",
    # literals, quotes and escapes
    '"', "'", "\\", '\\"', "\\'", "\\\\", "\\n", '"a[%d]\\n"', "'x'",
    # numbers and the pieces numbers are built from
    "0", "7", "42", "3.14", ".5", "1e5", "2E-3", "6e+2", "1.5f", "10UL",
    "7f", "e", "E", "f", "L", "u",
    # identifiers and keywords
    "x", "a_1", "_t", "int", "for", "omp",
    # directives and line continuations
    "#", "#pragma omp parallel for", "#pragma omp critical \\\n (c)",
    "#include <stdio.h>", "#define N 10", "#ifdef X", "#endif", "#line 3",
    "\\\n",
    # whitespace, including the ones the scanner rejects
    " ", "\t", "\n", "\r", "\r\n", "\f",
    # characters no token starts with
    "@", "$", "`",
    # non-ASCII letters and numerics
    "é", "ß", "²", "½", "٣",
]

_ALPHABET = sorted({ch for fragment in _FRAGMENTS for ch in fragment})


def _outcome(lex, source, keep_comments):
    try:
        return lex(source, keep_comments=keep_comments)
    except LexError as exc:
        return (str(exc), exc.line, exc.col)


#: Fragments the reference scanner accepts on their own, so lines built from
#: them exercise long valid streams rather than stopping at the first error.
_VALID_FRAGMENTS = [
    f for f in _FRAGMENTS if isinstance(_outcome(reference_tokenize, f, False), list)
]


def _assert_same(source, keep_comments):
    assert _outcome(tokenize, source, keep_comments) == _outcome(
        reference_tokenize, source, keep_comments
    )


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map("".join), st.booleans())
def test_fragment_streams_match_reference(source, keep_comments):
    _assert_same(source, keep_comments)


@given(
    st.lists(st.lists(st.sampled_from(_VALID_FRAGMENTS), max_size=12).map(" ".join), max_size=12)
    .map("\n".join),
    st.booleans(),
)
def test_valid_lines_match_reference(source, keep_comments):
    _assert_same(source, keep_comments)


@given(st.text(alphabet=_ALPHABET, max_size=120), st.booleans())
def test_character_streams_match_reference(source, keep_comments):
    _assert_same(source, keep_comments)


@given(st.text(max_size=80), st.booleans())
def test_arbitrary_text_matches_reference(source, keep_comments):
    _assert_same(source, keep_comments)
