"""Differential tests: the span-scanner comment trimmer against the
token-walking reference trimmer (``reference_trim.py``).

For any input both must agree exactly: the same ``TrimResult``, or a
``LexError`` with the same message, line and column.
"""

from hypothesis import given, strategies as st

from reference_trim import reference_trim_comments
from repro.cparse.lexer import LexError
from repro.dataset.trim import trim_comments

#: Fragments that put every span shape next to the others.
_FRAGMENTS = [
    # code
    "int", "x", "a_1", "42", "3.5f", "=", ";", "(", ")", "{", "}", "*", "/", "/=", "*/",
    "a / b", "p->q", "...",
    # comments
    "/*", "//", "/* note */", "/**/", "/***/", "/* a\nb */", "// tail", "/* x // y */",
    # comment openers inside string and char literals
    '"', "'", '"/*"', '"// x"', "'/'", "'*'", "'/*'", '"a \\" /* b"', "'\\''", '"a\nb"',
    # directives, ignored ones and continuations
    "#", "#pragma omp parallel for", "#pragma omp critical // note",
    "#pragma omp parallel /* c */", "#include <stdio.h>", "#define N 10",
    "#define F(x) \\\n  ((x) + 1)", "#define G \\\n", "#  define Y", "#ifdef X",
    "#ifndef X", "#else", "#endif", "#line 3", "#\\\ndefine Z",
    # stray characters no token starts with
    "\\", "@", "$", "`",
    # Unicode identifiers, a non-ASCII numeric
    "é", "ß", "名前", "²",
    # whitespace, CRLF, and separators only ``str.splitlines`` breaks at
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029",
]

_ALPHABET = sorted({ch for fragment in _FRAGMENTS for ch in fragment})


def _outcome(trim, source):
    try:
        return trim(source)
    except LexError as exc:
        return (str(exc), exc.line, exc.col)


def _assert_same(source):
    assert _outcome(trim_comments, source) == _outcome(reference_trim_comments, source)


#: Fragments the reference accepts on their own, so lines built from them
#: exercise long accepted sources rather than stopping at the first error.
_VALID_FRAGMENTS = [
    f for f in _FRAGMENTS if not isinstance(_outcome(reference_trim_comments, f), tuple)
]


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map("".join))
def test_fragment_streams_match_reference(source):
    _assert_same(source)


@given(
    st.lists(st.lists(st.sampled_from(_VALID_FRAGMENTS), max_size=12).map(" ".join), max_size=12)
    .map("\n".join)
)
def test_valid_lines_match_reference(source):
    _assert_same(source)


@given(st.text(alphabet=_ALPHABET, max_size=120))
def test_character_streams_match_reference(source):
    _assert_same(source)
