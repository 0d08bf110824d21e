"""Tokenizer for the C-with-OpenMP subset used by the corpus.

The scanner is one compiled regular expression with a named group per token
shape (whitespace, identifier, number, comment, directive, literal,
punctuator) and a one-character catch-all.  :func:`tokenize` walks its
matches in order and derives line and column from newline offsets as it goes.
Every failure is a :class:`LexError` that carries the line and column where
the offending token starts: an unterminated string, character literal or
block comment, an empty or unsupported preprocessor directive, or a character
that starts no token.  Numbers are ASCII ``[0-9]`` only; identifiers start
with a letter (``str.isalpha``) or ``_`` and continue with ``str.isalnum``
or ``_``.  The grammar is deliberately small (no trigraphs, line
continuations only inside directives, no preprocessor beyond ``#include``
and ``#pragma``) because the corpus generator controls the input.

The lexer tracks 1-based line and column numbers for every token so that the
analyses built on top of the parser (access extraction, variable-pair ground
truth, dynamic instrumentation) can report source locations in the same
``line:col`` convention DataRaceBench uses in its header comments.

Comments are tokens, dropped unless ``keep_comments`` is set.  The comment
trimmer behind DRB-ML's ``trimmed_code`` (paper §3.1) does not lex: it scans
with the comment, directive and literal patterns below and calls
:func:`tokenize` only to validate a source it cannot vouch for.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

__all__ = ["TokenKind", "Token", "LexError", "tokenize"]


class TokenKind(enum.Enum):
    """Lexical categories produced by :func:`tokenize`."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT_LIT = "int_lit"
    FLOAT_LIT = "float_lit"
    CHAR_LIT = "char_lit"
    STRING_LIT = "string_lit"
    PUNCT = "punct"
    PRAGMA = "pragma"
    INCLUDE = "include"
    COMMENT = "comment"
    NEWLINE = "newline"
    EOF = "eof"


#: Keywords of the supported C subset.  ``omp_lock_t`` style typedef names are
#: handled as identifiers by the parser's declaration logic.
KEYWORDS = frozenset(
    {
        "int",
        "long",
        "float",
        "double",
        "char",
        "void",
        "unsigned",
        "signed",
        "short",
        "const",
        "static",
        "struct",
        "if",
        "else",
        "for",
        "while",
        "do",
        "return",
        "break",
        "continue",
        "sizeof",
    }
)

#: Multi-character punctuators, longest first so greedy matching is correct.
PUNCTUATORS = (
    "<<=",
    ">>=",
    "...",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
)


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    Attributes
    ----------
    kind:
        The :class:`TokenKind` category.
    text:
        The exact source text of the token.  For :attr:`TokenKind.PRAGMA`
        tokens this is the full directive text after ``#pragma`` (e.g.
        ``"omp parallel for private(i)"``).
    line:
        1-based source line of the first character.
    col:
        1-based source column of the first character.
    """

    kind: TokenKind
    text: str
    line: int
    col: int

    def is_punct(self, text: str) -> bool:
        """Return ``True`` when this token is the punctuator ``text``."""
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        """Return ``True`` when this token is the keyword ``text``."""
        return self.kind is TokenKind.KEYWORD and self.text == text


class LexError(ValueError):
    """Raised for input the lexer cannot tokenize.

    ``line`` and ``col`` (1-based) locate the start of the offending token;
    the message ends with ``at line:col``.
    """

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col


#: Directives the lexer keeps as PRAGMA and INCLUDE tokens.
KEPT_DIRECTIVES = ("pragma", "include")

#: Directives the analyses ignore; they lex as COMMENT tokens.
DIRECTIVE_COMMENTS = ("define", "ifdef", "ifndef", "endif", "else")

#: The token shapes that may contain ``/``, ``"``, ``'`` or ``#``.  The
#: comment trimmer (``dataset/trim.py``) builds its span scanner from these
#: same strings, so both find the same comments, directives and literals.
COMMENT_PATTERN = r"//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
DIRECTIVE_PATTERN = r"\#(?:[^\\\n]|\\\n?)*"
STRING_PATTERN = r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"'
CHAR_PATTERN = r"'[^'\\]*(?:\\[\s\S][^'\\]*)*'"

#: The whole scanner: one alternative per token shape, tried in order at each
#: offset.  ``\w`` is exactly ``str.isalnum()`` or ``_``.  ``re`` has no class
#: for ``str.isalpha``, so ``UIDENT`` takes any other word character that is
#: not a decimal digit and :func:`_rare_token` rejects a non-letter start
#: (``²``, ``½``).  ``OPEN_COMMENT`` and ``OTHER`` (any single character the
#: rest reject, such as an unterminated quote) are error paths.
_TOKEN_RE = re.compile(
    rf"""
    (?P<SPACE>[ \t\r]+)
    |(?P<NEWLINE>\n[ \t\r]*)
    |(?P<IDENT>[A-Za-z_]\w*)
    |(?P<UIDENT>[^\W\d_]\w*)
    |(?P<FLOAT>
        (?:[0-9]+\.[0-9]+|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fFlLuU]*
        |[0-9]+[eE][+-]?[0-9]+[fFlLuU]*
        |[0-9]+[lLuU]*[fF][fFlLuU]*)
    |(?P<INT>[0-9]+[lLuU]*)
    |(?P<COMMENT>{COMMENT_PATTERN})
    |(?P<OPEN_COMMENT>/\*)
    |(?P<DIRECTIVE>{DIRECTIVE_PATTERN})
    |(?P<STRING>{STRING_PATTERN})
    |(?P<CHAR>{CHAR_PATTERN})
    |(?P<PUNCT>{"|".join(re.escape(p) for p in PUNCTUATORS)})
    |(?P<OTHER>[\s\S])
    """,
    re.VERBOSE,
)

_PUNCT = TokenKind.PUNCT
_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
_INT = TokenKind.INT_LIT
_COMMENT = TokenKind.COMMENT

_KIND_OF_GROUP = {
    "FLOAT": TokenKind.FLOAT_LIT,
    "COMMENT": _COMMENT,
    "STRING": TokenKind.STRING_LIT,
    "CHAR": TokenKind.CHAR_LIT,
}

# The hot loop fills a token's fields itself, as the frozen dataclass's
# generated ``__init__`` would, without that call's frame; the instances are
# identical.
_new_token = object.__new__
_set_field = object.__setattr__


def _rare_token(group: str, text: str, line: int, col: int) -> Token:
    """Token, or ``LexError``, for a group the hot loop does not build itself."""
    kind = _KIND_OF_GROUP.get(group)
    if kind is not None:
        return Token(kind, text, line, col)
    if group == "DIRECTIVE":
        body = text[1:].strip()
        if body.startswith(KEPT_DIRECTIVES):
            if body.startswith("pragma"):
                return Token(TokenKind.PRAGMA, body[len("pragma") :].strip(), line, col)
            return Token(TokenKind.INCLUDE, body, line, col)
        if body.startswith(DIRECTIVE_COMMENTS):
            # The analyses ignore other preprocessor lines, but the trimming
            # pipeline keeps their line positions, so they lex as comments.
            return Token(_COMMENT, text, line, col)
        if not body:
            raise LexError("empty preprocessor directive", line, col)
        raise LexError(f"unsupported preprocessor directive {body.split()[0]!r}", line, col)
    if group == "UIDENT" and text[0].isalpha():
        return Token(_IDENT, text, line, col)
    if group == "OPEN_COMMENT":
        raise LexError("unterminated block comment", line, col)
    if text in ('"', "'"):
        raise LexError("unterminated string literal", line, col)
    raise LexError(f"unexpected character {text[0]!r}", line, col)


def tokenize(source: str, *, keep_comments: bool = False) -> List[Token]:
    """Tokenize ``source`` into a list of tokens ending with one EOF token.

    Parameters
    ----------
    source:
        C source text.
    keep_comments:
        When ``False`` (the default) comment tokens are dropped, which is what
        the parser wants.  ``True`` keeps the COMMENT tokens, including the
        ignored directives of :data:`DIRECTIVE_COMMENTS`.

    Raises
    ------
    LexError
        On an unterminated string, character literal or block comment, an
        empty or unsupported preprocessor directive, or a character that
        starts no token.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "SPACE":
            continue
        start = m.start()
        if group == "NEWLINE":
            line += 1
            line_start = start + 1
            continue
        text = m.group()
        col = start - line_start + 1
        if group == "PUNCT":
            kind = _PUNCT
        elif group == "IDENT":
            kind = _KEYWORD if text in KEYWORDS else _IDENT
        elif group == "INT":
            kind = _INT
        else:
            token = _rare_token(group, text, line, col)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            if token.kind is _COMMENT and not keep_comments:
                continue
            append(token)
            continue
        token = _new_token(Token)
        _set_field(token, "kind", kind)
        _set_field(token, "text", text)
        _set_field(token, "line", line)
        _set_field(token, "col", col)
        append(token)
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
