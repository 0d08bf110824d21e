"""Per-character reference scanner, kept only as a test oracle.

This is the original hand-rolled C lexer that ``repro.cparse.lexer`` replaced
with one compiled pattern.  It walks the source one character at a time and is
easy to audit, so the differential tests check the production lexer against
it: same tokens, or the same ``LexError`` message, line and column.

It differs from the original in two error cases only:

* a bare ``#`` line raises ``LexError`` (it raised ``IndexError``);
* numbers are ASCII ``[0-9]`` only, so ``²`` or ``٣`` is an unexpected
  character (``str.isdigit`` made them integer literals).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.cparse.lexer import KEYWORDS, LexError, Token, TokenKind

_PUNCTUATORS = (
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
    ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


class ReferenceLexer:
    """Scanner over a source string with a character cursor."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        if idx >= len(self.source):
            return ""
        return self.source[idx]

    def _advance(self, count: int = 1) -> str:
        consumed = self.source[self.pos : self.pos + count]
        for ch in consumed:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += len(consumed)
        return consumed

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    def _scan_identifier(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, col)

    def _scan_number(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        is_float = False
        while _is_digit(self._peek()):
            self._advance()
        if self._peek() == "." and _is_digit(self._peek(1)):
            is_float = True
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
        if self._peek() in ("e", "E") and (
            _is_digit(self._peek(1))
            or (self._peek(1) in "+-" and _is_digit(self._peek(2)))
        ):
            is_float = True
            self._advance()
            if self._peek() and self._peek() in "+-":
                self._advance()
            while _is_digit(self._peek()):
                self._advance()
        while self._peek() and self._peek() in "fFlLuU":
            is_float = is_float or self._peek() in "fF"
            self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
        return Token(kind, text, line, col)

    def _scan_string(self, quote: str) -> Token:
        line, col = self.line, self.col
        start = self.pos
        self._advance()
        while not self._at_end() and self._peek() != quote:
            if self._peek() == "\\":
                self._advance()
            self._advance()
        if self._at_end():
            raise LexError("unterminated string literal", line, col)
        self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.STRING_LIT if quote == '"' else TokenKind.CHAR_LIT
        return Token(kind, text, line, col)

    def _scan_line_comment(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        while not self._at_end() and self._peek() != "\n":
            self._advance()
        return Token(TokenKind.COMMENT, self.source[start : self.pos], line, col)

    def _scan_block_comment(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        self._advance(2)
        while not self._at_end() and not (self._peek() == "*" and self._peek(1) == "/"):
            self._advance()
        if self._at_end():
            raise LexError("unterminated block comment", line, col)
        self._advance(2)
        return Token(TokenKind.COMMENT, self.source[start : self.pos], line, col)

    def _scan_directive(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        self._advance()
        while not self._at_end() and self._peek() != "\n":
            if self._peek() == "\\" and self._peek(1) == "\n":
                self._advance(2)
                continue
            self._advance()
        text = self.source[start : self.pos]
        body = text[1:].strip()
        if body.startswith("pragma"):
            directive = body[len("pragma") :].strip()
            return Token(TokenKind.PRAGMA, directive, line, col)
        if body.startswith("include"):
            return Token(TokenKind.INCLUDE, body, line, col)
        if body.startswith(("define", "ifdef", "ifndef", "endif", "else")):
            return Token(TokenKind.COMMENT, text, line, col)
        if not body:
            raise LexError("empty preprocessor directive", line, col)
        raise LexError(f"unsupported preprocessor directive {body.split()[0]!r}", line, col)

    def tokens(self) -> Iterator[Token]:
        while not self._at_end():
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
                continue
            if ch == "#":
                yield self._scan_directive()
                continue
            if ch == "/" and self._peek(1) == "/":
                yield self._scan_line_comment()
                continue
            if ch == "/" and self._peek(1) == "*":
                yield self._scan_block_comment()
                continue
            if ch.isalpha() or ch == "_":
                yield self._scan_identifier()
                continue
            if _is_digit(ch) or (ch == "." and _is_digit(self._peek(1))):
                yield self._scan_number()
                continue
            if ch in "\"'":
                yield self._scan_string(ch)
                continue
            for punct in _PUNCTUATORS:
                if self.source.startswith(punct, self.pos):
                    line, col = self.line, self.col
                    self._advance(len(punct))
                    yield Token(TokenKind.PUNCT, punct, line, col)
                    break
            else:
                raise LexError(f"unexpected character {ch!r}", self.line, self.col)
        yield Token(TokenKind.EOF, "", self.line, self.col)


def reference_tokenize(source: str, *, keep_comments: bool = False) -> List[Token]:
    """Tokenize ``source`` with the reference scanner; same contract as
    :func:`repro.cparse.lexer.tokenize`."""
    toks = list(ReferenceLexer(source).tokens())
    if keep_comments:
        return toks
    return [t for t in toks if t.kind is not TokenKind.COMMENT]
