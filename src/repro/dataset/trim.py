"""Comment trimming with line re-mapping.

DRB-ML stores both the original code (``DRB_code``) and a ``trimmed_code``
with every comment removed; the ``var_pairs`` line numbers refer to the
*trimmed* code (paper §3.1: "the 'line' value in DRB-ML is based on the code
without comments").  Because the ground truth of the corpus is recorded
against the original (commented) source, the trimming pass must also return a
mapping from original line numbers to trimmed line numbers.

Lines are split on ``\\n`` alone, the lexer's line model, so original line
numbers are ``Token.line`` numbers.  :func:`trim_comments` raises the lexer's
``LexError`` exactly when :func:`tokenize` does, and raises nothing else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cparse import lexer

__all__ = ["TrimResult", "trim_comments"]


@dataclass
class TrimResult:
    """Result of removing comments from a source file.

    Attributes
    ----------
    trimmed_code:
        The code with all comments removed and fully blank residue lines
        dropped.
    line_map:
        Mapping from 1-based original line numbers to 1-based line numbers in
        ``trimmed_code``.  Lines that vanish (pure comment lines) are absent.
    """

    trimmed_code: str
    line_map: Dict[int, int] = field(default_factory=dict)

    def map_line(self, original_line: int) -> Optional[int]:
        """Trimmed line number for an original line, or ``None`` if removed."""
        return self.line_map.get(original_line)


#: Plain runs (ASCII that only whitespace, identifiers, numbers and punctuators
#: other than ``/`` use, so any run of it lexes), ``/``, literals, comments and
#: directives in the lexer's own shapes.  ``SUSPECT`` is non-ASCII, a stray
#: ``\\``, or the start of an unterminated literal or block comment.
_SPAN_RE = re.compile(
    "[A-Za-z0-9_ \t\r\n%s]+" % re.escape("".join(sorted(set("".join(lexer.PUNCTUATORS)) - {"/"})))
    + rf"|/(?![*/])|{lexer.STRING_PATTERN}|{lexer.CHAR_PATTERN}|(?P<COMMENT>{lexer.COMMENT_PATTERN})"
    + rf"|(?P<DIRECTIVE>{lexer.DIRECTIVE_PATTERN})|(?P<SUSPECT>[\s\S])"
)


def _blank_out_comments(source: str) -> List[str]:
    """Source lines with comments and ignored directives replaced by spaces, which
    keeps the remaining code's columns, so ground-truth columns carry over."""
    pieces: List[str] = []
    done, suspect = 0, False  # end of the last span copied; lex to validate?
    for m in _SPAN_RE.finditer(source):
        group = m.lastgroup
        if group is None:
            continue
        text = m.group()
        if group == "COMMENT" or text[1:].strip().startswith(lexer.DIRECTIVE_COMMENTS):
            pieces += source[done : m.start()], "\n".join(" " * len(s) for s in text.split("\n"))
            done = m.end()
        elif not text[1:].strip().startswith(lexer.KEPT_DIRECTIVES):
            suspect = True  # a SUSPECT character (no body) or a rejected directive
    if suspect:  # the lexer raises, or accepts the source: then these are its comments
        lexer.tokenize(source, keep_comments=True)
    return ("".join(pieces) + source[done:]).split("\n")


def trim_comments(source: str) -> TrimResult:
    """Remove comments and blank-only lines, tracking the line re-mapping."""
    lines = [line.rstrip() for line in _blank_out_comments(source)]
    kept = [number for number, line in enumerate(lines, start=1) if line]
    trimmed = "".join(lines[number - 1] + "\n" for number in kept)
    return TrimResult(trimmed, {number: new for new, number in enumerate(kept, start=1)})
