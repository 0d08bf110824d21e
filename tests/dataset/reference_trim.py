"""Reference comment trimmer: the test oracle for ``repro.dataset.trim``.

This is the token-walking implementation ``trim_comments`` used before its
span scanner: it lexes the whole source with ``tokenize(...,
keep_comments=True)`` and blanks every COMMENT token one character at a
time.  Its only change from that implementation is the line model: it splits
lines on ``\\n`` alone, as the lexer counts them, where the original used
``str.splitlines``.  That also broke lines at ``\\r``, ``\\x0b``, ``\\x0c``,
``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and ``\\u2029``, so a comment or a
line holding one of them kept comment text and numbered lines differently
from ``Token.line``.

It is deliberately slow and simple; tests compare the fast trimmer with it.
"""

from typing import Dict, List

from repro.cparse.lexer import TokenKind, tokenize
from repro.dataset.trim import TrimResult


def _blank_out_comments(source: str) -> List[str]:
    """Return source lines with comment characters replaced by spaces."""
    lines = [list(line) for line in source.split("\n")]
    for token in tokenize(source, keep_comments=True):
        if token.kind is not TokenKind.COMMENT:
            continue
        text = token.text
        row, col = token.line - 1, token.col - 1
        for ch in text:
            if ch == "\n":
                row += 1
                col = 0
                continue
            if row < len(lines) and col < len(lines[row]):
                lines[row][col] = " "
            col += 1
    return ["".join(chars) for chars in lines]


def reference_trim_comments(source: str) -> TrimResult:
    """Remove comments and blank-only lines, tracking the line re-mapping."""
    blanked = _blank_out_comments(source)
    out_lines: List[str] = []
    line_map: Dict[int, int] = {}
    for original_idx, text in enumerate(blanked, start=1):
        if text.strip() == "":
            # DRB-ML drops every blank line for a compact trimmed_code.
            continue
        out_lines.append(text.rstrip())
        line_map[original_idx] = len(out_lines)
    trimmed = "\n".join(out_lines)
    if trimmed:
        trimmed += "\n"
    return TrimResult(trimmed_code=trimmed, line_map=line_map)
