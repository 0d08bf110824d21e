"""Token counting for the prompt-size filter.

The paper keeps only DRB-ML entries whose code fits the 4k-token input budget
of the evaluated models (198 of 201 entries, §3.2).  Real LLM tokenizers are
byte-pair encoders; for filtering purposes what matters is a stable,
monotonic measure of code size, so :class:`CodeTokenizer` implements a
word-piece style scheme: identifiers and numbers are split into sub-word
chunks of at most ``max_piece_len`` characters, punctuation and operators are
one token each, and whitespace separates tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

__all__ = ["CodeTokenizer", "count_tokens", "DEFAULT_TOKEN_LIMIT"]

#: The input budget used to build the evaluation subset (paper §3.2).
DEFAULT_TOKEN_LIMIT = 4096

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+\.\d+|\d+|\S")


@dataclass(frozen=True)
class CodeTokenizer:
    """Deterministic word-piece tokenizer for C source text."""

    max_piece_len: int = 8

    def tokenize(self, text: str) -> List[str]:
        """Split ``text`` into tokens (identifier pieces, numbers, punctuation)."""
        tokens: List[str] = []
        for match in _WORD_RE.finditer(text):
            word = match.group(0)
            if len(word) <= self.max_piece_len:
                tokens.append(word)
                continue
            for start in range(0, len(word), self.max_piece_len):
                tokens.append(word[start : start + self.max_piece_len])
        return tokens

    def count(self, text: str) -> int:
        """Number of tokens in ``text``, equal to ``len(self.tokenize(text))``.

        A word of ``n`` characters splits into ``ceil(n / max_piece_len)``
        pieces, so no piece list is built.
        """
        return sum(-(-len(word) // self.max_piece_len) for word in _WORD_RE.findall(text))


#: Shared default-configuration instance: the tokenizer is frozen and
#: stateless, so every ``count_tokens`` call can reuse one object instead
#: of constructing a throwaway per call in dataset-build loops.
_DEFAULT_TOKENIZER = CodeTokenizer()


def count_tokens(text: str) -> int:
    """Count tokens with the default tokenizer configuration."""
    return _DEFAULT_TOKENIZER.count(text)
