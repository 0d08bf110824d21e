"""Golden digest of the lexer's output over the whole corpus.

One sha256 covers, for every corpus program and every augmented template
(loop bounds scaled ×2, identifiers renamed):

* the ``(kind, text, line, col)`` token stream with comments kept;
* ``trim_comments(...).trimmed_code``;
* ``trim_comments(...).line_map``.

The digest was recorded with the original per-character scanner.  Any
change to the lexer that moves a token, a location or a trimmed line
changes it.
"""

import hashlib
import json

from repro.corpus.generator import build_corpus
from repro.corpus.patterns import ALL_PATTERNS
from repro.cparse.lexer import tokenize
from repro.dataset.augment import rename_identifiers, scale_loop_bounds
from repro.dataset.trim import trim_comments

GOLDEN_SHA256 = "312e9fa0ac9c9bb27c22808f94b5c2013c8af01fd16efd8f01bb613a29f9703e"


def _corpus_sources():
    return [bench.code for bench in build_corpus()]


def _template_sources():
    sources = []
    for spec in ALL_PATTERNS:
        for variant in range(len(spec.variants)):
            bench = spec.instantiate(len(sources) + 1, variant)
            code = scale_loop_bounds(bench.code, factor=2)
            code, _ = rename_identifiers(code, salt=900000)
            sources.append(code)
    return sources


def _digest(sources):
    h = hashlib.sha256()
    for source in sources:
        tokens = [
            [t.kind.value, t.text, t.line, t.col]
            for t in tokenize(source, keep_comments=True)
        ]
        trim = trim_comments(source)
        record = [tokens, trim.trimmed_code, sorted(trim.line_map.items())]
        h.update(json.dumps(record, ensure_ascii=False).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_source_sets_are_complete():
    assert len(_corpus_sources()) == 201
    assert len(_template_sources()) == 201


def test_golden_digest():
    assert _digest(_corpus_sources() + _template_sources()) == GOLDEN_SHA256
