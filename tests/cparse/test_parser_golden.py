"""Golden digest of the parser's output and the static reports built on it.

One sha256 covers, for every corpus program and every augmented template
(the same 402 sources as ``test_lexer_golden.py``):

* ``repr(parse(source))``, the whole AST with every source location;
* the :class:`~repro.analysis.static_race.StaticRaceReport` fields
  ``has_race``, ``pairs``, ``diagnostics`` (rule, spans, message),
  ``suppressions`` and ``phase_counts``.

The digest was recorded with the per-level recursive-descent parser kept in
``reference_parser.py``.  Any change to the parser that moves a node, a
location or a verdict changes it.
"""

import hashlib
import json

from test_lexer_golden import _corpus_sources, _template_sources

from repro.analysis.static_race import StaticRaceDetector
from repro.cparse.parser import parse

GOLDEN_SHA256 = "1ffe46ff053e0683b261f200686d2b6b84d5cb46d5b49d016f3bbca8e92118ac"


def _span(span):
    return None if span is None else [span.line, span.col, span.text]


def _site(site):
    return [site.variable, site.expr_text, site.is_write, site.line, site.col, site.subscript]


def _report_record(report):
    return {
        "has_race": report.has_race,
        "pairs": [
            [_site(p.first), _site(p.second), p.reason, p.rule_id] for p in report.pairs
        ],
        "diagnostics": [
            [d.rule_id, _span(d.primary), _span(d.secondary), d.message]
            for d in report.diagnostics
        ],
        "suppressions": sorted(report.suppressions.items()),
        "phase_counts": sorted(report.phase_counts.items()),
    }


def _digest(sources):
    detector = StaticRaceDetector()
    h = hashlib.sha256()
    for source in sources:
        record = [repr(parse(source)), _report_record(detector.analyze_source(source))]
        h.update(json.dumps(record, ensure_ascii=False).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def test_golden_digest():
    assert _digest(_corpus_sources() + _template_sources()) == GOLDEN_SHA256
