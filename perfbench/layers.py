"""Span wrappers around each layer's entry points, and the per-layer metrics.

Tracing is installed from the benchmark's own files: :func:`install`
replaces each entry point below, wherever a ``repro`` module refers to
it, with a wrapper that records a span; :func:`uninstall` puts the
originals back.  Nothing under ``src/`` changes.  Functions are patched by
identity in every loaded ``repro`` module (``from x import f`` copies the
reference), methods on their defining class.

:func:`layer_metrics` turns one traced pass's spans plus the engine
telemetry into the named per-layer metrics.  Every metric is reported on
every workload; a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import Span, Tracer, adopt_orphans, covered_ns, self_times

#: Spans whose time is spent awaiting (network latency, connection queue),
#: not running on the event loop.
AWAITING_SPANS = ("llm.remote", "llm.remote.call")
#: Spans that begin one request's trace: one prompt to a model, one
#: record's featurisation, one static or dynamic analysis of a source.
REQUEST_ROOTS = ("llm.remote", "llm.generate", "dataset.record", "analysis.detector",
                 "dynamic.inspector")


def _count_len(args, kwargs, out) -> int:
    return len(out)


def _count_sites(args, kwargs, out) -> int:
    return len(out.sites)


def _count_accesses(args, kwargs, out) -> int:
    return out.analyzed_accesses


def _count_folded(args, kwargs, out) -> int:
    return out.total


def _count_batch(args, kwargs, out) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _targets() -> List[Tuple[str, object, str, str, Optional[Callable]]]:
    """``(span name, owner, attribute, kind, counter)`` for every entry point.

    ``owner`` is a module (``kind == "function"``, patched everywhere it is
    referenced) or a class (``kind == "method"``).
    """
    from repro.analysis import accesses
    from repro.analysis.static_race import StaticRaceDetector
    from repro.corpus.patterns.base import PatternSpec
    from repro.cparse import lexer, parser, symbols
    from repro.dataset import drbml, tokenizer, trim
    from repro.dynamic.inspector import InspectorLikeDetector
    from repro.dynamic.interpreter import Interpreter
    from repro.engine import requests
    from repro.engine.core import ExecutionEngine
    from repro.llm import features
    from repro.llm.adapters import AsyncRemoteAdapter
    from repro.llm.finetune import FineTunedModel, FineTuner
    from repro.llm.zoo import SimulatedChatModel
    from repro.prompting import parsing, templates

    return [
        ("corpus.generate", PatternSpec, "instantiate", "method", None),
        ("dataset.record", drbml, "record_from_benchmark", "function", None),
        ("dataset.trim", trim, "trim_comments", "function", None),
        ("dataset.count_tokens", tokenizer, "count_tokens", "function", None),
        ("cparse.lex", lexer, "tokenize", "function", _count_len),
        ("cparse.parse", parser, "parse", "function", None),
        ("analysis.symbols", symbols, "build_symbol_table", "function", None),
        ("analysis.access_model", accesses, "extract_access_model", "function", _count_sites),
        ("analysis.detector", StaticRaceDetector, "analyze_source", "method", None),
        ("analysis.pairs", StaticRaceDetector, "analyze_unit", "method", _count_accesses),
        ("dynamic.inspector", InspectorLikeDetector, "analyze_source", "method", None),
        ("dynamic.interpreter", Interpreter, "run_source", "method", None),
        ("llm.features", features, "extract_features", "function", None),
        ("llm.generate", SimulatedChatModel, "generate", "method", None),
        ("llm.generate", FineTunedModel, "generate", "method", None),
        ("llm.finetune", FineTuner, "fit", "method", None),
        ("llm.remote", AsyncRemoteAdapter, "generate_async", "method", None),
        # The connection-holding part of a remote call (inside the
        # adapter's connection cap); there is no public boundary for it.
        ("llm.remote.call", AsyncRemoteAdapter, "_call", "method", None),
        ("prompting.render", templates, "render_prompt", "function", None),
        ("prompting.parse", parsing, "parse_yes_no", "function", None),
        ("prompting.parse", parsing, "parse_pairs_response", "function", None),
        ("engine.score", requests, "score_response", "function", None),
        ("engine.dispatch", ExecutionEngine, "_execute_indexed", "method", _count_batch),
        ("engine.dispatch", ExecutionEngine, "map", "method", None),
        ("eval.fold", requests, "confusion_from_results", "function", _count_folded),
    ]


def _wrap(tracer: Tracer, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            span, token = tracer.open(name)
            out = None
            try:
                out = await fn(*args, **kwargs)
                return out
            finally:
                tracer.close(span, token)

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span, token = tracer.open(name)
        out = None
        n = 0
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                n = counter(args, kwargs, out)
            return out
        finally:
            tracer.close(span, token, n)

    return traced


class Instrumentation:
    """Installs and removes the span wrappers for one traced pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for name, owner, attr, kind, counter in _targets():
            original = owner.__dict__[attr] if kind == "method" else getattr(owner, attr)
            wrapped = _wrap(self.tracer, name, original, counter)
            if kind == "method":
                self._patch(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- metrics -------------------------------------------------------------------

#: Every per-layer metric, in ledger order, with its unit.
PER_LAYER_METRICS: Dict[str, str] = {
    "corpus.generate.us_per_record": "us",
    "dataset.trim.self_us_per_record": "us",
    "dataset.count_tokens.us_per_record": "us",
    "cparse.lex.self_us_per_record": "us",
    "cparse.lex.tokens_per_s": "1/s",
    "cparse.lex.calls_per_source": "count",
    "cparse.parse.self_us_per_record": "us",
    "cparse.parse.calls_per_source": "count",
    "analysis.symbols.self_us_per_record": "us",
    "analysis.access_model.self_us_per_record": "us",
    "analysis.pairs.self_us_per_record": "us",
    "analysis.sites_per_record": "count",
    "dynamic.inspector.self_us_per_record": "us",
    "dynamic.interpreter.self_us_per_record": "us",
    "dynamic.interpreter.runs_per_record": "count",
    "llm.features.calls_per_source": "count",
    "llm.features.self_us_per_call": "us",
    "llm.generate.self_us_per_prompt": "us",
    "llm.finetune.self_s_per_unit": "s",
    "llm.remote.wait_ms_per_call": "ms",
    "llm.remote.connection_busy_share": "share",
    "prompting.render.us_per_request": "us",
    "prompting.parse.us_per_response": "us",
    "engine.dispatch.self_us_per_request": "us",
    "engine.loop_blocked_share": "share",
    "engine.cache.hit_ratio": "share",
    "engine.prompts_per_wire_call": "count",
    "engine.retries_per_request": "count",
    "engine.giveups_per_request": "count",
    "engine.resident_requests_peak": "count",
    "eval.fold.us_per_result": "us",
    "trace.overhead_share": "share",
    "trace.spans_per_record": "count",
}


class SpanSummary:
    """Per-name totals over one traced pass."""

    def __init__(self, spans: Sequence[Span], main_thread: int) -> None:
        adopt_orphans(spans, main_thread)
        selfs = self_times(spans)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.n: Dict[str, int] = defaultdict(int)
        self.by_thread: Dict[int, List[Span]] = defaultdict(list)
        for span in spans:
            self.calls[span.name] += 1
            self.total_ns[span.name] += span.duration_ns
            self.self_ns[span.name] += selfs[span.id]
            self.n[span.name] += span.n
            self.by_thread[span.thread].append(span)
        self.count = len(spans)

    def loop_threads(self) -> List[int]:
        """Threads that ran remote calls: the event-loop threads."""
        return [
            thread
            for thread, spans in self.by_thread.items()
            if any(s.name in AWAITING_SPANS for s in spans)
        ]

    def loop_busy_ns(self, lo: int, hi: int) -> int:
        """Time event-loop threads spent running spanned work (not awaiting)."""
        return sum(
            covered_ns(
                ((s.start_ns, s.end_ns) for s in self.by_thread[t] if s.name not in AWAITING_SPANS),
                lo,
                hi,
            )
            for t in self.loop_threads()
        )


def layer_metrics(
    summary: SpanSummary,
    *,
    records: int,
    sources: int,
    requests: int,
    units: int,
    window: Tuple[int, int],
    telemetry: Dict[str, float],
    connections: int,
) -> Dict[str, float]:
    """The named per-layer metrics of one traced pass, except the tracing
    overhead, which needs the untraced pass too.

    ``records`` is the number of records (programs) the pass processed,
    ``sources`` the number of distinct sources among them, ``requests``
    the detection requests it issued, ``units`` the closed-loop units it
    ran (a pass runs as many as its time allowed, so totals are divided
    by a work count before they are reported); ``telemetry`` sums the engine
    counters over the pass and ``connections`` is the total remote
    connection cap (0 when no remote adapter is in use).
    """
    us = 1e-3
    wall_ns = window[1] - window[0]

    def per(value: float, base: int) -> float:
        return value / base if base else 0.0

    s, c, n = summary.self_ns, summary.calls, summary.n
    lex_self_s = s["cparse.lex"] * 1e-9
    remote_calls = c["llm.remote"]
    lookups = telemetry.get("cache_hits", 0) + telemetry.get("cache_misses", 0)
    return {
        "corpus.generate.us_per_record": per(summary.total_ns["corpus.generate"] * us, records),
        "dataset.trim.self_us_per_record": per(s["dataset.trim"] * us, records),
        "dataset.count_tokens.us_per_record": per(summary.total_ns["dataset.count_tokens"] * us, records),
        "cparse.lex.self_us_per_record": per(s["cparse.lex"] * us, records),
        "cparse.lex.tokens_per_s": n["cparse.lex"] / lex_self_s if lex_self_s else 0.0,
        "cparse.lex.calls_per_source": per(c["cparse.lex"], sources),
        "cparse.parse.self_us_per_record": per(s["cparse.parse"] * us, records),
        "cparse.parse.calls_per_source": per(c["cparse.parse"], sources),
        "analysis.symbols.self_us_per_record": per(s["analysis.symbols"] * us, records),
        "analysis.access_model.self_us_per_record": per(s["analysis.access_model"] * us, records),
        "analysis.pairs.self_us_per_record": per(s["analysis.pairs"] * us, records),
        "analysis.sites_per_record": per(n["analysis.access_model"], records),
        "dynamic.inspector.self_us_per_record": per(s["dynamic.inspector"] * us, records),
        "dynamic.interpreter.self_us_per_record": per(s["dynamic.interpreter"] * us, records),
        "dynamic.interpreter.runs_per_record": per(c["dynamic.interpreter"], records),
        "llm.features.calls_per_source": per(c["llm.features"], sources),
        "llm.features.self_us_per_call": per(s["llm.features"] * us, c["llm.features"]),
        "llm.generate.self_us_per_prompt": per(s["llm.generate"] * us, c["llm.generate"]),
        "llm.finetune.self_s_per_unit": per(s["llm.finetune"] * 1e-9, units),
        "llm.remote.wait_ms_per_call": per(
            (s["llm.remote"] + s["llm.remote.call"]) * 1e-6, remote_calls
        ),
        "llm.remote.connection_busy_share": per(
            summary.total_ns["llm.remote.call"], connections * wall_ns
        ),
        "prompting.render.us_per_request": per(summary.total_ns["prompting.render"] * us, requests),
        "prompting.parse.us_per_response": per(
            summary.total_ns["prompting.parse"] * us, c["prompting.parse"]
        ),
        "engine.dispatch.self_us_per_request": per(s["engine.dispatch"] * us, requests),
        "engine.loop_blocked_share": per(summary.loop_busy_ns(*window), wall_ns),
        "engine.cache.hit_ratio": per(telemetry.get("cache_hits", 0), lookups),
        "engine.prompts_per_wire_call": per(
            telemetry.get("model_calls", 0), telemetry.get("wire_calls", 0)
        ),
        "engine.retries_per_request": per(telemetry.get("retries", 0), requests),
        "engine.giveups_per_request": per(telemetry.get("retry_giveups", 0), requests),
        "engine.resident_requests_peak": float(telemetry.get("resident_requests_peak", 0)),
        "eval.fold.us_per_result": per(s["eval.fold"] * us, n["eval.fold"]),
        "trace.spans_per_record": per(summary.count, records),
    }
