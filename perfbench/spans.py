"""In-memory span recorder and the arithmetic behind the layer ledger.

A span is one call across a layer boundary: ``(id, parent, trace, name,
start_ns, end_ns, thread, n)``.  ``parent`` is the span that was open on
the same task or thread when this one started.  ``trace`` identifies one
request: the outermost span named in the tracer's ``request_roots`` (one
prompt's generate, one record's featurisation, one analysis call) starts
a trace, and every span under it shares that id.  Spans outside any
request (an engine run's own bookkeeping) share the id of their root.
``n`` is a per-call work count chosen by the wrapper (tokens lexed, access
sites found, results folded).

Spans are kept in a list while the workload runs and written out as JSONL
at the end; nothing here touches the program under test.
"""

from __future__ import annotations

import bisect
import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "covered_ns",
    "self_times",
    "adopt_orphans",
    "write_jsonl",
]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: int
    name: str
    start_ns: int
    end_ns: int
    thread: int
    n: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


#: ``(open span id, its trace id, whether that trace is a request)``.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, int, bool]]] = contextvars.ContextVar(
    "perfbench_current_span", default=None
)


class Tracer:
    """Records spans; one instance per traced pass."""

    def __init__(self, request_roots: Iterable[str] = ()) -> None:
        self.spans: List[Span] = []
        self.request_roots = frozenset(request_roots)
        self._ids = itertools.count(1)
        self.main_thread = threading.get_ident()

    def open(self, name: str) -> Tuple[Span, contextvars.Token]:
        span_id = next(self._ids)
        current = _CURRENT.get()
        parent, trace, in_request = current if current else (None, span_id, False)
        if not in_request and name in self.request_roots:
            trace, in_request = span_id, True
        span = Span(span_id, parent, trace, name, time.perf_counter_ns(), 0,
                    threading.get_ident())
        return span, _CURRENT.set((span_id, trace, in_request))

    def close(self, span: Span, token: contextvars.Token, n: int = 0) -> None:
        span.end_ns = time.perf_counter_ns()
        span.n = n
        _CURRENT.reset(token)
        self.spans.append(span)  # list.append is atomic under the GIL


def covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Intervals are clipped to ``[lo, hi]`` first, so overlapping children
    (concurrent tasks) are counted once and a child that outlives its
    parent only counts inside the parent.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start_ns, span.end_ns))
    return {
        span.id: span.duration_ns
        - covered_ns(children.get(span.id, ()), span.start_ns, span.end_ns)
        for span in spans
    }


def adopt_orphans(spans: Sequence[Span], main_thread: int) -> None:
    """Give parentless worker-thread spans the caller span that was waiting.

    Context does not follow work handed to another thread (an executor
    pool or an event loop), so such spans start without a parent.  The
    caller that handed the work over was blocked inside its innermost
    open span on the main thread; that span becomes the parent, so its
    self time excludes the delegated work.  Main-thread spans nest
    properly, so the innermost span open at a given instant is found by
    bisecting on start times and climbing parents.  Only the parent
    changes: the adopted span keeps its trace, which its own children
    already carry.
    """
    main = sorted((s for s in spans if s.thread == main_thread), key=lambda s: s.start_ns)
    starts = [s.start_ns for s in main]
    by_id = {s.id: s for s in main}
    for span in spans:
        if span.thread == main_thread or span.parent is not None:
            continue
        i = bisect.bisect_right(starts, span.start_ns) - 1
        host = main[i] if i >= 0 else None
        while host is not None and host.end_ns < span.start_ns:
            host = by_id.get(host.parent) if host.parent is not None else None
        if host is not None:
            span.parent = host.id


def write_jsonl(path, spans: Sequence[Span], header: dict) -> None:
    """Write a header line, then one JSON object per span."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for s in spans:
            handle.write(
                json.dumps(
                    {
                        "id": s.id,
                        "parent": s.parent,
                        "trace": s.trace,
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "thread": s.thread,
                        "n": s.n,
                    }
                )
                + "\n"
            )
