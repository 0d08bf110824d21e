"""The execution engine: batched, cached, parallel model evaluation.

:class:`ExecutionEngine` is the single funnel every evaluation path uses to
call a language model.  Given a sequence of
:class:`~repro.engine.requests.DetectionRequest`, it

1. groups requests by (model instance, strategy, scoring mode) and splits
   each group into chunks — sized by ``batch_size``, optionally *adapted*
   per group by the cost model (smaller chunks for slow models, larger for
   fast/cached ones) and ordered longest-processing-time first (LPT) so
   expensive groups never become a straggler tail;
2. dispatches the chunks through **one completion-order loop**
   (:meth:`ExecutionEngine._dispatch`) on the executor's ``submit_stream``
   seam (serial, thread pool, process pool or async — see
   :mod:`repro.engine.executors`), keeping at most ``executor.capacity``
   chunk copies in flight and merging each chunk the moment it completes.
   On an **async-native** executor (``native_async``, the
   ``AsyncExecutor``) the chunk work item is a coroutine: model I/O is
   awaited on the event loop under the executor's ``max_inflight``
   semaphore, and a micro-batch coalescer (:mod:`repro.engine.coalesce`)
   merges concurrent same-(model, strategy) misses into single
   ``generate_batch_async`` wire calls;
3. inside a chunk, renders all prompts via
   :func:`~repro.prompting.chains.run_strategy_batch`, satisfies what it can
   from the response cache and sends only the misses to the model's
   ``generate_batch``;
4. scores each response (:func:`~repro.engine.requests.score_response`) and
   writes each scored chunk straight into its slots of the result store, so
   completion order never leaks into output order.

Every chunk's elapsed time is fed back into the engine's
:class:`~repro.engine.costmodel.CostModel` and the per-(model, strategy)
telemetry groups, so a long-lived engine schedules its *next* run with
measured latencies.

The dispatch loop folds three policies into the same pass:

* **retry** (``retries``, see :mod:`repro.engine.faults`) — budget 0 is
  fail-fast: the first chunk error re-raises and every outstanding copy
  is cancelled.  A larger budget re-enters a failed chunk after a
  deterministic exponential backoff instead of cancelling unrelated
  work; exhausted budgets surface as explicit ``RunResult(failed=True)``
  entries in position, so the run completes with partial results;
* **circuit breakers** — a pre-submit hook: a chunk whose model's
  breaker is open routes to the cascade's next-cheaper tier (when a
  :class:`~repro.engine.cascade.CascadePolicy` is configured) or fails
  explicitly without a model call;
* **speculation** (``speculate``) — a chunk that overshoots the cost
  model's p95 per-chunk estimate is duplicated into idle capacity
  (optionally onto a cheaper fallback model).  The first copy to succeed
  wins and is merged exactly once; a failed copy defers to a sibling
  still running, and only the last copy's failure reaches the retry
  policy.

Every submitted copy carries the chunk it actually executes, so results,
cache entries, telemetry and cost observations are attributed to the
model that answered, while the ``journal`` checkpoint keys on the original
requests so an interrupted run resumes skipping completed work.  With
``deadline=SECONDS`` the planner (:meth:`ExecutionEngine._plan_deadline`)
sheds the lowest-value chunks when the predicted makespan exceeds the
budget; shed requests surface as explicit ``skipped`` results.  Confusion
counts exclude failed and shed entries alike.

For *distributed* executors (``executor.distributed`` is true, e.g. the
process pool) the work item crossing the boundary must be picklable, so the
loop submits self-contained ``(chunk, snapshot_ref)`` payloads to the
module-level :func:`_score_chunk_payload` worker, whose outcome carries the
cache entries it generated for the parent to merge (an in-process chunk
returns an empty delta).  The cache snapshot is **broadcast once per run**
through :mod:`repro.engine.snapshot`: the parent encodes it once — by
default into a shared-memory block workers attach read-only and
binary-search in place, with a pickle-temp-file fallback — and every
payload carries only the small ``(kind, locator, token)`` reference.

Because scoring preserves request order and the simulated models are
deterministic functions of (model, strategy, code), the engine's output is
bit-identical across executors, chunk sizings, chunk orders and cache
states — the refactor is purely about *how* the calls run, never about
*what* they return.  (With a non-deterministic model the cache pins the
first response per prompt.)
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import heapq
import itertools
import statistics
import time
from collections import OrderedDict, deque
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.engine.cache import ResponseCache, cache_key
from repro.engine.cascade import CascadePolicy, CascadeRouter
from repro.engine.coalesce import MicroBatchCoalescer
from repro.engine.costmodel import CostModel
from repro.engine.executors import create_executor
from repro.engine.faults import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_RETRY_BASE_MS,
    BreakerBoard,
    MalformedResponseError,
    RetryPolicy,
    RunJournal,
    chunk_journal_key,
    is_retryable,
    request_key,
)
from repro.engine.requests import (
    DetectionRequest,
    RunResult,
    RunResultStore,
    failed_result,
    score_response,
    shed_result,
)
from repro.engine.snapshot import (
    SNAPSHOT_TRANSPORTS,
    SnapshotPayloadRef,
    _WORKER_SNAPSHOTS as _worker_snapshot_memo,
    load_snapshot,
    publish_snapshot,
    retire_snapshot,
)
from repro.engine.telemetry import EngineTelemetry
from repro.prompting.chains import run_strategy_batch, run_strategy_batch_async

__all__ = [
    "DEFAULT_STREAM_WINDOW",
    "ExecutionEngine",
    "resolve_engine",
]

T = TypeVar("T")
R = TypeVar("R")

#: The quantile of a group's per-request latency distribution that a chunk
#: must overshoot (scaled by ``speculate_after``) before a duplicate copy is
#: launched — speculation keys on the *tail* of the distribution, so a
#: naturally noisy group needs a larger excursion than a steady one.
SPECULATION_QUANTILE = 0.95

#: How often the dispatch loop re-checks in-flight chunks against their
#: speculation thresholds (seconds).  Engine attribute ``speculation_poll_s``
#: overrides it per instance (benchmarks/tests tighten it).
DEFAULT_SPECULATION_POLL_S = 0.01

#: Default window size (requests resident at once) for
#: :meth:`ExecutionEngine.run_streaming` — large enough that chunking, LPT
#: ordering and adaptive sizing see a representative population, small
#: enough that peak RSS stays O(window) on million-record corpora.
DEFAULT_STREAM_WINDOW = 2048

_IndexedRequest = Tuple[int, DetectionRequest]

#: What executing one chunk produces, in-process or in a worker: the scored
#: results, the cache entries a distributed worker generated for the parent
#: to merge (empty in-process, where the chunk writes the cache directly),
#: hit/miss/model-call counters and the chunk's wall time.
_ChunkOutcome = Tuple[List[Tuple[int, RunResult]], Dict[str, str], Dict[str, int], float]


class _Copy(NamedTuple):
    """The tag of one submitted copy of a chunk.

    ``index`` is the chunk's position in the plan and ``attempt`` its
    0-based retry attempt; ``chunk`` is what this copy executes — the
    planned requests, or a rewrite onto another model (a breaker reroute
    or a fallback speculation), so the merge attributes cache identity,
    telemetry and cost to the model that actually answered.
    """

    index: int
    attempt: int
    chunk: Sequence[_IndexedRequest]
    duplicate: bool = False
    fallback: bool = False


#: The dispatch loop's chunks with copies in flight: per chunk index, the
#: first copy's start time and tag plus the live futures of every copy.
_Running = Dict[int, Tuple[float, _Copy, List["concurrent.futures.Future"]]]

#: A published cache snapshot reference crossing the process boundary:
#: ``(kind, shm-name-or-path, unique broadcast token)``.
_SnapshotRef = SnapshotPayloadRef


def resolve_engine(engine: Optional["ExecutionEngine"]) -> "ExecutionEngine":
    """The caller's engine, or the default: a fresh serial, uncached one.

    The single definition of "no engine given" — every driver that accepts
    an optional ``engine`` funnels through here, so default semantics can
    never drift between the table drivers and the cross-validation loop.
    """
    return engine if engine is not None else ExecutionEngine()


def _partition_cached(
    prompts: Sequence[str],
    get_response: Callable[[str], Optional[str]],
) -> Tuple[List[Optional[str]], List[int]]:
    """Split a prompt batch into cache hits and miss positions.

    Returns ``(responses, miss_positions)`` where ``responses`` holds the
    cached response per prompt (``None`` at every miss position).  The one
    place hit/miss partitioning is implemented — the sync path, the
    async-native path and the distributed chunk worker all delegate here.
    """
    responses: List[Optional[str]] = [None] * len(prompts)
    miss_positions: List[int] = []
    for position, prompt in enumerate(prompts):
        cached = get_response(prompt)
        if cached is not None:
            responses[position] = cached
        else:
            miss_positions.append(position)
    return responses, miss_positions


def _rewrite(
    chunk: Sequence[_IndexedRequest], model
) -> List[_IndexedRequest]:
    """``chunk``'s requests re-pointed at ``model`` (same slots, same records).

    The one rewrite behind a breaker reroute and a fallback speculation.
    """
    return [(index, dataclasses.replace(request, model=model)) for index, request in chunk]


def _require_batch_length(
    responses: List[str], n_prompts: int, method: str = "generate_batch"
) -> List[str]:
    """Reject a wrong-length model batch before it is consumed.

    Zipping a short response list against miss positions silently
    truncates: the unfilled positions keep their ``None`` placeholder and
    score garbage downstream.  Every site that consumes a
    ``generate_batch``/``generate_batch_async`` result funnels through this
    guard (the coalescer's ``_call`` applies the same contract), so a
    misbehaving adapter fails loudly at the wire instead.
    """
    if len(responses) != n_prompts:
        raise MalformedResponseError(
            f"{method} returned {len(responses)} responses for {n_prompts} prompts"
        )
    return responses


def _generate_with_cache(
    model,
    prompts: Sequence[str],
    get_response: Callable[[str], Optional[str]],
    put_response: Callable[[str, str], None],
) -> Tuple[List[str], int, int]:
    """The one implementation of cache-aware batched generation.

    Satisfies what it can via ``get_response`` (``None`` = miss), sends
    only the misses to ``model.generate_batch`` in one call, stores fresh
    responses via ``put_response`` and returns ``(responses, hits,
    misses)`` in prompt order.  Both the in-process engine path and the
    distributed chunk worker delegate here, so miss handling can never
    drift between executors.
    """
    prompts = list(prompts)
    responses, miss_positions = _partition_cached(prompts, get_response)
    if miss_positions:
        generated = _require_batch_length(
            list(model.generate_batch([prompts[i] for i in miss_positions])),
            len(miss_positions),
        )
        for position, response in zip(miss_positions, generated):
            responses[position] = response
            put_response(prompts[position], response)
    return responses, len(prompts) - len(miss_positions), len(miss_positions)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# broadcast-once cache shipping (the process-backend hot path)
# ---------------------------------------------------------------------------
#
# The mechanics live in :mod:`repro.engine.snapshot`: the parent publishes
# the warm cache once per run — by default into a shared-memory block whose
# compact binary layout workers attach and binary-search *in place*, with
# the pickle-temp-file transport as explicit choice or automatic fallback.
# These module-level aliases are the engine's seam (tests monkeypatch
# ``_publish_snapshot`` here) and keep ``_score_chunk_payload`` self-contained
# for pickling.

_publish_snapshot = publish_snapshot
_retire_snapshot = retire_snapshot
_load_published_snapshot = load_snapshot
#: Worker-side memo (same object as :data:`repro.engine.snapshot._WORKER_SNAPSHOTS`).
_WORKER_SNAPSHOTS = _worker_snapshot_memo


def _score_chunk_payload(
    payload: Tuple[Sequence[_IndexedRequest], Optional[_SnapshotRef]],
) -> _ChunkOutcome:
    """Score one chunk in a worker process (no shared state with the parent).

    ``payload`` is ``(chunk, snapshot_ref)`` where ``snapshot_ref`` points
    at the run's published read-only cache snapshot (or is ``None`` when
    caching is off).  The worker cannot mutate the parent cache, so it
    returns the entries it generated alongside hit/miss/model-call counts
    and its wall time; the parent merges them as each chunk completes.
    Chunks from the same run cannot see each other's fresh entries — with
    deterministic models that only costs duplicate calls, never changes a
    response.
    """
    chunk, snapshot_ref = payload
    cache_entries, loaded_kind = _load_published_snapshot(snapshot_ref)
    # Time only the chunk's own work: the one-time snapshot attach/load
    # above must not be charged to this (model, strategy) group's cost
    # estimate, or the first chunk per worker would skew the EWMA.
    start = time.perf_counter()
    model = chunk[0][1].model
    strategy = chunk[0][1].strategy
    identity = model.cache_identity
    new_entries: Dict[str, str] = {}
    counters = {
        "hits": 0,
        "misses": 0,
        "calls": 0,
        "wire": 0,
        # First genuine shm attach in this worker for this run's token;
        # the parent folds it into telemetry's `shm_attach`.
        "attach": 1 if loaded_kind == "shm" else 0,
    }

    def get_response(prompt: str) -> Optional[str]:
        key = cache_key(identity, prompt)
        return cache_entries.get(key, new_entries.get(key))  # type: ignore[union-attr]

    def put_response(prompt: str, response: str) -> None:
        new_entries[cache_key(identity, prompt)] = response

    def generate_many(prompts: Sequence[str]) -> List[str]:
        if cache_entries is None:
            counters["calls"] += len(prompts)
            counters["wire"] += 1
            return _require_batch_length(
                list(model.generate_batch(prompts)), len(prompts)
            )
        responses, hits, misses = _generate_with_cache(
            model, prompts, get_response, put_response
        )
        counters["hits"] += hits
        counters["misses"] += misses
        counters["calls"] += misses
        if misses:
            counters["wire"] += 1
        return responses

    responses = run_strategy_batch(generate_many, strategy, [r.code for _, r in chunk])
    scored = [
        (index, score_response(request, response))
        for (index, request), response in zip(chunk, responses)
    ]
    return scored, new_entries, counters, time.perf_counter() - start


class ExecutionEngine:
    """Runs batches of detection requests through an executor and a cache.

    Parameters
    ----------
    executor:
        An executor from :mod:`repro.engine.executors` (anything with
        ``map``, ``submit_stream``, ``capacity``, ``distributed`` and
        ``native_async``); defaults to
        :class:`~repro.engine.executors.SerialExecutor`.
    jobs:
        Shorthand: build the executor via
        :func:`~repro.engine.executors.create_executor` with this width.
    executor_kind:
        Backend name (``"serial"``, ``"thread"``, ``"process"``,
        ``"async"`` or anything registered); combines with ``jobs``.
        Mutually exclusive with ``executor``.
    cache:
        A :class:`~repro.engine.cache.ResponseCache`, or ``None`` to call
        the model for every request.
    batch_size:
        Baseline requests per chunk; one chunk is one executor work item
        and at most one ``generate_batch`` call per chain phase.  With
        ``adaptive_batching`` the cost model scales each group's actual
        chunk size around this baseline (within ``[batch_size / 4,
        batch_size * 4]``, never below 1).
    lpt:
        Dispatch chunks longest-processing-time first, using the cost
        model's estimates.  Groups never observed keep plan order.
    adaptive_batching:
        Let the cost model shrink chunk sizes for slow groups and grow
        them for fast ones.  Off: every chunk is exactly ``batch_size``.
    cost_model:
        A :class:`~repro.engine.costmodel.CostModel` to share/persist;
        defaults to a fresh in-memory one.  It is always fed with observed
        chunk latencies, even when ``lpt`` and ``adaptive_batching`` are
        off.
    max_inflight:
        Async-native path only: maximum concurrently in-flight chunk
        coroutines (the :class:`~repro.engine.executors.AsyncExecutor`
        semaphore width).  ``None`` keeps the executor's default (its
        ``jobs``).  Only valid with ``jobs``/``executor_kind``; pass it to
        the executor directly when constructing one yourself.
    coalesce:
        Async-native path only: merge concurrent ``generate_batch_async``
        calls for the same (model, strategy) into one model call through a
        :class:`~repro.engine.coalesce.MicroBatchCoalescer`.  Responses
        are bit-identical either way; coalescing only changes how many
        wire calls carry them.
    coalesce_window_s / coalesce_max_batch:
        The coalescer's collection window and early-flush prompt limit.
    speculate:
        Tail-latency control: watch in-flight chunks against the cost
        model's per-chunk quantile estimate and, when one overshoots its
        threshold while idle capacity exists, launch a duplicate copy —
        the first success wins, the loser is cancelled (or its result
        dropped), and only the winner feeds the result store, cache,
        telemetry counters and cost model, so results stay bit-identical
        with speculation on or off.
    speculate_after:
        Straggler threshold multiplier: a chunk becomes a speculation
        candidate once its elapsed time exceeds ``speculate_after`` times
        the cost model's ``SPECULATION_QUANTILE`` (p95) estimate for the
        whole chunk.  Larger values speculate later (less duplicated
        work); smaller values race sooner.
    deadline:
        Per-run latency budget in seconds.  When the cost model predicts
        the run's makespan exceeds it, the planner sheds the
        lowest-value chunks (highest seconds-per-request — the fewest
        scored requests per second of budget) until the prediction fits.
        Shed requests surface as explicit ``RunResult`` skips
        (``skipped=True``), never silently dropped, and telemetry records
        predicted vs. actual makespan.  ``None`` (default) disables the
        budget entirely.
    snapshot_transport:
        How the warm-cache snapshot reaches distributed (process) workers:
        ``"shm"`` (default) broadcasts one shared-memory block every
        worker attaches and searches in place, falling back to the temp
        file where shared memory is unavailable; ``"file"`` pins the
        pickle-temp-file path explicitly (each worker deserialises a
        private copy).  Responses are bit-identical either way.
    stream_window:
        Default window size for :meth:`run_streaming`: at most this many
        requests are materialised, planned and in flight at once.  ``None``
        keeps :data:`DEFAULT_STREAM_WINDOW`.  Has no effect on :meth:`run`.
    cascade:
        A :class:`~repro.engine.cascade.CascadePolicy` to route every
        batch through cheap detector tiers first, escalating only
        low-confidence or disagreeing verdicts to the request's own model
        (see :mod:`repro.engine.cascade`).  ``None`` (default) keeps the
        single-tier behaviour bit-identical to an engine without the
        parameter.
    speculate_fallback:
        Cross-backend speculation: a callable mapping a straggling chunk's
        model to a *cheaper fallback model* (usually
        ``CascadePolicy.fallback_model``).  When set and ``speculate`` is
        on, the duplicate copy of an overdue chunk runs on the fallback
        model instead of re-running the same backend; whichever verdict
        lands first is merged under the existing exactly-once rules.
        ``None`` (default) keeps duplicates same-backend — bit-identical
        responses, speculation on or off.
    retries:
        Per-chunk retry budget (default 0 = fail-fast: the first chunk
        error re-raises and outstanding work is cancelled).  With
        ``retries > 0`` a retryable failure (see
        :func:`~repro.engine.faults.is_retryable`) re-enters the dispatch
        loop after an exponential backoff with deterministic jitter
        instead of blocking a worker or cancelling unrelated chunks;
        exhausted retries surface as explicit ``RunResult(failed=True)``
        entries in position, so the run completes with partial results
        instead of aborting.  Composes with speculation: a chunk is
        retried only once its last running copy has failed.
    retry_base_ms:
        First-retry backoff in milliseconds; doubles per attempt, scaled
        by a jitter factor seeded from the chunk identity (never the
        wall clock), so retried runs stay reproducible.
    breaker_threshold / breaker_cooldown_s:
        Per-model circuit breakers (keyed on ``cache_identity``, fed
        only by final give-ups, so they matter once ``retries > 0``):
        after ``breaker_threshold`` consecutive chunk failures on one
        model its breaker opens for ``breaker_cooldown_s`` seconds, then
        admits a single half-open probe.  While open, affected chunks route to the cascade's
        next-cheaper tier when a ``cascade`` policy is configured, else
        they fail explicitly without a model call.
    journal:
        Optional run-journal path (or a prebuilt
        :class:`~repro.engine.faults.RunJournal`): every completed
        chunk's outcomes are appended durably, and requests whose
        outcome is already journaled are answered from the journal
        without re-dispatching — an interrupted ``repro all`` resumes
        where it died.  ``None`` (default) disables checkpointing.
    """

    def __init__(
        self,
        *,
        executor=None,
        jobs: Optional[int] = None,
        executor_kind: Optional[str] = None,
        cache: Optional[ResponseCache] = None,
        batch_size: int = 32,
        telemetry: Optional[EngineTelemetry] = None,
        lpt: bool = True,
        adaptive_batching: bool = True,
        cost_model: Optional[CostModel] = None,
        max_inflight: Optional[int] = None,
        coalesce: bool = True,
        coalesce_window_s: float = 0.002,
        coalesce_max_batch: int = 128,
        speculate: bool = False,
        speculate_after: float = 1.5,
        deadline: Optional[float] = None,
        snapshot_transport: str = "shm",
        stream_window: Optional[int] = None,
        cascade: Optional[CascadePolicy] = None,
        speculate_fallback: Optional[Callable] = None,
        retries: int = 0,
        retry_base_ms: float = DEFAULT_RETRY_BASE_MS,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        journal=None,
    ) -> None:
        if executor is not None and (
            jobs is not None or executor_kind is not None or max_inflight is not None
        ):
            raise ValueError(
                "pass either executor or jobs/executor_kind/max_inflight, not both"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 or None")
        if speculate_after <= 0:
            raise ValueError("speculate_after must be > 0")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds or None")
        if snapshot_transport not in SNAPSHOT_TRANSPORTS:
            raise ValueError(
                f"unknown snapshot transport {snapshot_transport!r}; "
                f"expected one of {SNAPSHOT_TRANSPORTS}"
            )
        if stream_window is not None and stream_window < 1:
            raise ValueError("stream_window must be >= 1 or None")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if retry_base_ms <= 0:
            raise ValueError("retry_base_ms must be > 0")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s must be >= 0")
        self.executor = (
            executor
            if executor is not None
            else create_executor(jobs or 1, kind=executor_kind, max_inflight=max_inflight)
        )
        self.cache = cache
        self.batch_size = batch_size
        self.telemetry = telemetry or EngineTelemetry()
        self.lpt = lpt
        self.adaptive_batching = adaptive_batching
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.coalescer = (
            MicroBatchCoalescer(
                window_s=coalesce_window_s,
                max_batch=coalesce_max_batch,
                on_flush=self.telemetry.record_coalesce_flush,
            )
            if coalesce
            else None
        )
        self.speculate = speculate
        self.speculate_after = speculate_after
        self.speculate_fallback = speculate_fallback
        self.cascade = cascade
        self.cascade_router = (
            CascadeRouter(cascade, telemetry=self.telemetry) if cascade is not None else None
        )
        self.retry_policy = RetryPolicy(retries=retries, base_ms=retry_base_ms)
        self.breakers = BreakerBoard(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        if journal is None or isinstance(journal, RunJournal):
            self.journal = journal
        else:
            self.journal = RunJournal(journal)
        self.deadline = deadline
        self.snapshot_transport = snapshot_transport
        self.stream_window = stream_window if stream_window is not None else DEFAULT_STREAM_WINDOW
        #: Speculation poll interval of the dispatch loop; tests and
        #: benchmarks tighten it to race short synthetic chunks.
        self.speculation_poll_s = DEFAULT_SPECULATION_POLL_S
        #: The deadline planner's post-shedding makespan prediction for the
        #: most recent run (0.0 when no deadline is set).
        self._predicted_makespan_s = 0.0
        #: Live/peak chunk coroutines; touched only on the executor's loop
        #: thread, so no lock is needed.
        self._inflight = 0
        self._inflight_peak = 0

    # -- the main entry point -------------------------------------------------------

    def run(self, requests: Iterable[DetectionRequest]) -> RunResultStore:
        """Execute every request; results come back in request order.

        With a ``deadline``, requests the planner shed to fit the budget
        come back as explicit ``skipped`` results in their original
        positions — the store always holds exactly one result per request.
        """
        indexed: List[_IndexedRequest] = list(enumerate(requests))
        start = time.perf_counter()
        results, shed = self._execute_indexed(indexed)
        elapsed = time.perf_counter() - start
        self.telemetry.record_run(elapsed)
        if self.deadline is not None:
            self.telemetry.record_deadline(
                budget_s=self.deadline,
                predicted_s=self._predicted_makespan_s,
                actual_s=elapsed,
                shed=shed,
            )
        return RunResultStore(results)

    def run_counts(self, requests: Iterable[DetectionRequest]):
        """Shorthand: execute and fold straight into confusion counts."""
        return self.run(requests).confusion()

    def run_streaming(
        self,
        requests: Iterable[DetectionRequest],
        *,
        window: Optional[int] = None,
    ) -> Iterator[RunResult]:
        """Execute a request *stream* in bounded windows, yielding results.

        At most ``window`` requests (default: the engine's
        ``stream_window``) are pulled from the iterator, planned and
        dispatched at a time, so peak residency is O(window) no matter how
        large the stream — the producer is never run ahead of consumption by
        more than one window.  Within each window the full machinery of
        :meth:`run` applies unchanged: (model, strategy) grouping,
        cost-model adaptive chunk sizing, LPT ordering, the
        completion-order merge, speculation and the response cache — and a
        ``deadline`` budgets each window independently.  Results are yielded
        in request order as each window drains; for the same requests the
        result sequence is element-identical to ``run(list(requests))``
        (modulo per-window deadline shedding, which a whole-run budget
        cannot match window for window).

        Distributed executors re-broadcast the cache snapshot per window, so
        later windows see entries earlier windows populated.
        """
        size = self.stream_window if window is None else window
        if size < 1:
            raise ValueError("stream window must be >= 1")
        return self._stream_windows(iter(requests), size)

    def _stream_windows(
        self, iterator: Iterator[DetectionRequest], size: int
    ) -> Iterator[RunResult]:
        start = time.perf_counter()
        try:
            while True:
                batch: List[_IndexedRequest] = list(
                    enumerate(itertools.islice(iterator, size))
                )
                if not batch:
                    break
                window_start = time.perf_counter()
                results, shed = self._execute_indexed(batch)
                if self.deadline is not None:
                    self.telemetry.record_deadline(
                        budget_s=self.deadline,
                        predicted_s=self._predicted_makespan_s,
                        actual_s=time.perf_counter() - window_start,
                        shed=shed,
                    )
                yield from results
        finally:
            # One wall-clock observation per streamed run, recorded even if
            # the consumer abandons the stream early.
            self.telemetry.record_run(time.perf_counter() - start)

    def run_streaming_counts(
        self,
        requests: Iterable[DetectionRequest],
        *,
        window: Optional[int] = None,
    ):
        """Shorthand: stream-execute and fold into confusion counts.

        Nothing is buffered: each result is folded the moment its window
        drains, so this is the O(window)-memory counterpart of
        :meth:`run_counts`.
        """
        from repro.engine.requests import confusion_from_results

        return confusion_from_results(self.run_streaming(requests, window=window))

    def _execute_indexed(
        self, indexed: List[_IndexedRequest]
    ) -> Tuple[List[Optional[RunResult]], int]:
        """Plan and dispatch one materialised batch (a whole run or a window).

        Returns the results in request order plus the number of requests the
        deadline planner shed.  Shared by :meth:`run` (one batch = the whole
        run) and :meth:`run_streaming` (one batch per window).  With a
        cascade policy the batch routes down the tier ladder, each tier's
        sub-batch executing through :meth:`_execute_plain` — so streaming
        windows, LPT, speculation and the cache compose per tier unchanged.
        """
        if self.cascade_router is not None:
            return self.cascade_router.execute(indexed, self._execute_plain)
        return self._execute_plain(indexed)

    def _execute_plain(
        self, indexed: List[_IndexedRequest]
    ) -> Tuple[List[Optional[RunResult]], int]:
        """Single-tier plan/dispatch: journal-skip, chunk, shed, run, merge."""
        total = len(indexed)
        results: List[Optional[RunResult]] = [None] * total
        if self.journal is not None:
            indexed = self._journal_filter(indexed, results)
        chunks, shed = self._chunk(indexed)
        for index, request in shed:
            results[index] = shed_result(request)
        if chunks:
            self._run_chunks(chunks, results)
        self.telemetry.record_requests(total)
        self.telemetry.record_resident(total)
        return results, len(shed)

    # -- generic parallel map (non-LLM work, e.g. the Inspector baseline) ----------

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Run ``fn`` over ``items`` on the engine's executor, with telemetry.

        With a distributed executor, ``fn`` and every item must be picklable
        (a module-level function or a method of a picklable instance).
        """
        items = list(items)
        start = time.perf_counter()
        mapped = self.executor.map(fn, items)
        self.telemetry.record_requests(len(items))
        self.telemetry.record_run(time.perf_counter() - start)
        return mapped

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Release the executor's pool/loop (idempotent).

        The cache and cost model are left untouched — persistence stays an
        explicit decision (:meth:`ResponseCache.save` /
        :meth:`CostModel.save` / the pipeline's ``save_cache``).
        """
        close = getattr(self.executor, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ------------------------------------------------------------------

    def _capacity(self) -> int:
        """How many chunks the executor genuinely runs at once."""
        return max(1, self.executor.capacity)

    def _chunk(
        self, indexed: Sequence[_IndexedRequest]
    ) -> Tuple[List[List[_IndexedRequest]], List[_IndexedRequest]]:
        """Group, size, budget and order the work items for this run.

        1. group requests by (model, strategy, scoring) in plan order;
        2. size each group's chunks — ``batch_size``, or scaled by the cost
           model's per-request estimate relative to the median group so
           slow groups split finer and fast groups batch coarser;
        3. with a ``deadline``, shed the lowest-value chunks until the
           predicted makespan fits the budget (shed requests are returned,
           not dropped);
        4. order the chunks LPT (estimated chunk seconds, descending).
           Stable sort: without estimates the run keeps plan order exactly,
           so a cold engine behaves like the pre-cost-model engine.

        Returns ``(chunks, shed_requests)``.
        """
        groups: "OrderedDict[Tuple[int, str, str], List[_IndexedRequest]]" = OrderedDict()
        for index, request in indexed:
            key = (id(request.model), request.strategy.value, request.scoring)
            groups.setdefault(key, []).append((index, request))

        estimates: Dict[Tuple[int, str, str], Optional[float]] = {}
        for key, group in groups.items():
            model = group[0][1].model
            identity = model.cache_identity
            strategy_name = group[0][1].strategy.value
            # Cold-start fix for non-LLM tiers: a model advertising
            # cost_prior_s (the cascade's analyzer/inspector adapters)
            # prices as cheap-but-unknown instead of returning None and
            # blocking LPT ordering for the whole plan.  Observations
            # always shadow the prior (planning_estimate), and the prior
            # never feeds quantile_estimate — no speculation on groups
            # whose spread was never measured.
            prior = getattr(model, "cost_prior_s", None)
            if prior is not None:
                self.cost_model.set_prior(identity, strategy_name, prior)
            estimates[key] = self.cost_model.planning_estimate(identity, strategy_name)
        known = [cost for cost in estimates.values() if cost is not None and cost > 0]
        median_cost = statistics.median(known) if known else None

        chunks: List[List[_IndexedRequest]] = []
        chunk_costs: List[float] = []
        for key, group in groups.items():
            cost = estimates[key]
            size = self.batch_size
            if (
                self.adaptive_batching
                and cost is not None
                and cost > 0
                and median_cost is not None
            ):
                scaled = int(round(self.batch_size * median_cost / cost))
                size = max(1, max(self.batch_size // 4, min(self.batch_size * 4, scaled)))
            per_request = cost if cost is not None else (median_cost or 0.0)
            for start in range(0, len(group), size):
                chunk = group[start : start + size]
                chunks.append(chunk)
                chunk_costs.append(per_request * len(chunk))
        shed: List[_IndexedRequest] = []
        if self.deadline is not None:
            chunks, chunk_costs, shed = self._plan_deadline(chunks, chunk_costs)
        if self.lpt and known:
            order = sorted(range(len(chunks)), key=lambda i: -chunk_costs[i])
            chunks = [chunks[i] for i in order]
        return chunks, shed

    def _plan_deadline(
        self,
        chunks: List[List[_IndexedRequest]],
        chunk_costs: List[float],
    ) -> Tuple[List[List[_IndexedRequest]], List[float], List[_IndexedRequest]]:
        """Shed the lowest-value chunks until the predicted makespan fits.

        The makespan prediction is the list-scheduling lower bound
        ``max(total_cost / capacity, longest_chunk)``.  While it exceeds
        the budget, chunks are shed highest seconds-per-request first —
        the *cheapest-value* work: a slow group delivers the fewest scored
        requests per second of budget, so shedding it buys the most time
        per lost answer.  Chunks with no cost estimate are never shed
        (there is no evidence against them, and a cold engine must behave
        exactly like one without a deadline).
        """
        capacity = self._capacity()

        def predicted(keep: Sequence[bool]) -> float:
            costs = [cost for cost, kept in zip(chunk_costs, keep) if kept and cost > 0]
            if not costs:
                return 0.0
            return max(sum(costs) / capacity, max(costs))

        keep = [True] * len(chunks)
        prediction = predicted(keep)
        if prediction > self.deadline:
            shed_order = sorted(
                (i for i in range(len(chunks)) if chunk_costs[i] > 0),
                key=lambda i: -(chunk_costs[i] / len(chunks[i])),
            )
            # A shed only sticks if it lowers the prediction: when the
            # longest chunk dominates the bound, shedding anything else
            # discards answers for zero makespan gain.  Multiple passes,
            # because removing the dominant chunk can flip the binding
            # bound to total/capacity, making earlier-skipped sheds
            # worthwhile after all.
            progressed = True
            while prediction > self.deadline and progressed:
                progressed = False
                for i in shed_order:
                    if not keep[i]:
                        continue
                    keep[i] = False
                    candidate = predicted(keep)
                    if candidate < prediction:
                        prediction = candidate
                        progressed = True
                        if prediction <= self.deadline:
                            break
                    else:
                        keep[i] = True
        self._predicted_makespan_s = prediction
        if all(keep):
            return chunks, chunk_costs, []
        shed = [request for i, chunk in enumerate(chunks) if not keep[i] for request in chunk]
        kept_chunks = [chunk for i, chunk in enumerate(chunks) if keep[i]]
        kept_costs = [cost for i, cost in enumerate(chunk_costs) if keep[i]]
        return kept_chunks, kept_costs, shed

    def _run_chunks(
        self,
        chunks: Sequence[Sequence[_IndexedRequest]],
        results: List[Optional[RunResult]],
    ) -> None:
        """Run the dispatch loop with this executor's work item.

        In-process executors run :meth:`_run_chunk` (or, async-native, the
        :meth:`_run_chunk_async` coroutine, whose model I/O is awaited on
        the executor's loop under its ``max_inflight`` semaphore) on the
        chunk itself.  A distributed executor runs the picklable
        :func:`_score_chunk_payload` on ``(chunk, snapshot_ref)``: the
        cache snapshot is published once around the loop — into a
        shared-memory block workers attach in place, or the temp-file
        fallback (see :mod:`repro.engine.snapshot`) — and retired when the
        run finishes, including on error; workers already attached keep
        their mapping alive, so retirement never races a merge.
        """
        if not self.executor.distributed:
            if not self.executor.native_async:
                self._dispatch(self._run_chunk, lambda chunk: chunk, chunks, results)
                return
            self._inflight_peak = 0  # peak is per run; telemetry keeps the max
            self._dispatch(self._run_chunk_async, lambda chunk: chunk, chunks, results)
            self.telemetry.record_inflight_peak(self._inflight_peak)
            return
        published = (
            _publish_snapshot(
                self.cache.snapshot_records(), transport=self.snapshot_transport
            )
            if self.cache is not None
            else None
        )
        snapshot_ref = published.payload if published is not None else None
        if published is not None:
            self.telemetry.record_broadcast(published.nbytes)
        try:
            self._dispatch(
                _score_chunk_payload, lambda chunk: (chunk, snapshot_ref), chunks, results
            )
        finally:
            _retire_snapshot(published)

    def _dispatch(
        self,
        fn: Callable,
        make_item: Callable,
        chunks: Sequence[Sequence[_IndexedRequest]],
        results: List[Optional[RunResult]],
    ) -> None:
        """The one dispatch loop: completion order, retry, breakers, speculation.

        Chunks go to the executor's ``submit_stream`` with at most
        ``capacity`` copies in flight, so every in-flight copy is genuinely
        running and its elapsed wall clock is attributable.  Each copy's
        tag (:class:`_Copy`) names the chunk it executes.  Per settled copy:

        * **success** — the first success of a chunk wins: it is merged
          exactly once (:meth:`_merge`) and its sibling copies are
          cancelled (queued / async) or their later results dropped;
        * **failure with a sibling still running** — the sibling decides
          the chunk;
        * **failure of the last copy** — the retry policy decides.  Budget
          0 re-raises (the ``finally`` cancels everything outstanding);
          a retryable error within budget re-enters the loop after
          ``RetryPolicy.delay_s`` — held in a backoff heap, never slept
          inside a worker — and anything else gives up as explicit failed
          results.  Breakers observe successes and these final give-ups
          only, never attempt-level flakes a retry then fixed, so whether
          a run degrades never depends on scheduling order.

        Before submission :meth:`_breaker_route` gates every chunk through
        its model's breaker (reroute down the cascade or fail explicitly).
        With ``speculate`` and more than one slot, once no planned chunk
        is waiting the loop duplicates the most overdue running chunks
        (:meth:`_chunk_threshold_s`) into idle capacity — at most one
        duplicate per chunk, on the ``speculate_fallback`` model when one
        is configured.  The loop returns as soon as every chunk is
        decided: a losing copy is abandoned, never waited for.
        """
        stream = self.executor.submit_stream(fn)
        capacity = self._capacity()
        policy = self.retry_policy
        thresholds: List[Optional[float]] = []
        if self.speculate and capacity > 1:
            thresholds = [self._chunk_threshold_s(chunk) for chunk in chunks]
        # A cold cost model cannot declare anything overdue: block on
        # completions instead of polling.
        speculate = any(threshold is not None for threshold in thresholds)
        pending = deque((index, 0) for index in range(len(chunks)))
        #: Backoff heap: (ready_at, tiebreak, chunk index, attempt).
        delayed: List[Tuple[float, int, int, int]] = []
        tiebreak = itertools.count()
        running: _Running = {}
        speculated: set = set()
        decided: set = set()
        try:
            while len(decided) < len(chunks):
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, index, attempt = heapq.heappop(delayed)
                    pending.append((index, attempt))
                while pending and stream.inflight < capacity:
                    index, attempt = pending.popleft()
                    routed = self._breaker_route(chunks[index])
                    if routed is None:
                        self.telemetry.record_breaker_short_circuits(1)
                        self._fail(chunks[index], results)
                        decided.add(index)
                        continue
                    copy = _Copy(index, attempt, routed)
                    future = stream.submit(make_item(routed), copy)
                    running[index] = (time.monotonic(), copy, [future])
                if not stream.inflight:
                    if delayed:  # nothing runs until the next backoff matures
                        time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue
                timeout = self.speculation_poll_s if speculate else None
                if delayed:
                    wake = max(0.0, delayed[0][0] - time.monotonic())
                    timeout = wake if timeout is None else min(timeout, wake)
                for copy, future in stream.wait(timeout):
                    index = copy.index
                    if index in decided:
                        # The losing copy of a race that already resolved.
                        if copy.duplicate:
                            self.telemetry.record_speculation(wasted=1)
                        continue
                    live = running[index][2]
                    live.remove(future)
                    error = future.exception()
                    if error is None:
                        decided.add(index)
                        for sibling in running.pop(index)[2]:
                            sibling.cancel()
                        self.breakers.breaker(
                            copy.chunk[0][1].model.cache_identity
                        ).record_success()
                        if copy.duplicate:
                            self.telemetry.record_speculation(
                                won=1, fallback_won=1 if copy.fallback else 0
                            )
                        self._merge(chunks[index], copy.chunk, future.result(), results)
                        continue
                    if live:
                        # A sibling is still running: let it decide the
                        # chunk — speculation must never *add* a failure
                        # mode on exactly the flaky backends it exists for.
                        if copy.duplicate:
                            self.telemetry.record_speculation(wasted=1)
                        continue
                    del running[index]
                    identity = copy.chunk[0][1].model.cache_identity
                    if policy.allows(copy.attempt) and is_retryable(error):
                        self.telemetry.record_retries(1)
                        ready_at = time.monotonic() + policy.delay_s(
                            copy.attempt, key=f"{identity}|{index}"
                        )
                        heapq.heappush(
                            delayed, (ready_at, next(tiebreak), index, copy.attempt + 1)
                        )
                        continue
                    if not policy.enabled:
                        raise error
                    if self.breakers.breaker(identity).record_failure():
                        self.telemetry.record_breaker_opens(1)
                    self.telemetry.record_retry_giveups(1)
                    self._fail(chunks[index], results)
                    decided.add(index)
                idle = capacity - stream.inflight
                # Freed slots belong to queued originals first: a duplicate
                # jumping the queue would push first-copy work *behind*
                # re-executed work and lengthen the makespan.
                if not speculate or pending or idle <= 0:
                    continue
                for index in self._overdue(running, thresholds, speculated)[:idle]:
                    _, original, live = running[index]
                    duplicate = original._replace(duplicate=True)
                    fallback_model = (
                        self.speculate_fallback(original.chunk[0][1].model)
                        if self.speculate_fallback is not None
                        else None
                    )
                    if fallback_model is not None:
                        # Cross-backend: race the straggler against a
                        # cheaper tier instead of a same-backend twin.
                        duplicate = duplicate._replace(
                            chunk=_rewrite(original.chunk, fallback_model), fallback=True
                        )
                    live.append(stream.submit(make_item(duplicate.chunk), duplicate))
                    speculated.add(index)
                    self.telemetry.record_speculation(
                        launched=1, fallback_launched=1 if duplicate.fallback else 0
                    )
        finally:
            for copy in stream.close():
                if copy.duplicate and copy.index in decided:
                    # A duplicate abandoned because its original won.
                    self.telemetry.record_speculation(wasted=1)

    @staticmethod
    def _overdue(
        running: _Running,
        thresholds: Sequence[Optional[float]],
        speculated: set,
    ) -> List[int]:
        """Running chunks past their speculation threshold, most overdue first.

        One duplicate per chunk, ever: chunks already in ``speculated``
        never qualify again.
        """
        now = time.monotonic()
        overdue: List[Tuple[float, int]] = []
        for index, (start, _copy, _live) in running.items():
            threshold = thresholds[index]
            if index in speculated or threshold is None:
                continue
            elapsed = now - start
            if elapsed > threshold:
                overdue.append((elapsed / threshold, index))
        overdue.sort(reverse=True)
        return [index for _, index in overdue]

    def _chunk_threshold_s(self, chunk: Sequence[_IndexedRequest]) -> Optional[float]:
        """Elapsed seconds after which ``chunk`` counts as a straggler.

        ``speculate_after`` times the cost model's p95 per-request estimate
        for the chunk's group, scaled by the chunk length.  ``None`` when
        the group has never been observed — with no evidence of what
        "normal" looks like, a chunk can never be declared overdue.
        """
        request = chunk[0][1]
        quantile = self.cost_model.quantile_estimate(
            request.model.cache_identity, request.strategy.value, SPECULATION_QUANTILE
        )
        if quantile is None or quantile <= 0:
            return None
        return self.speculate_after * quantile * len(chunk)

    def _breaker_route(
        self, chunk: Sequence[_IndexedRequest]
    ) -> Optional[Sequence[_IndexedRequest]]:
        """Gate one chunk through its model's circuit breaker.

        Closed (or half-open admitting this probe): the chunk runs as-is.
        Open: walk down the cascade ladder (when a policy is configured)
        to the next-cheaper tier whose breaker admits the work and rewrite
        the requests onto that model.  ``None`` when every candidate is
        open or there is no ladder — the caller surfaces explicit failed
        results without a model call.
        """
        model = chunk[0][1].model
        current = model
        seen = set()
        while True:
            identity = current.cache_identity
            if identity in seen:  # ladder cycle guard
                return None
            seen.add(identity)
            if self.breakers.breaker(identity).allow():
                if current is model:
                    return chunk
                self.telemetry.record_breaker_reroutes(1)
                return _rewrite(chunk, current)
            if self.cascade is None:
                return None
            current = self.cascade.fallback_model(current)
            if current is None:
                return None

    # -- merge ------------------------------------------------------------------------

    def _merge(
        self,
        original: Sequence[_IndexedRequest],
        executed: Sequence[_IndexedRequest],
        outcome: _ChunkOutcome,
        results: List[Optional[RunResult]],
    ) -> None:
        """Fold one chunk's winning outcome into the run, exactly once.

        Results land in their request slots; a distributed worker's fresh
        cache entries, the telemetry counters and the cost observation are
        attributed to the model that actually answered (``executed``); the
        journal keys on the ``original`` requests so a resume finds them.
        """
        scored, new_entries, counters, elapsed = outcome
        for index, result in scored:
            results[index] = result
        if new_entries and self.cache is not None:
            identity = executed[0][1].model.cache_identity
            for key, response in new_entries.items():
                self.cache.put_key(key, response, identity=identity)
        self._record_chunk(executed, counters, elapsed)
        self._journal_record(original, scored)

    def _fail(
        self, chunk: Sequence[_IndexedRequest], results: List[Optional[RunResult]]
    ) -> None:
        """A chunk the fault layer gave up on: explicit failed results.

        Nothing feeds the cache, telemetry counters, cost model or journal
        — mirroring how deadline-shed work is handled.
        """
        for index, request in chunk:
            results[index] = failed_result(request)
        self.telemetry.record_failed_requests(len(chunk))

    # -- run journal ------------------------------------------------------------------

    def _journal_key(self, request: DetectionRequest) -> str:
        return request_key(
            request.model.cache_identity,
            request.strategy.value,
            request.scoring,
            request.record.name,
        )

    def _journal_filter(
        self,
        indexed: List[_IndexedRequest],
        results: List[Optional[RunResult]],
    ) -> List[_IndexedRequest]:
        """Answer journaled requests in place; return the remaining work.

        A journaled response is *re-scored* through the same deterministic
        ``score_response`` path it originally took, so a resumed run's
        results are bit-identical to an uninterrupted one — without ever
        touching the model.  The result names the model that answered
        (journaled as ``model``: a breaker may have rerouted the chunk to a
        cascade tier); lines written without the field replay under the
        request's own model.  Journaled shed entries replay as skips;
        failures are never journaled, so a resume retries them.
        """
        remaining: List[_IndexedRequest] = []
        hits = 0
        for index, request in indexed:
            payload = self.journal.get(self._journal_key(request))
            result = None
            if payload is not None:
                if payload.get("skipped"):
                    result = shed_result(request)
                elif isinstance(payload.get("response"), str):
                    result = score_response(request, payload["response"])
                    if isinstance(payload.get("model"), str):
                        result.model = payload["model"]
            if result is not None:
                results[index] = result
                hits += 1
            else:
                remaining.append((index, request))
        if hits:
            self.telemetry.record_journal(hits=hits)
        return remaining

    def _journal_record(
        self,
        chunk: Sequence[_IndexedRequest],
        scored: Sequence[Tuple[int, RunResult]],
    ) -> None:
        """Durably append one completed chunk's outcomes to the journal.

        Keys are per-request content hashes over the *original* requests,
        so resume hits survive re-drawn chunk boundaries and
        breaker-rerouted execution alike.  Failed results are excluded —
        a resume should retry them, not replay the failure.
        """
        if self.journal is None or not scored:
            return
        by_index = {index: request for index, request in chunk}
        entries: Dict[str, Dict[str, object]] = {}
        for index, result in scored:
            request = by_index.get(index)
            if request is None or result.failed:
                continue
            entries[self._journal_key(request)] = {
                "record": request.record.name,
                "model": result.model,
                "response": result.response,
                "skipped": result.skipped,
            }
        if not entries:
            return
        self.journal.record(chunk_journal_key(sorted(entries)), entries)
        self.telemetry.record_journal(appends=1)

    def _record_chunk(
        self,
        chunk: Sequence[_IndexedRequest],
        counters: Dict[str, int],
        elapsed: float,
    ) -> None:
        """Fold one completed chunk into telemetry and the cost model."""
        request = chunk[0][1]
        model = request.model
        self.telemetry.record_model_calls(counters["calls"])
        # Coalesced wire calls are recorded by the coalescer's flush hook,
        # not per chunk — a flush spans chunks, so charging it here would
        # double count.
        self.telemetry.record_wire_calls(counters.get("wire", 0))
        # Distributed chunks report their worker's first shm attach; local
        # chunks never set the key.
        self.telemetry.record_shm_attach(counters.get("attach", 0))
        self.telemetry.record_cache(counters["hits"], counters["misses"])
        self.telemetry.record_group(
            model.name,
            request.strategy.value,
            requests=len(chunk),
            seconds=elapsed,
            hits=counters["hits"],
            misses=counters["misses"],
            calls=counters["calls"],
        )
        self.cost_model.observe(
            model.cache_identity, request.strategy.value, elapsed / len(chunk)
        )

    def _run_chunk(self, chunk: Sequence[_IndexedRequest]) -> _ChunkOutcome:
        """One executor work item: a same-(model, strategy, scoring) chunk.

        Counters are collected locally and merged by the dispatching thread
        (:meth:`_record_chunk`), keeping worker threads off the telemetry
        lock and giving every chunk an attributable wall time.
        """
        start = time.perf_counter()
        model = chunk[0][1].model
        strategy = chunk[0][1].strategy
        counters = {"hits": 0, "misses": 0, "calls": 0, "wire": 0}
        codes = [request.code for _, request in chunk]
        responses = run_strategy_batch(
            lambda prompts: self._generate_many(model, prompts, counters), strategy, codes
        )
        scored = [
            (index, score_response(request, response))
            for (index, request), response in zip(chunk, responses)
        ]
        return scored, {}, counters, time.perf_counter() - start

    def _generate_many(
        self, model, prompts: Sequence[str], counters: Dict[str, int]
    ) -> List[str]:
        """Cache-aware batched generation: only misses reach the model."""
        prompts = list(prompts)
        if self.cache is None:
            counters["calls"] += len(prompts)
            counters["wire"] += 1
            return _require_batch_length(
                list(model.generate_batch(prompts)), len(prompts)
            )
        identity = model.cache_identity
        responses, hits, misses = _generate_with_cache(
            model,
            prompts,
            lambda prompt: self.cache.get(identity, prompt),
            lambda prompt, response: self.cache.put(identity, prompt, response),
        )
        counters["hits"] += hits
        counters["misses"] += misses
        counters["calls"] += misses
        if misses:
            counters["wire"] += 1
        return responses

    # -- the async-native chunk path -------------------------------------------------

    async def _run_chunk_async(self, chunk: Sequence[_IndexedRequest]) -> _ChunkOutcome:
        """One chunk as a coroutine: model I/O awaited, never thread-blocked.

        The semantics mirror :meth:`_run_chunk` exactly — same prompts,
        same cache interaction, same scoring — so the async-native path
        inherits the engine's bit-identical-results guarantee.  Only the
        transport differs: misses go through ``generate_batch_async``
        (optionally merged with other chunks' misses by the coalescer)
        instead of a blocking ``generate_batch``.
        """
        self._inflight += 1
        self._inflight_peak = max(self._inflight_peak, self._inflight)
        try:
            start = time.perf_counter()
            model = chunk[0][1].model
            strategy = chunk[0][1].strategy
            counters = {"hits": 0, "misses": 0, "calls": 0, "wire": 0}
            codes = [request.code for _, request in chunk]

            async def generate_many(prompts: Sequence[str]) -> List[str]:
                return await self._generate_many_async(model, strategy, prompts, counters)

            responses = await run_strategy_batch_async(generate_many, strategy, codes)
            scored = [
                (index, score_response(request, response))
                for (index, request), response in zip(chunk, responses)
            ]
            return scored, {}, counters, time.perf_counter() - start
        finally:
            self._inflight -= 1

    async def _generate_many_async(
        self, model, strategy, prompts: Sequence[str], counters: Dict[str, int]
    ) -> List[str]:
        """Async mirror of :meth:`_generate_many`: only misses reach the model.

        Misses are sent through the micro-batch coalescer when one is
        configured, keyed by (model, strategy), so chunks awaiting a slot
        at the same moment share one ``generate_batch_async`` wire call.
        Sync-only models (no native async override) bypass the coalescer:
        their batch call runs serially in one offload thread, so merging
        many chunks into it would *serialise* work the per-chunk offloads
        run in parallel across the executor's pool.
        """
        prompts = list(prompts)
        coalesce = self.coalescer is not None and getattr(
            model, "has_native_async", True
        )

        async def call_model(miss_prompts: List[str]) -> List[str]:
            if coalesce:
                # The coalescer's _call enforces the length contract and
                # its flush hook feeds the wire-call counter.
                return await self.coalescer.generate(
                    (id(model), strategy.value),
                    model.generate_batch_async,
                    miss_prompts,
                )
            counters["wire"] += 1
            return _require_batch_length(
                list(await model.generate_batch_async(miss_prompts)),
                len(miss_prompts),
                "generate_batch_async",
            )

        if self.cache is None:
            counters["calls"] += len(prompts)
            return await call_model(prompts)
        identity = model.cache_identity
        responses, miss_positions = _partition_cached(
            prompts, lambda prompt: self.cache.get(identity, prompt)
        )
        if miss_positions:
            generated = await call_model([prompts[i] for i in miss_positions])
            for position, response in zip(miss_positions, generated):
                responses[position] = response
                self.cache.put(identity, prompts[position], response)
        counters["hits"] += len(prompts) - len(miss_positions)
        counters["misses"] += len(miss_positions)
        counters["calls"] += len(miss_positions)
        return responses  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = f"cache={len(self.cache)} entries" if self.cache is not None else "no cache"
        return (
            f"<ExecutionEngine executor={self.executor!r}"
            f" batch_size={self.batch_size} lpt={self.lpt} {cache}>"
        )
