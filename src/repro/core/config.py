"""Configuration of the end-to-end pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.corpus.generator import CorpusConfig
from repro.dataset.tokenizer import DEFAULT_TOKEN_LIMIT
from repro.prompting.strategy import PromptStrategy

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end pipeline configuration.

    Attributes
    ----------
    corpus:
        Corpus generation configuration (seed, shuffling).
    token_limit:
        Prompt budget for the evaluation subset (paper §3.2 uses 4k).
    default_strategy:
        Prompt strategy used by :meth:`DataRacePipeline.detect` when none is
        given.
    default_model:
        Model used when none is given (GPT-4 is the paper's strongest).
    n_folds, fold_seed:
        Cross-validation layout (paper §3.5 uses 5 stratified folds).
    jobs:
        Execution-engine parallelism: 1 runs serially, N > 1 uses a
        pool of that width.  Results are identical either way.
    executor:
        Executor backend: ``"serial"``, ``"thread"``, ``"process"``,
        ``"async"`` or any kind registered with
        :func:`repro.engine.executors.register_executor`.  ``None`` keeps
        the historical ``jobs`` semantics (serial when 1, thread pool
        otherwise).  Results are identical across backends; only wall
        time changes.
    lpt:
        Dispatch chunks longest-processing-time first using the engine's
        cost model (falls back to plan order until latencies have been
        observed).
    adaptive_batching:
        Let the cost model scale chunk sizes per (model, strategy) group
        around ``batch_size``; off, every chunk is exactly ``batch_size``.
    batch_size:
        Requests per engine chunk (one chunk = one executor work item).
        The cost model adapts actual chunk sizes around this baseline.
    max_inflight:
        Async backend only: maximum concurrently in-flight chunk
        coroutines (the event-loop semaphore width).  ``None`` falls back
        to ``jobs``, matching the thread backend's worker count.
    coalesce:
        Async backend only: merge concurrent same-(model, strategy) model
        calls into single ``generate_batch_async`` wire calls.  Results
        are identical either way.
    coalesce_window_s, coalesce_max_batch:
        The coalescer's collection window (seconds) and early-flush
        prompt limit.
    speculate:
        Tail-latency control: race a duplicate of any chunk that
        overshoots the cost model's p95 estimate into idle executor
        capacity; the first completion wins.  Results are identical
        either way — speculation only caps straggler wall time.
    speculate_after:
        Straggler threshold multiplier over the p95 per-chunk estimate
        before a duplicate is launched.
    deadline:
        Optional per-run latency budget in seconds: when the predicted
        makespan exceeds it, the engine sheds the lowest-value chunks and
        returns explicit skipped results for them.  ``None`` disables.
    cache_entries:
        In-memory response-cache capacity; 0 disables caching entirely.
    cost_aware_eviction:
        Weight response-cache LRU eviction by the cost model's
        seconds-per-request estimate per model identity, so slow models'
        responses survive longest in a full cache.
    cache_path:
        Optional on-disk response-cache location (a directory of JSONL
        segments; legacy single-file JSON caches still load): loaded
        automatically on first engine use, written by
        :meth:`DataRacePipeline.save_cache`.
    cache_max_bytes:
        Optional byte budget for the in-memory cache tier; eviction runs
        until entries fit, preferring the most bytes reclaimed per
        cost-model second-to-regenerate.  ``None`` leaves only the entry
        count bound.
    cache_ttl_s:
        Optional maximum in-memory age of a cache entry in seconds
        (dropped lazily on lookup, evicted first under pressure); the
        on-disk store is unaffected.  ``None`` disables expiry.
    cache_shared_read:
        Serve on-disk cache entries through the host-wide mmap-backed
        :class:`~repro.engine.sharedstore.SharedSegmentStore` instead of
        loading a private in-memory copy of the segments.  Requires
        ``cache_path``.  Results are identical either way.
    snapshot_transport:
        How the warm cache reaches process-executor workers: ``"shm"``
        (default, shared-memory broadcast with temp-file fallback) or
        ``"file"`` (pickle temp file).  Results are identical either way.
    stream:
        Evaluate through the bounded-memory streaming path: corpus
        generation, featurisation and request construction stay lazy and
        the engine plans/dispatches in windows of ``stream_window``
        requests (``ExecutionEngine.run_streaming``), so peak RSS is
        O(window) instead of O(corpus).  Results are identical either way.
    stream_window:
        Requests resident at once on the streaming path.  ``None`` keeps
        the engine default
        (:data:`repro.engine.core.DEFAULT_STREAM_WINDOW`).
    cascade:
        Route each record through the tiered detection cascade
        (:mod:`repro.engine.cascade`): cheap tiers answer first and only
        low-confidence or disagreeing verdicts escalate to the request's
        own model (the implicit final tier).  Off, scoring is bit-identical
        to the non-cascaded engine.  With ``speculate`` also on, straggler
        chunks race against a cheaper tier's model (cross-backend
        speculation) instead of a same-model duplicate.
    cascade_tiers:
        Comma-separated cheap-tier ladder, cheapest first: ``static``,
        ``inspector``/``dynamic``, or any zoo model name.
    escalate_below:
        Confidence a cheap-tier verdict must reach to resolve a record;
        ``1.0`` escalates everything (≡ LLM-only), ``0.0`` resolves every
        non-shed answer at the first tier.
    retries:
        Per-chunk retry budget for transient model errors: each failing
        chunk backs off exponentially (with deterministic jitter) and
        re-enters the dispatcher instead of blocking a worker; once the
        budget is exhausted its requests come back as explicit failed
        results rather than aborting the run.  ``0`` fails fast — the
        pre-fault-tolerance behaviour, bit-identical results.
    retry_base_ms:
        Base backoff before the first retry; attempt *k* waits
        ``retry_base_ms * 2**k`` milliseconds, jittered.
    breaker_threshold:
        Consecutive failures that open a model's circuit breaker (keyed
        on ``cache_identity``).  While open, the model's chunks reroute
        to the cascade's next-cheaper tier (with ``cascade``) or fail
        fast; after a cooldown one half-open probe decides whether to
        close it again.
    breaker_cooldown_s:
        How long an open breaker waits before letting a probe through.
    journal:
        Optional path of an append-only JSONL run journal of completed
        chunk outcomes; a run re-invoked with the same journal resumes
        by replaying finished work without re-invoking models.  ``None``
        disables checkpointing.
    """

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    token_limit: int = DEFAULT_TOKEN_LIMIT
    default_strategy: PromptStrategy = PromptStrategy.BP1
    default_model: str = "gpt-4"
    n_folds: int = 5
    fold_seed: int = 7
    jobs: int = 1
    executor: Optional[str] = None
    lpt: bool = True
    adaptive_batching: bool = True
    batch_size: int = 32
    max_inflight: Optional[int] = None
    coalesce: bool = True
    coalesce_window_s: float = 0.002
    coalesce_max_batch: int = 128
    speculate: bool = False
    speculate_after: float = 1.5
    deadline: Optional[float] = None
    cache_entries: int = 65536
    cache_path: Optional[str] = None
    cost_aware_eviction: bool = False
    cache_max_bytes: Optional[int] = None
    cache_ttl_s: Optional[float] = None
    cache_shared_read: bool = False
    snapshot_transport: str = "shm"
    stream: bool = False
    stream_window: Optional[int] = None
    # Tier spec mirrors repro.engine.cascade.DEFAULT_CASCADE_TIERS; kept a
    # literal so importing the config never pulls in the engine package.
    cascade: bool = False
    cascade_tiers: str = "static,gpt-3.5-turbo"
    escalate_below: float = 0.75
    # Fault-tolerance defaults mirror repro.engine.faults; literals for the
    # same reason as the tier spec above.
    retries: int = 0
    retry_base_ms: float = 50.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0
    journal: Optional[str] = None
