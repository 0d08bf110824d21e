"""Command-line entry point: regenerate the paper's tables from the terminal.

Usage::

    python -m repro table2            # GPT-3.5 BP1 vs BP2
    python -m repro table3            # Inspector + 4 LLMs x 3 prompts
    python -m repro table4            # basic fine-tuning cross-validation
    python -m repro table5            # variable identification (pre-trained)
    python -m repro table6            # advanced fine-tuning cross-validation
    python -m repro summary           # corpus + dataset statistics
    python -m repro all               # every table through ONE interleaved
                                      # engine run (the cross-table scheduler)

    python -m repro table3 --jobs 8             # thread pool (same results)
    python -m repro table3 --executor process   # shard across processes
    python -m repro all --executor async --jobs 16   # asyncio backend
    python -m repro all --executor async --max-inflight 256
                                      # async-native model I/O: chunk work
                                      # awaits on one event loop; concurrent
                                      # same-model calls coalesce into
                                      # batched wire calls (--no-coalesce,
                                      # --coalesce-window-ms to tune)
    python -m repro all --sequential            # one engine run per table
    python -m repro all --cache /tmp/repro-cache    # persist responses as
                                      # append-only JSONL segments; legacy
                                      # single-file JSON caches still load
    python -m repro all --no-lpt                # keep plan-order chunk dispatch
    python -m repro all --cache ./cache-dir --shared-cache
                                      # serve disk hits through the host-wide
                                      # mmap-backed shared segment store
    python -m repro all --cache ./c --cache-max-bytes 50000000 --cache-ttl 3600
                                      # size/TTL-tiered in-memory eviction
    python -m repro table3 --executor process --snapshot-transport file
                                      # pin the temp-file broadcast fallback
    python -m repro all --stream                 # bounded-memory streaming:
                                      # requests are planned and dispatched
                                      # in windows (peak RSS O(window), not
                                      # O(corpus)); identical results
    python -m repro all --stream --stream-window 512   # window size
    python -m repro table3 --cascade             # tiered detection cascade:
                                      # static analyzer, then a fast zoo
                                      # model, answer first; only low-
                                      # confidence or disagreeing verdicts
                                      # escalate to the requested LLM
    python -m repro table3 --cascade --cascade-tiers static,inspector,gpt-3.5-turbo
    python -m repro table3 --cascade --escalate-below 0.9   # stricter: more
                                      # records reach the expensive model
    python -m repro all --cascade --speculate    # cross-backend speculation:
                                      # straggler chunks race a cheaper
                                      # tier's model, first verdict wins
    python -m repro all --retries 3              # fault tolerance: failing
                                      # chunks back off and re-enter the
                                      # dispatcher; models that keep failing
                                      # trip per-model circuit breakers
    python -m repro all --retries 3 --journal ./run.journal
                                      # checkpoint completed chunks; an
                                      # interrupted run re-invoked with the
                                      # same journal resumes without new
                                      # model calls for finished work
    python -m repro cache stats --cache ./cache-dir     # segments, dead
                                      # ratio, promotions — no evaluation run
    python -m repro cache compact --cache ./cache-dir
    python -m repro analyze file.c               # static race analyzer:
                                      # structured DRD-* diagnostics with
                                      # line/col spans, text or --json
    python -m repro analyze --corpus --stats     # per-rule fire counts +
                                      # phase-partition telemetry
    python -m repro analyze --corpus --self-lint # CI gate: nonzero exit on
                                      # crashes or malformed diagnostics

``repro all`` plans every table first (requests + reducer), then feeds all
of them to :func:`repro.engine.scheduler.run_all_tables`, which interleaves
the mixed-model request batches into a single
:class:`~repro.engine.core.ExecutionEngine` run — model latency overlaps
across tables instead of the drivers running one after another.  Chunks
are merged in completion order and ordered longest-first by the cost model
(``--lpt``); with ``--cache`` the
cost model persists as ``costmodel.json`` inside the cache directory, so
the next invocation schedules its *first* run with measured latencies.
Results are bit-identical to the sequential path and across every
scheduling/executor combination.  After the run the engine prints one stats
line (request count, cache hit rate, wall time) plus the slowest
(model, strategy) groups, unless ``--no-stats`` is given; per-table lines
appear under ``--sequential``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.engine import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_CASCADE_TIERS,
    DEFAULT_ESCALATE_BELOW,
    DEFAULT_RETRY_BASE_MS,
    DEFAULT_STREAM_WINDOW,
    CascadePolicy,
    CostModel,
    ExecutionEngine,
    ResponseCache,
    available_executors,
    run_all_tables,
)
from repro.eval.experiments import (
    default_subset,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
)
from repro.eval.reporting import format_confusion_table, format_crossval_table

__all__ = ["main"]

_TABLE_TITLES = {
    "table2": "Table 2 — GPT-3.5-turbo, BP1 vs BP2",
    "table3": "Table 3 — Inspector vs LLM prompt strategies",
    "table4": "Table 4",
    "table5": "Table 5 — variable identification (pre-trained)",
    "table6": "Table 6",
}


def _print_summary() -> None:
    from repro.corpus import CorpusRegistry

    registry = CorpusRegistry.build()
    print(registry.summary())
    print()
    print(default_subset().summary())


def _print_result(table: str, result) -> None:
    """Render one table's result in the paper layout."""
    if table in ("table4", "table6"):
        for name, crossval in result.items():
            print(format_crossval_table(crossval.as_rows(), title=f"{_TABLE_TITLES[table]} — {name}"))
            print()
    else:
        print(format_confusion_table(result, title=_TABLE_TITLES[table]))


def _run(
    table: str,
    engine: ExecutionEngine,
    *,
    stream: bool = False,
    stream_window: Optional[int] = None,
) -> None:
    subset = default_subset()
    drivers = {
        "table2": run_table2,
        "table3": run_table3,
        "table4": run_table4,
        "table5": run_table5,
        "table6": run_table6,
    }
    if table == "summary":
        _print_summary()
    elif table in drivers:
        if stream:
            # Route the single table through its plan builder and the
            # streaming plan runner — same rows, O(window) residency.
            from repro.engine import collect_default_plans, run_plans_streaming

            plans = collect_default_plans(subset, tables=(table,))
            results = run_plans_streaming(plans, engine=engine, window=stream_window)
            _print_result(table, results[table])
        else:
            _print_result(table, drivers[table](subset, engine=engine))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown command {table!r}")


def _print_group_stats(engine: ExecutionEngine, top_k: int = 3) -> None:
    """The slowest (model, strategy) groups of the run, if any were recorded."""
    breakdown = engine.telemetry.format_group_stats(top_k)
    if breakdown:
        print(breakdown)


def _run_all(
    engine: ExecutionEngine,
    *,
    sequential: bool,
    stats: bool,
    stream: bool = False,
    stream_window: Optional[int] = None,
) -> None:
    """``repro all``: summary, then every table through the scheduler."""
    _print_summary()
    print()
    if sequential:
        for table in ("table2", "table3", "table4", "table5", "table6"):
            before = engine.telemetry.snapshot()
            _run(table, engine, stream=stream, stream_window=stream_window)
            if stats:
                print(engine.telemetry.format_stats(executor_name=engine.executor.name, since=before))
            print()
        if stats:
            _print_group_stats(engine)
        return
    before = engine.telemetry.snapshot()
    results = run_all_tables(
        default_subset(), engine=engine, stream=stream, stream_window=stream_window
    )
    for table, result in results.items():
        _print_result(table, result)
        print()
    if stats:
        print(engine.telemetry.format_stats(executor_name=engine.executor.name, since=before))
        _print_group_stats(engine)


def _build_engine(args: argparse.Namespace) -> ExecutionEngine:
    # Built (and validated) in main() before any engine exists.
    cascade_policy: Optional[CascadePolicy] = getattr(args, "cascade_policy", None)
    # The cost model persists beside the cache segments, so a later
    # invocation schedules its first run with this run's latencies.  It is
    # built before the cache because cost-aware eviction weighs cache
    # entries with the same model's estimates.
    cost_model = (
        CostModel(path=Path(args.cache) / "costmodel.json")
        if args.cache is not None
        else CostModel()
    )
    cache: Optional[ResponseCache] = None
    if args.cache_entries > 0:
        cache = ResponseCache(
            args.cache_entries,
            path=args.cache,
            cost_aware_eviction=args.cost_aware_eviction,
            cost_model=cost_model,
            max_bytes=args.cache_max_bytes,
            ttl_s=args.cache_ttl,
            shared_read=args.shared_cache,
        )
    jobs = args.jobs
    if jobs is None:
        # --executor without --jobs: parallel backends get a sensible
        # default width instead of a one-worker pool.
        jobs = 4 if args.executor not in (None, "serial") else 1
    return ExecutionEngine(
        jobs=jobs,
        executor_kind=args.executor,
        cache=cache,
        batch_size=args.batch_size,
        lpt=args.lpt,
        adaptive_batching=args.adaptive_batching,
        cost_model=cost_model,
        max_inflight=args.max_inflight,
        coalesce=args.coalesce,
        coalesce_window_s=args.coalesce_window_ms / 1000.0,
        coalesce_max_batch=args.coalesce_max_batch,
        speculate=args.speculate,
        speculate_after=args.speculate_after,
        deadline=args.deadline,
        snapshot_transport=args.snapshot_transport,
        stream_window=args.stream_window,
        cascade=cascade_policy,
        speculate_fallback=(
            cascade_policy.fallback_model
            if cascade_policy is not None and args.speculate
            else None
        ),
        retries=args.retries,
        retry_base_ms=args.retry_base_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        journal=args.journal,
    )


def _run_cache_command(args: argparse.Namespace) -> int:
    """``repro cache stats|compact``: inspect or fold a store, no evaluation."""
    from repro.engine import SharedSegmentStore

    path = Path(args.cache)
    if args.subcommand == "stats":
        if path.is_file():
            print(f"[cache] {path}: legacy single-file cache (format v1); "
                  "run any cached command to migrate it to segments")
            return 0
        stats = SharedSegmentStore(path).stats()
        print(f"[cache] {path}")
        print(f"[cache]   segments={stats['segments']}")
        print(f"[cache]   live_entries={stats['live_entries']}")
        print(f"[cache]   entry_lines={stats['entry_lines']} (dead={stats['dead_entries']})")
        print(f"[cache]   dead_ratio={stats['dead_ratio'] * 100:.1f}%")
        print(f"[cache]   total_bytes={stats['total_bytes']}")
        print(
            f"[cache]   scan: rescanned={stats['segments_rescanned']}"
            f" reused={stats['segments_reused']}"
        )
        print(f"[cache]   promotions={stats['promotions']}")
        return 0
    # compact: fold every live entry into a minimal set of fresh segments.
    before = SharedSegmentStore(path).stats() if path.is_dir() else None
    cache = ResponseCache(path=args.cache)
    if cache.compact() is None:
        print(f"[cache] {path}: nothing on disk to compact")
        return 0
    after = SharedSegmentStore(path).stats()
    if before is not None:
        print(
            f"[cache] compacted {path}: segments {before['segments']} -> "
            f"{after['segments']}, entry_lines {before['entry_lines']} -> "
            f"{after['entry_lines']}, bytes {before['total_bytes']} -> "
            f"{after['total_bytes']}"
        )
    return 0


def main(argv: List[str] | None = None) -> int:
    """Entry point used by ``python -m repro``."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "analyze":
        # The static-analyzer CLI has its own flag set (--json, --stats,
        # --self-lint, --corpus); delegate before the table parser sees it.
        from repro.analysis.cli import main as analyze_main

        return analyze_main(raw[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables of 'Data Race Detection Using Large Language Models'.",
        epilog=(
            "examples: 'repro all --executor async --jobs 16' runs every table "
            "through one interleaved engine run on the asyncio backend; "
            "'repro table3 --executor process' shards CPU-bound work across "
            "processes; 'repro all --cache ./cache-dir' persists responses as "
            "append-only JSONL segments plus the scheduling cost model; "
            "'repro all --no-lpt --no-adaptive-batching' selects the "
            "plan-order, static-chunk reference schedule (identical "
            "results, more straggler wall time)."
        ),
    )
    parser.add_argument(
        "command",
        choices=["table2", "table3", "table4", "table5", "table6", "summary", "all", "cache"],
        help=(
            "which experiment to regenerate ('all' interleaves every table "
            "into one engine run); 'cache' inspects/maintains a --cache "
            "store without running an evaluation; see also 'repro analyze "
            "FILE...' for the static race analyzer CLI"
        ),
    )
    parser.add_argument(
        "subcommand",
        nargs="?",
        default=None,
        help=(
            "for 'cache': stats (segment count, dead-entry ratio, bytes) "
            "or compact (fold the store into minimal fresh segments)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "executor width: 1 = serial, N > 1 = parallel (default: 1, "
            "or 4 when a parallel --executor is selected)"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=list(available_executors()),
        default=None,
        help=(
            "executor backend: serial (reference), thread (overlaps model "
            "latency), process (shards CPU-bound work across processes), "
            "async (asyncio event loop).  Results are identical across "
            "backends (default: derived from --jobs)"
        ),
    )
    parser.add_argument(
        "--lpt",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "dispatch chunks longest-processing-time first using the cost "
            "model's observed per-(model, strategy) latencies (plan order "
            "until latencies exist; --no-lpt keeps plan order always)"
        ),
    )
    parser.add_argument(
        "--adaptive-batching",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "let the cost model scale chunk sizes per (model, strategy) "
            "group around --batch-size (slow groups split finer, fast ones "
            "batch coarser); --no-adaptive-batching pins every chunk to "
            "exactly --batch-size"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "async backend: maximum concurrently in-flight chunk coroutines "
            "on the event loop — raise far beyond any sensible --jobs to "
            "saturate a latency-bound remote API (default: --jobs)"
        ),
    )
    parser.add_argument(
        "--coalesce",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "async backend: merge concurrent same-(model, strategy) calls "
            "into single generate_batch_async wire calls (identical "
            "results; --no-coalesce issues one call per chunk)"
        ),
    )
    parser.add_argument(
        "--coalesce-window-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="how long the coalescer holds a batch open for joiners (default: 2.0)",
    )
    parser.add_argument(
        "--coalesce-max-batch",
        type=int,
        default=128,
        metavar="N",
        help="coalescer flushes early at this many accumulated prompts (default: 128)",
    )
    parser.add_argument(
        "--speculate",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "tail-latency control: race a duplicate of any chunk running "
            "past the cost model's p95 estimate into idle executor "
            "capacity — first completion wins, results are identical "
            "(default: off)"
        ),
    )
    parser.add_argument(
        "--speculate-after",
        type=float,
        default=1.5,
        metavar="X",
        help=(
            "launch a duplicate once a chunk's elapsed time exceeds X times "
            "its p95 cost-model estimate (default: 1.5; smaller races "
            "sooner, larger duplicates less work)"
        ),
    )
    parser.add_argument(
        "--cascade",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "tiered detection cascade: cheap tiers (--cascade-tiers) answer "
            "each record first and only low-confidence or disagreeing "
            "verdicts escalate to the requested model — with --speculate, "
            "straggler chunks additionally race a cheaper tier's model "
            "(cross-backend speculation).  --no-cascade is the reference "
            "single-model path (default: off)"
        ),
    )
    parser.add_argument(
        "--cascade-tiers",
        default=None,
        metavar="SPEC",
        help=(
            "comma-separated cheap-tier ladder, cheapest first: 'static', "
            "'inspector' (alias 'dynamic'), or any zoo model name "
            f"(default: {DEFAULT_CASCADE_TIERS})"
        ),
    )
    parser.add_argument(
        "--escalate-below",
        type=float,
        default=None,
        metavar="CONF",
        help=(
            "confidence a cheap-tier verdict must reach to resolve a record "
            "without escalating; 1.0 escalates everything (identical to the "
            f"requested model alone) (default: {DEFAULT_ESCALATE_BELOW})"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "retry each failing chunk up to N times with exponential "
            "backoff and deterministic jitter before surfacing explicit "
            "failed results; retried work re-enters the dispatcher instead "
            "of blocking a worker, and per-model circuit breakers route "
            "around models that keep failing (default: 0 — fail fast)"
        ),
    )
    parser.add_argument(
        "--retry-base-ms",
        type=float,
        default=DEFAULT_RETRY_BASE_MS,
        metavar="MS",
        help=(
            "base backoff before the first retry; attempt k waits "
            f"base*2^k ms, jittered (default: {DEFAULT_RETRY_BASE_MS:g})"
        ),
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=DEFAULT_BREAKER_THRESHOLD,
        metavar="N",
        help=(
            "consecutive failures that open a model's circuit breaker; "
            "while open, its chunks reroute to the cascade's next-cheaper "
            "tier (with --cascade) or fail fast (default: "
            f"{DEFAULT_BREAKER_THRESHOLD})"
        ),
    )
    parser.add_argument(
        "--breaker-cooldown-s",
        type=float,
        default=DEFAULT_BREAKER_COOLDOWN_S,
        metavar="SECONDS",
        help=(
            "how long an open breaker waits before letting one half-open "
            f"probe through (default: {DEFAULT_BREAKER_COOLDOWN_S:g})"
        ),
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "append-only JSONL run journal of completed chunk outcomes; "
            "an interrupted run re-invoked with the same journal resumes "
            "by replaying finished work without new model calls "
            "(default: no journal)"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-run latency budget: when the cost model predicts the "
            "makespan exceeds it, shed the lowest-value chunks (highest "
            "seconds-per-request) — shed requests come back as explicit "
            "skipped results, and telemetry reports predicted vs actual "
            "makespan (default: no budget)"
        ),
    )
    parser.add_argument(
        "--sequential",
        action="store_true",
        help="with 'all': run one engine run per table instead of the interleaved scheduler",
    )
    parser.add_argument(
        "--stream",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "bounded-memory streaming: build, plan and dispatch requests in "
            "windows of --stream-window instead of materialising the whole "
            "workload — peak RSS is O(window), results are identical "
            "(default: off)"
        ),
    )
    parser.add_argument(
        "--stream-window",
        type=int,
        default=None,
        metavar="N",
        help=(
            "requests resident at once under --stream (default: "
            f"{DEFAULT_STREAM_WINDOW})"
        ),
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help=(
            "on-disk response cache: a directory of append-only JSONL "
            "segments, written incrementally and atomically (legacy "
            "single-file JSON caches load too; default: in-memory only)"
        ),
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=65536,
        metavar="N",
        help="in-memory response-cache capacity; 0 disables caching (default: 65536)",
    )
    parser.add_argument(
        "--cost-aware-eviction",
        action="store_true",
        help=(
            "weight cache eviction by the cost model's per-model latency "
            "estimates: the cheapest-to-regenerate entries go first, slow "
            "models' responses survive longest"
        ),
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "byte budget for the in-memory cache tier: eviction runs until "
            "entries fit, preferring the most bytes reclaimed per cost-model "
            "second-to-regenerate (composes with --cost-aware-eviction; "
            "default: unbounded)"
        ),
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "maximum in-memory age of a cache entry; expired entries are "
            "dropped lazily on lookup and evicted first under pressure "
            "(the on-disk store is unaffected; default: no expiry)"
        ),
    )
    parser.add_argument(
        "--shared-cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "serve --cache disk entries through the host-wide mmap-backed "
            "shared segment store instead of loading a private in-memory "
            "copy — concurrent runs on one host share one physical copy "
            "(results identical; default: private load)"
        ),
    )
    parser.add_argument(
        "--snapshot-transport",
        choices=["shm", "file"],
        default="shm",
        help=(
            "how the warm cache reaches process-executor workers: shm "
            "(default) broadcasts one shared-memory block workers attach "
            "in place, falling back to a temp file where unavailable; "
            "file pins the pickle-temp-file path (one private "
            "deserialisation per worker)"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=32,
        metavar="N",
        help="requests per engine chunk (default: 32)",
    )
    parser.add_argument(
        "--no-stats",
        action="store_true",
        help="suppress the [engine] stats line after table runs",
    )
    args = parser.parse_args(argv)
    if args.batch_size < 1:
        parser.error("--batch-size must be >= 1")
    if args.jobs is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 and 1 both mean serial)")
    if args.cache_entries < 0:
        parser.error("--cache-entries must be >= 0 (0 disables caching)")
    if args.max_inflight is not None and args.max_inflight < 1:
        parser.error("--max-inflight must be >= 1")
    if args.coalesce_window_ms < 0:
        parser.error("--coalesce-window-ms must be >= 0")
    if args.coalesce_max_batch < 1:
        parser.error("--coalesce-max-batch must be >= 1")
    if args.speculate_after <= 0:
        parser.error("--speculate-after must be > 0")
    if args.deadline is not None and args.deadline <= 0:
        parser.error("--deadline must be > 0 seconds")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.retry_base_ms <= 0:
        parser.error("--retry-base-ms must be > 0")
    if args.breaker_threshold < 1:
        parser.error("--breaker-threshold must be >= 1")
    if args.breaker_cooldown_s < 0:
        parser.error("--breaker-cooldown-s must be >= 0")
    if not args.cascade:
        if args.cascade_tiers is not None:
            parser.error("--cascade-tiers requires --cascade")
        if args.escalate_below is not None:
            parser.error("--escalate-below requires --cascade")
    if args.escalate_below is not None and not 0.0 <= args.escalate_below <= 1.0:
        parser.error("--escalate-below must be between 0 and 1")
    args.cascade_policy = None
    if args.cascade:
        try:
            args.cascade_policy = CascadePolicy.from_spec(
                args.cascade_tiers if args.cascade_tiers is not None else DEFAULT_CASCADE_TIERS,
                escalate_below=(
                    args.escalate_below
                    if args.escalate_below is not None
                    else DEFAULT_ESCALATE_BELOW
                ),
            )
        except (KeyError, ValueError) as exc:
            parser.error(f"--cascade-tiers: {exc}")
    if args.cache is not None and args.cache_entries == 0:
        parser.error("--cache has no effect with --cache-entries 0 (caching disabled)")
    if args.cost_aware_eviction and args.cache_entries == 0:
        parser.error(
            "--cost-aware-eviction has no effect with --cache-entries 0 (caching disabled)"
        )
    if args.cache_max_bytes is not None:
        if args.cache_max_bytes <= 0:
            parser.error("--cache-max-bytes must be > 0")
        if args.cache_entries == 0:
            parser.error(
                "--cache-max-bytes has no effect with --cache-entries 0 (caching disabled)"
            )
    if args.cache_ttl is not None:
        if args.cache_ttl <= 0:
            parser.error("--cache-ttl must be > 0 seconds")
        if args.cache_entries == 0:
            parser.error(
                "--cache-ttl has no effect with --cache-entries 0 (caching disabled)"
            )
    if args.shared_cache and args.cache is None:
        parser.error("--shared-cache requires --cache PATH (the store to share)")
    if args.command == "cache":
        if args.subcommand not in ("stats", "compact"):
            parser.error(
                "the 'cache' command takes a subcommand: stats or compact"
            )
        if args.cache is None:
            parser.error("'repro cache' requires --cache PATH (the store to inspect)")
        return _run_cache_command(args)
    if args.subcommand is not None:
        parser.error(
            f"unexpected argument {args.subcommand!r}: only the 'cache' command takes a subcommand"
        )
    if args.sequential and args.command != "all":
        parser.error("--sequential only applies to the 'all' command")
    if args.stream_window is not None:
        if args.stream_window < 1:
            parser.error("--stream-window must be >= 1")
        if not args.stream:
            parser.error("--stream-window requires --stream")
    if args.stream and args.command == "summary":
        parser.error("--stream has no effect on the 'summary' command")
    engine = _build_engine(args)
    try:
        if args.command == "all":
            _run_all(
                engine,
                sequential=args.sequential,
                stats=not args.no_stats,
                stream=args.stream,
                stream_window=args.stream_window,
            )
        else:
            before = engine.telemetry.snapshot()
            _run(args.command, engine, stream=args.stream, stream_window=args.stream_window)
            if args.command != "summary" and not args.no_stats:
                print(
                    engine.telemetry.format_stats(
                        executor_name=engine.executor.name, since=before
                    )
                )
                _print_group_stats(engine)
        if engine.cache is not None and args.cache is not None:
            engine.cache.save()
            engine.cost_model.save()
    finally:
        engine.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
