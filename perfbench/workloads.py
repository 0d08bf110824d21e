"""The benchmark's four workloads.

Each workload is a closed loop: one caller submits a unit of work, waits
for every verdict of it, checks them, and submits the next.  ``setup``
builds the inputs from the seed (timed separately as set-up);
``run`` measures either for a time budget or for a fixed number of
units, and returns a :class:`Pass` with everything the metrics need.

Why these four (the full rationale is in ``perfbench/README.md``):

* ``paper-tables`` — the paper reproduction users run (``repro all``):
  the Inspector's interpreter and repeated front-end work dominate; every
  source is prompted about 26 times.
* ``corpus-stream`` — the streaming path over sources that are all
  distinct after comment trimming: trim, token counting and prompt
  plumbing, no parse or analysis, bounded residency.
* ``static-analyze`` — lex + parse + analysis passes per distinct source,
  no trim and no engine; the only workload with >4k-token programs.
* ``remote-api`` — the zoo behind simulated remote clients with injected
  faults, through the async executor with retries: wire-latency overlap,
  coalescing, retry re-dispatch and event-loop blocking.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import time
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Number of corpus-seed variants; ``--seed`` selects ``seed % N_VARIANTS``.
#: Reference digests exist for every variant (``make_reference.py``).
N_VARIANTS = 24
#: Rename salt of the augmented templates.  A run re-salts a template by
#: replacing this marker with a block salt of the same width, so the
#: source changes (distinct after trimming) while every column stays put.
MARKER_SALT = 900000
_SALT_RE = re.compile(r"\bv\d{6}_")
_MARKER_PREFIX = f"v{MARKER_SALT}_"
#: Loop-bound scale factor applied to every template.
SCALE_FACTOR = 2
#: Requests resident at once on the corpus stream.
STREAM_WINDOW = 256
#: remote-api wire: ``AsyncRemoteAdapter``'s default 50 ms per call, with
#: the 10 ms deterministic jitter of ``benchmarks/bench_async.py`` (the
#: repository's remote-API regime).
REMOTE_LATENCY_S = 0.05
REMOTE_JITTER_S = 0.01
#: remote-api faults and retry policy: those of ``benchmarks/bench_chaos.py``.
#: One process shares the chaos attempt registry, so one retry per
#: scheduled failure recovers every prompt.
TRANSIENT_RATIO = 0.10
MALFORMED_RATIO = 0.02
RETRIES = 3
RETRY_BASE_MS = 1.0
#: remote-api connections per model: ``bench_async.py``'s jobs, capped at nproc.
REMOTE_JOBS = 4
#: In-memory response-cache capacity, the CLI default.
CACHE_ENTRIES = 65536


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def corpus_seed(seed: int) -> int:
    from repro.corpus.generator import CorpusConfig

    return CorpusConfig().seed + seed % N_VARIANTS


def block_salt(seed: int, block: int) -> int:
    """A six-digit salt, distinct for every block of one run."""
    return 100000 + (seed * 7919 + block * 104729) % 900000


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """What one measured (or traced) pass did."""

    units: int = 0
    records: int = 0
    sources: int = 0
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    wall_s: float = 0.0
    #: Flat ``submitted, delivered`` perf_counter pairs of every verdict
    #: sample.  An array, not tuples: the list grows with throughput, and
    #: peak RSS is a metric, so a faster program must not read as fatter.
    verdicts: array = field(default_factory=lambda: array("d"))
    telemetry: Dict[str, float] = field(default_factory=dict)
    connections: int = 0
    start_ns: int = 0
    end_ns: int = 0

    def add_verdict(self, submitted: float, delivered: float) -> None:
        self.verdicts.extend((submitted, delivered))

    def verdict_intervals(self) -> List[Tuple[float, float]]:
        return list(zip(self.verdicts[::2], self.verdicts[1::2]))

    def add_telemetry(self, snapshot: Dict[str, float]) -> None:
        for key, value in snapshot.items():
            if not isinstance(value, (int, float)):
                continue
            if key == "resident_requests_peak":
                self.telemetry[key] = max(self.telemetry.get(key, 0), value)
            else:
                self.telemetry[key] = self.telemetry.get(key, 0) + value


class _Budget:
    """Run until ``seconds`` have passed or ``units`` are done (at least one)."""

    def __init__(self, seconds: Optional[float], units: Optional[int]) -> None:
        self.seconds = seconds
        self.units = units
        self.start = time.perf_counter()
        self.done = 0

    def more(self) -> bool:
        if self.done == 0:
            return True
        if self.units is not None:
            return self.done < self.units
        return time.perf_counter() - self.start < self.seconds


def _timed(run):
    def wrapper(self, inputs, *, seconds=None, units=None) -> Pass:
        result = Pass()
        budget = _Budget(seconds, units)
        result.start_ns = time.perf_counter_ns()
        run(self, inputs, budget, result)
        result.end_ns = time.perf_counter_ns()
        result.wall_s = (result.end_ns - result.start_ns) * 1e-9
        result.units = budget.done
        return result

    return wrapper


# -- augmented templates (corpus-stream, static-analyze) -------------------------


@dataclass
class Template:
    """One corpus pattern variant, augmented, with the salt marker in place."""

    spec: object
    variant: int
    code: str
    has_race: bool
    label: str
    reference_verdict: Optional[bool] = None


def build_templates() -> List[Template]:
    """Every pattern variant, loop bounds scaled and identifiers renamed."""
    from repro.corpus.patterns import ALL_PATTERNS
    from repro.dataset.augment import rename_identifiers, scale_loop_bounds

    templates = []
    for spec in ALL_PATTERNS:
        for variant in range(len(spec.variants)):
            bench = spec.instantiate(len(templates) + 1, variant)
            code = scale_loop_bounds(bench.code, factor=SCALE_FACTOR)
            code, _ = rename_identifiers(code, salt=MARKER_SALT)
            templates.append(
                Template(spec, variant, code, bench.has_race, bench.label.value)
            )
    return templates


def resalt(code: str, salt: int) -> str:
    return code.replace(_MARKER_PREFIX, f"v{salt}_")


def _block_order(seed: int, block: int, n: int) -> List[int]:
    order = list(range(n))
    random.Random(seed * 1_000_003 + block).shuffle(order)
    return order


def instant_verdict(prompt: str) -> bool:
    """The corpus stream's model: a deterministic function of the prompt.

    Block salts are mapped back to the marker first, so a record's verdict
    depends only on its pattern variant and the pipeline that rendered
    the prompt — which is what the reference verdicts pin.
    """
    canonical = _SALT_RE.sub(_MARKER_PREFIX, prompt)
    return bool(zlib.crc32(canonical.encode("utf-8")) & 1)


def make_instant_model():
    from repro.llm.base import LanguageModel

    class InstantModel(LanguageModel):
        """Latency-free verdicts; the stream's subject is the pipeline."""

        name = "perfbench-instant"

        def generate(self, prompt: str) -> str:
            return "yes" if instant_verdict(prompt) else "no"

    return InstantModel()


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    #: Whether the measured loop is CPU-bound, so its times are stated at
    #: reference machine speed (``speed.py``).  A loop that mostly waits on
    #: simulated wire latency keeps raw wall-clock figures.
    cpu_bound = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = load_reference()

    def setup(self):
        raise NotImplementedError

    def distinct_share(self, result: Pass) -> float:
        """Distinct sources per request (1.0: no input repeats)."""
        return result.sources / result.requests if result.requests else 0.0


class PaperTables(Workload):
    """``run_all_tables`` over the ≤4k-token subset, as ``repro all`` runs it."""

    name = "paper-tables"

    def setup(self):
        from repro.corpus.generator import CorpusConfig
        from repro.eval.experiments import default_subset

        config = CorpusConfig(seed=corpus_seed(self.seed))
        return config, default_subset(config)

    @_timed
    def run(self, inputs, budget: _Budget, result: Pass) -> None:
        from repro.engine import ExecutionEngine, ResponseCache, results_fingerprint, run_all_tables

        config, dataset = inputs
        expected = self.reference["paper_tables"][str(config.seed)]
        while budget.more():
            start = time.perf_counter()
            with ExecutionEngine(cache=ResponseCache(CACHE_ENTRIES)) as engine:
                tables = run_all_tables(dataset, engine=engine, corpus_config=config)
                snapshot = engine.telemetry.snapshot()
            result.add_verdict(start, time.perf_counter())
            budget.done += 1
            result.add_telemetry(snapshot)
            result.records += len(dataset.records)
            result.sources += len(dataset.records)
            result.requests += snapshot["requests"]
            result.attempted += snapshot["requests"]
            result.failed += snapshot["failed_requests"] + snapshot["deadline_shed"]
            if digest(results_fingerprint(tables)) != expected:
                result.wrong += 1


class CorpusStream(Workload):
    """Generate → featurise → request → stream-score, all lazy.

    The stream holds the templates within the evaluation token budget, as
    the subset the other corpus workloads score; the oversized programs
    belong to ``static-analyze`` alone.
    """

    name = "corpus-stream"

    def setup(self):
        from repro.dataset.drbml import DEFAULT_TOKEN_LIMIT
        from repro.dataset.tokenizer import count_tokens
        from repro.dataset.trim import trim_comments

        templates = build_templates()
        bits = self.reference["corpus_stream_verdicts"]
        for template, bit in zip(templates, bits):
            template.reference_verdict = bit == "1"
        return [
            template for template in templates
            if count_tokens(trim_comments(template.code).trimmed_code) <= DEFAULT_TOKEN_LIMIT
        ]

    @_timed
    def run(self, templates, budget: _Budget, result: Pass) -> None:
        from repro.dataset.drbml import iter_records
        from repro.engine import ExecutionEngine
        from repro.engine.requests import confusion_from_results, iter_requests
        from repro.prompting.strategy import PromptStrategy

        keys: deque = deque()  # template index of each record in flight
        expected = [0, 0, 0, 0]  # tp, fp, tn, fn from the reference verdicts

        def benches():
            block = 0
            while budget.more():
                salt = block_salt(self.seed, block)
                for position, i in enumerate(_block_order(self.seed, block, len(templates))):
                    template = templates[i]
                    index = block * len(templates) + position + 1
                    bench = template.spec.instantiate(index, template.variant)
                    bench.code = resalt(template.code, salt)
                    keys.append(i)
                    yield bench
                block += 1
                budget.done += 1

        def checked(records):
            for record in records:
                template = templates[keys.popleft()]
                result.records += 1
                truth = template.has_race
                if bool(record.data_race) != truth or record.data_race_label != template.label:
                    result.wrong += 1
                verdict = template.reference_verdict
                expected[(0 if verdict else 2) if truth == verdict else (1 if verdict else 3)] += 1
                yield record

        pulled: deque = deque()

        def stamped(requests):
            for request in requests:
                pulled.append(time.perf_counter())
                yield request

        def timed(results):
            for item in results:
                result.add_verdict(pulled.popleft(), time.perf_counter())
                yield item

        model = make_instant_model()
        with ExecutionEngine(stream_window=STREAM_WINDOW) as engine:
            stream = iter_requests(model, PromptStrategy.BP1, checked(iter_records(benches())))
            counts = confusion_from_results(timed(engine.run_streaming(stamped(stream))))
            snapshot = engine.telemetry.snapshot()
        result.add_telemetry(snapshot)
        result.sources = result.records
        result.requests = snapshot["requests"]
        result.attempted = result.records
        result.failed = snapshot["failed_requests"] + snapshot["deadline_shed"]
        got = [counts.tp, counts.fp, counts.tn, counts.fn]
        if got != expected:
            result.wrong += max(1, sum(abs(a - b) for a, b in zip(got, expected)) // 2)


class StaticAnalyze(Workload):
    """``StaticRaceDetector.analyze_source`` on every distinct augmented source."""

    name = "static-analyze"

    def setup(self):
        return build_templates()

    @_timed
    def run(self, templates, budget: _Budget, result: Pass) -> None:
        from repro.analysis.static_race import StaticRaceDetector

        detector = StaticRaceDetector()
        while budget.more():
            salt = block_salt(self.seed, budget.done)
            for i in _block_order(self.seed, budget.done, len(templates)):
                template = templates[i]
                source = resalt(template.code, salt)
                start = time.perf_counter()
                try:
                    report = detector.analyze_source(source)
                except Exception:  # a crash is a failed verdict, not an abort
                    result.failed += 1
                    continue
                finally:
                    result.add_verdict(start, time.perf_counter())
                    result.attempted += 1
                if report.has_race != template.has_race:
                    result.wrong += 1
            budget.done += 1
        result.records = result.sources = result.requests = result.attempted


class RemoteApi(Workload):
    """The zoo behind simulated remote clients with faults, on the async executor.

    One unit is every model over the whole subset with one prompting
    strategy; units cycle through the strategies.  Every unit thus sees
    every record, and the seed changes only order and fault schedule.
    """

    STRATEGIES = ("BP1", "AP1", "AP2")

    name = "remote-api"
    cpu_bound = False

    def setup(self):
        from repro.corpus.generator import CorpusConfig
        from repro.eval.experiments import default_subset

        return default_subset(CorpusConfig(seed=corpus_seed(self.seed)))

    @classmethod
    def unit_requests(cls, models, records, unit: int):
        """The requests of unit number ``unit``."""
        from repro.engine import build_requests
        from repro.prompting.strategy import PromptStrategy

        strategy = PromptStrategy[cls.STRATEGIES[unit % len(cls.STRATEGIES)]]
        requests = []
        for model in models:
            requests.extend(build_requests(model, strategy, records, scoring="detection"))
        return requests

    @staticmethod
    def outcomes(requests, results) -> List[list]:
        """``[model, strategy, record, truth, prediction, correct_positive]``
        of every scored result, in request order."""
        return [
            [request.model.name, request.strategy.value, r.record_name,
             r.truth, r.prediction, r.correct_positive]
            for request, r in zip(requests, results)
            if not (r.failed or r.skipped)
        ]

    @_timed
    def run(self, dataset, budget: _Budget, result: Pass) -> None:
        from repro.engine import ExecutionEngine, ResponseCache
        from repro.llm.adapters import AsyncRemoteAdapter, ChaosAdapter, reset_chaos_attempts
        from repro.llm.zoo import available_models, create_model

        jobs = min(REMOTE_JOBS, nproc())
        expected = self.reference["remote_api"][str(corpus_seed(self.seed))]
        result.connections = jobs * len(available_models())
        while budget.more():
            unit = budget.done
            reset_chaos_attempts()
            models = [
                ChaosAdapter(
                    AsyncRemoteAdapter(
                        create_model(name),
                        latency_s=REMOTE_LATENCY_S,
                        latency_jitter_s=REMOTE_JITTER_S,
                        max_concurrency=jobs,
                    ),
                    transient_ratio=TRANSIENT_RATIO,
                    malformed_ratio=MALFORMED_RATIO,
                    salt=f"perfbench-{self.seed}",
                )
                for name in available_models()
            ]
            requests = self.unit_requests(models, dataset.records, unit)
            start = time.perf_counter()
            with ExecutionEngine(
                executor_kind="async",
                jobs=jobs,
                # One chunk in flight per connection of every model (the
                # default, ``jobs``, would leave most models idle).
                max_inflight=result.connections,
                cache=ResponseCache(CACHE_ENTRIES),
                retries=RETRIES,
                retry_base_ms=RETRY_BASE_MS,
            ) as engine:
                store = engine.run(requests)
                snapshot = engine.telemetry.snapshot()
            result.add_verdict(start, time.perf_counter())
            budget.done += 1
            result.add_telemetry(snapshot)
            result.records += len(dataset.records)
            result.sources += len(dataset.records)
            result.requests += len(requests)
            result.attempted += len(requests)
            result.failed += sum(1 for r in store.results if r.failed or r.skipped)
            if digest(self.outcomes(requests, store.results)) != expected[unit % len(self.STRATEGIES)]:
                result.wrong += 1


WORKLOADS = {cls.name: cls for cls in (PaperTables, CorpusStream, StaticAnalyze, RemoteApi)}
