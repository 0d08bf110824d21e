"""Tail-latency control: speculative re-execution + deadline-aware scheduling.

Pinned contracts:

* speculation is a pure execution optimisation — confusion counts and
  responses are bit-identical with ``speculate`` on or off, across the
  thread, process and async backends, under a heavy-tail flaky adapter;
* a won race is merged exactly once: the loser's result is dropped, so
  cost-model observations and telemetry counters are never double-fed;
* the deadline planner sheds work *explicitly*: every shed request comes
  back as a ``skipped`` :class:`RunResult` in its original position, and
  telemetry reports predicted-vs-actual makespan;
* speculation composes with retries: under injected faults a chunk is
  retried only once its last running copy failed, and each chunk still
  merges exactly once;
* :class:`FlakyTailAdapter` is deterministic in everything but the
  first-attempt hang it simulates.
"""

import threading
import time

import pytest

from repro.engine import ExecutionEngine, SHED_RESPONSE, build_requests
from repro.eval.experiments import default_subset
from repro.llm.adapters import ChaosAdapter, FlakyTailAdapter, reset_chaos_attempts
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy


@pytest.fixture(scope="module")
def records():
    return default_subset().records[:16]


def _flaky_model(**overrides):
    settings = dict(latency_s=0.002, tail_latency_s=0.25, tail_ratio=0.15)
    settings.update(overrides)
    return FlakyTailAdapter(create_model("gpt-4"), **settings)


def _fingerprint(store):
    return [
        (r.model, r.strategy, r.record_name, r.response, r.prediction, r.skipped)
        for r in store
    ]


def _warm_cost_model(engine, model, strategy="BP1", seconds=0.003, n=3):
    for _ in range(n):
        engine.cost_model.observe(model.cache_identity, strategy, seconds)


class TestFlakyTailAdapter:
    def test_responses_match_inner_model(self):
        inner = create_model("gpt-4")
        adapter = _flaky_model(latency_s=0.0, tail_latency_s=0.0)
        prompt = "Is there a data race?\n```c\nint x;\n```"
        assert adapter.generate(prompt) == inner.generate(prompt)
        assert adapter.cache_identity == inner.cache_identity

    def test_tail_selection_is_deterministic(self):
        a, b = _flaky_model(), _flaky_model()
        prompts = [f"prompt-{i}" for i in range(50)]
        assert [a.is_tail_prompt(p) for p in prompts] == [
            b.is_tail_prompt(p) for p in prompts
        ]
        assert any(a.is_tail_prompt(p) for p in prompts)
        assert not all(a.is_tail_prompt(p) for p in prompts)

    def test_first_attempt_hangs_retries_do_not(self):
        adapter = _flaky_model(latency_s=0.0, tail_latency_s=0.05, tail_ratio=1.0)
        prompt = "always-a-tail-prompt"
        start = time.perf_counter()
        adapter.generate(prompt)
        first = time.perf_counter() - start
        start = time.perf_counter()
        adapter.generate(prompt)
        second = time.perf_counter() - start
        assert first >= 0.05
        assert second < 0.05

    def test_pickles_without_lock_state(self):
        import pickle

        adapter = _flaky_model(tail_ratio=1.0)
        adapter.generate("warm the attempt counter")
        clone = pickle.loads(pickle.dumps(adapter))
        # The clone starts its own attempt history but answers identically.
        assert clone._attempts == {}
        assert clone.generate("other") == adapter.inner.generate("other")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _flaky_model(latency_s=-1)
        with pytest.raises(ValueError):
            _flaky_model(tail_ratio=1.5)


class TestSpeculationEquivalence:
    @pytest.mark.parametrize("executor_kind", ["thread", "process", "async"])
    def test_counts_bit_identical_with_and_without_speculation(
        self, records, executor_kind
    ):
        fingerprints = {}
        counts = {}
        for speculate in (False, True):
            model = _flaky_model()
            engine = ExecutionEngine(
                jobs=4,
                executor_kind=executor_kind,
                batch_size=4,
                speculate=speculate,
                speculate_after=1.2,
            )
            engine.speculation_poll_s = 0.002
            _warm_cost_model(engine, model)
            with engine:
                store = engine.run(build_requests(model, PromptStrategy.BP1, records))
            fingerprints[speculate] = _fingerprint(store)
            counts[speculate] = store.confusion()
        assert fingerprints[True] == fingerprints[False]
        assert counts[True] == counts[False]

    def test_speculation_races_and_wins_on_thread_backend(self, records):
        model = _flaky_model(tail_latency_s=0.3)
        engine = ExecutionEngine(
            jobs=8, executor_kind="thread", batch_size=4, speculate=True,
            speculate_after=1.2,
        )
        engine.speculation_poll_s = 0.002
        _warm_cost_model(engine, model)
        with engine:
            engine.run(build_requests(model, PromptStrategy.BP1, records))
        snap = engine.telemetry.snapshot()
        assert snap["speculation_launched"] >= 1
        assert snap["speculation_won"] >= 1
        assert (
            snap["speculation_won"] + snap["speculation_wasted"]
            <= snap["speculation_launched"]
        )

    def test_won_race_feeds_cost_model_exactly_once(self, records):
        """The loser's duplicate observations must never reach the EWMA."""
        model = _flaky_model(tail_latency_s=0.3)
        engine = ExecutionEngine(
            jobs=8, executor_kind="thread", batch_size=4, speculate=True,
            speculate_after=1.2,
        )
        engine.speculation_poll_s = 0.002
        warm_observations = 3
        _warm_cost_model(engine, model, n=warm_observations)
        with engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert len(store) == len(records)
        assert engine.telemetry.snapshot()["speculation_won"] >= 1
        # One observation per merged chunk (4 chunks of 4), one per warm-up
        # call — a double-merged race would show up as an extra count.
        n_chunks = len(records) // 4
        group = next(
            g
            for g in engine.cost_model.snapshot()
            if g["model"] == model.cache_identity and g["strategy"] == "BP1"
        )
        assert group["observations"] == warm_observations + n_chunks

    def test_no_speculation_without_estimates(self, records):
        """A cold cost model cannot declare a chunk overdue."""
        model = _flaky_model()
        engine = ExecutionEngine(
            jobs=4, executor_kind="thread", batch_size=4, speculate=True
        )
        engine.speculation_poll_s = 0.002
        with engine:
            engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert engine.telemetry.snapshot()["speculation_launched"] == 0

    def test_serial_executor_ignores_speculation(self, records):
        model = _flaky_model(tail_latency_s=0.02)
        engine = ExecutionEngine(batch_size=4, speculate=True)
        _warm_cost_model(engine, model)
        with engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert len(store) == len(records)
        assert engine.telemetry.snapshot()["speculation_launched"] == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ExecutionEngine(speculate_after=0)
        with pytest.raises(ValueError):
            ExecutionEngine(deadline=-1.0)


class _RetryPoisonModel:
    """Hangs on the first attempt at the first prompt; *raises* on retries.

    The regime where a naive racer is worse than no racer: the duplicate
    always errors, so the run must survive on the original copy alone.
    """

    name = "retry-poison"
    context_window = 4096
    cache_identity = "retry-poison"
    has_native_async = False

    def __init__(self, hang_s=0.3, fail_first_too=False):
        self.hang_s = hang_s
        self.fail_first_too = fail_first_too
        self._attempts = {}
        self._first_prompt = None
        self._lock = threading.Lock()

    def generate(self, prompt):
        with self._lock:
            attempt = self._attempts.get(prompt, 0)
            self._attempts[prompt] = attempt + 1
            if self._first_prompt is None:
                self._first_prompt = prompt
        if attempt > 0:
            raise ConnectionError("flaky retry")
        if prompt == self._first_prompt:
            time.sleep(self.hang_s)
            if self.fail_first_too:
                raise ConnectionError("flaky first attempt")
        return "yes"

    def generate_batch(self, prompts):
        return [self.generate(prompt) for prompt in prompts]


class TestSpeculationFailureIsolation:
    def _engine(self):
        engine = ExecutionEngine(
            jobs=4, executor_kind="thread", batch_size=4, speculate=True,
            speculate_after=1.2,
        )
        engine.speculation_poll_s = 0.002
        return engine

    def test_failing_duplicate_does_not_abort_run(self, records):
        """A duplicate that errors while the original is still running must
        be dropped — speculation must never *add* a failure mode."""
        model = _RetryPoisonModel()
        engine = self._engine()
        _warm_cost_model(engine, model, seconds=0.002)
        with engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records[:4]))
        assert len(store) == 4
        assert all(r.response == "yes" for r in store)
        snap = engine.telemetry.snapshot()
        assert snap["speculation_launched"] >= 1
        assert snap["speculation_won"] == 0
        assert snap["speculation_wasted"] == snap["speculation_launched"]

    def test_error_propagates_when_every_copy_fails(self, records):
        model = _RetryPoisonModel(fail_first_too=True)
        engine = self._engine()
        _warm_cost_model(engine, model, seconds=0.002)
        with engine:
            with pytest.raises(ConnectionError):
                engine.run(build_requests(model, PromptStrategy.BP1, records[:4]))

    def test_duplicates_never_preempt_pending_originals(self, records):
        """Queued first-copy chunks take freed slots before any duplicate."""
        model = _flaky_model(tail_latency_s=0.2, tail_ratio=0.0)
        engine = ExecutionEngine(
            jobs=2, executor_kind="thread", batch_size=2, speculate=True,
            speculate_after=0.001,  # everything is instantly "overdue"
        )
        engine.speculation_poll_s = 0.001
        _warm_cost_model(engine, model, seconds=0.002)
        with engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert len(store) == len(records)
        # With every chunk overdue from the start and the queue never
        # empty until the end, duplicates may only launch for the chunks
        # still running after the last original was submitted.
        snap = engine.telemetry.snapshot()
        assert snap["speculation_launched"] <= 2  # jobs slots at the tail


class TestSpeculationComposesWithRetries:
    # The coalescer's flush bisection would absorb the async faults before
    # the engine's retry policy sees them; without it both backends retry.
    @pytest.mark.parametrize(
        "executor_kind,options",
        [
            pytest.param("thread", {}, id="thread"),
            pytest.param("async", dict(coalesce=False), id="async"),
        ],
    )
    def test_chaos_with_speculation_and_retries_matches_fault_free(
        self, records, executor_kind, options
    ):
        clean = ExecutionEngine().run_counts(
            build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
        )
        reset_chaos_attempts()
        model = ChaosAdapter(
            _flaky_model(),
            transient_ratio=0.2,
            malformed_ratio=0.1,
            fail_attempts=1,
            salt=f"speculate-retry-{executor_kind}",
        )
        engine = ExecutionEngine(
            jobs=8,
            executor_kind=executor_kind,
            batch_size=4,
            speculate=True,
            speculate_after=1.2,
            retries=3,
            retry_base_ms=1.0,
            **options,
        )
        engine.speculation_poll_s = 0.002
        warm_observations = 3
        _warm_cost_model(engine, model, n=warm_observations)
        with engine:
            counts = engine.run_counts(build_requests(model, PromptStrategy.BP1, records))
        snap = engine.telemetry.snapshot()
        assert counts == clean
        assert snap["failed_requests"] == 0
        assert snap["retries"] >= 1
        assert snap["speculation_launched"] >= 1
        assert (
            snap["speculation_won"] + snap["speculation_wasted"]
            <= snap["speculation_launched"]
        )
        # Exactly one merge per chunk: one cost observation each.
        group = next(
            g
            for g in engine.cost_model.snapshot()
            if g["model"] == model.cache_identity and g["strategy"] == "BP1"
        )
        assert group["observations"] == warm_observations + len(records) // 4


class TestDeadlineScheduling:
    def _engine(self, deadline, seconds_per_request=0.05, jobs=2):
        engine = ExecutionEngine(
            jobs=jobs, executor_kind="thread", batch_size=4, deadline=deadline,
            adaptive_batching=False,
        )
        return engine

    def test_tight_deadline_sheds_explicit_skips(self, records):
        fast = create_model("gpt-4")
        slow = create_model("llama2-7b")
        engine = self._engine(deadline=0.05)
        engine.cost_model.observe(fast.cache_identity, "BP1", 0.001)
        engine.cost_model.observe(slow.cache_identity, "BP1", 0.5)
        requests = build_requests(fast, PromptStrategy.BP1, records) + build_requests(
            slow, PromptStrategy.BP1, records
        )
        with engine:
            store = engine.run(requests)
        # Every request has a result in its original position; the slow
        # (cheapest-value) group was shed, the fast one evaluated.
        assert len(store) == len(requests)
        shed = [r for r in store if r.skipped]
        kept = [r for r in store if not r.skipped]
        assert shed and kept
        assert all(r.model == "llama2-7b" for r in shed)
        assert all(r.response == SHED_RESPONSE for r in shed)
        assert all(r.prediction is False for r in shed)
        snap = engine.telemetry.snapshot()
        assert snap["deadline_shed"] == len(shed)
        assert snap["deadline_budget_s"] == 0.05
        assert snap["deadline_predicted_s"] <= 0.05
        assert snap["deadline_actual_s"] > 0
        # Shed work must not masquerade as genuine "no race" verdicts:
        # confusion counts cover only what was actually evaluated.
        assert store.confusion().total == len(kept)

    def test_shedding_skips_chunks_that_buy_no_makespan(self, records):
        """Greedy shedding must not discard work that cannot help.

        The expensive-per-request group (A) does not bound the makespan —
        the long cheap chunk (B) does — so shedding A first would discard
        its answers for zero gain and then shed B anyway.  The planner
        must keep A and shed only B.
        """
        model_a = create_model("llama2-7b")  # 4 reqs x 1.0 s/req  = 4 s chunk
        model_b = create_model("gpt-4")      # 80 reqs x 0.2 s/req = 16 s chunk
        engine = ExecutionEngine(
            jobs=2, executor_kind="thread", batch_size=100, deadline=10.0,
            adaptive_batching=False,
        )
        engine.cost_model.observe(model_a.cache_identity, "BP1", 1.0)
        engine.cost_model.observe(model_b.cache_identity, "BP1", 0.2)
        requests = build_requests(model_a, PromptStrategy.BP1, records[:4]) + build_requests(
            model_b, PromptStrategy.BP1, list(records) * 5
        )
        # Prediction: max((4 + 16) / 2, 16) = 16 > 10.  Shedding A alone
        # leaves max(8, 16) = 16 — useless; shedding only B leaves
        # max(2, 4) = 4 <= 10.
        with engine:
            store = engine.run(requests)
        assert all(not r.skipped for r in store if r.model == "llama2-7b")
        assert all(r.skipped for r in store if r.model == "gpt-4")
        assert engine.telemetry.snapshot()["deadline_predicted_s"] <= 10.0

    def test_loose_deadline_sheds_nothing(self, records):
        model = create_model("gpt-4")
        engine = self._engine(deadline=120.0)
        engine.cost_model.observe(model.cache_identity, "BP1", 0.001)
        with engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert not any(r.skipped for r in store)
        assert engine.telemetry.snapshot()["deadline_shed"] == 0
        assert engine.telemetry.snapshot()["deadline_predicted_s"] > 0

    def test_cold_cost_model_never_sheds(self, records):
        """No estimates -> no evidence -> a deadline cannot shed anything."""
        model = create_model("gpt-4")
        engine = self._engine(deadline=0.0001)
        with engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert not any(r.skipped for r in store)

    def test_no_deadline_records_no_telemetry(self, records):
        model = create_model("gpt-4")
        with ExecutionEngine(batch_size=4) as engine:
            engine.run(build_requests(model, PromptStrategy.BP1, records))
        snap = engine.telemetry.snapshot()
        assert snap["deadline_budget_s"] == 0.0
        assert snap["deadline_shed"] == 0

    def test_stats_line_mentions_speculation_and_deadline(self, records):
        model = _flaky_model(tail_latency_s=0.2)
        engine = ExecutionEngine(
            jobs=8, executor_kind="thread", batch_size=4, speculate=True,
            speculate_after=1.2, deadline=60.0,
        )
        engine.speculation_poll_s = 0.002
        _warm_cost_model(engine, model)
        with engine:
            engine.run(build_requests(model, PromptStrategy.BP1, records))
        line = engine.telemetry.format_stats(executor_name="thread")
        assert "deadline=" in line and "predicted=" in line
        if engine.telemetry.snapshot()["speculation_launched"]:
            assert "speculation=" in line
