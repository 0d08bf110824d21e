"""The dispatch loop, cost-model scheduling and broadcast-once cache shipping.

Three contracts are pinned here:

* the executors' completion-order contract — ``submit`` /
  ``submit_stream`` semantics on every backend, including cancellation
  and close behaviour, and the engine loop's bounded submission;
* the engine's dispatch equivalence — completion-order merging on every
  backend, LPT ordering and adaptive chunk sizing never change results,
  only wall time;
* the process-backend snapshot broadcast — the cache crosses the parent
  boundary O(entries) per **run**, not per chunk.
"""

import threading
import time

import pytest

import repro.engine.core as engine_core
import repro.engine.snapshot as engine_snapshot
from repro.engine import (
    AsyncExecutor,
    CostModel,
    ExecutionEngine,
    ProcessPoolExecutor,
    ResponseCache,
    SerialExecutor,
    ThreadPoolExecutor,
    build_requests,
)
from repro.eval.experiments import default_subset
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy


@pytest.fixture(scope="module")
def records():
    return default_subset().records[:16]


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _boom_on_zero(x):
    if x == 0:
        raise ValueError("bad item")
    return x * x


BACKENDS = [
    pytest.param(lambda jobs: SerialExecutor(), id="serial"),
    pytest.param(lambda jobs: ThreadPoolExecutor(jobs=jobs), id="thread"),
    pytest.param(lambda jobs: ProcessPoolExecutor(jobs=jobs), id="process"),
    pytest.param(lambda jobs: AsyncExecutor(jobs=jobs), id="async"),
]


def _drain(stream, timeout_s=30.0):
    """Every settled ``(tag, future)`` pair until the stream is empty."""
    settled = []
    deadline = time.monotonic() + timeout_s
    while stream.inflight and time.monotonic() < deadline:
        settled.extend(stream.wait(0.05))
    return settled


class TestSubmitStreamContract:
    @pytest.mark.parametrize("make_executor", BACKENDS)
    def test_every_tag_settles_exactly_once(self, make_executor):
        items = list(range(20))
        with make_executor(4) as executor:
            stream = executor.submit_stream(_square)
            for item in items:
                stream.submit(item, tag=item)
            settled = _drain(stream)
        assert sorted(tag for tag, _ in settled) == items
        assert all(future.result() == tag * tag for tag, future in settled)

    def test_wait_on_empty_stream_returns_nothing(self):
        with ThreadPoolExecutor(jobs=2) as pool:
            stream = pool.submit_stream(_square)
            assert stream.inflight == 0
            assert stream.wait(0.01) == []
            assert stream.close() == []

    def test_thread_pool_settles_in_completion_order(self):
        """A fast item submitted after a slow one comes back first."""
        with ThreadPoolExecutor(jobs=2) as pool:
            stream = pool.submit_stream(_sleepy)
            stream.submit(0.2, tag="slow")
            stream.submit(0.0, tag="fast")
            (first_tag, _), *_ = stream.wait(5.0)
            stream.close()
        assert first_tag == "fast"

    @pytest.mark.parametrize("make_executor", BACKENDS)
    def test_close_cancels_unstarted_futures(self, make_executor):
        with make_executor(1) as executor:
            stream = executor.submit_stream(_sleepy)
            futures = [stream.submit(0.05, tag=i) for i in range(6)]
            abandoned = stream.close()
            assert sorted(abandoned) == list(range(6))
            assert stream.inflight == 0 and stream.wait(0.01) == []
            if isinstance(executor, SerialExecutor):
                # Serial runs each item on submit: nothing is ever queued.
                assert all(f.done() and not f.cancelled() for f in futures)
            else:
                # One worker: queued items were cancelled instead of run.
                assert any(f.cancelled() for f in futures)

    @pytest.mark.parametrize("make_executor", BACKENDS)
    def test_one_failed_item_cancels_no_sibling(self, make_executor):
        with make_executor(2) as executor:
            stream = executor.submit_stream(_boom_on_zero)
            for item in range(6):
                stream.submit(item, tag=item)
            settled = dict(_drain(stream))
        assert sorted(settled) == list(range(6))
        assert isinstance(settled[0].exception(), ValueError)
        assert [settled[i].result() for i in range(1, 6)] == [1, 4, 9, 16, 25]

    @pytest.mark.parametrize("make_executor", BACKENDS)
    def test_loop_stays_within_capacity(self, make_executor, records, monkeypatch):
        """The loop bounds submission by ``capacity``: on serial it never
        runs a chunk before the previous one merged."""
        from repro.engine.executors import SubmitStream

        ahead = []
        original_submit = SubmitStream.submit

        def recording_submit(stream, item, tag):
            ahead.append(stream.inflight)
            return original_submit(stream, item, tag)

        monkeypatch.setattr(SubmitStream, "submit", recording_submit)
        with make_executor(2) as executor:
            engine = ExecutionEngine(executor=executor, batch_size=2)
            store = engine.run(
                build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
            )
        assert len(store) == len(records)
        assert len(ahead) == len(records) // 2  # one submission per chunk
        assert max(ahead) < executor.capacity


class TestSubmit:
    def test_submit_returns_future_with_result(self):
        for executor in (SerialExecutor(), ThreadPoolExecutor(jobs=2), AsyncExecutor(jobs=2)):
            with executor:
                assert executor.submit(_square, 7).result(timeout=10) == 49

    def test_process_submit(self):
        with ProcessPoolExecutor(jobs=2) as pool:
            assert pool.submit(_square, 7).result(timeout=30) == 49

    def test_submit_propagates_exception_through_future(self):
        def boom(x):
            raise ValueError("bad item")

        for executor in (SerialExecutor(), ThreadPoolExecutor(jobs=2), AsyncExecutor(jobs=2)):
            with executor:
                with pytest.raises(ValueError, match="bad item"):
                    executor.submit(boom, 1).result(timeout=10)

    def test_closed_executor_rejects_submit_and_submit_stream(self):
        for executor in (
            SerialExecutor(),
            ThreadPoolExecutor(jobs=2),
            ProcessPoolExecutor(jobs=2),
            AsyncExecutor(jobs=2),
        ):
            executor.close()
            with pytest.raises(RuntimeError):
                executor.submit(_square, 1)
            with pytest.raises(RuntimeError):
                executor.submit_stream(_square)

    def test_async_submit_awaits_coroutine_functions(self):
        async def acc(x):
            return x + 1

        with AsyncExecutor(jobs=2) as pool:
            assert pool.submit(acc, 41).result(timeout=10) == 42


def _pending_loop_tasks(pool) -> int:
    """How many tasks (besides the probe itself) are alive on the pool's loop."""
    import asyncio

    async def probe(_item):
        return len([t for t in asyncio.all_tasks() if t is not asyncio.current_task()])

    return pool.submit(probe, None).result(timeout=10)


def _assert_no_leaked_tasks(pool, timeout_s: float = 2.0) -> None:
    """Cancelled tasks need a few loop iterations to unwind; poll briefly."""
    deadline = time.monotonic() + timeout_s
    while True:
        pending = _pending_loop_tasks(pool)
        if pending == 0:
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"{pending} tasks leaked on the executor loop")
        time.sleep(0.02)


class TestAsyncCancellation:
    """The async-native contract: closing a stream — an abandoned run, or the
    engine's fail-fast after a raising coroutine — cancels queued *and*
    in-flight coroutines; no tasks leak onto the loop, and the loop stays
    reusable for the next run."""

    def test_abandoned_iterator_cancels_queued_and_inflight(self):
        import asyncio

        started = []

        async def item(x):
            if x == 0:
                return x  # the one fast item the consumer waits for
            started.append(x)
            await asyncio.sleep(30)  # would hang the test if not cancelled
            return x

        with AsyncExecutor(jobs=2, max_inflight=2) as pool:
            stream = pool.submit_stream(item)
            for x in range(10):
                stream.submit(x, tag=x)
            settled = stream.wait(10.0)
            assert [(tag, future.result()) for tag, future in settled] == [(0, 0)]
            stream.close()  # consumer walks away
            _assert_no_leaked_tasks(pool)
            # Queued coroutines beyond max_inflight never ran at all.
            assert len(started) < 10

    def test_raising_coroutine_cancels_rest_and_loop_stays_usable(self):
        import asyncio

        async def boom(x):
            if x == 0:
                raise RuntimeError("boom")
            await asyncio.sleep(30)
            return x

        with AsyncExecutor(jobs=2, max_inflight=4) as pool:
            stream = pool.submit_stream(boom)
            for x in range(8):
                stream.submit(x, tag=x)
            (tag, future), = stream.wait(10.0)
            assert tag == 0
            with pytest.raises(RuntimeError, match="boom"):
                future.result()
            stream.close()  # fail fast: the dispatcher cancels the rest
            _assert_no_leaked_tasks(pool)

            # The loop is reusable: a fresh stream on the same executor
            # completes normally after the failed one.
            async def fine(x):
                await asyncio.sleep(0)
                return x * 2

            stream = pool.submit_stream(fine)
            for x in (1, 2, 3):
                stream.submit(x, tag=x)
            pairs = sorted((tag, future.result()) for tag, future in _drain(stream))
            assert pairs == [(1, 2), (2, 4), (3, 6)]

    def test_ordered_map_cancels_siblings_on_error(self):
        """Blocking map: one raising coroutine must cancel the rest — an
        aborted ordered-dispatch run cannot keep calling models behind it."""
        import asyncio

        completed = []

        async def item(x):
            if x == 0:
                raise RuntimeError("boom")
            await asyncio.sleep(0.2)
            completed.append(x)
            return x

        with AsyncExecutor(jobs=4, max_inflight=8) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.map(item, list(range(8)))
            _assert_no_leaked_tasks(pool)
        assert completed == []  # siblings were cancelled, not run to completion

    def test_cancelled_semaphore_waiters_release_their_slot(self):
        """Coroutines cancelled while waiting for an inflight slot must not
        poison the semaphore for later submissions."""
        import asyncio

        async def slow(x):
            await asyncio.sleep(30)
            return x

        with AsyncExecutor(jobs=2, max_inflight=1) as pool:
            stream = pool.submit_stream(slow)
            for x in range(5):
                stream.submit(x, tag=x)
            stream.close()  # nothing consumed: everything cancels
            _assert_no_leaked_tasks(pool)

            async def quick(x):
                return x + 1

            # max_inflight=1: if a cancelled waiter leaked the slot this
            # submission would never acquire the semaphore.
            assert pool.submit(quick, 1).result(timeout=10) == 2

    def test_engine_async_run_after_failed_run_is_clean(self, records):
        """A raising model aborts the run; the same engine then completes a
        healthy run with bit-identical results to a fresh serial engine."""

        class FlakyModel:
            name = "flaky"
            cache_identity = "flaky"

            def generate(self, prompt):
                raise RuntimeError("model down")

            def generate_batch(self, prompts):
                raise RuntimeError("model down")

            async def generate_batch_async(self, prompts):
                raise RuntimeError("model down")

        from repro.engine.requests import DetectionRequest

        flaky = FlakyModel()
        flaky_requests = [
            DetectionRequest(model=flaky, strategy=PromptStrategy.BP1, record=r)
            for r in records[:6]
        ]
        reference = ExecutionEngine().run(
            build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
        )
        with ExecutionEngine(
            jobs=4, executor_kind="async", max_inflight=8, batch_size=2
        ) as engine:
            with pytest.raises(RuntimeError, match="model down"):
                engine.run(flaky_requests)
            _assert_no_leaked_tasks(engine.executor)
            store = engine.run(
                build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
            )
        assert [(r.record_name, r.response) for r in store] == [
            (r.record_name, r.response) for r in reference
        ]


class TestEngineDispatch:
    def test_rejects_unknown_dispatch(self):
        """There is one dispatch loop: the old mode option is gone."""
        with pytest.raises(TypeError):
            ExecutionEngine(dispatch="ordered")

    @pytest.mark.parametrize("config_id,config", [
        ("thread", dict(jobs=4, batch_size=5)),
        ("async", dict(jobs=4, executor_kind="async", batch_size=5)),
        ("process", dict(jobs=2, executor_kind="process", batch_size=5)),
    ])
    def test_dynamic_matches_ordered_responses(self, records, config_id, config):
        """Completion-order dispatch on every pool backend returns the store
        of the in-order serial reference, response for response."""
        model_name = "gpt-4"
        with ExecutionEngine(executor=SerialExecutor(), batch_size=5) as serial_engine:
            reference = serial_engine.run(
                build_requests(create_model(model_name), PromptStrategy.BP1, records)
            )
        with ExecutionEngine(**config) as engine:
            store = engine.run(
                build_requests(create_model(model_name), PromptStrategy.BP1, records)
            )
        assert [(r.record_name, r.response) for r in store] == [
            (r.record_name, r.response) for r in reference
        ]

    def test_lpt_and_adaptive_keep_results_after_warmup(self, records):
        """A warmed cost model reorders and resizes chunks; results hold."""
        cost_model = CostModel()
        reference = None
        with ExecutionEngine(
            jobs=4, batch_size=4, cost_model=cost_model, cache=ResponseCache()
        ) as engine:
            for _ in range(3):  # run 1 cold, runs 2-3 LPT + adaptive + cached
                requests = []
                for name in ("gpt-4", "llama2-7b"):
                    requests += build_requests(
                        create_model(name), PromptStrategy.BP1, records
                    )
                    requests += build_requests(
                        create_model(name), PromptStrategy.ADVANCED, records, scoring="pairs"
                    )
                store = engine.run(requests)
                fingerprint = [(r.model, r.strategy, r.record_name, r.response) for r in store]
                if reference is None:
                    reference = fingerprint
                assert fingerprint == reference
        assert len(cost_model) == 4  # every (model, strategy) group observed

    def test_results_preserve_request_order_under_dynamic(self, records):
        model = create_model("gpt-4")
        with ExecutionEngine(jobs=4, batch_size=3) as engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert [r.record_name for r in store] == [r.name for r in records]

    def test_group_telemetry_recorded(self, records):
        engine = ExecutionEngine(cache=ResponseCache())
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        groups = engine.telemetry.group_snapshot()
        assert len(groups) == 1
        group = groups[0]
        assert group["model"] == "gpt-4"
        assert group["strategy"] == "BP1"
        assert group["requests"] == len(records)
        assert group["model_calls"] == len(records)
        assert group["cache_hit_rate"] == 0.0
        # A warm rerun flips the hit rate without new model calls.
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        group = engine.telemetry.group_snapshot()[0]
        assert group["requests"] == 2 * len(records)
        assert group["model_calls"] == len(records)
        assert group["cache_hit_rate"] == 0.5
        stats = engine.telemetry.format_group_stats(top_k=3)
        assert "gpt-4/BP1" in stats and "slowest groups" in stats


class TestCostModelScheduling:
    def _requests(self, records, fast, slow):
        return build_requests(fast, PromptStrategy.BP1, records) + build_requests(
            slow, PromptStrategy.BP1, records
        )

    def test_lpt_orders_slow_group_first(self, records):
        fast = create_model("gpt-4")
        slow = create_model("llama2-7b")
        cost_model = CostModel()
        cost_model.observe(fast.cache_identity, "BP1", 0.001)
        cost_model.observe(slow.cache_identity, "BP1", 0.1)
        engine = ExecutionEngine(batch_size=4, cost_model=cost_model, adaptive_batching=False)
        chunks, _shed = engine._chunk(list(enumerate(self._requests(records[:8], fast, slow))))
        # Plan order puts the fast model first; LPT must flip that.
        assert chunks[0][0][1].model is slow
        assert chunks[-1][0][1].model is fast

    def test_adaptive_sizing_shrinks_slow_chunks(self, records):
        fast = create_model("gpt-4")
        slow = create_model("llama2-7b")
        cost_model = CostModel()
        cost_model.observe(fast.cache_identity, "BP1", 0.001)
        cost_model.observe(slow.cache_identity, "BP1", 0.1)
        engine = ExecutionEngine(batch_size=4, cost_model=cost_model, lpt=False)
        chunks, _shed = engine._chunk(list(enumerate(self._requests(records[:8], fast, slow))))
        slow_sizes = {len(c) for c in chunks if c[0][1].model is slow}
        fast_sizes = {len(c) for c in chunks if c[0][1].model is fast}
        assert max(slow_sizes) < 4  # slow group split finer than batch_size
        assert max(fast_sizes) > 4  # fast group batched coarser

    def test_cold_cost_model_keeps_plan_order_and_uniform_chunks(self, records):
        fast = create_model("gpt-4")
        slow = create_model("llama2-7b")
        engine = ExecutionEngine(batch_size=4)
        chunks, _shed = engine._chunk(list(enumerate(self._requests(records[:8], fast, slow))))
        assert [len(c) for c in chunks] == [4, 4, 4, 4]
        assert chunks[0][0][1].model is fast  # plan order untouched


class _RecordingDistributedExecutor(SerialExecutor):
    """In-process stand-in for the process pool: picklable-payload contract
    without the fork, so payloads and worker globals stay inspectable."""

    name = "recording-distributed"
    distributed = True

    def __init__(self):
        super().__init__()
        self.payloads = []

    def submit(self, fn, item):
        self.payloads.append(item)
        return super().submit(fn, item)


class TestBroadcastOnceSnapshot:
    @pytest.fixture()
    def publish_counter(self, monkeypatch):
        """Record parent-side snapshot publications (the PublishedSnapshot handles)."""
        published = []
        original = engine_core._publish_snapshot

        def counting_publish(records, **kwargs):
            handle = original(records, **kwargs)
            published.append(handle)
            return handle

        monkeypatch.setattr(engine_core, "_publish_snapshot", counting_publish)
        return published

    def test_snapshot_serialised_once_per_run_not_per_chunk(
        self, records, publish_counter, tmp_path
    ):
        cache = ResponseCache()
        for record in records:  # warm cache: the snapshot is non-trivial
            cache.put("gpt-4", f"warm {record.name}", "yes")
        executor = _RecordingDistributedExecutor()
        engine = ExecutionEngine(executor=executor, cache=cache, batch_size=1)
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))

        assert len(executor.payloads) == len(records)  # batch_size=1 -> chunk per record
        assert len(publish_counter) == 1, "snapshot must be published once per run"
        ref = publish_counter[0].payload
        for _, payload_ref in executor.payloads:
            assert payload_ref == ref  # payloads carry only the tiny reference
            assert not isinstance(payload_ref, dict)

        # A second run republishes (entries changed) — still once.
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        assert len(publish_counter) == 2

    @pytest.mark.parametrize("transport", ["shm", "file"])
    def test_snapshot_resource_released_after_run(
        self, records, publish_counter, transport
    ):
        import os

        cache = ResponseCache()
        cache.put("gpt-4", "warm", "yes")
        engine = ExecutionEngine(
            executor=_RecordingDistributedExecutor(),
            cache=cache,
            batch_size=4,
            snapshot_transport=transport,
        )
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        kind, locator, _token = publish_counter[0].payload
        if kind == "file":
            assert not os.path.exists(locator)
        else:
            assert kind == "shm"
            with pytest.raises((FileNotFoundError, OSError)):
                engine_snapshot._attach_shm(locator)

    def test_worker_memo_keeps_only_latest_token(self, records, publish_counter):
        cache = ResponseCache()
        cache.put("gpt-4", "warm", "yes")
        engine = ExecutionEngine(
            executor=_RecordingDistributedExecutor(), cache=cache, batch_size=4
        )
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records[:4]))
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records[:4]))
        assert len(engine_core._WORKER_SNAPSHOTS) == 1
        (token,) = engine_core._WORKER_SNAPSHOTS
        assert token == publish_counter[-1].payload[2]

    def test_telemetry_counts_publishes_and_attaches(self, records, publish_counter):
        cache = ResponseCache()
        cache.put("gpt-4", "warm", "yes")
        engine = ExecutionEngine(
            executor=_RecordingDistributedExecutor(), cache=cache, batch_size=4
        )
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        snap = engine.telemetry.snapshot()
        assert snap["broadcast_publishes"] == 1
        assert snap["broadcast_bytes"] == publish_counter[0].nbytes > 0
        if publish_counter[0].kind == "shm":
            # One genuine attach (the in-process recording executor is a
            # single "worker"); the memo absorbs the other chunks.
            assert snap["shm_attach"] == 1
        assert "broadcast=1 publishes" in engine.telemetry.format_stats()

    def test_uncached_run_publishes_nothing(self, records, publish_counter):
        engine = ExecutionEngine(executor=_RecordingDistributedExecutor(), batch_size=4)
        counts = engine.run_counts(
            build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
        )
        assert counts.total == len(records)
        assert publish_counter == []

    def test_distributed_results_match_serial_with_warm_cache(self, records):
        """The broadcast path returns the same store as the in-process path."""
        reference_engine = ExecutionEngine(cache=ResponseCache())
        reference = reference_engine.run(
            build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
        )
        cache = ResponseCache()
        engine = ExecutionEngine(
            executor=_RecordingDistributedExecutor(), cache=cache, batch_size=3
        )
        first = engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        second = engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        assert first.responses() == reference.responses()
        assert second.responses() == reference.responses()
        # The deltas merged back made the second run hit the snapshot.
        assert engine.telemetry.cache_hits == len(records)
