"""Scheduling throughput — LPT + adaptive chunks vs. plan-order static chunks.

The engine's workload is embarrassingly parallel but *heterogeneous*: a
slow model's chunks cost an order of magnitude more wall time than a fast
model's.  The reference schedule (``lpt=False, adaptive_batching=False``)
chunks every group to the same static ``batch_size`` and submits them in
plan order — so when the slow model happens to sit at the end of the plan
(exactly where the expensive fine-tuned ADVANCED groups land in the
paper's table order), its big chunks start last and the whole run drains
down to a handful of straggler workers while the rest idle.

The tuned path measured here stacks the two scheduler features this
repo's cost model enables, both on the same completion-order loop:

* **LPT ordering** — chunks dispatched longest-processing-time first, so
  the slow group starts at t=0 and the cheap chunks pack into the gaps;
* **adaptive chunk sizing** — the slow group is split into smaller chunks
  (finer scheduling granularity, no long indivisible tail), fast groups
  into larger ones.

The cost model is primed by one untimed run over the same requests (the
production equivalent: the persisted ``costmodel.json`` of any earlier
session).  Models sleep a deterministic per-(model, prompt) latency, so
both schedules execute identical work and must produce identical results —
the benchmark asserts bit-identical responses, then demands the tuned path
be at least ``MIN_SPEEDUP`` times faster.  Writes ``BENCH_dispatch.json``
(repo root); CI's ``check_bench_regression.py`` compares it against the
committed baseline.
"""

import json
import time
from pathlib import Path

from conftest import run_once

from repro.engine import CostModel, ExecutionEngine, build_requests
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy

#: Heterogeneous per-call latencies; llama2 is the straggler group, and it
#: is built *last*, so plan order puts its chunks at the end of the queue.
MODEL_LATENCY_S = {
    "gpt-3.5-turbo": 0.002,
    "starchat-beta": 0.004,
    "gpt-4": 0.006,
    "llama2-7b": 0.040,
}
#: Deterministic per-prompt jitter (same prompt -> same sleep in each run).
LATENCY_JITTER_S = 0.002
N_RECORDS = 16
JOBS = 6
BATCH_SIZE = 8
#: The committed floor CI enforces (see benchmarks/baselines/).
MIN_SPEEDUP = 1.3

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dispatch.json"


def _build_requests(records):
    """One BP1 detection sweep per model, slowest model last in plan order."""
    requests = []
    for name, latency in MODEL_LATENCY_S.items():
        model = create_model(name, latency_s=latency, latency_jitter_s=LATENCY_JITTER_S)
        requests.extend(build_requests(model, PromptStrategy.BP1, records))
    return requests


def _fingerprint(store):
    return [(r.model, r.strategy, r.record_name, r.response) for r in store]


def _measure(records, *, lpt, adaptive, cost_model):
    """Fresh engine and models per measurement; returns (fingerprint, s)."""
    requests = _build_requests(records)
    with ExecutionEngine(
        jobs=JOBS,
        batch_size=BATCH_SIZE,
        lpt=lpt,
        adaptive_batching=adaptive,
        cost_model=cost_model,
    ) as engine:
        start = time.perf_counter()
        store = engine.run(requests)
        return _fingerprint(store), time.perf_counter() - start


def test_dynamic_lpt_vs_ordered_static_map(benchmark, subset):
    records = subset.records[:N_RECORDS]

    # Prime the cost model the way a real deployment would be primed: by a
    # previous run's observed latencies (persisted as costmodel.json).
    cost_model = CostModel()
    _measure(records, lpt=False, adaptive=False, cost_model=cost_model)

    ordered_results, ordered_s = _measure(
        records, lpt=False, adaptive=False, cost_model=CostModel()
    )
    dynamic_results, dynamic_s = run_once(
        benchmark,
        lambda: _measure(records, lpt=True, adaptive=True, cost_model=cost_model),
    )

    n_requests = len(ordered_results)
    speedup = ordered_s / dynamic_s
    payload = {
        "requests": n_requests,
        "jobs": JOBS,
        "batch_size": BATCH_SIZE,
        "simulated_latency_s": MODEL_LATENCY_S,
        "simulated_latency_jitter_s": LATENCY_JITTER_S,
        "ordered_static_map": {
            "seconds": round(ordered_s, 4),
            "requests_per_second": round(n_requests / ordered_s, 2),
        },
        "dynamic_lpt_adaptive": {
            "seconds": round(dynamic_s, 4),
            "requests_per_second": round(n_requests / dynamic_s, 2),
            "cost_model_groups": cost_model.snapshot(),
        },
        "speedup_dynamic_lpt_vs_ordered": round(speedup, 2),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print()
    print(
        f"dispatch: plan-order static chunks {ordered_s * 1000:.0f}ms, "
        f"LPT+adaptive {dynamic_s * 1000:.0f}ms ({speedup:.1f}x)"
    )

    # Pure scheduling refactor: identical responses either way.
    assert dynamic_results == ordered_results
    assert speedup >= MIN_SPEEDUP, (
        f"LPT+adaptive must be >= {MIN_SPEEDUP}x plan-order static chunks, "
        f"got {speedup:.2f}x"
    )
