"""Write ``perfbench/reference.json``: the outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the
reference::

    python3 perfbench/make_reference.py

Each reference comes from a path other than the one the benchmark times:

* ``paper_tables`` — per corpus-seed variant, the digest of
  ``results_fingerprint`` from the *sequential* per-table path
  (``run_all_tables(interleave=False)``); the benchmark times the
  interleaved path.
* ``remote_api`` — per corpus-seed variant and per unit strategy, the digest
  of every request's outcome (``RemoteApi.outcomes``) from the plain zoo
  models on a serial engine: no latency, no faults, no retries.  Chaos
  never changes content, so the faulty async run must match it.
* ``corpus_stream_verdicts`` — the instant model's verdict on every
  augmented template (marker salt), one character per template, scored
  through a plain serial engine run.

Takes a few minutes (one full table regeneration per variant).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def paper_tables_digest(variant: int) -> str:
    from repro.corpus.generator import CorpusConfig
    from repro.engine import ExecutionEngine, ResponseCache, results_fingerprint, run_all_tables
    from repro.eval.experiments import default_subset

    config = CorpusConfig(seed=workloads.corpus_seed(variant))
    with ExecutionEngine(cache=ResponseCache(workloads.CACHE_ENTRIES)) as engine:
        tables = run_all_tables(
            default_subset(config), engine=engine, corpus_config=config, interleave=False
        )
    return workloads.digest(results_fingerprint(tables))


def remote_api_digests(variant: int):
    from repro.corpus.generator import CorpusConfig
    from repro.engine import ExecutionEngine
    from repro.eval.experiments import default_subset
    from repro.llm.zoo import available_models, create_model

    dataset = default_subset(CorpusConfig(seed=workloads.corpus_seed(variant)))
    models = [create_model(name) for name in available_models()]
    digests = []
    for unit in range(len(workloads.RemoteApi.STRATEGIES)):
        requests = workloads.RemoteApi.unit_requests(models, dataset.records, unit)
        with ExecutionEngine() as engine:
            store = engine.run(requests)
        digests.append(workloads.digest(workloads.RemoteApi.outcomes(requests, store.results)))
    return digests


def corpus_stream_verdicts() -> str:
    from repro.dataset.drbml import record_from_benchmark
    from repro.engine import ExecutionEngine, build_requests
    from repro.prompting.strategy import PromptStrategy

    records = []
    for index, template in enumerate(workloads.build_templates(), start=1):
        bench = template.spec.instantiate(index, template.variant)
        bench.code = template.code
        records.append(record_from_benchmark(bench))
    requests = build_requests(workloads.make_instant_model(), PromptStrategy.BP1, records)
    with ExecutionEngine() as engine:
        store = engine.run(requests)
    return "".join("1" if result.prediction else "0" for result in store.results)


def main() -> None:
    reference = {
        "corpus_stream_verdicts": corpus_stream_verdicts(),
        "remote_api": {},
        "paper_tables": {},
    }
    for variant in range(workloads.N_VARIANTS):
        seed = workloads.corpus_seed(variant)
        reference["remote_api"][str(seed)] = remote_api_digests(variant)
        reference["paper_tables"][str(seed)] = paper_tables_digest(variant)
        print(f"paper-tables variant {variant} (corpus seed {seed}) done", flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
