"""The end-to-end data-race-detection pipeline (paper Figure 1).

The pipeline offers the two routes the paper studies:

* **prompt engineering** — ask a (simulated) chat model about a code snippet
  using one of the BP1/BP2/AP1/AP2 strategies and parse its response;
* **fine-tuning** — fine-tune an open-source model on DRB-ML prompt–response
  pairs and use the tuned model for detection or variable identification;

plus the traditional-tool baselines (the Inspector-like dynamic detector and
the static detector) used for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.static_race import StaticRaceDetector
from repro.core.config import PipelineConfig
from repro.corpus.generator import build_corpus
from repro.corpus.microbenchmark import Microbenchmark
from repro.corpus.registry import CorpusRegistry
from repro.dataset.drbml import DRBMLDataset
from repro.dataset.pairs import build_advanced_pairs, build_basic_pairs
from repro.dynamic.inspector import InspectorLikeDetector
from repro.engine import (
    CascadePolicy,
    CostModel,
    ExecutionEngine,
    ResponseCache,
    build_requests,
    iter_requests,
)
from repro.eval.metrics import ConfusionCounts
from repro.llm.base import LanguageModel
from repro.llm.finetune import FineTuneConfig, FineTunedModel, FineTuner
from repro.llm.zoo import available_models, create_model
from repro.prompting.chains import run_strategy
from repro.prompting.parsing import ParsedPairs, parse_pairs_response, parse_yes_no
from repro.prompting.strategy import PromptStrategy

__all__ = ["DetectionOutcome", "DataRacePipeline"]


@dataclass
class DetectionOutcome:
    """Result of asking one model about one code snippet."""

    model: str
    strategy: str
    response: str
    prediction: Optional[bool]
    pairs: Optional[ParsedPairs] = None

    @property
    def says_race(self) -> bool:
        return bool(self.prediction)


class DataRacePipeline:
    """High-level facade over the whole reproduction."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self._registry: Optional[CorpusRegistry] = None
        self._dataset: Optional[DRBMLDataset] = None
        self._models: Dict[str, LanguageModel] = {}
        self._engine: Optional[ExecutionEngine] = None

    # -- lazily built artefacts -----------------------------------------------------

    @property
    def registry(self) -> CorpusRegistry:
        """The DataRaceBench-style corpus."""
        if self._registry is None:
            self._registry = CorpusRegistry(build_corpus(self.config.corpus))
        return self._registry

    @property
    def dataset(self) -> DRBMLDataset:
        """The full 201-record DRB-ML dataset."""
        if self._dataset is None:
            self._dataset = DRBMLDataset.from_benchmarks(self.registry.benchmarks)
        return self._dataset

    def evaluation_subset(self) -> DRBMLDataset:
        """The ≤4k-token evaluation subset (198 records, paper §3.2)."""
        return self.dataset.token_subset(self.config.token_limit)

    def model(self, name: Optional[str] = None) -> LanguageModel:
        """A (cached) model instance from the zoo."""
        name = name or self.config.default_model
        if name not in self._models:
            self._models[name] = create_model(name)
        return self._models[name]

    @staticmethod
    def models() -> List[str]:
        """Model names in the paper's order."""
        return available_models()

    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine every scoring path runs through.

        Built once from the config: ``jobs``/``executor`` select the
        backend (serial, thread, process or async),
        ``cache_entries``/``cache_path`` configure the response cache,
        ``cascade`` routes records through the cheap-tier ladder first.
        Results are identical across these settings; they only change how
        fast the calls run (the cascade additionally changes *which* model
        answers each record, so its results differ by design unless every
        record escalates).
        """
        if self._engine is None:
            cascade = None
            speculate_fallback = None
            if self.config.cascade:
                cascade = CascadePolicy.from_spec(
                    self.config.cascade_tiers,
                    escalate_below=self.config.escalate_below,
                )
                if self.config.speculate:
                    speculate_fallback = cascade.fallback_model
            # One cost model shared by the scheduler and (when cost-aware
            # eviction is on) the cache's eviction policy.
            cost_model = CostModel()
            cache = None
            if self.config.cache_entries > 0:
                cache = ResponseCache(
                    self.config.cache_entries,
                    path=self.config.cache_path,
                    cost_aware_eviction=self.config.cost_aware_eviction,
                    cost_model=cost_model,
                    max_bytes=self.config.cache_max_bytes,
                    ttl_s=self.config.cache_ttl_s,
                    shared_read=self.config.cache_shared_read,
                )
            self._engine = ExecutionEngine(
                jobs=self.config.jobs,
                executor_kind=self.config.executor,
                cache=cache,
                batch_size=self.config.batch_size,
                lpt=self.config.lpt,
                adaptive_batching=self.config.adaptive_batching,
                cost_model=cost_model,
                max_inflight=self.config.max_inflight,
                coalesce=self.config.coalesce,
                coalesce_window_s=self.config.coalesce_window_s,
                coalesce_max_batch=self.config.coalesce_max_batch,
                speculate=self.config.speculate,
                speculate_after=self.config.speculate_after,
                deadline=self.config.deadline,
                snapshot_transport=self.config.snapshot_transport,
                stream_window=self.config.stream_window,
                cascade=cascade,
                speculate_fallback=speculate_fallback,
                retries=self.config.retries,
                retry_base_ms=self.config.retry_base_ms,
                breaker_threshold=self.config.breaker_threshold,
                breaker_cooldown_s=self.config.breaker_cooldown_s,
                journal=self.config.journal,
            )
        return self._engine

    def close(self) -> None:
        """Release the engine's executor resources (pools, loops), if built.

        Idempotent; the pipeline remains usable — the next engine access
        builds a fresh one.  Also usable as a context manager.
        """
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    def __enter__(self) -> "DataRacePipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def save_cache(self) -> Optional[str]:
        """Persist the response cache to ``config.cache_path``, if both exist.

        Returns the path written, or ``None`` when there is nothing to save
        (caching disabled or no ``cache_path`` configured).  Loading is
        automatic — the engine's cache reads the file on first use — but
        saving is explicit so callers decide when a run's responses are
        worth keeping.
        """
        if self.engine.cache is None or self.config.cache_path is None:
            return None
        return str(self.engine.cache.save())

    # -- route 1: prompt engineering -----------------------------------------------

    def detect(
        self,
        code: str,
        *,
        model: Optional[str] = None,
        strategy: Optional[PromptStrategy] = None,
    ) -> DetectionOutcome:
        """Ask a model whether ``code`` contains a data race."""
        strategy = strategy or self.config.default_strategy
        lm = self.model(model)
        response = run_strategy(lm.generate, strategy, code)
        if strategy.requests_pairs:
            parsed = parse_pairs_response(response)
            return DetectionOutcome(
                model=lm.name,
                strategy=strategy.value,
                response=response,
                prediction=parsed.race,
                pairs=parsed,
            )
        return DetectionOutcome(
            model=lm.name,
            strategy=strategy.value,
            response=response,
            prediction=parse_yes_no(response),
        )

    def identify_variables(self, code: str, *, model: Optional[str] = None) -> DetectionOutcome:
        """Ask a model for the variable pairs causing a race (S2/S3)."""
        return self.detect(code, model=model, strategy=PromptStrategy.ADVANCED)

    # -- route 2: fine-tuning --------------------------------------------------------

    def finetune(
        self,
        model: str,
        *,
        kind: str = "basic",
        train_names: Optional[Sequence[str]] = None,
        config: Optional[FineTuneConfig] = None,
    ) -> FineTunedModel:
        """Fine-tune an open-source model on DRB-ML prompt–response pairs."""
        subset = self.evaluation_subset()
        records = (
            subset.records_for(train_names) if train_names is not None else subset.records
        )
        pairs = build_basic_pairs(records) if kind == "basic" else build_advanced_pairs(records)
        tuner = FineTuner(base=create_model(model), config=config or FineTuneConfig.for_model(model))
        return tuner.fit(pairs)

    # -- traditional baselines -------------------------------------------------------

    def inspector(self) -> InspectorLikeDetector:
        """The Inspector-like dynamic detector baseline."""
        return InspectorLikeDetector()

    def static_detector(self) -> StaticRaceDetector:
        """The static-analysis baseline."""
        return StaticRaceDetector()

    # -- evaluation helpers ----------------------------------------------------------

    def score_model(
        self,
        *,
        model: Optional[str] = None,
        strategy: Optional[PromptStrategy] = None,
        records: Optional[Sequence] = None,
    ) -> ConfusionCounts:
        """Confusion counts of a model/strategy over the evaluation subset.

        Runs through the execution engine (batched, cached, parallel per
        the pipeline config); scoring matches :meth:`detect` exactly — for
        pair-requesting strategies a missing verdict counts as "no race"
        (the ``"pairs-strict"`` mode).  With ``config.stream`` the requests
        flow through :meth:`ExecutionEngine.run_streaming` in bounded
        windows and fold incrementally — identical counts, O(window) memory.
        """
        strategy = strategy or self.config.default_strategy
        records = records if records is not None else self.evaluation_subset().records
        scoring = "pairs-strict" if strategy.requests_pairs else "detection"
        if self.config.stream:
            requests = iter_requests(self.model(model), strategy, records, scoring=scoring)
            return self.engine.run_streaming_counts(requests)
        requests = build_requests(self.model(model), strategy, records, scoring=scoring)
        return self.engine.run_counts(requests)

    def score_inspector(self, benchmarks: Optional[Sequence[Microbenchmark]] = None) -> ConfusionCounts:
        """Confusion counts of the Inspector-like detector over the subset."""
        subset_names = {r.name for r in self.evaluation_subset().records}
        benchmarks = benchmarks or [b for b in self.registry if b.name in subset_names]
        benchmarks = list(benchmarks)
        detector = self.inspector()
        predictions = self.engine.map(detector.predict, benchmarks)
        counts = ConfusionCounts()
        for bench, prediction in zip(benchmarks, predictions):
            counts.add(bench.has_race, prediction)
        return counts
