"""Golden digest of the Inspector's results and event streams over the corpus.

One sha256 covers, for every corpus program, the
:class:`~repro.dynamic.inspector.InspectorLikeDetector` result (``has_race``,
``runs``, ``failed``, ``failure_reason`` and each race pair's
``describe()``) and, for each of its interpreter runs, a digest of the event
stream with the run's step and region counts, or the ``InterpreterError``
message.

The digest was recorded with the tree-walking reference interpreter kept in
``reference_interpreter.py``.  Any change to the interpreter that moves an
event, a step count or a verdict changes it.
"""

import hashlib
import json
import os
from unittest import mock

import pytest

from reference_interpreter import ReferenceInterpreter

from repro.corpus.generator import build_corpus
from repro.dynamic.inspector import InspectorLikeDetector
from repro.dynamic.interpreter import Interpreter, InterpreterError

GOLDEN_SHA256 = "9c1f6b36d4100921e5809eaa2a9bd31c4862e440810fc3f7b729de092ea12683"


def _task(task):
    if task is None:
        return None
    return [task.task_id, task.creator_thread, task.creation_step, task.seq,
            sorted(task.ordered_after)]


def _trace_digest(trace):
    events = [
        [e.address, e.variable, e.expr_text, e.line, e.col, e.is_write, e.thread, e.region,
         e.epoch, e.step, sorted(e.locks), e.atomic, e.ordered, _task(e.task), e.task_seq]
        for e in trace.events
    ]
    record = [events, trace.steps_executed, trace.regions_executed, trace.num_threads,
              trace.finished]
    return hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()


def _digest(interpreter_cls):
    runs = []

    class Recording(interpreter_cls):
        def run_source(self, source):
            try:
                trace = super().run_source(source)
            except InterpreterError as exc:
                runs.append(["InterpreterError", str(exc)])
                raise
            runs.append(_trace_digest(trace))
            return trace

    h = hashlib.sha256()
    detector = InspectorLikeDetector()
    with mock.patch("repro.dynamic.inspector.Interpreter", Recording):
        for bench in build_corpus():
            runs.clear()
            result = detector.analyze_benchmark(bench)
            record = [
                bench.name,
                result.has_race,
                result.runs,
                result.failed,
                result.failure_reason,
                [pair.describe() for pair in result.pairs],
                runs,
            ]
            h.update(json.dumps(record, ensure_ascii=False).encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def test_golden_digest():
    assert _digest(Interpreter) == GOLDEN_SHA256


@pytest.mark.skipif(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE") != "ci",
    reason="the reference interpreter is slow; the CI step re-checks the recording",
)
def test_reference_interpreter_recorded_the_digest():
    assert _digest(ReferenceInterpreter) == GOLDEN_SHA256
