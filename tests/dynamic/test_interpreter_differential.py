"""Differential tests: the lowered interpreter against the tree-walking
reference interpreter (``reference_interpreter.py``).

For every run both must agree exactly: the same ``ExecutionTrace`` (every
event, ``steps_executed``, ``regions_executed``, ``num_threads``,
``finished``) and the same ``_memory`` left behind, or the same
``InterpreterError`` message (and the same ``_memory`` at the failure).
Inputs are the corpus programs and their augmented variants (identifiers
renamed, loop bounds scaled) under both schedules at team sizes 2 and 4,
the same programs under small execution limits so that limit trips are
compared too, the robustness suite's bad programs (so the reference raises
the same typed errors), and generated programs that put the parser differential's
expressions inside ``parallel`` and ``parallel for`` bodies.

Tier-1 runs every 32nd source (from the 6th); ``REPRO_HYPOTHESIS_PROFILE=ci`` (the
CI step) runs all 402.
"""

import os

import pytest
from hypothesis import given, strategies as st

from reference_interpreter import ReferenceInterpreter
from test_interpreter_robustness import CASES, _program
from test_lexer_golden import _corpus_sources, _template_sources
from test_parser_differential import _EXPRESSIONS

from repro.cparse import parse
from repro.cparse.lexer import LexError
from repro.cparse.parser import ParseError
from repro.cparse.pragma import PragmaError
from repro.dynamic.interpreter import Interpreter, InterpreterError, InterpreterLimits

_SOURCES = _corpus_sources() + _template_sources()
_UNITS = [parse(source) for source in _SOURCES]
_FULL = os.environ.get("REPRO_HYPOTHESIS_PROFILE") == "ci"
_SAMPLE = range(len(_SOURCES)) if _FULL else range(5, len(_SOURCES), 32)


def _outcome(interpreter_cls, unit, **kwargs):
    interpreter = interpreter_cls(**kwargs)
    try:
        trace = interpreter.run(unit)
        result = (
            trace.events,
            trace.steps_executed,
            trace.regions_executed,
            trace.num_threads,
            trace.finished,
        )
    except InterpreterError as exc:
        result = ("InterpreterError", str(exc))
    # repr, not ==: it tells 1 from 1.0 and compares NaN with itself.
    return result, repr(interpreter._memory)


def _assert_same(unit, **kwargs):
    got = _outcome(Interpreter, unit, **kwargs)
    assert got == _outcome(ReferenceInterpreter, unit, **kwargs)
    return got


@pytest.mark.parametrize("index", _SAMPLE)
def test_corpus_runs_match_reference(index):
    for team in (2, 4):
        for schedule in ("static", "roundrobin"):
            _assert_same(_UNITS[index], num_threads=team, schedule=schedule)


def test_sample_covers_writes_tasks_and_locks():
    """The sampled sources exercise shared writes, tasks and locks."""
    events = [
        event for index in _SAMPLE for event in Interpreter(num_threads=2).run(_UNITS[index]).events
    ]
    assert any(event.is_write for event in events)
    assert any(event.task is not None for event in events)
    assert any(event.locks for event in events)


@given(
    st.sampled_from(_UNITS),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=60),
    st.sampled_from((2, 4)),
    st.sampled_from(("static", "roundrobin")),
)
def test_limit_trips_match_reference(unit, max_steps, max_loop_iterations, team, schedule):
    limits = InterpreterLimits(max_steps=max_steps, max_loop_iterations=max_loop_iterations)
    _assert_same(unit, num_threads=team, schedule=schedule, limits=limits)


@pytest.mark.parametrize("name", sorted(CASES))
def test_typed_errors_match_reference(name):
    body, _ = CASES[name]
    for parallel in (False, True):
        _assert_same(parse(_program(body, parallel=parallel)), num_threads=2)


# -- generated programs ---------------------------------------------------------------

_GLOBALS = "int x = 3;\nint y = 5;\nint i = 1;\nint h[8];\n"
_SHAPES = [
    "int main()\n{{\n#pragma omp parallel\n  {{\n    {0};\n    y = {1};\n  }}\n  return 0;\n}}\n",
    "int main()\n{{\n  int k;\n#pragma omp parallel for\n  for (k = 0; k < 8; k++)\n"
    "    h[k] = {0};\n  x = {1};\n  return 0;\n}}\n",
    "int main()\n{{\n  int k;\n#pragma omp parallel for reduction(+: y) schedule(dynamic)\n"
    "  for (k = 0; k < 6; k++)\n  {{\n    y = y + ({0});\n#pragma omp critical\n"
    "    x = {1};\n  }}\n  return 0;\n}}\n",
    "int main()\n{{\n#pragma omp parallel num_threads(3)\n  {{\n#pragma omp single\n  {{\n"
    "#pragma omp task firstprivate(i)\n    i = {0};\n  }}\n#pragma omp atomic\n    x += {1};\n"
    "#pragma omp barrier\n    h[omp_get_thread_num()] = x;\n  }}\n  return 0;\n}}\n",
]


@given(
    _EXPRESSIONS,
    _EXPRESSIONS,
    st.sampled_from(_SHAPES),
    st.sampled_from((2, 4)),
    st.sampled_from(("static", "roundrobin")),
    st.integers(min_value=1, max_value=2000),
)
def test_generated_programs_match_reference(first, second, shape, team, schedule, max_steps):
    try:
        unit = parse(_GLOBALS + shape.format(first, second))
    except (LexError, ParseError, PragmaError):
        return
    limits = InterpreterLimits(max_steps=max_steps, max_loop_iterations=50)
    _assert_same(unit, num_threads=team, schedule=schedule, limits=limits)
