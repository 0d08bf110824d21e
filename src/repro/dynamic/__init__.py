"""Dynamic (execution-based) race detection substrate.

This package plays the role of the commercial dynamic tools the paper uses
as its traditional baseline (Intel Inspector, ThreadSanitizer): it *runs*
each OpenMP microbenchmark on a simulated thread team, records every access
to shared storage together with its synchronization context, and then checks
conflicting accesses for concurrency using a segment (barrier-epoch) +
lockset analysis over the recorded trace.

Modules
-------
``events``
    The access/synchronization event records produced by the interpreter.
``interpreter``
    An interpreter for the corpus language subset with OpenMP semantics
    (parallel regions, worksharing loops, sections, single/master, critical,
    atomic, ordered, locks, tasks and taskwait).  Each run lowers the AST to
    Python closures once, then executes them.
``detector``
    The happens-before/lockset analysis over a recorded trace.
``inspector``
    The :class:`InspectorLikeDetector` facade used by the Table 3 experiment.
"""

from repro.dynamic.events import AccessEvent, ExecutionTrace
from repro.dynamic.interpreter import Interpreter, InterpreterError, InterpreterLimits
from repro.dynamic.detector import DynamicRacePair, DynamicRaceReport, detect_races
from repro.dynamic.inspector import InspectorLikeDetector

__all__ = [
    "AccessEvent",
    "ExecutionTrace",
    "Interpreter",
    "InterpreterError",
    "InterpreterLimits",
    "DynamicRacePair",
    "DynamicRaceReport",
    "detect_races",
    "InspectorLikeDetector",
]
