"""Event records produced by the OpenMP interpreter.

Every access to *shared* storage performed inside a parallel region becomes
an :class:`AccessEvent`.  The detector never looks at the program again: all
the information needed to decide concurrency and protection is carried on the
event (barrier epoch, held locks, atomicity, ordered construct, task
lineage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

__all__ = ["AccessEvent", "TaskInfo", "ExecutionTrace"]


@dataclass(frozen=True)
class TaskInfo:
    """Identity and ordering metadata of an explicit OpenMP task."""

    task_id: int
    creator_thread: int
    creation_step: int
    seq: int
    ordered_after: FrozenSet[int] = frozenset()


class AccessEvent(NamedTuple):
    """One dynamic access to shared storage.

    A ``NamedTuple``: the interpreter builds one per shared access, and a
    tuple is several times cheaper to build than a frozen dataclass.
    Construction by keyword, attribute access, equality and hashing work as
    for any immutable record.

    Attributes
    ----------
    address:
        Canonical storage address, e.g. ``"sum"`` or ``"a[17]"``.
    variable, expr_text, line, col, is_write:
        Source-level identity of the access (used to report race pairs in the
        same form the ground truth uses).
    thread:
        Executing thread id within the parallel region's team.
    region:
        Index of the parallel region instance (regions never overlap in time,
        so events from different regions cannot race).
    epoch:
        Barrier epoch of the executing thread at the time of the access.
        Events of different epochs are ordered by the barrier in between.
    step:
        Per-thread monotonically increasing counter (program order).
    locks:
        Names of OpenMP locks and critical regions held (unnamed ``critical``
        is represented as ``"__critical__"``).
    atomic, ordered:
        Whether the access is inside an ``atomic`` / ``ordered`` construct.
    task:
        :class:`TaskInfo` when the access runs inside an explicit task.
    task_seq:
        The executing context's taskwait sequence number (used to order a
        parent's accesses against tasks it has already waited for).
    """

    address: str
    variable: str
    expr_text: str
    line: int
    col: int
    is_write: bool
    thread: int
    region: int
    epoch: int
    step: int
    locks: FrozenSet[str] = frozenset()
    atomic: bool = False
    ordered: bool = False
    task: Optional[TaskInfo] = None
    task_seq: int = 0

    @property
    def operation(self) -> str:
        return "W" if self.is_write else "R"


@dataclass
class ExecutionTrace:
    """The full event trace of one interpreted execution."""

    events: List[AccessEvent] = field(default_factory=list)
    num_threads: int = 1
    steps_executed: int = 0
    regions_executed: int = 0
    finished: bool = True

    def append(self, event: AccessEvent) -> None:
        self.events.append(event)

    def addresses(self) -> Tuple[str, ...]:
        return tuple({e.address for e in self.events})

    def __len__(self) -> int:
        return len(self.events)
