"""Machine-speed probe: report time metrics at a fixed reference speed.

The machines this benchmark runs on are shared, and the speed a process
gets drifts by tens of percent within seconds and by up to 3× over
minutes.  Raw wall-clock figures then spread far more between runs than
any change worth detecting (measured: interquartile range 27–31% of the
median over ten 5-second static-analysis runs).  So a background thread
times a small fixed interpreter kernel every few milliseconds while the
workload runs.  The kernel belongs to the benchmark and allocates
nothing, so the program under test cannot speed it up or slow it down.
The reference kernel time divided by each sample is the speed at that
moment; the reciprocal of the mean speed over a phase is the phase's
slowdown.  Dividing a time by the slowdown, or
multiplying a rate by it, states the figure at reference speed.  On the
same machine, over ten 10-second windows, this cut the spread of
static-analysis throughput from 9% to under 5%.

The probe holds the interpreter lock for about 30 µs every 5 ms, which is
under 1% of the run and the same for every commit.

Process CPU time is no substitute: the drift is contention, which the
process is charged for, so CPU time tracks wall time as speed changes.
The slowdown is the machine's alone only while the program keeps one CPU
busy; ``run.py`` checks that with process CPU time and refuses to
normalise a phase that used more.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import List, Optional, Sequence, Tuple

#: Kernel time at reference speed: an Intel Xeon at 2.1 GHz with no
#: contention, CPython 3.11.
REFERENCE_KERNEL_S = 28e-6
PERIOD_S = 0.005
#: A latency sample is scaled by the speed over at least this much time
#: before it ends (a short call may see no probe sample of its own).
LOCAL_WINDOW_S = 0.1


def _kernel() -> int:
    total = 0
    slots = {}
    for i in range(300):
        slots[i & 15] = total
        total += i * i % 7
    return total


class SpeedProbe:
    """Times :func:`_kernel` every ``PERIOD_S`` in a daemon thread."""

    def __init__(self) -> None:
        #: ``(end, duration)`` of every kernel run, in perf_counter seconds.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "SpeedProbe":
        self._thread = threading.Thread(target=self._loop, name="perfbench-speed", daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int, until: Optional[int] = None) -> Tuple[float, int]:
        """Reference speed ÷ mean speed over ``samples[since:until]``.

        Speed is averaged, not kernel time: work done over a window is the
        integral of speed, and the two differ when a few samples are very
        slow.  Returns ``(slowdown, samples)``; 1.0 with no samples.
        """
        return _slowdown(self.samples[since:until])

    def local_slowdowns(self, intervals: Sequence[Tuple[float, float]]) -> List[float]:
        """The slowdown over each ``(start, end)`` interval.

        Each interval is widened to start at least ``LOCAL_WINDOW_S`` before
        its end; an interval with no sample inside takes the slowdown of the
        whole span the intervals cover.
        """
        samples = list(self.samples)
        ends = [end for end, _ in samples]
        if not intervals:
            return []
        overall, _ = _slowdown(
            samples[bisect.bisect_left(ends, min(a for a, _ in intervals)):
                    bisect.bisect_right(ends, max(b for _, b in intervals))]
        )
        out = []
        for start, end in intervals:
            lo = bisect.bisect_left(ends, min(start, end - LOCAL_WINDOW_S))
            hi = bisect.bisect_right(ends, end)
            out.append(_slowdown(samples[lo:hi])[0] if hi > lo else overall)
        return out


def _slowdown(window: Sequence[Tuple[float, float]]) -> Tuple[float, int]:
    if not window:
        return 1.0, 0
    mean_speed = sum(REFERENCE_KERNEL_S / duration for _, duration in window) / len(window)
    return 1.0 / mean_speed, len(window)
