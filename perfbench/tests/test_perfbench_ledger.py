"""Unit tests for the benchmark's own arithmetic: self time and the tail rule.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def _load(name):
    """Import ``perfbench/<name>.py`` under a private name, leaving sys.path alone."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


_percentiles = _load("percentiles")
_spans = _load("spans")
nearest_rank, tail_percentile = _percentiles.nearest_rank, _percentiles.tail_percentile
Span, Tracer, adopt_orphans, covered_ns, self_times = (
    _spans.Span, _spans.Tracer, _spans.adopt_orphans, _spans.covered_ns, _spans.self_times
)


def span(id, parent, start, end, thread=1, name="x"):
    return Span(id=id, parent=parent, trace=1, name=name, start_ns=start, end_ns=end, thread=thread)


class TestCoveredNs:
    def test_disjoint_intervals_add(self):
        assert covered_ns([(10, 20), (30, 35)], 0, 100) == 15

    def test_overlapping_intervals_count_once(self):
        assert covered_ns([(10, 30), (20, 40), (25, 26)], 0, 100) == 30

    def test_intervals_clip_to_the_window(self):
        assert covered_ns([(0, 20), (90, 200)], 10, 100) == 20

    def test_touching_intervals_merge(self):
        assert covered_ns([(10, 20), (20, 30)], 0, 100) == 20

    def test_empty(self):
        assert covered_ns([], 0, 100) == 0


class TestSelfTimes:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span(1, None, 0, 50)]) == {1: 50}

    def test_nested_children_subtract_only_direct_children(self):
        spans = [
            span(1, None, 0, 100),
            span(2, 1, 10, 60),   # child of 1
            span(3, 2, 20, 40),   # grandchild: counts against 2, not 1
        ]
        assert self_times(spans) == {1: 50, 2: 30, 3: 20}

    def test_overlapping_children_are_not_double_counted(self):
        # Two concurrent children (e.g. awaited tasks) overlap in 30..50.
        spans = [span(1, None, 0, 100), span(2, 1, 10, 50, thread=2), span(3, 1, 30, 70, thread=3)]
        assert self_times(spans)[1] == 100 - 60

    def test_child_outliving_parent_counts_only_inside_it(self):
        spans = [span(1, None, 0, 100), span(2, 1, 80, 150)]
        assert self_times(spans)[1] == 80

    def test_self_times_sum_to_root_duration_when_nested(self):
        spans = [span(1, None, 0, 100), span(2, 1, 0, 40), span(3, 1, 50, 90), span(4, 3, 60, 70)]
        assert sum(self_times(spans).values()) == 100


class TestAdoptOrphans:
    def test_worker_span_adopts_innermost_enclosing_main_span(self):
        outer = span(1, None, 0, 100, thread=1)
        inner = span(2, 1, 10, 50, thread=1)
        later = span(3, 1, 60, 90, thread=1)
        orphan_a = span(4, None, 20, 30, thread=2)
        orphan_b = span(5, None, 55, 58, thread=2)
        adopt_orphans([outer, inner, later, orphan_a, orphan_b], main_thread=1)
        assert orphan_a.parent == 2
        assert orphan_b.parent == 1  # inner closed at 50, later opens at 60

    def test_adopted_span_keeps_its_trace(self):
        host = span(1, None, 0, 100, thread=1)
        orphan = Span(id=2, parent=None, trace=2, name="x", start_ns=10, end_ns=20, thread=2)
        adopt_orphans([host, orphan], main_thread=1)
        assert (orphan.parent, orphan.trace) == (1, 2)

    def test_parented_and_main_thread_spans_are_left_alone(self):
        root = span(1, None, 0, 100, thread=1)
        child = span(2, None, 200, 300, thread=2)  # nothing encloses it
        adopt_orphans([root, child], main_thread=1)
        assert root.parent is None and child.parent is None


class TestTraceIds:
    def _nest(self, tracer, names):
        """Open ``names`` nested, close them innermost first; returns the spans."""
        opened = [tracer.open(name) for name in names]
        for span, token in reversed(opened):
            tracer.close(span, token)
        return [span for span, _ in opened]

    def test_each_request_root_starts_its_own_trace(self):
        tracer = Tracer(request_roots=("request",))
        root, _ = tracer.open("run")
        first = self._nest(tracer, ["request", "parse"])
        second = self._nest(tracer, ["request", "parse"])
        assert first[0].trace == first[1].trace == first[0].id
        assert second[0].trace == second[1].trace == second[0].id
        assert first[0].trace != second[0].trace
        assert first[0].parent == root.id  # parents still nest for self time

    def test_a_root_inside_a_request_stays_in_that_request(self):
        tracer = Tracer(request_roots=("remote", "generate"))
        outer, inner = self._nest(tracer, ["remote", "generate"])
        assert inner.trace == outer.trace == outer.id

    def test_spans_outside_requests_share_their_roots_trace(self):
        tracer = Tracer(request_roots=("request",))
        root, child = self._nest(tracer, ["run", "dispatch"])
        assert child.trace == root.trace == root.id


class TestTailPercentile:
    def test_nearest_rank_counts_samples_beyond(self):
        values = list(range(1, 1001))
        assert nearest_rank(values, 99) == (990, 10)
        assert nearest_rank(values, 50) == (500, 500)

    def test_p99_needs_ten_samples_beyond(self):
        assert tail_percentile([float(v) for v in range(1000)]) == (99, 989.0, 1000)

    def test_falls_back_to_the_highest_percentile_that_qualifies(self):
        # 999 samples: p99 leaves 9 beyond it, so p95 is reported.
        percentile, value, n = tail_percentile([float(v) for v in range(999)])
        assert (percentile, n) == (95, 999)
        assert value == 949.0

    def test_small_samples_fall_to_lower_percentiles(self):
        assert tail_percentile([float(v) for v in range(40)])[0] == 75
        assert tail_percentile([float(v) for v in range(20)])[0] == 50

    def test_too_few_samples_report_the_median_with_n(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0, 3)
