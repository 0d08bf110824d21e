"""Tests for the trace-level race detector and the Inspector facade."""

import pytest

from repro.corpus import CorpusConfig, CorpusRegistry
from repro.dynamic import AccessEvent, InspectorLikeDetector, Interpreter, detect_races
from repro.dynamic.events import TaskInfo


def analyze(src, num_threads=2, schedule="static"):
    trace = Interpreter(num_threads=num_threads, schedule=schedule).run_source(src)
    return detect_races(trace)


class TestDetectRaces:
    def test_unprotected_counter_races(self):
        report = analyze(
            """
            int main() {
              int c = 0;
            #pragma omp parallel num_threads(2)
              c = c + 1;
              return 0;
            }
            """
        )
        assert report.has_race
        assert "c" in report.variables()

    def test_critical_counter_does_not_race(self):
        report = analyze(
            """
            int main() {
              int c = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp critical
                c = c + 1;
              }
              return 0;
            }
            """
        )
        assert not report.has_race

    def test_atomic_counter_does_not_race(self):
        report = analyze(
            """
            int main() {
              int c = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp atomic
                c += 1;
              }
              return 0;
            }
            """
        )
        assert not report.has_race

    def test_lock_protected_does_not_race(self):
        report = analyze(
            """
            int main() {
              int c = 0;
              omp_lock_t lck;
              omp_init_lock(&lck);
            #pragma omp parallel num_threads(2)
              {
                omp_set_lock(&lck);
                c = c + 1;
                omp_unset_lock(&lck);
              }
              omp_destroy_lock(&lck);
              return 0;
            }
            """
        )
        assert not report.has_race

    def test_barrier_orders_phases(self):
        report = analyze(
            """
            int main() {
              int i;
              int a[16];
              int c[16];
            #pragma omp parallel
              {
            #pragma omp for
                for (i = 0; i < 16; i++)
                  a[i] = i;
            #pragma omp for
                for (i = 0; i < 15; i++)
                  c[i] = a[i+1];
              }
              return 0;
            }
            """,
            num_threads=4,
        )
        assert not report.has_race

    def test_nowait_exposes_race(self):
        report = analyze(
            """
            int main() {
              int i;
              int a[16];
              int c[16];
            #pragma omp parallel
              {
            #pragma omp for nowait
                for (i = 0; i < 16; i++)
                  a[i] = i * 2;
            #pragma omp for
                for (i = 0; i < 15; i++)
                  c[i] = a[i+1];
              }
              return 0;
            }
            """,
            num_threads=4,
        )
        assert report.has_race

    def test_antidep_detected_at_chunk_boundary(self):
        report = analyze(
            """
            int main() {
              int i;
              int a[32];
              for (i = 0; i < 32; i++) a[i] = i;
            #pragma omp parallel for
              for (i = 0; i < 31; i++)
                a[i] = a[i+1] + 1;
              return 0;
            }
            """,
            num_threads=4,
        )
        assert report.has_race
        assert "a" in report.variables()

    def test_disjoint_writes_do_not_race(self):
        report = analyze(
            """
            int main() {
              int i;
              int a[32];
            #pragma omp parallel for
              for (i = 0; i < 32; i++)
                a[i] = i;
              return 0;
            }
            """,
            num_threads=4,
        )
        assert not report.has_race

    def test_task_without_taskwait_races_with_parent_read(self):
        report = analyze(
            """
            int main() {
              int r = 0;
              int c = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp single nowait
                {
            #pragma omp task
                  r = 7;
                  c = r + 1;
                }
              }
              return 0;
            }
            """
        )
        assert report.has_race

    def test_taskwait_orders_parent_read(self):
        report = analyze(
            """
            int main() {
              int r = 0;
              int c = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp single nowait
                {
            #pragma omp task
                  r = 7;
            #pragma omp taskwait
                  c = r + 1;
                }
              }
              return 0;
            }
            """
        )
        assert not report.has_race

    def test_depend_clauses_order_tasks(self):
        report = analyze(
            """
            int main() {
              int buffer = 0;
              int out = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp single
                {
            #pragma omp task depend(out: buffer)
                  buffer = 5;
            #pragma omp task depend(in: buffer)
                  out = buffer * 2;
                }
              }
              return 0;
            }
            """
        )
        assert not report.has_race

    def test_sections_write_same_scalar_race(self):
        report = analyze(
            """
            int main() {
              int result = 0;
            #pragma omp parallel sections
              {
            #pragma omp section
                result = 10;
            #pragma omp section
                result = 20;
              }
              return 0;
            }
            """
        )
        assert report.has_race

    def test_sections_disjoint_scalars_ok(self):
        report = analyze(
            """
            int main() {
              int first = 0;
              int second = 0;
            #pragma omp parallel sections
              {
            #pragma omp section
                first = 10;
            #pragma omp section
                second = 20;
              }
              return 0;
            }
            """
        )
        assert not report.has_race


class TestInspectorOnCorpus:
    @pytest.fixture(scope="class")
    def registry(self):
        return CorpusRegistry.build(CorpusConfig())

    @pytest.fixture(scope="class")
    def detector(self):
        return InspectorLikeDetector(schedules=("static",))

    def test_sample_of_racy_benchmarks_detected(self, registry, detector):
        racy = [b for b in registry.race_yes() if b.category not in ("simd", "oversized")][:20]
        hits = sum(1 for b in racy if detector.analyze_benchmark(b).has_race)
        assert hits >= int(0.9 * len(racy))

    def test_sample_of_racefree_benchmarks_clean(self, registry, detector):
        clean = [b for b in registry.race_free() if b.category != "oversized"][:20]
        false_alarms = sum(1 for b in clean if detector.analyze_benchmark(b).has_race)
        assert false_alarms <= 1

    def test_simd_only_races_are_missed(self, registry, detector):
        """Races inside simd-only constructs have no cross-thread execution in
        the simulator, mirroring a dynamic tool's blind spot."""
        simd_only = [
            b for b in registry.race_yes()
            if b.name.startswith(("DRB",)) and "simdforwarddep" in b.name
        ]
        assert simd_only
        assert all(not detector.analyze_benchmark(b).has_race for b in simd_only)

    def test_report_includes_variable_pairs(self, registry, detector):
        bench = next(b for b in registry.race_yes() if "antidep1" in b.name)
        result = detector.analyze_benchmark(bench)
        assert result.has_race
        assert "a" in result.variables()


class TestAccessEvent:
    """The event record keeps its fields, keyword construction, defaults,
    value equality, hashing and ``operation`` (it is a NamedTuple)."""

    FIELDS = dict(address="a[1]", variable="a", expr_text="a[i]", line=3, col=5,
                  is_write=True, thread=1, region=1, epoch=0, step=4)

    def test_keyword_construction_and_defaults(self):
        event = AccessEvent(**self.FIELDS)
        assert event.address == "a[1]" and event.step == 4
        assert (event.locks, event.atomic, event.ordered, event.task, event.task_seq) == (
            frozenset(), False, False, None, 0)
        assert event.operation == "W"
        assert AccessEvent(**{**self.FIELDS, "is_write": False}).operation == "R"

    def test_equality_and_hashing_by_value(self):
        task = TaskInfo(task_id=1, creator_thread=0, creation_step=2, seq=0)
        first = AccessEvent(**self.FIELDS, locks=frozenset({"l"}), task=task)
        second = AccessEvent(**self.FIELDS, locks=frozenset({"l"}), task=task)
        assert first == second and hash(first) == hash(second)
        assert first != AccessEvent(**{**self.FIELDS, "step": 5}, locks=frozenset({"l"}), task=task)
        assert len({first, second}) == 1

    def test_immutable(self):
        event = AccessEvent(**self.FIELDS)
        with pytest.raises(AttributeError):
            event.step = 9
