"""Tests for the OpenMP interpreter: value semantics and event recording."""

import gc

import pytest

from repro.dynamic import Interpreter, InterpreterError, InterpreterLimits


def run(src, **kwargs):
    return Interpreter(**kwargs).run_source(src)


class TestSequentialSemantics:
    def test_arithmetic_and_arrays(self):
        interp = Interpreter(num_threads=2)
        trace = interp.run_source(
            """
            int main() {
              int i;
              int a[10];
              int total = 0;
              for (i = 0; i < 10; i++)
                a[i] = i * 2;
              for (i = 0; i < 10; i++)
                total = total + a[i];
              return 0;
            }
            """
        )
        assert interp._memory["total"] == sum(2 * i for i in range(10))
        assert len(trace.events) == 0  # nothing ran in parallel

    def test_if_else_and_while(self):
        interp = Interpreter()
        interp.run_source(
            """
            int main() {
              int x = 0;
              int i = 0;
              while (i < 5) {
                if (i % 2 == 0) x = x + 10;
                else x = x + 1;
                i++;
              }
              return 0;
            }
            """
        )
        assert interp._memory["x"] == 32

    def test_two_dimensional_arrays(self):
        interp = Interpreter()
        interp.run_source(
            """
            int main() {
              int i, j;
              int m[3][3];
              for (i = 0; i < 3; i++)
                for (j = 0; j < 3; j++)
                  m[i][j] = i * 3 + j;
              return 0;
            }
            """
        )
        assert interp._memory["m"][2][2] == 8

    def test_division_semantics(self):
        interp = Interpreter()
        interp.run_source("int main() { int a = 7 / 2; double b = 7.0 / 2.0; return 0; }")
        assert interp._memory["a"] == 3
        assert interp._memory["b"] == pytest.approx(3.5)

    def test_step_limit_guards_infinite_loops(self):
        with pytest.raises(InterpreterError):
            run(
                "int main() { int x = 0; while (1) x = x + 1; return 0; }",
                limits=InterpreterLimits(max_steps=10_000, max_loop_iterations=100),
            )


class TestParallelSemantics:
    def test_parallel_for_partitions_iterations(self):
        interp = Interpreter(num_threads=4)
        interp.run_source(
            """
            int main() {
              int i;
              int a[40];
            #pragma omp parallel for
              for (i = 0; i < 40; i++)
                a[i] = i;
              return 0;
            }
            """
        )
        assert interp._memory["a"] == list(range(40))

    def test_reduction_clause_produces_correct_sum(self):
        interp = Interpreter(num_threads=4)
        interp.run_source(
            """
            int main() {
              int i;
              int sum = 0;
            #pragma omp parallel for reduction(+:sum)
              for (i = 0; i < 100; i++)
                sum += i;
              return 0;
            }
            """
        )
        assert interp._memory["sum"] == sum(range(100))

    def test_parallel_region_runs_every_thread(self):
        interp = Interpreter(num_threads=3)
        trace = interp.run_source(
            """
            int main() {
              int counter = 0;
            #pragma omp parallel num_threads(3)
              counter = counter + 1;
              return 0;
            }
            """
        )
        writes = [e for e in trace.events if e.is_write]
        assert {e.thread for e in writes} == {0, 1, 2}

    def test_private_variables_do_not_emit_events(self):
        trace = run(
            """
            int main() {
              int i;
              int tmp = 0;
              int a[20];
              int out[20];
              for (i = 0; i < 20; i++) a[i] = i;
            #pragma omp parallel for private(tmp)
              for (i = 0; i < 20; i++)
              {
                tmp = a[i] + 1;
                out[i] = tmp;
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        assert not any(e.variable == "tmp" for e in trace.events)

    def test_critical_records_lock_name(self):
        trace = run(
            """
            int main() {
              int counter = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp critical
                counter = counter + 1;
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        counter_events = [e for e in trace.events if e.variable == "counter"]
        assert counter_events and all("__critical__" in e.locks for e in counter_events)

    def test_barrier_increments_epoch(self):
        trace = run(
            """
            int main() {
              int x = 0;
              int y = 0;
            #pragma omp parallel num_threads(2)
              {
                x = x + 1;
            #pragma omp barrier
                y = y + 1;
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        x_epochs = {e.epoch for e in trace.events if e.variable == "x"}
        y_epochs = {e.epoch for e in trace.events if e.variable == "y"}
        assert x_epochs == {0} and y_epochs == {1}

    def test_single_executes_once_and_synchronizes(self):
        trace = run(
            """
            int main() {
              int data = 0;
            #pragma omp parallel num_threads(4)
              {
            #pragma omp single
                data = 42;
              }
              return 0;
            }
            """,
            num_threads=4,
        )
        writes = [e for e in trace.events if e.variable == "data" and e.is_write]
        assert len(writes) == 1 and writes[0].thread == 0

    def test_locks_recorded_on_events(self):
        trace = run(
            """
            int main() {
              int total = 0;
              omp_lock_t lck;
              omp_init_lock(&lck);
            #pragma omp parallel num_threads(2)
              {
                omp_set_lock(&lck);
                total = total + 1;
                omp_unset_lock(&lck);
              }
              omp_destroy_lock(&lck);
              return 0;
            }
            """,
            num_threads=2,
        )
        total_events = [e for e in trace.events if e.variable == "total"]
        assert total_events and all("lck" in e.locks for e in total_events)

    def test_atomic_flag_recorded(self):
        trace = run(
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
            """,
            num_threads=2,
        )
        assert all(e.atomic for e in trace.events if e.variable == "c")

    def test_tasks_record_task_info(self):
        trace = run(
            """
            int main() {
              int r = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp single nowait
                {
            #pragma omp task
                  r = 5;
                }
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        task_writes = [e for e in trace.events if e.variable == "r" and e.task is not None]
        assert len(task_writes) == 1

    def test_schedule_roundrobin_changes_partition(self):
        src = """
            int main() {
              int i;
              int a[8];
            #pragma omp parallel for
              for (i = 0; i < 8; i++)
                a[i] = omp_get_thread_num();
              return 0;
            }
        """
        static_interp = Interpreter(num_threads=2, schedule="static")
        static_interp.run_source(src)
        rr_interp = Interpreter(num_threads=2, schedule="roundrobin")
        rr_interp.run_source(src)
        assert static_interp._memory["a"] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert rr_interp._memory["a"] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_omp_thread_introspection(self):
        interp = Interpreter(num_threads=3)
        interp.run_source(
            """
            int main() {
              int seen = 0;
            #pragma omp parallel num_threads(3)
              {
            #pragma omp critical
                seen = seen + omp_get_num_threads();
              }
              return 0;
            }
            """
        )
        assert interp._memory["seen"] == 9


class TestLoweredProgramLifetime:
    """The closures a run lowers hold no reference cycle, so the lowered
    program, its trace and its memory are freed by reference counting as
    soon as the caller drops them, not at the next garbage collection."""

    SOURCE = """
    int twice(int n) {
      if (n <= 0) return 0;
      return 2 + twice(n - 1);
    }
    int main() {
      int i, x = 0;
      int a[8];
    #pragma omp parallel for
      for (i = 0; i < 8; i++)
        a[i] = twice(i);
    #pragma omp parallel
      {
    #pragma omp critical
        x = x + 1;
      }
      return 0;
    }
    """

    def _assert_no_cycles(self, run):
        gc.collect()
        gc.disable()
        try:
            interp = Interpreter(num_threads=2)
            trace = run(interp)
            del interp, trace
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_successful_run(self):
        self._assert_no_cycles(lambda interp: interp.run_source(self.SOURCE))

    def test_failed_run(self):
        def run(interp):
            with pytest.raises(InterpreterError):
                interp.run_source(self.SOURCE.replace("a[i] = twice(i);", "a[i - 1] = twice(i);"))

        self._assert_no_cycles(run)
