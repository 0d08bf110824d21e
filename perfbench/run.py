"""The repository's benchmark: one workload per process, seeded, self-checking.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
measures an untraced pass for half the time as the overhead baseline, then
runs two traced passes over the same units, each in a fresh process, which
record spans at every layer's entry points.  It prints the layer ledger,
checks that the work counts of the two traced passes agree exactly, writes
the spans as JSONL under ``.perfbench_out/`` and reports the per-layer
metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every line before it
is a human-readable report: environment, work done, each metric with its
unit and sample count.  Time metrics are stated at reference machine
speed (see ``speed.py``); the report also prints the raw figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_PROCESS_START = time.perf_counter()
_PROCESS_CPU_START = time.process_time()

# Speed normalisation needs the measured loops on one CPU (see speed.py).
# Fine-tuning's BLAS calls would otherwise spread over every CPU: on a
# 2-vCPU VM that raised paper-tables to 1.12-1.15 CPU seconds per wall
# second with no gain in raw throughput.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from percentiles import tail_percentile  # noqa: E402
from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up is repeated this many times per run; ``setup_s`` takes the median.
SETUP_REPEATS = 3
#: Process CPU time over wall time above which a phase used more than one
#: CPU.  The speed probe then shares the machine with the program's own
#: parallel work, so its slowdown is no longer the machine's alone and the
#: run refuses to normalise (see ``speed.py``).
MAX_CPU_PER_WALL = 1.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "records_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


# -- environment -----------------------------------------------------------------


def peak_rss_mb() -> float:
    """VmHWM of this process in MB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def environment() -> Dict[str, object]:
    from workloads import nproc

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version()}


# -- passes ----------------------------------------------------------------------


def load_program() -> float:
    """Import the program under test; returns seconds since process start."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.engine  # noqa: F401
    import repro.eval.experiments  # noqa: F401
    import repro.analysis.static_race  # noqa: F401
    import repro.llm.adapters  # noqa: F401
    import repro.dataset.augment  # noqa: F401

    return time.perf_counter() - _PROCESS_START


def set_up(workload) -> Tuple[object, List[float]]:
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup()
        times.append(time.perf_counter() - start)
    return inputs, times


def end_to_end(
    probe: SpeedProbe, result, setup_s: float, setup_slowdown: float, slowdown: Optional[float],
    rss_mb: float,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, str]]:
    """Reference-speed and raw values of every end-to-end metric, plus notes.

    Throughput and set-up use the slowdown of their whole phase; each
    verdict latency is scaled by the slowdown around that verdict.  With
    ``slowdown`` None the measured loop's figures stay raw.
    """
    intervals = result.verdict_intervals()
    raw_ms = [(end - start) * 1e3 for start, end in intervals]
    if slowdown is None:
        slowdown, local = 1.0, [1.0] * len(raw_ms)
    else:
        local = probe.local_slowdowns(intervals)
    ref_ms = [ms / factor for ms, factor in zip(raw_ms, local)]
    p, tail, n = tail_percentile(ref_ms)
    raw = {
        "setup_s": setup_s,
        "requests_per_s": result.requests / result.wall_s,
        "records_per_s": result.records / result.wall_s,
        "verdict_ms_p50": statistics.median(raw_ms),
        "verdict_ms_p99": tail_percentile(raw_ms)[1],
        "peak_rss_mb": rss_mb,
    }
    values = {
        "setup_s": setup_s / setup_slowdown,
        "requests_per_s": raw["requests_per_s"] * slowdown,
        "records_per_s": raw["records_per_s"] * slowdown,
        "verdict_ms_p50": statistics.median(ref_ms),
        "verdict_ms_p99": tail,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"program import plus median of {SETUP_REPEATS} set-ups",
        "requests_per_s": f"n={result.requests} requests in {result.wall_s:.3f}s",
        "records_per_s": f"n={result.records} records in {result.wall_s:.3f}s",
        "verdict_ms_p50": f"n={n}",
        "verdict_ms_p99": f"percentile={p} n={n}",
        "peak_rss_mb": "VmHWM of this process",
    }
    return values, raw, notes


def traced_pass(probe: SpeedProbe, workload, inputs, units: int, pass_index: int) -> dict:
    """One traced pass of ``units`` units: spans, ledger and layer metrics."""
    from layers import REQUEST_ROOTS, Instrumentation, SpanSummary, layer_metrics
    from spans import Tracer, covered_ns, write_jsonl

    tracer = Tracer(REQUEST_ROOTS)
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    mark = probe.mark()
    try:
        result = workload.run(inputs, units=units)
    finally:
        instrumentation.uninstall()
    slowdown, _ = probe.slowdown(mark)
    wall_ns = result.end_ns - result.start_ns
    summary = SpanSummary(tracer.spans, tracer.main_thread)
    metrics = layer_metrics(
        summary,
        records=result.records,
        sources=result.sources,
        requests=result.requests,
        units=result.units,
        window=(result.start_ns, result.end_ns),
        telemetry=result.telemetry,
        connections=result.connections,
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}-pass{pass_index}.jsonl"
    write_jsonl(
        spans_path,
        tracer.spans,
        {"workload": workload.name, "seed": workload.seed, "units": units,
         "wall_ns": wall_ns, "slowdown": slowdown, "env": environment()},
    )
    main_intervals = [(sp.start_ns, sp.end_ns) for sp in tracer.spans if sp.thread == tracer.main_thread]
    unspanned_ns = wall_ns - covered_ns(main_intervals, result.start_ns, result.end_ns)
    ledger = sorted(
        ((name, calls, summary.self_ns[name]) for name, calls in summary.calls.items() if calls),
        key=lambda row: -row[2],
    )
    return {
        "wall_ns": wall_ns,
        "slowdown": slowdown,
        "cpu_bound": workload.cpu_bound,
        "requests_per_s": result.requests / result.wall_s * (slowdown if workload.cpu_bound else 1.0),
        "correct": result.wrong == 0,
        "failed": result.failed,
        "attempted": result.attempted,
        "calls": dict(summary.calls),
        "work": dict(summary.n),
        "metrics": metrics,
        "ledger": ledger,
        "unspanned_ns": unspanned_ns,
        "spans_path": str(spans_path.relative_to(ROOT)),
    }


#: Span names whose call counts and work counts are a pure function of the
#: inputs (no retries or timing-dependent batching below them).
REPEATABLE_SPANS = (
    "corpus.generate",
    "dataset.record",
    "dataset.trim",
    "dataset.count_tokens",
    "cparse.lex",
    "cparse.parse",
    "analysis.detector",
    "analysis.symbols",
    "analysis.access_model",
    "analysis.pairs",
    "dynamic.inspector",
    "dynamic.interpreter",
    "llm.features",
    "llm.finetune",
)


def repeatable(report: dict) -> dict:
    return {
        name: (report["calls"].get(name, 0), report["work"].get(name, 0))
        for name in REPEATABLE_SPANS
    }


def spawn_traced(args, units: int, pass_index: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1",
        "--traced-pass", str(units), "--pass-index", str(pass_index),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"traced pass {pass_index} failed with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- reporting -------------------------------------------------------------------


def print_header(args, env) -> None:
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']}")


def print_work(workload, result) -> None:
    print(
        f"# work units={result.units} records={result.records} requests={result.requests} "
        f"distinct_source_share={workload.distinct_share(result):.4f} "
        f"attempted={result.attempted} failed={result.failed} "
        f"failed_share={result.failed / max(1, result.attempted):.4f} "
        f"wrong_outputs={result.wrong}"
    )


def print_ledger(report: dict, traced_rps: float, untraced_rps: float, overhead: float) -> None:
    from layers import AWAITING_SPANS

    wall_ns = report["wall_ns"]
    print(f"# ledger: self time per span name over one traced pass "
          f"({wall_ns / 1e9:.3f}s wall, machine slowdown {report['slowdown']:.3f})")
    print(f"#   {'span':<24} {'calls':>9} {'self_s':>10} {'share of wall':>14}")
    for name, calls, self_ns in report["ledger"]:
        if name in AWAITING_SPANS:
            # Concurrent awaits overlap, so their sum is not a share of wall.
            share = f"{self_ns / calls / 1e6:.3f}ms/call awaited"
        else:
            share = f"{self_ns / wall_ns:.1%}"
        print(f"#   {name:<24} {calls:>9} {self_ns / 1e9:>10.4f} {share:>14}")
    print(f"#   {'(caller, outside spans)':<24} {'':>9} {report['unspanned_ns'] / 1e9:>10.4f} "
          f"{report['unspanned_ns'] / wall_ns:>14.1%}")
    print(
        f"# tracing overhead: {overhead:.1%} (mean of both traced passes {traced_rps:.2f} "
        f"vs untraced {untraced_rps:.2f} requests/s"
        f"{' at reference speed' if report['cpu_bound'] else ''}; carries run-to-run noise)"
    )
    print(f"# spans written to {report['spans_path']}")


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: run one traced pass of N units and print its report.
    parser.add_argument("--traced-pass", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    probe = SpeedProbe().start()
    try:
        return measure(args, parser, probe)
    finally:
        probe.stop()


def check_one_cpu(cpu_per_wall: float, phase: str) -> None:
    """Refuse to normalise a phase that kept more than one CPU busy."""
    if cpu_per_wall > MAX_CPU_PER_WALL:
        raise SystemExit(
            f"perfbench: the {phase} used {cpu_per_wall:.2f} CPUs; speed normalisation "
            f"assumes one CPU (limit {MAX_CPU_PER_WALL}), so no result is reported"
        )


def measure(args, parser, probe: SpeedProbe) -> int:
    try:
        import_s = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.traced_pass is not None:
        inputs = workload.setup()
        print(json.dumps(traced_pass(probe, workload, inputs, args.traced_pass, args.pass_index)))
        return 0

    env = environment()
    print_header(args, env)
    inputs, setup_times = set_up(workload)
    setup_mark = probe.mark()
    setup_cpu = (time.process_time() - _PROCESS_CPU_START) / (time.perf_counter() - _PROCESS_START)
    check_one_cpu(setup_cpu, "set-up")
    # With --trace 1 the untraced pass is only the overhead baseline for
    # the two traced passes that follow, so it gets half the time.
    cpu_start = time.process_time()
    result = workload.run(inputs, seconds=args.seconds / (1 + args.trace))
    rss_mb = peak_rss_mb()  # before the report's own lists are built
    loop_cpu = (time.process_time() - cpu_start) / result.wall_s
    if workload.cpu_bound:
        check_one_cpu(loop_cpu, "measured loop")
    setup_slowdown, setup_samples = probe.slowdown(0, setup_mark)
    slowdown, samples = probe.slowdown(setup_mark)
    print_work(workload, result)
    print(f"# machine slowdown vs reference: set-up {setup_slowdown:.3f} (n={setup_samples}), "
          f"measured loop {slowdown:.3f} (n={samples}); "
          + ("all times below are at reference speed" if workload.cpu_bound
             else "set-up is at reference speed, the wire-latency-bound loop is raw"))
    print(f"# process CPU per wall second: set-up {setup_cpu:.3f}, measured loop {loop_cpu:.3f}")
    values, raw, notes = end_to_end(
        probe, result, import_s + statistics.median(setup_times), setup_slowdown,
        slowdown if workload.cpu_bound else None, rss_mb,
    )

    if args.trace == 0:
        for name, value in values.items():
            print(f"metric {name}={value:.6g} {END_TO_END_UNITS[name]} "
                  f"(raw {raw[name]:.6g}; {notes[name]})")
        emit(result.wrong == 0, result.attempted, result.failed,
             {name: (values[name], END_TO_END_UNITS[name]) for name in END_TO_END_UNITS})
        return 0

    from layers import PER_LAYER_METRICS

    # Each traced pass repeats the untraced pass's units in a fresh process,
    # so process-wide state from one pass cannot reach the other.
    first = spawn_traced(args, result.units, 1)
    second = spawn_traced(args, result.units, 2)
    untraced_rps = values["requests_per_s"]
    traced_rps = (first["requests_per_s"] + second["requests_per_s"]) / 2
    overhead = 1.0 - traced_rps / untraced_rps
    metrics = dict(first["metrics"])
    metrics["trace.overhead_share"] = overhead
    print_ledger(first, traced_rps, untraced_rps, overhead)
    repeats = repeatable(first) == repeatable(second)
    print(f"# work counts of two traced passes {'repeat exactly' if repeats else 'DIFFER'}")
    if not repeats:
        print(f"#   pass 1: {repeatable(first)}")
        print(f"#   pass 2: {repeatable(second)}")
    for name, unit in PER_LAYER_METRICS.items():
        print(f"layer {name}={metrics[name]:.6g} {unit}")
    correct = result.wrong == 0 and first["correct"] and second["correct"] and repeats
    attempted = result.attempted + first["attempted"] + second["attempted"]
    failed = result.failed + first["failed"] + second["failed"]
    emit(correct, attempted, failed,
         {name: (metrics[name], unit) for name, unit in PER_LAYER_METRICS.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
