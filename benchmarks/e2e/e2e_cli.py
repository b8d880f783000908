"""Command line of the end-to-end benchmark: run, print, check, exit cleanly."""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import e2e_fixtures as fx
import e2e_layers
import e2e_workloads as wl

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Hard stop for one workload; the driver allows 180 s per run.
GUARD_SECONDS = 170.0
#: Threads get this long to finish after their owners were closed.
THREAD_GRACE_SECONDS = 2.0

# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------


def calibration_ms() -> float:
    """A fixed pure-Python + NumPy loop: explains drift between hosts."""
    import numpy

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        column = numpy.arange(1_000_000, dtype=numpy.int64)[::-1].copy()
        column.sort()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def fingerprint(scrubbed: Sequence[str]) -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "scrubbed": list(scrubbed),
        "engine": fx.ENGINE,
        "cluster_engine": fx.CLUSTER_ENGINE,
        "reference_engine": fx.REFERENCE_ENGINE,
        "host.calibration_ms": calibration_ms(),
    }


def leftovers(before: Sequence[threading.Thread]) -> List[str]:
    """Child processes, and threads not in ``before``, that are still
    alive after everything was closed."""
    found = [f"child process {child.pid}" for child in multiprocessing.active_children()]
    deadline = time.perf_counter() + THREAD_GRACE_SECONDS
    for thread in threading.enumerate():
        if thread in before:
            continue
        thread.join(max(0.0, deadline - time.perf_counter()))
        if thread.is_alive():
            found.append(f"thread {thread.name}")
    return found


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class RunResult:
    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.metrics: wl.Metrics = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.aborted: Optional[str] = None
        self.notes: Dict[str, float] = {}
        #: The workload's own latencies: printed, not gated.
        self.report: List[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.aborted is None and self.attempted > 0

    def as_json(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
            },
        }


def run_untraced(
    spec: wl.WorkloadSpec,
    seed: int,
    seconds: float,
    scale: fx.Scale,
) -> RunResult:
    result = RunResult(spec.name, traced=False)
    deadline = time.perf_counter() + GUARD_SECONDS
    setup_seconds: List[float] = []
    fixture = None
    try:
        for _ in range(wl.SETUP_REPEATS):
            if fixture is not None:
                fixture.close()
                fixture = None
            # Set-up takes up to a second: a steadier spin on either side.
            before = statistics.median(wl.spin() for _ in range(5))
            start = time.perf_counter()
            fixture = wl.build_fixture(spec, seed, scale)
            elapsed = time.perf_counter() - start
            after = statistics.median(wl.spin() for _ in range(5))
            setup_seconds.append(wl.Timing(elapsed, (before + after) / 2.0).calibrated)
        run = wl.WorkloadRun(fixture, seed, seconds, deadline, scale)
        try:
            run.run()
        except wl.WallClockExceeded as exc:
            result.aborted = str(exc)
        result.notes = run.notes
        result.attempted = run.rec.attempted
        result.failed = run.rec.failed
        result.failures = run.rec.failures
        if result.aborted is None:
            result.metrics = wl.end_to_end_metrics(run, setup_seconds)
            result.report = wl.latency_report(run)
    finally:
        if fixture is not None:
            fixture.close()
    return result


def run_traced(
    spec: wl.WorkloadSpec, seed: int, seconds: float, scale: fx.Scale,
    trace_out: Optional[str],
) -> RunResult:
    result = RunResult(spec.name, traced=True)
    deadline = time.perf_counter() + GUARD_SECONDS
    layers = e2e_layers.LayerRun(spec, seed, scale, deadline)
    try:
        layers.run()
    except wl.WallClockExceeded as exc:
        result.aborted = str(exc)
    result.attempted = layers.attempted
    result.failed = layers.failed
    result.failures = layers.failures
    if result.aborted is None:
        result.metrics = dict(layers.out)
        result.metrics["host.calibration_ms"] = (calibration_ms(), "ms", 3)
    if trace_out:
        layers.write_spans(trace_out)
    return result


def print_result(result: RunResult) -> None:
    mode = "traced (per-layer)" if result.traced else "untraced (end-to-end)"
    print(f"\n== {result.workload}: {mode} ==")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"  {name:<44s} {value:>14.4f} {unit:<8s} n={samples}")
    if result.report:
        print("  -- this workload's latencies (calibrated; not gated, see README) --")
        for line in result.report:
            print("  " + line)
    if result.notes:
        print("  " + ", ".join(f"{k}={v:.1f}" for k, v in result.notes.items()))
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"  attempted={result.attempted} failed={result.failed} failed_share={share:.6f}")
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    if result.aborted:
        print(f"  ABORTED: {result.aborted}")


# ---------------------------------------------------------------------------
# Repeatability (--sets)
# ---------------------------------------------------------------------------


def repeatability(args, scale: fx.Scale) -> int:
    """Run ``--sets`` sets of ``--runs`` runs; compare the set medians."""
    manifest = json.loads(MANIFEST.read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    specs = [wl.WORKLOAD_BY_NAME[args.workload]] if args.workload else wl.WORKLOADS
    medians: List[Dict[Tuple[str, str], float]] = []
    counts: List[Dict[Tuple[str, str], float]] = []
    failed = 0
    for index in range(args.sets):
        values: Dict[Tuple[str, str], List[float]] = {}
        exact: Dict[Tuple[str, str], float] = {}
        for spec in specs:
            for run in range(args.runs):
                result = run_untraced(spec, args.seed + run, args.seconds, scale)
                failed += 0 if result.correct else 1
                for name, (value, _, _) in result.metrics.items():
                    values.setdefault((name, spec.name), []).append(value)
            traced = run_traced(spec, args.seed, args.seconds, scale, None)
            failed += 0 if traced.correct else 1
            for name, (value, unit, _) in traced.metrics.items():
                if unit == "count":
                    exact[(name, spec.name)] = value
            print(f"set {index + 1}: {spec.name} done", flush=True)
        medians.append({key: statistics.median(v) for key, v in values.items()})
        counts.append(exact)
    outside = 0
    first, last = medians[0], medians[-1]
    print(f"\n{'metric':<28s} {'workload':<18s} {'set 1':>12s} {'set ' + str(args.sets):>12s}"
          f" {'diff':>8s} {'bound':>6s}")
    for (name, workload), base in sorted(first.items()):
        other = last[(name, workload)]
        diff = abs(other - base) / base
        verdict = "" if diff <= bounds[name] else "  OUTSIDE"
        outside += bool(verdict)
        print(f"{name:<28s} {workload:<18s} {base:>12.4f} {other:>12.4f}"
              f" {diff:>8.2%} {bounds[name]:>6.0%}{verdict}")
    moved = sorted(key for key in counts[0] if counts[0][key] != counts[-1].get(key))
    print(f"\nexact counts identical across sets: {not moved}")
    for name, workload in moved:
        print(f"  MOVED: {name} @ {workload}: {counts[0][(name, workload)]} -> "
              f"{counts[-1].get((name, workload))}")
    print(f"pairs outside their bound: {outside}; incorrect runs: {failed}")
    return 1 if outside or failed else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOAD_BY_NAME),
                        help="one workload (default: all four, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds of one untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's spans to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny PDMSs and samples; checks the harness, measures nothing")
    parser.add_argument("--sets", type=int, default=0,
                        help="repeatability: run this many sets and compare their medians")
    parser.add_argument("--runs", type=int, default=3, help="runs per set")
    return parser.parse_args(argv)


def main(argv: Sequence[str], scrubbed: Sequence[str] = ()) -> int:
    args = parse(argv)
    threads_before = threading.enumerate()
    scale = fx.SMOKE if args.smoke else fx.FULL
    seconds = 0.0 if args.smoke else args.seconds
    specs = [wl.WORKLOAD_BY_NAME[args.workload]] if args.workload else list(wl.WORKLOADS)
    modes = (0, 1) if args.trace is None else (args.trace,)
    status = 0
    results: List[RunResult] = []
    # Last resort against a call that never returns: dump every stack and
    # leave without waiting for anything.
    faulthandler.dump_traceback_later(
        (GUARD_SECONDS + 5.0) * len(specs) * len(modes) * max(1, args.sets * (args.runs + 1)),
        exit=True,
        file=sys.__stderr__,
    )
    try:
        print("host:", json.dumps(fingerprint(scrubbed), sort_keys=True))
        if args.sets:
            status = repeatability(args, scale)
        else:
            for spec in specs:
                for mode in modes:
                    result = (
                        run_traced(spec, args.seed, seconds, scale, args.trace_out)
                        if mode else run_untraced(spec, args.seed, seconds, scale)
                    )
                    print_result(result)
                    results.append(result)
                    status = status or (0 if result.correct else 1)
    finally:
        faulthandler.cancel_dump_traceback_later()
    left = leftovers(threads_before)
    print(f"\nclean exit: processes and threads left running: {left or 'none'}")
    if left:
        return 3
    if results:
        if len(results) == 1:
            summary = results[0].as_json()
        else:
            summary = {
                "correct": all(r.correct for r in results),
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "metrics": {
                    f"{name}@{r.workload}": entry
                    for r in results
                    for name, entry in r.as_json()["metrics"].items()
                },
            }
        print(json.dumps(summary))
    return status
