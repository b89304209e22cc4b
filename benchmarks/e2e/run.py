#!/usr/bin/env python3
"""The end-to-end and per-layer benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py                       # everything, both passes
    python3 benchmarks/e2e/run.py --workload storm_dense churn_healthy --trace 0
    python3 benchmarks/e2e/run.py --workload serve_live --seed 11 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --smoke --json out.json

With one ``--workload`` and ``--trace 0|1`` the run happens in this process
and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json``.  Any other selection runs each (workload, pass) in a
child process of its own — peak RSS is a per-process high-water mark — and
prints one table per workload.

``--seed`` drives failure selection, traces and the mutation schedule; the
cluster itself is always built from environment seed 2025.  ``--seconds``
is the length of the measured phase.  See README.md beside this file for
the metric catalogue and for how each layer is timed.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import datetime
import gc
import json
import math
import platform
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(HERE)]

import workloads
from repro import obs
from spans import SpanRecorder

#: Interpreter start to program imported: part of every run's set-up.
IMPORT_SECONDS = time.perf_counter() - _PROCESS_STARTED

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in BENCHMARK["workloads"]]
END_TO_END = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in BENCHMARK["per_layer"]}

#: Spans that only group the layer calls of one operation.
CONTAINER_SPANS = {"op", "step", "replay"}

#: Wall-clock budget of one pass; the driver allows 180 s.
PASS_TIMEOUT_SECONDS = 170


def _timed_out(_signum, _frame):
    raise TimeoutError(f"pass still running after {PASS_TIMEOUT_SECONDS} s")


def end_to_end_metrics(workload, result, setup_seconds: float) -> dict[str, float]:
    quality = workload.quality_ops
    weights = result.weights[:quality] if result.weights else None
    return {
        "setup_s": setup_seconds,
        "throughput_ops_s": statistics.median(result.segment_rates),
        "latency_p50_ms": statistics.median(result.op_ms),
        "critical_availability": statistics.fmean(result.availability[:quality], weights),
        "revenue": statistics.fmean(result.revenue[:quality], weights),
        "peak_rss_mb": result.peak_rss_mb,
    }


def per_layer_metrics(baseline, traced, recorder: SpanRecorder) -> dict[str, float]:
    """Every catalogue metric; layers a workload never enters read 0."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(traced.layers)
    self_seconds = recorder.self_seconds()
    for span_name, seconds in self_seconds.items():
        if f"{span_name}_s" in values:
            values[f"{span_name}_s"] = seconds
    covered = sum(s for name, s in self_seconds.items() if name not in CONTAINER_SPANS)
    values["bench.layer_coverage"] = covered / recorder.root_seconds()
    per_op = baseline.seconds / baseline.ops
    values["bench.trace_overhead_pct"] = 100.0 * (traced.seconds / traced.ops - per_op) / per_op
    return values


def check_input(workload) -> str:
    """Digest of the generated input; must match the pin for the default seed."""
    digest = workloads.sha256(workload.input_text())
    pinned = REFERENCE["input_sha256"][workload.scale.name].get(workload.name)
    if workload.seed == workloads.DEFAULT_SEED and digest != pinned:
        raise workloads.TrafficGuardError(
            f"{workload.name}: generated input for seed {workload.seed} has SHA-256 "
            f"{digest}, reference.json pins {pinned}"
        )
    return digest


def measure(name: str, seed: int, seconds: float, trace: int, scale) -> dict:
    """Set up, measure and check one pass of one workload; returns its record."""
    workload = workloads.WORKLOADS[name](seed, scale)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    try:
        builds = []
        for _ in range(scale.setup_repeats):
            workload.teardown()
            gc.collect()
            started = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - started)
        input_digest = check_input(workload)
        started = time.perf_counter()
        workload.warm_up()
        setup_seconds = (
            IMPORT_SECONDS + statistics.median(builds) + time.perf_counter() - started
        )

        record = {
            "workload": name,
            "seed": seed,
            "scale": scale.name,
            "trace": trace,
            "seconds": seconds,
            "input_sha256": input_digest,
        }
        if trace:
            baseline = workload.untraced(seconds * workload.untraced_share)
            recorder = SpanRecorder()
            result = workload.traced(baseline, recorder)
            if result.digest != baseline.digest:
                raise workloads.CheckFailed(
                    f"{name}: traced pass output {result.digest} differs from "
                    f"untraced {baseline.digest}"
                )
            result.checks.append("trace_digest")
            span_path = workloads.OUT_DIR / f"spans-{name}-{scale.name}-{seed}.jsonl"
            recorder.write_jsonl(span_path)
            record["spans"] = str(span_path.relative_to(REPO_ROOT))
            record["per_layer"] = per_layer_metrics(baseline, result, recorder)
            # serve_live has one load run for both passes: count it once.
            passes = [baseline] if result is baseline else [baseline, result]
            checks = [check for one in passes for check in one.checks]
            warnings = [warning for one in passes for warning in one.warnings]
            attempted = sum(one.attempted for one in passes)
            failed = sum(one.failed for one in passes)
        else:
            baseline = workload.untraced(seconds)
            checks, attempted, failed = baseline.checks, baseline.attempted, baseline.failed
            warnings = baseline.warnings
        record["end_to_end"] = end_to_end_metrics(workload, baseline, setup_seconds)
        record.update(
            ops=baseline.ops,
            measured_seconds=baseline.seconds,
            attempted=attempted,
            failed=failed,
            correct=failed == 0,
            checks=sorted(set(checks + ["input_digest"])),
            warnings=warnings,
        )
        return record
    finally:
        workload.teardown()


def result_line(record: dict) -> str:
    """The driver's contract: one JSON object, the metrics of the pass asked for."""
    catalogue, values = (
        (PER_LAYER, record["per_layer"]) if record["trace"] else (END_TO_END, record["end_to_end"])
    )
    metrics = {}
    for name, entry in catalogue.items():
        value = values[name]
        if not math.isfinite(value):
            raise ValueError(f"{record['workload']}: metric {name} is {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_table(record: dict) -> None:
    print(
        f"\n== {record['workload']}  seed={record['seed']} scale={record['scale']} "
        f"trace={record['trace']}  ops={record['ops']} in {record['measured_seconds']:.2f}s  "
        f"attempted={record['attempted']} failed={record['failed']}  "
        f"checks={','.join(record['checks'])}"
    )
    for warning in record["warnings"]:
        print(f"  WARNING: {warning}")
    for catalogue, key in ((END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")):
        for name, value in (record.get(key) or {}).items():
            print(f"  {name:<32}{value:>16.6g} {catalogue[name]['unit']}")


def stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host": obs.host_block(),
    }


def run_child(name: str, seed: int, seconds: float, trace: int, scale) -> dict:
    """One pass in a process of its own; its record comes back on stdout."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--record",
    ]
    if scale is workloads.SMOKE:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0 and not done.stdout.strip():
        raise RuntimeError(f"{name} (trace {trace}) exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, metavar="NAME",
                        help=f"workloads to run (default: all of {', '.join(WORKLOAD_NAMES)})")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="workload seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run only the untraced (0) or only the traced (1) pass")
    parser.add_argument("--smoke", action="store_true",
                        help="small clusters, a handful of operations, one process")
    parser.add_argument("--json", metavar="PATH", help="also write stamped records here")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else float(BENCHMARK["run_seconds"])
    trace = args.trace
    names = args.workload or WORKLOAD_NAMES

    if len(names) == 1 and trace is not None:
        # A pass that hangs (a server that never answers) must still end, and
        # end through measure()'s teardown so no child process outlives it.
        signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(PASS_TIMEOUT_SECONDS)
        record = measure(names[0], args.seed, seconds, trace, scale)
        signal.alarm(0)
        if args.record:  # a child of run_child(): hand the whole record back
            print(json.dumps(record))
        else:
            print_table(record)
            print(result_line(record))
        records = [record]
    else:
        # A traced run also measures an untraced half, so the smoke scale
        # makes do with that one pass, in this process.
        passes = [1] if args.smoke and trace is None else ([0, 1] if trace is None else [trace])
        run = measure if args.smoke else run_child
        records = []
        for name in names:
            for one_pass in passes:
                record = run(name, args.seed, seconds, one_pass, scale)
                print_table(record)
                records.append(record)

    if args.json:
        Path(args.json).write_text(
            json.dumps({"stamp": stamp(), "records": records}, indent=1) + "\n", encoding="utf-8"
        )
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
