#!/usr/bin/env python3
"""Profile one workload of the end-to-end benchmark under ``cProfile``.

The measure -> optimise -> re-measure loop starts here: build one workload of
``benchmarks/e2e`` exactly as the benchmark does (``workloads.py`` is imported
unmodified), warm it up unprofiled, then run its measured phase under
``cProfile`` and print the top functions by cumulative and by self time::

    python tools/profile_e2e.py --workload churn_degraded --steps 6
    python tools/profile_e2e.py --workload storm_dense --seconds 10 --top 40
    python tools/profile_e2e.py --workload churn_healthy --smoke

``--steps N`` replays exactly N trace steps (the churn workloads only);
without it the workload's own untraced pass runs for ``--seconds``.  The
profiler slows Python calls but not native code, so read the output for
*which* functions carry the time and measure the gain with
``benchmarks/e2e/run.py`` and ``compare.py``, profiling off.  Only this
process is profiled: ``fleet_outage`` worker processes and the ``serve_live``
server subprocess are not.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_DIR = REPO_ROOT / BENCHMARK["paths"][0]


def main(argv: list[str] | None = None) -> int:
    names = [entry["name"] for entry in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--steps", type=int, help="trace steps to replay (churn workloads)")
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (benchmark default: 7)")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("--smoke", action="store_true", help="the tier-1 smoke scale")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(REPO_ROOT / "src"), str(BENCH_DIR)]
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, scale)
    if args.steps is not None and not isinstance(workload, workloads.Churn):
        parser.error(f"{args.workload} has no step count; size it with --seconds")

    workload.build()
    profiler = cProfile.Profile()
    try:
        workload.warm_up()
        if args.steps is not None:
            profiler.runcall(workload._replay, args.steps)
            measured = f"{args.steps} steps"
        else:
            result = profiler.runcall(workload.untraced, args.seconds)
            measured = f"{result.ops} operations"
    finally:
        workload.teardown()

    print(f"# {args.workload} ({scale.name} scale, seed {args.seed}): {measured} under cProfile")
    stats = pstats.Stats(profiler)
    for order in ("cumulative", "tottime"):
        print(f"\n## top {args.top} by {order}")
        stats.sort_stats(order).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
