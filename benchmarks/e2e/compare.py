#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, end-to-end metric).

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --base A1.json A2.json A3.json --new B1.json B2.json B3.json

Each file is what ``run.py --json`` wrote.  A row shows both medians (with
quartiles when a side has several runs), the ratio new/base next to its
base, the bound ``BENCHMARK.json`` fixes for the metric, and a verdict:

* ``worse``      the new median is worse than the base median by more than the bound;
* ``better``     it is better by more than the spread between either side's own
                 runs (or every new run beats every base run);
* ``unchanged``  neither;
* ``unresolved`` the run-to-run spread of a side is wider than the bound, so
                 the runs cannot tell (unless every new run beats every base run).

Exits 1 when any row is ``worse``.  Untraced records are compared; traced
records are used only when a file holds no untraced record for a workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)


def collect(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run, over all the given files."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        records = json.loads(Path(path).read_text(encoding="utf-8"))["records"]
        untraced = {record["workload"] for record in records if not record["trace"]}
        for record in records:
            if record["trace"] and record["workload"] in untraced:
                continue
            for metric, value in record["end_to_end"].items():
                values.setdefault((record["workload"], metric), []).append(value)
    return values


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def relative_spread(values: list[float]) -> float:
    first, third = quartiles(values)
    return (third - first) / abs(statistics.median(values))


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    base_median, new_median = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - base_median) / abs(base_median)
    every_new_wins = all(sign * (n - b) < 0 for n in new for b in base)
    spread = max(relative_spread(base), relative_spread(new))
    if spread > bound:
        return "better" if every_new_wins else "unresolved"
    if worse_by > bound:
        return "worse"
    # One run a side says nothing about spread: then only the bound decides.
    noise = spread if min(len(base), len(new)) > 1 else bound
    if every_new_wins or -worse_by > noise:
        return "better"
    return "unchanged"


def describe(values: list[float]) -> str:
    text = f"{statistics.median(values):.5g}"
    if len(values) > 1:
        first, third = quartiles(values)
        text += f" [{first:.5g}..{third:.5g}]"
    return f"{text} (n={len(values)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", default=[], help="runs of the parent commit")
    parser.add_argument("--new", nargs="+", default=[], help="runs of the change")
    args = parser.parse_args(argv)
    if args.files and (len(args.files) != 2 or args.base or args.new):
        parser.error("give exactly two files, or --base ... --new ...")
    base_files = args.base or args.files[:1]
    new_files = args.new or args.files[1:]
    if not base_files or not new_files:
        parser.error("need at least one base and one new file")

    base, new = collect(base_files), collect(new_files)
    metrics = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}
    worse = 0
    print(f"{'workload':<16}{'metric':<24}{'base':<38}{'new':<38}{'new/base':<32}{'bound':<8}verdict")
    for workload in (entry["name"] for entry in BENCHMARK["workloads"]):
        for name, entry in metrics.items():
            key = (workload, name)
            if key not in base or key not in new:
                continue
            base_median = statistics.median(base[key])
            ratio = statistics.median(new[key]) / base_median
            outcome = verdict(base[key], new[key], entry["better"], entry["bound"])
            worse += outcome == "worse"
            share = f"{ratio:.4f} of {base_median:.5g} {entry['unit']}"
            print(
                f"{workload:<16}{name:<24}{describe(base[key]):<38}{describe(new[key]):<38}"
                f"{share:<32}{entry['bound']:<8}{outcome}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
