"""Facade-overhead benchmark: `PhoenixEngine` vs direct planner+scheduler.

The engine is the single entrypoint for every frontend, so it must be free:
driving plan → pack → diff through `PhoenixEngine.plan`/`schedule` has to
cost (almost) exactly what hand-wiring `PhoenixPlanner` + `PhoenixScheduler`
costs.  This bench measures both on identical inputs (best-of-N, GC paused)
and gates the overhead at **< 5 %**.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py [--nodes 1000] [--repeats 5]

or via pytest (used by CI)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -q -s
"""

from __future__ import annotations

import argparse
import gc
import time

import repro.api as api
from repro import obs
from repro.adaptlab import (
    build_environment,
    generate_alibaba_applications,
    inject_capacity_failure,
)
from repro.core.objectives import RevenueObjective
from repro.core.planner import PhoenixPlanner
from repro.core.scheduler import PhoenixScheduler

DEFAULT_NODES = 1000
DEFAULT_REPEATS = 5
#: Maximum tolerated facade overhead (fraction of the direct time).
MAX_OVERHEAD = 0.05
FAILURE_LEVEL = 0.5
N_APPS = 6
SEED = 2025


def _prepare(node_count: int):
    """A 70 %-utilized Alibaba-like cluster after a 50 % capacity failure."""
    apps = generate_alibaba_applications(n_apps=N_APPS, seed=SEED)
    env = build_environment(
        node_count=node_count,
        applications=apps,
        tagging_scheme="service-p90",
        resource_model="cpm",
        target_utilization=0.7,
        seed=SEED,
    )
    state = env.fresh_state()
    inject_capacity_failure(state, FAILURE_LEVEL, seed=0)
    return state


def _best_of(repeats: int, fn) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs, GC paused."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        finally:
            gc.enable()
    return best


def measure_facade(node_count: int = DEFAULT_NODES, repeats: int = DEFAULT_REPEATS) -> dict:
    """Best-of-N plan+schedule seconds for the direct wiring and the engine."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    state = _prepare(node_count)

    planner = PhoenixPlanner(RevenueObjective())
    scheduler = PhoenixScheduler()

    def direct_round() -> None:
        plan = planner.plan(state)
        scheduler.schedule(state, plan)

    engine = api.engine("revenue")

    def engine_round() -> None:
        plan = engine.plan(state)
        engine.schedule(state, plan)

    # Warm both paths once (planner split caches, state indexes) so the
    # measured minima compare steady-state costs.
    direct_round()
    engine_round()
    direct = _best_of(repeats, direct_round)
    facade = _best_of(repeats, engine_round)
    return {
        "nodes": node_count,
        "stage": "facade",
        # Under REPRO_OBS=1 this row doubles as the observability overhead
        # gate: the engine path carries spans + counters, the direct wiring
        # does not, so the same < 5% bound covers the registry cost.
        "obs_enabled": obs.enabled(),
        "direct_seconds": direct,
        "engine_seconds": facade,
        "overhead_pct": (facade / direct - 1.0) * 100.0,
        **obs.host_block(),
    }


def print_row(row: dict) -> None:
    print("\n=== Engine facade overhead (plan + schedule, best-of-N) ===")
    print(f"{'nodes':<9}{'direct':>12}{'engine':>12}{'overhead':>10}")
    print(
        f"{row['nodes']:<9}{row['direct_seconds']:>12.4f}{row['engine_seconds']:>12.4f}"
        f"{row['overhead_pct']:>+9.2f}%"
    )


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    args = parser.parse_args(argv)
    row = measure_facade(node_count=args.nodes, repeats=args.repeats)
    print_row(row)
    return row


def test_engine_facade_overhead_under_5_percent():
    """CI gate: the facade must add < 5% over direct planner+scheduler calls.

    One re-measure damps scheduler noise on shared CI runners; a facade that
    is genuinely slow fails both rounds.
    """
    row = measure_facade()
    if row["engine_seconds"] > row["direct_seconds"] * (1.0 + MAX_OVERHEAD):
        row = measure_facade()
    print_row(row)
    assert row["engine_seconds"] <= row["direct_seconds"] * (1.0 + MAX_OVERHEAD), (
        f"facade overhead {row['overhead_pct']:+.2f}% exceeds {MAX_OVERHEAD:.0%}: "
        f"direct={row['direct_seconds']:.4f}s engine={row['engine_seconds']:.4f}s"
    )


if __name__ == "__main__":
    main()
