"""Figure 8(a): requests served while the available capacity varies.

Replays a ten-minute capacity trace (deep trough, staged recovery) against
Phoenix and the non-cooperative baselines, and reports the requests served
at every step.  The paper's claim: Phoenix serves ~2× the requests of the
non-cooperative baselines over the window.
"""

from __future__ import annotations

import pytest

from repro.adaptlab import (
    DefaultScheme,
    FairScheme,
    PhoenixCostScheme,
    PhoenixFairScheme,
    PriorityScheme,
    build_environment,
    replay_capacity_trace,
)
from repro.traces import from_capacity_points, paper_profile_fractions


@pytest.mark.benchmark(group="fig8a")
def test_fig8a_capacity_replay(benchmark, alibaba_apps, bench_scale):
    env = build_environment(
        node_count=bench_scale.replay_nodes,
        applications=alibaba_apps,
        tagging_scheme="service-p90",
        resource_model="cpm",
        target_utilization=0.7,
        seed=2025,
    )
    schemes = [PhoenixCostScheme(), PhoenixFairScheme(), PriorityScheme(), FairScheme(), DefaultScheme()]
    points = [(i * 30.0, f) for i, f in enumerate(paper_profile_fractions(steps=20))]
    trace = from_capacity_points(points)

    result = benchmark.pedantic(
        replay_capacity_trace, args=(env, schemes), kwargs={"trace": trace}, rounds=1, iterations=1
    )

    print("\n=== Figure 8(a): requests served over time ===")
    print(f"{'time':<8}{'capacity':<10}" + "".join(s.name.ljust(15) for s in schemes))
    series = {s.name: dict(result.series(s.name)) for s in schemes}
    for time, capacity in points:
        row = f"{time:<8.0f}{capacity:<10.2f}"
        row += "".join(f"{series[s.name][time]:<15.3f}" for s in schemes)
        print(row)

    improvement_fair = result.improvement("phoenix-cost", "fair")
    improvement_priority = result.improvement("phoenix-cost", "priority")
    improvement_default = result.improvement("phoenix-cost", "default")
    print(
        f"\ntotal requests served, Phoenix vs baselines: "
        f"fair×{improvement_fair:.2f} priority×{improvement_priority:.2f} default×{improvement_default:.2f}"
    )
    # Shape: Phoenix serves at least as many requests as every non-cooperative
    # baseline, and clearly more than Default (the paper reports ~2×).
    assert improvement_fair >= 1.0
    assert improvement_priority >= 1.0
    assert improvement_default >= 1.2
