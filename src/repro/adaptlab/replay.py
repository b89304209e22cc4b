"""Trace replay: requests served under time-varying capacity (Figure 8a).

The paper replays Alibaba traces on a 10,000-node cluster while the
available capacity varies over a ten-minute window, and shows Phoenix
serving roughly 2× the requests of the non-cooperative baselines.  This
module reproduces that experiment as a thin *consumer* of the trace
subsystem: the capacity profile is a :class:`repro.traces.schema.Trace` of
``capacity`` events and each scheme is driven through
:class:`repro.traces.replayer.TraceReplayer`.

The default profile is Figure 8a's
(:func:`repro.traces.alibaba.paper_profile_fractions`), passed through
unrounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.adaptlab.baselines import ResilienceScheme
from repro.adaptlab.cluster_env import AdaptLabEnvironment
from repro.traces.alibaba import (
    from_capacity_points,
    paper_profile_fractions,
    to_capacity_points,
)
from repro.traces.replayer import TraceReplayer
from repro.traces.schema import Trace


@dataclass
class ReplayPoint:
    """One (scheme, time) observation during replay."""

    scheme: str
    time: float
    available_fraction: float
    requests_served: float


@dataclass
class ReplayResult:
    points: list[ReplayPoint] = field(default_factory=list)

    def series(self, scheme: str) -> list[tuple[float, float]]:
        return [(p.time, p.requests_served) for p in self.points if p.scheme == scheme]

    def total_served(self, scheme: str) -> float:
        """Integral of requests served over the replay (relative units)."""
        return sum(p.requests_served for p in self.points if p.scheme == scheme)

    def improvement(self, scheme: str, baseline: str) -> float:
        """How many times more requests ``scheme`` served than ``baseline``."""
        base = self.total_served(baseline)
        if base <= 0:
            return float("inf")
        return self.total_served(scheme) / base


def replay_capacity_trace(
    env: AdaptLabEnvironment,
    schemes: Iterable[ResilienceScheme],
    trace: Trace | None = None,
    seed: int = 0,
) -> ReplayResult:
    """Replay a capacity trace against each scheme independently.

    Every scheme starts from the same pre-failure state and reacts to the
    same capacity trace; at each step the requests-served fraction is
    recorded (Figure 8a's y-axis).  ``trace`` is any schema
    :class:`~repro.traces.schema.Trace` (its ``capacity`` events are
    replayed) and defaults to the Figure-8a profile at 30 s steps; each
    scheme runs through a :class:`~repro.traces.replayer.TraceReplayer` in
    AdaptLab (``respond``) mode.
    """
    if trace is None:
        trace = from_capacity_points(
            [(i * 30.0, f) for i, f in enumerate(paper_profile_fractions())],
            metadata={"generator": "adaptlab.replay_capacity_trace"},
        )
    requested = dict(to_capacity_points(trace))
    result = ReplayResult()
    for scheme in schemes:
        replayer = TraceReplayer(scheme, traced=env.traced, seed=seed)
        metrics = replayer.run(env.fresh_state(), trace)
        for step in metrics:
            result.points.append(
                ReplayPoint(
                    scheme=scheme.name,
                    time=step.time,
                    available_fraction=requested.get(step.time, step.available_fraction),
                    requests_served=step.requests_served,
                )
            )
    return result
