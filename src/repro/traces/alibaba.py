"""Alibaba-style trace adapter.

The paper's Figure 8a replays an Alibaba trace on a 10,000-node cluster
while the available capacity varies over a ten-minute window.  This module
is the bridge between that experiment and the generic trace schema:

* :func:`paper_profile_fractions` — the capacity profile of Figure 8a
  (deep trough, staged recovery, jitter), the single source of truth also
  used by :func:`repro.adaptlab.replay.replay_capacity_trace`'s default.
* :func:`paper_capacity_trace` — the same profile as a schema
  :class:`~repro.traces.schema.Trace` of ``capacity`` events.
* :func:`from_capacity_points` / :func:`to_capacity_points` — lossless
  conversion between ``(time, fraction)`` capacity points and schema
  traces.
* :func:`alibaba_scenario` — the full Figure-8a-style scenario (capacity
  profile plus a diurnal load overlay derived from the same seed).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.traces.generators import capacity_schedule, diurnal_load
from repro.traces.schema import CapacityTarget, Trace, merge_traces


def paper_profile_fractions(steps: int = 20, seed: int = 3) -> list[float]:
    """The Figure-8a capacity profile: trough, staged recovery, jitter.

    Returns ``steps`` available-capacity fractions, unrounded;
    :func:`paper_capacity_trace` rounds them to 6 decimals.
    """
    rng = np.random.default_rng(seed)
    base = np.concatenate(
        [
            np.full(steps // 4, 1.0),
            np.linspace(1.0, 0.35, steps // 4),
            np.full(steps // 4, 0.35),
            np.linspace(0.35, 1.0, steps - 3 * (steps // 4)),
        ]
    )
    jitter = rng.uniform(-0.03, 0.03, size=base.shape)
    return [float(f) for f in np.clip(base + jitter, 0.2, 1.0)]


def paper_capacity_trace(
    steps: int = 20, seed: int = 3, step_seconds: float = 30.0
) -> Trace:
    """The Figure-8a capacity profile as a schema trace."""
    return capacity_schedule(
        paper_profile_fractions(steps=steps, seed=seed),
        step_seconds=step_seconds,
        metadata={
            "generator": "alibaba.paper_capacity_trace",
            "steps": steps,
            "seed": seed,
            "step_seconds": step_seconds,
        },
    )


def from_capacity_points(
    points: Iterable[tuple[float, float]], metadata: dict[str, object] | None = None
) -> Trace:
    """Convert ``(time, fraction)`` pairs into a schema trace, losslessly.

    Fractions are passed through exactly (no rounding), unlike
    :func:`~repro.traces.generators.capacity_schedule`.
    """
    events = [
        CapacityTarget(time=float(time), available_fraction=float(fraction))
        for time, fraction in points
    ]
    if metadata is None:
        metadata = {"generator": "alibaba.from_capacity_points"}
    return Trace(events=events, metadata=metadata).validate()


def to_capacity_points(trace: Trace) -> list[tuple[float, float]]:
    """Extract the ``capacity`` events of a trace as (time, fraction) pairs."""
    return [
        (event.time, event.available_fraction)
        for event in trace
        if isinstance(event, CapacityTarget)
    ]


def alibaba_scenario(
    steps: int = 20,
    seed: int = 3,
    step_seconds: float = 30.0,
    load_amplitude: float = 0.3,
    apps: Sequence[str] = (),
) -> Trace:
    """Capacity profile plus a diurnal load overlay, as one merged trace.

    The capacity events reproduce Figure 8a; the load events model the
    request-rate variation of the underlying Alibaba trace (one overlay per
    application in ``apps``, or a cluster-wide one when empty).
    """
    horizon = (steps - 1) * step_seconds
    parts = [paper_capacity_trace(steps=steps, seed=seed, step_seconds=step_seconds)]
    period = max(horizon, step_seconds)
    targets: Sequence[str | None] = list(apps) if apps else [None]
    for index, app in enumerate(targets):
        parts.append(
            diurnal_load(
                horizon=horizon,
                step_seconds=step_seconds,
                base=1.0,
                amplitude=load_amplitude,
                period=period,
                jitter=0.02,
                app=app,
                seed=seed + 101 * (index + 1),
            )
        )
    return merge_traces(
        parts,
        metadata={
            "generator": "alibaba.alibaba_scenario",
            "steps": steps,
            "seed": seed,
            "step_seconds": step_seconds,
            "load_amplitude": load_amplitude,
            "apps": list(apps),
        },
    )
