"""Trace replay through the Phoenix engine.

:class:`TraceReplayer` is the consumer side of the trace subsystem: it takes
a scenario (:class:`~repro.traces.schema.Trace`), applies each event to a
:class:`~repro.cluster.state.ClusterState`, lets a driver react, and records
a per-step metric bundle (:class:`ReplayStep`).

Two driver shapes are accepted:

* a :class:`~repro.api.engine.PhoenixEngine` (or anything with
  ``reconcile``) — the replayer drives one ``engine.reconcile`` round per
  trace step, exactly like the production controller loop; applied trace
  events are mirrored onto the engine's event bus as
  :class:`~repro.api.events.TraceEventApplied` /
  :class:`~repro.api.events.ReplayStepCompleted` so observers see the
  scenario and the reaction in one stream;
* a :class:`~repro.adaptlab.baselines.ResilienceScheme` (anything with
  ``respond``) — AdaptLab semantics, used by
  :func:`repro.adaptlab.replay.replay_capacity_trace` for the Figure-8a
  benchmark.

Metric output is deterministic: :meth:`ReplayMetrics.to_jsonl` excludes
wall-clock planning times unless asked, so replaying the same trace with
the same seed twice produces byte-identical JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.cluster.state import ClusterState
from repro.traces.schema import (
    CapacityTarget,
    LoadChange,
    NodeFailure,
    NodeRecovery,
    Trace,
    TraceError,
)

#: Schema version of the replay-metrics JSONL emitted by ``to_jsonl``.
REPLAY_METRICS_VERSION = 1


def apply_trace_event(state: ClusterState, event, *, seed: int = 0) -> None:
    """Apply one scenario event to ``state`` (shared by every replay path).

    Node failures/recoveries validate node names against the state;
    ``capacity`` events delegate to the seeded
    :func:`repro.adaptlab.failures.set_capacity_fraction`; ``load_change``
    events carry no state mutation (the caller records the multiplier).
    """
    if isinstance(event, NodeFailure):
        missing = [n for n in event.nodes if n not in state.nodes]
        if missing:
            raise TraceError(
                f"trace refers to unknown nodes {missing} at t={event.time} "
                f"(cluster has {len(state.nodes)} nodes)"
            )
        state.fail_nodes(list(event.nodes))
    elif isinstance(event, NodeRecovery):
        missing = [n for n in event.nodes if n not in state.nodes]
        if missing:
            raise TraceError(
                f"trace refers to unknown nodes {missing} at t={event.time} "
                f"(cluster has {len(state.nodes)} nodes)"
            )
        state.recover_nodes(list(event.nodes))
    elif isinstance(event, CapacityTarget):
        from repro.adaptlab.failures import set_capacity_fraction

        set_capacity_fraction(state, event.available_fraction, seed=seed)
    elif isinstance(event, LoadChange):
        pass  # recorded by the caller; state carries no load model
    else:
        raise TraceError(f"replayer cannot apply event kind {event.kind!r}")


@dataclass(frozen=True, slots=True)
class ReplayStep:
    """Metrics for one trace step (all events at one timestamp + reaction).

    ``available_fraction`` is the *measured* healthy-capacity fraction after
    the step's events; ``load_multiplier`` is the cluster-wide load level
    set by the most recent ``load_change`` event (1.0 before any).
    ``requests_served`` is ``None`` unless the replayer was given traced
    applications to evaluate against.
    """

    time: float
    events: tuple[str, ...]
    failed_nodes: int
    available_fraction: float
    load_multiplier: float
    availability: float
    revenue: float
    utilization: float
    requests_served: float | None
    triggered: bool
    actions: int
    planning_seconds: float

    def to_record(self, include_timing: bool = False) -> dict[str, object]:
        """The JSONL record for this step.

        Wall-clock fields are excluded by default so output is reproducible
        byte-for-byte across runs.
        """
        record: dict[str, object] = {
            "record": "step",
            "time": self.time,
            "events": list(self.events),
            "failed_nodes": self.failed_nodes,
            "available_fraction": round(self.available_fraction, 9),
            "load_multiplier": round(self.load_multiplier, 9),
            "availability": round(self.availability, 9),
            "revenue": round(self.revenue, 9),
            "utilization": round(self.utilization, 9),
            "requests_served": (
                round(self.requests_served, 9) if self.requests_served is not None else None
            ),
            "triggered": self.triggered,
            "actions": self.actions,
        }
        if include_timing:
            record["planning_seconds"] = self.planning_seconds
        return record


@dataclass
class ReplayMetrics:
    """The full per-step metric series of one replay run."""

    steps: list[ReplayStep] = field(default_factory=list)
    metadata: dict[str, object] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def series(self, metric: str) -> list[tuple[float, float]]:
        """(time, value) pairs for one :class:`ReplayStep` field."""
        return [(s.time, getattr(s, metric)) for s in self.steps]

    def total(self, metric: str) -> float:
        """Sum of one metric over the replay (e.g. total requests served)."""
        return sum(getattr(s, metric) or 0.0 for s in self.steps)

    def min(self, metric: str) -> float:
        """Minimum of one metric over the replay (e.g. trough availability)."""
        return min(getattr(s, metric) for s in self.steps)

    def final(self) -> ReplayStep:
        if not self.steps:
            raise ValueError("empty replay: no steps recorded")
        return self.steps[-1]

    def to_jsonl(self, include_timing: bool = False) -> str:
        """Canonical JSONL: one header record plus one record per step."""
        import json

        header = {
            "record": "replay",
            "version": REPLAY_METRICS_VERSION,
            "metadata": self.metadata,
        }
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        lines.extend(
            json.dumps(s.to_record(include_timing), sort_keys=True, separators=(",", ":"))
            for s in self.steps
        )
        return "\n".join(lines) + "\n"


class TraceReplayer:
    """Replays a scenario trace against a cluster state through a driver.

    Parameters
    ----------
    driver:
        A :class:`~repro.api.engine.PhoenixEngine` (anything with
        ``reconcile``) for controller-loop semantics, or a resilience
        scheme (anything with ``respond``) for AdaptLab semantics.
    traced:
        Optional ``name -> TracedApplication`` mapping; when given, the
        requests-served fraction (Figure 8a's y-axis) is evaluated per step.
    seed:
        Seed for the randomized node selection of ``capacity`` events
        (passed to :func:`repro.adaptlab.failures.set_capacity_fraction`).
    force_each_step:
        Reconcile mode only: force a planning round on every step even when
        the failed set did not change (load-only steps).  Off by default —
        the engine's own change detection decides, as in production.
    """

    def __init__(
        self,
        driver,
        *,
        traced: Mapping | None = None,
        seed: int = 0,
        force_each_step: bool = False,
    ) -> None:
        if hasattr(driver, "cells") and callable(getattr(driver, "plan_spillover", None)):
            # A FleetEngine (or compatible): delegate to the fleet replayer.
            self._mode = "fleet"
        elif callable(getattr(driver, "reconcile", None)):
            self._mode = "reconcile"
        elif callable(getattr(driver, "respond", None)):
            self._mode = "respond"
        else:
            raise TypeError(
                f"driver must expose reconcile() (engine) or respond() (scheme), "
                f"got {type(driver).__name__}"
            )
        self.driver = driver
        self.traced = traced
        self.seed = seed
        self.force_each_step = force_each_step

    @property
    def events(self):
        """The driver's event bus, when it has one (engine or adapter)."""
        bus = getattr(self.driver, "events", None)
        if bus is None:
            engine = getattr(self.driver, "engine", None)
            bus = getattr(engine, "events", None)
        return bus

    # -- event application ----------------------------------------------------
    def _apply(self, state: ClusterState, event) -> None:
        apply_trace_event(state, event, seed=self.seed)

    # -- the run loop ----------------------------------------------------------
    def run(self, state: ClusterState, trace: Trace) -> ReplayMetrics:
        """Replay ``trace`` from ``state`` and return the per-step metrics.

        The input state is never mutated: the replayer works on a copy (the
        engine executes its actions against that copy through the standard
        ``StateBackend`` path).  The pre-replay state is the revenue
        reference, matching the AdaptLab convention.

        Fleet drivers: when the driver is a
        :class:`~repro.fleet.engine.FleetEngine`, ``trace`` is a mapping of
        cell name to :class:`Trace` (see :func:`repro.traces.fleet_scenario`)
        and ``state`` must be ``None`` — the fleet owns its cell states.
        Returns the fleet replayer's metrics instead.
        """
        if self._mode == "fleet":
            from repro.fleet.replay import FleetReplayer

            if state is not None:
                raise TypeError(
                    "fleet drivers own their cell states; call run(None, scenario) "
                    "with a {cell name: Trace} mapping"
                )
            return FleetReplayer(
                self.driver, seed=self.seed, force_each_step=self.force_each_step
            ).run(trace)
        from repro.adaptlab.metrics import evaluate_state

        trace.validate()
        reference = state
        current = state.copy()
        # Replay hooks go to whatever bus the driver exposes: the engine's
        # own in reconcile mode, or an adapter's underlying engine bus in
        # respond mode (bare schemes have none and skip emission).
        bus = self.events
        if self._mode == "reconcile" and callable(getattr(self.driver, "reset", None)):
            self.driver.reset()

        load: dict[str | None, float] = {}
        metrics = ReplayMetrics(
            metadata={
                "driver": getattr(self.driver, "name", type(self.driver).__name__),
                "mode": self._mode,
                "seed": self.seed,
                "trace": dict(trace.metadata),
            }
        )
        for time_point, events in trace.steps():
            for event in events:
                self._apply(current, event)
                if isinstance(event, LoadChange):
                    load[event.app] = event.multiplier
                # Truthiness, not identity: an EventBus with zero
                # subscribers is falsy, so the payload record is never
                # built when nobody is listening (the common replay case).
                if bus:
                    from repro.api.events import TraceEventApplied

                    bus.emit(
                        TraceEventApplied(
                            time=time_point, kind=event.kind, payload=event.to_record()
                        )
                    )

            if self._mode == "reconcile":
                report = self.driver.reconcile(current, force=self.force_each_step)
                triggered = report.triggered
                actions = report.actions_executed
                planning = report.planning_seconds
            else:
                current, planning = self.driver.respond(current)
                triggered = True
                actions = 0

            evaluated = evaluate_state(
                current, reference=reference, traced=self.traced, planning_seconds=planning
            )
            total = current.total_capacity(healthy_only=False).cpu
            step = ReplayStep(
                time=time_point,
                events=tuple(e.kind for e in events),
                failed_nodes=current.failed_count,
                available_fraction=(
                    current.total_capacity().cpu / total if total > 0 else 0.0
                ),
                load_multiplier=load.get(None, 1.0),
                availability=evaluated.critical_service_availability,
                revenue=evaluated.normalized_revenue,
                utilization=evaluated.utilization,
                requests_served=evaluated.requests_served_fraction,
                triggered=triggered,
                actions=actions,
                planning_seconds=planning,
            )
            metrics.steps.append(step)
            if bus:  # no-subscriber fast path: skip the payload record too
                from repro.api.events import ReplayStepCompleted

                bus.emit(ReplayStepCompleted(time=time_point, payload=step.to_record()))
        return metrics
