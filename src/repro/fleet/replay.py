"""Fleet scenario replay: one timeline, many cells, optional worker shards.

:class:`FleetReplayer` drives a :class:`~repro.fleet.engine.FleetEngine`
through a *fleet scenario* — a mapping of cell name to
:class:`~repro.traces.schema.Trace` (see :func:`repro.traces.fleet_scenario`)
— and records one :class:`FleetReplayStep` per global timestamp.  Events at
the same timestamp across cells form one step (that is what makes
correlated cross-cell storms a single fleet round), followed by per-cell
reconciles and the fleet's spillover phase.

Two executors implement the per-cell work behind one protocol:

* serial (``workers`` = 1) — the fleet's own cells, in process;
* sharded (``workers`` > 1) — a persistent
  :class:`~repro.fleet.pool.ShardPool`: each worker process *owns* a
  round-robin shard of the cells for the whole replay.  States cross the
  process boundary once (at start); afterwards only trace events travel
  out and compact :class:`~repro.fleet.summary.CellSummary` objects travel
  back — wire-encoded (:mod:`repro.fleet.wire`) and **batched**: quiet
  stretches of the timeline ship K steps per round trip, with K auto-tuned
  from observed payload sizes (:data:`BATCH_TARGET_BYTES`, capped at
  :data:`BATCH_MAX_STEPS`).  When the parent's per-step fold
  (:func:`fold_step`) finds a spillover round mid-batch, the shards rewind
  to that step before adjusting, so batching never changes output.

All federation decisions (spillover planning, release, events, metrics)
happen in the parent from the summaries, which both executors build with
the same code over the same states — the replay JSONL is therefore
**byte-identical** for every worker count and batch size, the property
the fleet CI gate asserts.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro import obs
from repro.traces.schema import Trace, TraceError

from repro.fleet.engine import step_cells
from repro.fleet.events import CellEvent, CellReconciled
from repro.fleet.pool import ShardPool
from repro.fleet.summary import (
    CellSummary,
    clone_name,
    fleet_availability,
    fleet_revenue,
    fleet_utilization,
    is_clone,
)
from repro.api.events import FailureDetected, RecoveryDetected

#: Schema version of the fleet replay-metrics JSONL.
FLEET_REPLAY_METRICS_VERSION = 1

#: Auto-tuned batching aims at roughly this many reply bytes per round trip.
BATCH_TARGET_BYTES = 64 * 1024

#: Hard cap on auto-tuned batch size (steps per IPC round trip).
BATCH_MAX_STEPS = 32


@dataclass(frozen=True, slots=True)
class FleetReplayStep:
    """Metrics for one fleet step (all events at one timestamp + reaction)."""

    time: float
    events: tuple[str, ...]
    failed_nodes: int
    available_fraction: float
    availability: float
    revenue: float
    utilization: float
    degraded_cells: tuple[str, ...]
    spillovers_planned: int
    spillovers_released: int
    spillovers_active: int
    triggered: int
    actions: int

    def to_record(self) -> dict[str, object]:
        """The JSONL record for this step (no wall-clock fields: byte-stable)."""
        return {
            "record": "step",
            "time": self.time,
            "events": list(self.events),
            "failed_nodes": self.failed_nodes,
            "available_fraction": round(self.available_fraction, 9),
            "availability": round(self.availability, 9),
            "revenue": round(self.revenue, 9),
            "utilization": round(self.utilization, 9),
            "degraded_cells": list(self.degraded_cells),
            "spillovers_planned": self.spillovers_planned,
            "spillovers_released": self.spillovers_released,
            "spillovers_active": self.spillovers_active,
            "triggered": self.triggered,
            "actions": self.actions,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "FleetReplayStep":
        """Rebuild a step from :meth:`to_record` output.

        Floats come back as :meth:`to_record` rounded them, so
        ``from_record(r).to_record() == r`` — the round-trip the serve
        layer relies on when checkpointed step records are served again
        after a resume.
        """
        return cls(
            time=float(record["time"]),
            events=tuple(record["events"]),
            failed_nodes=int(record["failed_nodes"]),
            available_fraction=float(record["available_fraction"]),
            availability=float(record["availability"]),
            revenue=float(record["revenue"]),
            utilization=float(record["utilization"]),
            degraded_cells=tuple(record["degraded_cells"]),
            spillovers_planned=int(record["spillovers_planned"]),
            spillovers_released=int(record["spillovers_released"]),
            spillovers_active=int(record["spillovers_active"]),
            triggered=int(record["triggered"]),
            actions=int(record["actions"]),
        )


@dataclass
class FleetReplayMetrics:
    """The full per-step metric series of one fleet replay."""

    steps: list[FleetReplayStep] = field(default_factory=list)
    metadata: dict[str, object] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def series(self, metric: str) -> list[tuple[float, float]]:
        return [(s.time, getattr(s, metric)) for s in self.steps]

    def min(self, metric: str) -> float:
        return min(getattr(s, metric) for s in self.steps)

    def final(self) -> FleetReplayStep:
        if not self.steps:
            raise ValueError("empty fleet replay: no steps recorded")
        return self.steps[-1]

    def to_jsonl(self) -> str:
        """Canonical JSONL: one header record plus one record per step."""
        header = {
            "record": "fleet-replay",
            "version": FLEET_REPLAY_METRICS_VERSION,
            "metadata": self.metadata,
        }
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        lines.extend(
            json.dumps(s.to_record(), sort_keys=True, separators=(",", ":"))
            for s in self.steps
        )
        return "\n".join(lines) + "\n"


# -- the fold ------------------------------------------------------------------


def fold_step(
    fleet,
    time: float,
    events_by_cell: Mapping[str, list],
    summaries: list[CellSummary],
    adjust: Callable[..., tuple[dict[str, CellSummary], list]],
) -> FleetReplayStep:
    """Fold one step's cell summaries into the fleet and one step record.

    Bus emissions from the summaries → ``plan_spillover`` → ``adjust(plan)``
    (only when the plan is non-empty; returns ``(updated summaries, failed
    assignments)``) → ``commit_spillover`` → one :class:`FleetReplayStep`.
    :meth:`FleetReplayer.run` and the serve control plane's rounds both
    run this one function, which is what makes a served session equal to
    the offline replay of its recorded trace.
    """
    bus = fleet.events
    if bus:
        for summary in summaries:
            if summary.failed_nodes:
                bus.emit(CellEvent(summary.cell, FailureDetected(nodes=summary.failed_nodes)))
            if summary.recovered_nodes:
                bus.emit(
                    CellEvent(summary.cell, RecoveryDetected(nodes=summary.recovered_nodes))
                )
            bus.emit(
                CellReconciled(
                    cell=summary.cell, triggered=summary.triggered, actions=summary.actions
                )
            )
    plan = fleet.plan_spillover(summaries)
    updated: dict[str, CellSummary] = {}
    failed: list = []
    if plan:
        updated, failed = adjust(plan)
    fleet.commit_spillover(plan, failed)
    final = {s.cell: s for s in summaries}
    final.update(updated)
    ordered = [final[name] for name in fleet.cell_names]
    capacity = sum(s.capacity_cpu for s in ordered)
    healthy = sum(s.healthy_cpu for s in ordered)
    return FleetReplayStep(
        time=time,
        events=tuple(
            f"{cell}:{event.kind}"
            for cell in fleet.cell_names
            for event in events_by_cell.get(cell, ())
        ),
        failed_nodes=sum(s.failed_count for s in ordered),
        available_fraction=(healthy / capacity if capacity > 0 else 0.0),
        availability=fleet_availability(ordered, fleet.spillovers),
        revenue=fleet_revenue(ordered),
        utilization=fleet_utilization(ordered),
        degraded_cells=tuple(
            s.cell
            for s in ordered
            if any(
                not is_clone(app) and (s.cell, app) not in fleet.spillovers
                for app, _ in s.missing_critical
            )
        ),
        spillovers_planned=len(plan.assignments) - len(failed),
        spillovers_released=len(plan.releases),
        spillovers_active=len(fleet.spillovers),
        triggered=sum(1 for s in summaries if s.triggered),
        actions=sum(s.actions for s in summaries)
        + sum(s.actions for s in updated.values()),
    )


# -- executors -----------------------------------------------------------------


class _LocalExecutor:
    """Serial executor: the fleet's own cells, in process.

    Thin delegation to the shared cell-ops helpers in
    :mod:`repro.fleet.engine` — the worker shards run the *same* helpers,
    so serial-vs-sharded byte-identity is structural, not a discipline.
    """

    batching = False

    def __init__(self, fleet, seed: int) -> None:
        self._fleet = fleet
        self._seed = seed

    def step(
        self, events_by_cell: Mapping[str, list], force: bool, with_events: bool
    ) -> list[CellSummary]:
        return step_cells(
            self._fleet.cells, events_by_cell, self._seed, force, with_events=with_events
        )

    def adjust(self, plan) -> tuple[dict[str, CellSummary], list]:
        updated, _reports, failed = self._fleet.apply_spillover(plan)
        return updated, failed

    def close(self) -> None:
        pass


class _PoolExecutor:
    """Sharded executor over a persistent :class:`ShardPool` (see pool.py)."""

    batching = True

    def __init__(self, fleet, seed: int, workers: int) -> None:
        pool_class = getattr(fleet, "_pool_class", None) or ShardPool
        self.pool = pool_class(
            fleet.cells,
            seed=seed,
            workers=workers,
            fault=getattr(fleet, "_shard_fault", None),
            supervisor=fleet.config.supervisor_config(),
            on_event=fleet.events.emit,
        )

    def step(
        self, events_by_cell: Mapping[str, list], force: bool, with_events: bool
    ) -> list[CellSummary]:
        return self.pool.step(events_by_cell, force, with_events)

    def step_batch(
        self, step_events: list, force: bool, with_events: bool
    ) -> list[list[CellSummary]]:
        return self.pool.step_batch(step_events, force, with_events)

    def rewind(self, keep_steps: int) -> None:
        self.pool.rewind(keep_steps)

    def adjust(self, plan) -> tuple[dict[str, CellSummary], list]:
        removes = [
            (entry.donor, clone_name(app, cell))
            for (cell, app), entry in plan.releases
        ]
        return self.pool.adjust(removes, list(plan.assignments))

    def close(self) -> None:
        self.pool.close()


# -- the replayer --------------------------------------------------------------


class FleetReplayer:
    """Replays a per-cell scenario mapping through a :class:`FleetEngine`.

    Parameters
    ----------
    fleet:
        The fleet to drive.  A serial replay mutates the fleet's cell
        states; a sharded one ships the states to the worker shards once
        and the parent copies go stale
        (the metrics are the product — rebuild the fleet to reuse it
        afterwards).
    seed:
        Seed for randomized ``capacity`` events, per cell.
    workers:
        Worker shard count; defaults to the fleet config's ``workers``.
        Metrics JSONL is byte-identical for every value.
    force_each_step:
        Force a planning round in every cell on every step.

    Each step's summaries go through :func:`fold_step`, the one fold the
    serve control plane's rounds also run; this replayer's ``adjust``
    additionally rewinds a speculated batch before the spillover phase.

    After :meth:`run`, :attr:`phase_seconds` holds the wall-clock split of
    the replay — ``ship`` (encoding + sending IPC payloads), ``compute``
    (waiting on per-cell rounds) and ``fold`` (federation planning, event
    re-emission and metric building in the parent).  A serial replay
    reports zero ``ship``.
    """

    def __init__(
        self,
        fleet,
        *,
        seed: int = 0,
        workers: int | None = None,
        force_each_step: bool = False,
    ) -> None:
        self.fleet = fleet
        self.seed = seed
        self.workers = fleet.config.workers if workers is None else workers
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.force_each_step = force_each_step
        self.phase_seconds = {"ship": 0.0, "compute": 0.0, "fold": 0.0}

    @property
    def events(self):
        """The fleet's event bus (summary-level events during replay)."""
        return self.fleet.events

    def _timeline(
        self, scenario: Mapping[str, Trace]
    ) -> list[tuple[float, dict[str, list]]]:
        """Merge per-cell traces into one [(time, {cell: events})] timeline."""
        names = set(self.fleet.cell_names)
        unknown = sorted(set(scenario) - names)
        if unknown:
            raise TraceError(
                f"scenario names unknown cells {unknown}; fleet has "
                f"{sorted(names)}"
            )
        merged: dict[float, dict[str, list]] = {}
        for cell in self.fleet.cell_names:
            trace = scenario.get(cell)
            if trace is None:
                continue
            trace.validate()
            for time_point, events in trace.steps():
                merged.setdefault(time_point, {})[cell] = list(events)
        return sorted(merged.items())

    def _make_executor(self):
        fleet = self.fleet
        workers = min(self.workers, len(fleet.cells))
        if workers > 1 and len(fleet.cells) > 1:
            return _PoolExecutor(fleet, self.seed, workers)
        return _LocalExecutor(fleet, self.seed)

    def _next_batch(self, current: int, adjusted: bool, last_step_bytes: float) -> int:
        """Batch size for the next IPC round trip.

        Resets to 1 whenever a spillover round interrupted the last batch
        (turbulent stretches plan federation every step — batching would
        just rewind), then ramps exponentially through quiet stretches up
        to a cap that keeps replies near :data:`BATCH_TARGET_BYTES`, never
        above :data:`BATCH_MAX_STEPS`.
        """
        if adjusted:
            return 1
        per_step = max(1.0, last_step_bytes)
        cap = max(1, min(BATCH_MAX_STEPS, int(BATCH_TARGET_BYTES / per_step)))
        return min(current * 2, cap)

    def run(self, scenario: Mapping[str, Trace]) -> FleetReplayMetrics:
        """Replay the scenario and return per-step fleet metrics."""
        fleet = self.fleet
        timeline = self._timeline(scenario)
        fleet.reset()
        executor = self._make_executor()
        bus = fleet.events
        # Observer fast path: decided once per run.  With no subscribers the
        # per-event payloads (failure/recovery node-name tuples) are neither
        # built nor shipped — subscribe before run(), not during it.
        with_events = bool(bus)
        metrics = FleetReplayMetrics(
            metadata={
                "driver": "fleet",
                "cells": list(fleet.cell_names),
                "policy": fleet.policy.name,
                "seed": self.seed,
                "traces": {
                    cell: dict(trace.metadata) for cell, trace in sorted(scenario.items())
                },
            }
        )
        executor_seconds = 0.0

        def adjust(plan):
            nonlocal executor_seconds, adjusted
            started = _time.perf_counter()
            if position + 1 < len(chunk):
                # The batch speculated past a spillover round: roll the
                # shards back to this step before adjusting, discarding the
                # overrun.  Output is unchanged — only the speculation is.
                executor.rewind(position + 1)
                registry = obs.registry()
                if registry.enabled:
                    registry.counter("fleet.replay.rewinds").inc()
            result = executor.adjust(plan)
            executor_seconds += _time.perf_counter() - started
            adjusted = True
            return result

        loop_started = _time.perf_counter()
        tracer = obs.tracer()
        batch = 1
        index = 0
        try:
            while index < len(timeline):
                size = batch if executor.batching else 1
                chunk = timeline[index : index + size]
                started = _time.perf_counter()
                if len(chunk) > 1:
                    summaries_list = executor.step_batch(
                        [events for _, events in chunk], self.force_each_step, with_events
                    )
                else:
                    summaries_list = [
                        executor.step(chunk[0][1], self.force_each_step, with_events)
                    ]
                executor_seconds += _time.perf_counter() - started
                step_bytes = getattr(
                    getattr(executor, "pool", None), "last_reply_bytes", 0
                ) / len(chunk)
                consumed = len(chunk)
                adjusted = False
                fold_span = tracer.span("fleet.fold", steps=len(chunk))
                fold_span.__enter__()
                try:
                    for position, ((time_point, events_by_cell), summaries) in enumerate(
                        zip(chunk, summaries_list)
                    ):
                        metrics.steps.append(
                            fold_step(fleet, time_point, events_by_cell, summaries, adjust)
                        )
                        if adjusted:
                            consumed = position + 1
                            break
                finally:
                    fold_span.__exit__(None, None, None)
                index += consumed
                batch = self._next_batch(max(1, len(chunk)), adjusted, step_bytes)
        finally:
            executor.close()
        total = _time.perf_counter() - loop_started
        pool = getattr(executor, "pool", None)
        if pool is not None:
            ship = pool.phase_seconds["ship"]
            wait = pool.phase_seconds["wait"]
            self.phase_seconds = {
                "ship": ship,
                "compute": wait,
                "fold": (total - executor_seconds) + max(0.0, executor_seconds - ship - wait),
            }
        else:
            self.phase_seconds = {
                "ship": 0.0,
                "compute": executor_seconds,
                "fold": total - executor_seconds,
            }
        registry = obs.registry()
        if registry.enabled:
            registry.counter("fleet.replay.steps").inc(len(metrics.steps))
            # The same per-phase split phase_seconds reports, as registry
            # histograms; the e2e benchmark's fleet_outage workload reads
            # phase_seconds for its ship/compute/fold split.
            for phase, seconds in self.phase_seconds.items():
                registry.histogram(f"fleet.phase.{phase}_seconds").observe(seconds)
        return metrics
