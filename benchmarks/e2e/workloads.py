"""The five workloads of the end-to-end benchmark and the cluster they run on.

Every workload follows one protocol (:class:`Workload`): ``build`` makes the
inputs and the pre-failure cluster from public constructors only,
``warm_up`` lets caches fill (and, where the program is driven through one
opaque call, measures how many operations fit the run length),
``untraced`` measures the operation end to end, and ``traced`` repeats the
same operations with a span around every call into a layer.

The shared cluster model is ``dense``: tenant copies of the 18 tagged,
CPM-sized Alibaba-like applications on uniform nodes sized so the cluster
is 70 % full.  ``build_environment`` cannot build that cluster past ~1,600
nodes (it floors node capacity at 1.05 x the largest microservice, which
leaves bigger clusters nearly empty), so the benchmark tiles tenants
instead — and refuses to run if the result is not 70 % full (the traffic
guard).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.api as api
from repro.adaptlab import build_environment
from repro.adaptlab.failures import inject_capacity_failure, select_capacity_failure
from repro.adaptlab.metrics import cluster_utilization, evaluate_state
from repro.api.events import ReplayStepCompleted
from repro.chaos.invariants import check_invariants
from repro.cluster.application import Application
from repro.cluster.microservice import Microservice
from repro.cluster.node import Node
from repro.cluster.resources import Resources
from repro.cluster.state import ClusterState
from repro.core.plan import SchedulePlan
import repro.fleet.wire as wire
from repro.fleet import FleetConfig, FleetEngine, FleetReplayer
from repro.fleet.checkpoint import save_checkpoint
from repro.serve import WriteAheadLog, build_fleet, fleet_digest
from repro.serve.http1 import read_request
from repro.serve.websocket import text_frame
from repro.traces import fleet_scenario, generators
from repro.traces.replayer import ReplayMetrics, ReplayStep, TraceReplayer, apply_trace_event
from repro.traces.schema import Trace

import loadgen
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
#: Everything the benchmark writes (span files, WAL, checkpoints) lands here.
OUT_DIR = HERE / "out"

DEFAULT_SEED = 7
ENV_SEED = 2025
TARGET_UTILISATION = 0.70
#: Seed of the replayers' ``capacity``-event RNG (no workload emits one).
REPLAY_SEED = 3


class TrafficGuardError(RuntimeError):
    """The generated cluster or traffic is not what the benchmark claims."""


class CheckFailed(RuntimeError):
    """A correctness check on the program's output failed."""


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``smoke`` is the tier-1 test's."""

    name: str
    nodes: int
    tenants: int
    fleet_failures_per_cell: int
    setup_repeats: int


FULL = Scale("full", nodes=16_000, tenants=10, fleet_failures_per_cell=45, setup_repeats=3)
SMOKE = Scale("smoke", nodes=1_600, tenants=1, fleet_failures_per_cell=8, setup_repeats=1)


@dataclass
class PassResult:
    """What one measured pass of a workload produced."""

    ops: int = 0
    #: Wall seconds of the timed regions only.
    seconds: float = 0.0
    #: Latency samples in milliseconds (what one sample is: see the README).
    op_ms: list[float] = field(default_factory=list)
    #: Operations per second of each segment of the pass (a storm cycle, a
    #: block of churn steps, one fleet scenario, a slice of the saturated
    #: phase).  Throughput is their median, so a slow stretch of the host
    #: that covers under half the pass does not move it.
    segment_rates: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Per-operation outcome quality, in operation order.
    availability: list[float] = field(default_factory=list)
    revenue: list[float] = field(default_factory=list)
    #: What each of those operations counts for in the mean (``None``: the same).
    weights: list[float] | None = None
    #: Digest of the program's outputs, comparable between passes.
    digest: str = ""
    peak_rss_mb: float = 0.0
    #: Per-layer metrics this pass could measure (a subset of the catalogue).
    layers: dict[str, float] = field(default_factory=dict)
    #: Names of the correctness checks that ran (and passed).
    checks: list[str] = field(default_factory=list)
    #: What makes the timings of this pass doubtful without making its
    #: outputs wrong (a late load generator); reported, never a failure.
    warnings: list[str] = field(default_factory=list)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the dense cluster model -------------------------------------------------


def base_applications(env_seed: int = ENV_SEED) -> list[Application]:
    """The 18 tagged, CPM-sized applications with their dependency graphs."""
    env = build_environment(
        node_count=1000, tagging_scheme="service-p90", resource_model="cpm", seed=env_seed
    )
    return list(env.applications.values())


def dense_state(applications: list[Application], nodes: int, tenants: int) -> ClusterState:
    """``tenants`` renamed copies of ``applications`` on ``nodes`` uniform
    nodes, placed by one forced reconcile, 70 % full — or an error."""
    apps = [
        Application.from_microservices(
            f"t{tenant}-{app.name}",
            [
                Microservice(name=ms.name, resources=ms.resources, criticality=ms.criticality)
                for ms in app
            ],
            dependency_edges=list(app.dependency_graph.edges),
            price_per_unit=app.price_per_unit,
        )
        for tenant in range(tenants)
        for app in applications
    ]
    demand = sum(app.total_demand().cpu for app in apps)
    capacity = demand / (TARGET_UTILISATION * nodes)
    state = ClusterState(
        nodes=[Node(f"node-{i}", Resources.cpu_only(capacity)) for i in range(nodes)],
        applications=apps,
    )
    api.engine("revenue").reconcile(state, force=True)
    utilisation = cluster_utilization(state)
    if abs(utilisation - TARGET_UTILISATION) > 0.01:
        raise TrafficGuardError(
            f"pre-failure utilisation is {utilisation:.4f}, not "
            f"{TARGET_UTILISATION:.2f} +/- 0.01 ({nodes} nodes, {tenants} tenants)"
        )
    return state


def trace_prefix(full: Trace, steps: int) -> Trace:
    """The first ``steps`` steps of ``full`` as a trace of its own."""
    events = [event for _time, batch in full.steps()[:steps] for event in batch]
    return Trace(events=events, metadata=dict(full.metadata, steps=steps)).validate()


# -- the workload protocol ---------------------------------------------------


class Workload:
    """One named workload; see the module docstring for the protocol."""

    name = ""
    #: Operations (from the start of a pass) the outcome-quality metrics and
    #: the count-type layer metrics are taken over.  Every run completes at
    #: least these, so those metrics repeat exactly for a given seed however
    #: many operations the run length then allows.  ``None``: all of them.
    quality_ops: int | None = None
    #: Share of a traced run's length given to its untraced half.
    untraced_share = 0.5

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale

    def build(self) -> None:
        raise NotImplementedError

    def input_text(self) -> str:
        """Canonical text of the generated input (pinned by SHA-256)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def untraced(self, seconds: float) -> PassResult:
        raise NotImplementedError

    def traced(self, baseline: PassResult, recorder: SpanRecorder) -> PassResult:
        """Repeat ``baseline``'s operations with a span per layer call."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass


def _whole_rounds(seconds: float, one_round, at_least: int = 1) -> None:
    """Call ``one_round()`` until ``seconds`` of wall time are used.

    Rounds are never cut short (a round is balanced: one operation per
    failure level, or one whole scenario), so another one starts only while
    at least half of it still fits — or while fewer than ``at_least`` ran.
    """
    started = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= at_least and elapsed + 0.5 * elapsed / rounds >= seconds:
            return


# -- storm_dense -------------------------------------------------------------


def _actions_digest(actions) -> str:
    digest = hashlib.sha256()
    for action in actions:
        digest.update(
            repr(
                (action.kind.value, tuple(action.replica), action.target_node, action.source_node)
            ).encode("utf-8")
        )
    return digest.hexdigest()


class StormDense(Workload):
    """Closed loop, one caller: a virgin engine answers one large failure."""

    name = "storm_dense"
    LEVELS = (0.3, 0.5, 0.7, 0.9)
    quality_ops = len(LEVELS)
    #: Operations whose generated input the pinned digest covers.
    PINNED_OPS = 8

    def build(self) -> None:
        self.healthy = dense_state(base_applications(), self.scale.nodes, self.scale.tenants)
        self._failure_rng = random.Random(self.seed)
        self._failures: list[list[str]] = []

    def _failed_nodes(self, op: int) -> list[str]:
        """Nodes operation ``op`` loses (generated in order, from the seed)."""
        while len(self._failures) <= op:
            level = self.LEVELS[len(self._failures) % len(self.LEVELS)]
            seed = self._failure_rng.randrange(2**31)
            self._failures.append(select_capacity_failure(self.healthy, level, seed=seed))
        return self._failures[op]

    def input_text(self) -> str:
        return "".join(
            json.dumps([self.LEVELS[op % len(self.LEVELS)], self._failed_nodes(op)]) + "\n"
            for op in range(self.PINNED_OPS)
        )

    def _failed_state(self, op: int) -> ClusterState:
        state = self.healthy.copy()
        state.fail_nodes(self._failed_nodes(op))
        return state

    def warm_up(self) -> None:
        api.engine("revenue").reconcile(self._failed_state(1))

    def _finish_op(self, result: PassResult, state, actions, seconds: float) -> str:
        """Untimed: score the response, check it, return its digest."""
        result.ops += 1
        result.attempted += 1
        result.seconds += seconds
        self._cycle_seconds.append(seconds)
        if len(self._cycle_seconds) == len(self.LEVELS):
            # Failure levels are different operations, so the latency
            # sample is one per cycle: its mean reconcile time.
            cycle = sum(self._cycle_seconds)
            result.op_ms.append(1000.0 * cycle / len(self.LEVELS))
            result.segment_rates.append(len(self.LEVELS) / cycle)
            self._cycle_seconds.clear()
        evaluated = evaluate_state(state, reference=self.healthy)
        result.availability.append(evaluated.critical_service_availability)
        result.revenue.append(evaluated.normalized_revenue)
        if check_invariants(state):
            result.failed += 1
        return _actions_digest(actions)

    def _guard_traffic(self, result: PassResult) -> None:
        by_level = dict(zip(self.LEVELS, zip(result.availability, result.revenue)))
        if by_level[0.9][0] >= 1.0 or by_level[0.5][1] >= 1.0:
            raise TrafficGuardError(
                "storm_dense does not degrade: critical availability at 0.9 is "
                f"{by_level[0.9][0]}, revenue at 0.5 is {by_level[0.5][1]}"
            )
        result.checks += ["traffic_guard", "invariants"]

    def untraced(self, seconds: float) -> PassResult:
        result = PassResult()
        digests: list[str] = []
        self._cycle_seconds: list[float] = []

        def one_cycle() -> None:
            for _level in self.LEVELS:
                state = self._failed_state(result.ops)
                engine = api.engine("revenue")
                started = time.perf_counter()
                report = engine.reconcile(state)
                elapsed = time.perf_counter() - started
                digests.append(
                    self._finish_op(result, state, report.schedule.ordered_actions(), elapsed)
                )

        gc.collect()
        # Two cycles at the least: a median over one is that one.
        _whole_rounds(seconds, one_cycle, at_least=2)
        self._guard_traffic(result)
        result.digest = sha256("".join(digests))
        result.peak_rss_mb = self_peak_rss_mb()
        return result

    def traced(self, baseline: PassResult, recorder: SpanRecorder) -> PassResult:
        result = PassResult()
        digests: list[str] = []
        self._cycle_seconds = []
        activated = placed = ranked = actions_total = 0
        gc.collect()
        for op in range(baseline.ops):
            state = self._failed_state(op)
            engine = api.engine("revenue")
            started = time.perf_counter()
            with recorder.span("op", op):
                with recorder.span("core.rank"):
                    plan = engine.plan(state)
                with recorder.span("cluster.copy"):
                    working = state.copy(share_nodes=True)
                with recorder.span("core.pack"):
                    packing = engine.packer.pack(working, plan)
                with recorder.span("core.diff"):
                    actions = engine.differ(state, packing)
                ordered = SchedulePlan(
                    target_assignment=packing.assignment,
                    actions=actions,
                    unplaced=packing.unplaced,
                ).ordered_actions()
                with recorder.span("api.execute"):
                    engine.execute(state, ordered)
            elapsed = time.perf_counter() - started
            digests.append(self._finish_op(result, state, ordered, elapsed))
            if op < self.quality_ops:
                ranked += len(plan.ranked)
                activated += len(plan.activated)
                placed += len(plan.activated) - len(packing.unplaced)
                actions_total += len(ordered)
        self._guard_traffic(result)
        result.digest = sha256("".join(digests))
        result.peak_rss_mb = self_peak_rss_mb()
        result.layers = {
            "core.activated_ratio": activated / ranked,
            "core.placed_ratio": placed / activated,
            "core.actions_per_op": actions_total / self.quality_ops,
        }
        return result


# -- churn_healthy / churn_degraded ------------------------------------------


class Churn(Workload):
    """Closed loop: ``TraceReplayer.run`` over single-node Poisson churn."""

    #: Trace seconds generated; at one failure per ``event_gap`` trace
    #: seconds this is far more steps than any run length consumes.
    HORIZON = 36_000.0
    MTTR = 300.0
    #: Mean trace seconds between failures (recoveries double the steps).
    event_gap = 20.0
    #: Capacity lost (and reconciled) before the replay starts.
    initial_loss = 0.0
    #: Steps replayed while warming up; also the calibration sample.
    warm_steps = 20
    #: Measured step counts are multiples of this (so runs on one host mostly
    #: replay the same prefix, byte for byte), and it is the segment length.
    step_quantum = 10

    def build(self) -> None:
        self.healthy = dense_state(base_applications(), self.scale.nodes, self.scale.tenants)
        self.start = self.healthy
        self.lost_nodes: list[str] = []
        if self.initial_loss:
            self.start = self.healthy.copy()
            self.lost_nodes = inject_capacity_failure(
                self.start, self.initial_loss, seed=self.seed
            )
            api.engine("revenue").reconcile(self.start)
        # Only nodes that are up at the start churn, so every event changes
        # the failed set and every step reconciles.
        names = [name for name, node in self.start.nodes.items() if node.is_healthy]
        self.full_trace = generators.poisson_failures(
            names,
            horizon=self.HORIZON,
            mtbf=len(names) * self.event_gap,
            mttr=self.MTTR,
            seed=self.seed,
        )
        self.total_steps = len(self.full_trace.steps())

    def input_text(self) -> str:
        return json.dumps(self.lost_nodes) + "\n" + self.full_trace.dumps()

    def _replay(self, steps: int) -> tuple[ReplayMetrics, float, list[float]]:
        """One opaque ``TraceReplayer.run``; (metrics, wall, per-step seconds).

        Step boundaries are read off the engine's public event bus
        (``ReplayStepCompleted``), the program's own hook for observers.
        """
        prefix = trace_prefix(self.full_trace, steps)
        engine = api.engine("revenue")
        stamps: list[float] = []
        engine.events.subscribe(
            lambda _event: stamps.append(time.perf_counter()), ReplayStepCompleted
        )
        replayer = TraceReplayer(engine, seed=REPLAY_SEED)
        gc.collect()
        started = time.perf_counter()
        metrics = replayer.run(self.start, prefix)
        wall = time.perf_counter() - started
        step_seconds = [b - a for a, b in zip([started] + stamps, stamps)]
        return metrics, wall, step_seconds

    def warm_up(self) -> None:
        # The replay is one opaque call, so its length is fixed beforehand:
        # the typical step time seen here sizes the measured prefix.
        _metrics, _wall, step_seconds = self._replay(self.warm_steps)
        self._step_seconds = statistics.median(step_seconds)

    def _steps_for(self, seconds: float) -> int:
        quantum = self.step_quantum
        fit = int(seconds / self._step_seconds) // quantum * quantum
        return min(self.total_steps, max(quantum, fit))

    def _expected_failed(self, steps: int) -> int:
        """Failed-node count after ``steps`` steps, recomputed independently."""
        failed = set(self.lost_nodes)
        for _time, batch in self.full_trace.steps()[:steps]:
            for event in batch:
                if event.kind == "node_failure":
                    failed.update(event.nodes)
                else:
                    failed.difference_update(event.nodes)
        return len(failed)

    def _result(self, metrics: ReplayMetrics, steps: int, wall: float, step_seconds) -> PassResult:
        result = PassResult(
            ops=len(metrics),
            seconds=wall,
            op_ms=[1000.0 * s for s in step_seconds],
            segment_rates=[
                self.step_quantum / sum(step_seconds[at : at + self.step_quantum])
                for at in range(0, len(step_seconds), self.step_quantum)
            ],
            attempted=steps,
            failed=steps - len(metrics),
            availability=[step.availability for step in metrics],
            revenue=[step.revenue for step in metrics],
            digest=sha256(metrics.to_jsonl()),
            peak_rss_mb=self_peak_rss_mb(),
        )
        if metrics.final().failed_nodes != self._expected_failed(steps):
            raise CheckFailed(
                f"{self.name}: replay ends with {metrics.final().failed_nodes} failed "
                f"nodes, the trace says {self._expected_failed(steps)}"
            )
        if not all(0.0 <= step.availability <= 1.0 for step in metrics):
            raise CheckFailed(f"{self.name}: availability outside [0, 1]")
        result.checks.append("replay_consistency")
        return result

    def untraced(self, seconds: float) -> PassResult:
        steps = self._steps_for(seconds)
        metrics, wall, step_seconds = self._replay(steps)
        return self._result(metrics, steps, wall, step_seconds)

    def traced(self, baseline: PassResult, recorder: SpanRecorder) -> PassResult:
        """``TraceReplayer.run`` re-enacted call by call, a span around each.

        ``engine.reconcile`` is split into its public parts — failure
        detection through ``engine.known_failed``, then ``plan``,
        ``schedule`` and ``execute`` — and the step records are rebuilt with
        the replayer's own classes, so the JSONL must equal the opaque run's.
        """
        steps = baseline.attempted
        prefix = trace_prefix(self.full_trace, steps)
        engine = api.engine("revenue")
        metrics = ReplayMetrics(
            metadata={
                "driver": engine.name,
                "mode": "reconcile",
                "seed": REPLAY_SEED,
                "trace": dict(prefix.metadata),
            }
        )
        step_seconds: list[float] = []
        actions_total = 0
        gc.collect()
        started = time.perf_counter()
        with recorder.span("replay"):
            with recorder.span("cluster.copy"):
                current = self.start.copy()
            for op, (time_point, events) in enumerate(prefix.steps()):
                step_started = time.perf_counter()
                with recorder.span("step", op):
                    with recorder.span("cluster.apply_events"):
                        for event in events:
                            apply_trace_event(current, event, seed=REPLAY_SEED)
                    failed_now = current.failed_names()
                    known = engine.known_failed
                    triggered = bool(failed_now) if known is None else failed_now != known
                    engine.known_failed = failed_now
                    planning = 0.0
                    actions = []
                    if triggered:
                        planned = time.perf_counter()
                        with recorder.span("core.rank"):
                            plan = engine.plan(current)
                        with recorder.span("core.schedule"):
                            schedule = engine.schedule(current, plan)
                        planning = time.perf_counter() - planned
                        actions = schedule.ordered_actions()
                        with recorder.span("api.execute"):
                            engine.execute(current, actions)
                    with recorder.span("adaptlab.evaluate"):
                        evaluated = evaluate_state(
                            current, reference=self.start, planning_seconds=planning
                        )
                    total = current.total_capacity(healthy_only=False).cpu
                    metrics.steps.append(
                        ReplayStep(
                            time=time_point,
                            events=tuple(event.kind for event in events),
                            failed_nodes=current.failed_count,
                            available_fraction=current.total_capacity().cpu / total,
                            load_multiplier=1.0,
                            availability=evaluated.critical_service_availability,
                            revenue=evaluated.normalized_revenue,
                            utilization=evaluated.utilization,
                            requests_served=evaluated.requests_served_fraction,
                            triggered=triggered,
                            actions=len(actions),
                            planning_seconds=planning,
                        )
                    )
                step_seconds.append(time.perf_counter() - step_started)
                if op < self.quality_ops:
                    actions_total += len(actions)
        wall = time.perf_counter() - started
        result = self._result(metrics, steps, wall, step_seconds)
        if check_invariants(current):
            raise CheckFailed(f"{self.name}: end state violates an invariant")
        result.checks.append("invariants")
        incremental = engine.pipeline.incremental
        rounds = incremental.fast_rounds + incremental.full_rounds
        result.layers = {
            "core.incremental_fast_ratio": incremental.fast_rounds / rounds if rounds else 0.0,
            "core.actions_per_op": actions_total / min(steps, self.quality_ops),
            "core.step_p50_ms": percentile(result.op_ms, 0.50),
            "core.step_p99_ms": percentile(result.op_ms, 0.99),
        }
        return result


class ChurnHealthy(Churn):
    name = "churn_healthy"
    quality_ops = 20


class ChurnDegraded(Churn):
    name = "churn_degraded"
    initial_loss = 0.35
    event_gap = 200.0
    warm_steps = 6
    step_quantum = 2
    quality_ops = 4


# -- fleet_outage ------------------------------------------------------------


class FleetOutage(Workload):
    """Closed loop: a sharded ``FleetReplayer`` over churn plus a cell outage."""

    name = "fleet_outage"
    CELLS = 4
    #: 1,600 would not do: the applications of environment seeds 2026 and
    #: 2027 have a microservice larger than a node of a 1,600-node 70 % cell.
    NODES = 1_200
    WORKERS = 2
    HORIZON = 3600.0

    def build(self) -> None:
        nodes = self.NODES
        self.cell_states = [
            dense_state(base_applications(ENV_SEED + index), nodes, 1)
            for index in range(self.CELLS)
        ]
        self.scenario = fleet_scenario(
            self.CELLS,
            nodes,
            horizon=self.HORIZON,
            mtbf=nodes * self.HORIZON / self.scale.fleet_failures_per_cell,
            mttr=300.0,
            outage_cell=self.CELLS - 1,
            outage_at=self.HORIZON / 2,
            outage_recovery_after=self.HORIZON / 4,
            seed=self.seed,
        )

    def input_text(self) -> str:
        return "".join(self.scenario[cell].dumps() for cell in sorted(self.scenario))

    def _fresh_fleet(self) -> FleetEngine:
        fleet = FleetEngine(
            FleetConfig(cells=self.CELLS), states=[state.copy() for state in self.cell_states]
        )
        fleet.reconcile(force=True)
        return fleet

    def _replay(self, workers: int, fleet: FleetEngine):
        """One whole-scenario replay on a fresh fleet; (metrics, wall, replayer)."""
        replayer = FleetReplayer(fleet, seed=REPLAY_SEED, workers=workers)
        gc.collect()
        started = time.perf_counter()
        metrics = replayer.run(self.scenario)
        return metrics, time.perf_counter() - started, replayer

    def _replay_sharded(self):
        fleet = self._fresh_fleet()
        try:
            return self._replay(self.WORKERS, fleet)
        finally:
            fleet.close()

    def warm_up(self) -> None:
        self._replay_sharded()

    def _book(self, result: PassResult, metrics, wall: float) -> str:
        steps = len(metrics)
        result.ops += steps
        result.attempted += steps
        result.seconds += wall
        result.op_ms.append(1000.0 * wall / steps)
        result.segment_rates.append(steps / wall)
        if not result.availability:
            # A step's outcome lasts until the next step, and it is that
            # trace time it is weighted by: how many steps fall inside the
            # outage differs from seed to seed, how long the outage lasts
            # does not.
            starts = [step.time for step in metrics]
            result.weights = [b - a for a, b in zip(starts, starts[1:] + [self.HORIZON])]
            result.availability = [step.availability for step in metrics]
            result.revenue = [step.revenue for step in metrics]
        return sha256(metrics.to_jsonl())

    def _peak_rss_mb(self) -> float:
        # Workers are symmetric, so the sum over processes is the parent's
        # peak plus the largest child's peak once per worker.
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return self_peak_rss_mb() + self.WORKERS * child

    def untraced(self, seconds: float) -> PassResult:
        result = PassResult()
        digests: set[str] = set()

        def one_scenario() -> None:
            metrics, wall, _replayer = self._replay_sharded()
            digests.add(self._book(result, metrics, wall))

        _whole_rounds(seconds, one_scenario)
        if len(digests) != 1:
            raise CheckFailed("fleet_outage: repeated replays of one scenario differ")
        result.checks.append("determinism")
        result.digest = digests.pop()
        result.peak_rss_mb = self._peak_rss_mb()
        return result

    def traced(self, baseline: PassResult, recorder: SpanRecorder) -> PassResult:
        result = PassResult()
        fleet = self._fresh_fleet()
        try:
            with recorder.span("fleet.replay", 0):
                metrics, wall, replayer = self._replay(self.WORKERS, fleet)
                # The replayer's own phase split, laid end to end as child
                # spans; what is left over is worker start-up (fleet.wait_s).
                cursor = time.perf_counter() - sum(replayer.phase_seconds.values())
                for phase in ("ship", "compute", "fold"):
                    seconds = replayer.phase_seconds[phase]
                    recorder.add(f"fleet.{phase}", cursor, cursor + seconds, 0)
                    cursor += seconds
        finally:
            fleet.close()
        result.digest = self._book(result, metrics, wall)
        phases = replayer.phase_seconds
        layers = {
            "fleet.ship_s": phases["ship"],
            "fleet.compute_s": phases["compute"],
            "fleet.fold_s": phases["fold"],
            # Worker start-up and the initial state shipping, which the
            # replayer's phase clock starts after.
            "fleet.wait_s": max(0.0, wall - sum(phases.values())),
            "fleet.spillovers": float(sum(step.spillovers_planned for step in metrics)),
        }

        serial_fleet = self._fresh_fleet()
        try:
            with recorder.span("fleet.serial_twin", 1):
                serial, serial_wall, _ = self._replay(1, serial_fleet)
            if serial.to_jsonl() != metrics.to_jsonl():
                raise CheckFailed("fleet_outage: sharded replay differs from serial")
            if check_invariants(serial_fleet):
                raise CheckFailed("fleet_outage: end state violates an invariant")
            result.checks += ["serial_identity", "invariants"]
            steps = len(metrics)
            layers["fleet.serial_steps_s"] = steps / serial_wall
            layers["fleet.shard_efficiency"] = serial_wall / wall
            layers.update(self._offline_layers(serial_fleet))
        finally:
            serial_fleet.close()
        result.layers = layers
        result.peak_rss_mb = self._peak_rss_mb()
        return result

    @staticmethod
    def _codec_cost(payload) -> tuple[float, float, int]:
        """Median (encode seconds, decode seconds) and the frame size of ``payload``."""
        encode, decode = [], []
        for _ in range(20):
            started = time.perf_counter()
            frame = wire.dumps(payload)
            middle = time.perf_counter()
            wire.loads(frame)
            decode.append(time.perf_counter() - middle)
            encode.append(middle - started)
        return statistics.median(encode), statistics.median(decode), len(frame)

    def _offline_layers(self, fleet: FleetEngine) -> dict[str, float]:
        """Codec, summary, planning and checkpoint costs on the end state."""
        # What crosses the process boundary for one step: its trace events
        # out (shipped in batches; 32 steps here) and the summaries back.
        by_time: dict[float, dict[str, list]] = {}
        for cell, trace in self.scenario.items():
            for time_point, batch in trace.steps():
                by_time.setdefault(time_point, {})[cell] = list(batch)
        events = [by_time[at] for at in sorted(by_time)[:32]]
        out_encode, out_decode, out_bytes = self._codec_cost(events)
        back_encode, back_decode, back_bytes = self._codec_cost(fleet.summarize())
        started = time.perf_counter()
        summaries = fleet.summarize()
        summarized = time.perf_counter()
        fleet.plan_spillover(summaries)
        planned = time.perf_counter()
        scratch = tempfile.mkdtemp(dir=OUT_DIR)
        try:
            path = os.path.join(scratch, "fleet.ckpt")
            before = time.perf_counter()
            save_checkpoint(fleet, path)
            saved = time.perf_counter() - before
            checkpoint_bytes = os.path.getsize(path)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return {
            "fleet.wire_encode_us": 1e6 * (back_encode + out_encode / len(events)),
            "fleet.wire_decode_us": 1e6 * (back_decode + out_decode / len(events)),
            "fleet.wire_bytes_per_step": back_bytes + out_bytes / len(events),
            "fleet.summarize_s": summarized - started,
            "fleet.spillover_plan_s": planned - summarized,
            "fleet.checkpoint_save_s": saved,
            "fleet.checkpoint_bytes": float(checkpoint_bytes),
        }


# -- serve_live --------------------------------------------------------------


class ServeLive(Workload):
    """``python -m repro serve`` as a subprocess under open- then closed-loop load."""

    name = "serve_live"
    untraced_share = 1.0
    CELLS = 3
    NODES_PER_CELL = 30
    APPS = 3
    RATE = 50.0
    CONNECTIONS = 2
    #: Share of the run length spent in the open-loop phase.
    STEADY_SHARE = 0.6
    #: Times the (steady, saturated) pair of phases is run.
    ALTERNATIONS = 2
    PINNED_MUTATIONS = 4096
    #: A generator later than this at its 99th percentile is reported with
    #: a warning: the tail latencies of that run are partly the generator's.
    MAX_LAG_MS = 5.0

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.loop = asyncio.new_event_loop()
        self.process: subprocess.Popen | None = None
        self.scratch: str | None = None
        self.clients: list[loadgen.HttpClient] = []
        self.subscriber: loadgen.WsDrain | None = None

    def _cells(self) -> list[str]:
        return [f"cell-{i}" for i in range(self.CELLS)]

    def input_text(self) -> str:
        stream = loadgen.MutationStream(self.seed, self._cells(), self.NODES_PER_CELL)
        groups = stream.ramp() + [stream.take(self.PINNED_MUTATIONS)]
        return "".join(
            json.dumps(mutation, sort_keys=True) + "\n" for group in groups for mutation in group
        )

    def build(self) -> None:
        self.scratch = tempfile.mkdtemp(dir=OUT_DIR)
        self.wal_path = os.path.join(self.scratch, "serve.wal")
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), environment.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self._stderr = open(os.path.join(self.scratch, "serve.stderr"), "wb")
        # The server and the generator each keep to processors of their own.
        # Left to the scheduler, a round of the server now and then starts
        # on the generator's processor and makes the generator 3-5 ms late.
        self._all_cpus = os.sched_getaffinity(0)
        cpus = sorted(self._all_cpus)
        server_cpus, own_cpus = (cpus[:-1], cpus[-1:]) if len(cpus) > 1 else (cpus, cpus)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--cells", str(self.CELLS),
                "--nodes-per-cell", str(self.NODES_PER_CELL),
                "--apps", str(self.APPS),
                "--seed", "0", "--port", "0",
                "--queue-limit", "65536",
                "--wal", self.wal_path,
            ],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=environment,
            cwd=str(REPO_ROOT),
            preexec_fn=lambda: os.sched_setaffinity(0, server_cpus),
        )
        os.sched_setaffinity(0, own_cpus)
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("repro serve did not print its Serving line within 60 s")
        serving = json.loads(line)
        self.host, self.port = serving["host"], serving["port"]
        self.stream = loadgen.MutationStream(self.seed, self._cells(), self.NODES_PER_CELL)
        self.clients = [loadgen.HttpClient(self.host, self.port) for _ in range(self.CONNECTIONS)]
        self.subscriber = loadgen.WsDrain(self.host, self.port)
        self.loop.run_until_complete(self._connect())

    async def _connect(self) -> None:
        await self.subscriber.connect()
        config = await self.clients[0].get_json("/config")
        if config["cells"] != self._cells():
            raise TrafficGuardError(f"server has cells {config['cells']}")
        self.config = config
        # The ramp is the warm-up: one POST at a time, so each is a round of
        # its own and the rounds are the same on every run and for every
        # seed.  They take the cells into the crunch the load then stays in,
        # and their outcome is the workload's quality sample.
        ramp = self.stream.ramp()
        for index, group in enumerate(ramp):
            warm = loadgen.PhaseStats()
            await loadgen.post(self.clients[index % len(self.clients)], group, warm)
            if warm.admitted != len(group):
                raise RuntimeError("a ramp POST was not admitted")
        steps = (await self.clients[0].get_json("/steps"))["steps"]
        if len(steps) != len(ramp):
            raise TrafficGuardError(f"{len(ramp)} ramp POSTs became {len(steps)} rounds")
        self.ramp_availability = [step["availability"] for step in steps]
        self.ramp_revenue = [step["revenue"] for step in steps]
        if min(self.ramp_availability) >= 1.0 or min(self.ramp_revenue) >= 1.0:
            raise TrafficGuardError(
                "serve_live does not degrade on its ramp: lowest critical availability "
                f"{min(self.ramp_availability)}, lowest revenue {min(self.ramp_revenue)}"
            )

    def teardown(self) -> None:
        process, self.process = self.process, None
        if process is not None:
            try:
                self.loop.run_until_complete(self._disconnect())
            finally:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
                process.stdout.close()
                self._stderr.close()
                os.sched_setaffinity(0, self._all_cpus)
        scratch, self.scratch = self.scratch, None
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    async def _disconnect(self) -> None:
        if self.subscriber is not None:
            await self.subscriber.close()
        for client in self.clients:
            await client.close()

    def _server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def untraced(self, seconds: float) -> PassResult:
        return self.loop.run_until_complete(self._load(seconds))

    def traced(self, baseline: PassResult, recorder: SpanRecorder) -> PassResult:
        # The client side is the same in both passes: its per-request clock
        # readings are the latency samples, and here they become the spans.
        for phase, stats in (("steady", self._steady), ("saturated", self._saturated)):
            for op, (sent, done, _size) in enumerate(stats.posts):
                recorder.add(f"serve.post.{phase}", sent, done, op)
        baseline.layers.update(self.loop.run_until_complete(self._offline_layers()))
        return baseline

    async def _load(self, seconds: float) -> PassResult:
        clients = self.clients
        before = await clients[0].get_json("/metrics")
        # The pair of phases runs twice, so that a drift of the host's speed
        # reaches both metrics alike.  More and shorter stretches would give
        # a larger share of the open loop to its start: an idle server
        # answers the first mutations in one round, not the usual two or three.
        steady, saturated = loadgen.PhaseStats(), loadgen.PhaseStats()
        steady_seconds = seconds * self.STEADY_SHARE / self.ALTERNATIONS
        saturated_seconds = seconds * (1.0 - self.STEADY_SHARE) / self.ALTERNATIONS
        gc.collect()
        for _ in range(self.ALTERNATIONS):
            mutations = self.stream.take(int(self.RATE * steady_seconds))
            steady.absorb(await loadgen.open_loop(clients, mutations, self.RATE))
            saturated.absorb(await loadgen.closed_loop(clients, self.stream, saturated_seconds))
        after = await clients[0].get_json("/metrics")
        self._steady, self._saturated = steady, saturated
        await asyncio.sleep(0.2)  # let the subscriber drain the last rounds

        result = PassResult(
            ops=saturated.admitted,
            seconds=saturated.seconds,
            op_ms=[1000.0 * s for s in steady.latencies],
            # One segment: a stretch holds too few rounds to be rated alone.
            segment_rates=[saturated.admitted / saturated.seconds],
            attempted=steady.sent + saturated.sent,
            failed=steady.sent + saturated.sent - steady.admitted - saturated.admitted,
            # Round boundaries under load depend on timing; the ramp's do not.
            availability=self.ramp_availability,
            revenue=self.ramp_revenue,
            peak_rss_mb=self._server_peak_rss_mb(),
        )
        steps = (await clients[0].get_json("/steps"))["steps"][before["rounds"]:]
        most_revenue = max(step["revenue"] for step in steps)
        if most_revenue >= 1.0:
            raise TrafficGuardError(
                f"serve_live load left the crunch: a round kept revenue {most_revenue}"
            )
        if steps[-1]["failed_nodes"] != self.stream.failed_nodes():
            raise CheckFailed(
                f"serve_live: the server reports {steps[-1]['failed_nodes']} failed nodes, "
                f"the mutations sent leave {self.stream.failed_nodes()}"
            )
        result.checks += ["traffic_guard", "failed_nodes"]
        # The 99th percentile of a few hundred mutations is the third- or
        # fourth-latest of them, and the mutations of one POST share its lag:
        # on a shared host one slow wake-up of this process decides it.  That
        # says nothing about the server's outputs and does not move the median
        # latency, so a late generator is a warning, not a failed run.
        lag_p99 = 1000.0 * percentile(steady.lags, 0.99)
        if lag_p99 > self.MAX_LAG_MS:
            result.warnings.append(
                f"serve_live: the load generator ran late (lag p99 {lag_p99:.2f} ms, "
                f"limit {self.MAX_LAG_MS} ms): the tail latencies are partly its own"
            )
        else:
            result.checks.append("loadgen_lag")
        await self._check_offline(result)
        rounds = after["rounds"] - before["rounds"]
        round_p50 = 1000.0 * after["round_seconds"]["p50"]
        admission_p50 = percentile(result.op_ms, 0.50)
        result.layers = {
            "serve.round_p50_ms": round_p50,
            "serve.round_p99_ms": 1000.0 * after["round_seconds"]["p99"],
            "serve.rounds": float(rounds),
            "serve.mutations_per_round": (after["mutations"] - before["mutations"]) / rounds,
            "serve.dropped_events": float(after["dropped_events"]),
            "serve.queue_share": 1.0 - round_p50 / admission_p50,
            "serve.admission_p90_ms": percentile(result.op_ms, 0.90),
            "serve.admission_p99_ms": percentile(result.op_ms, 0.99),
            "serve.admission_p999_ms": percentile(result.op_ms, 0.999),
            "serve.rejected_429": float(steady.refused + saturated.refused),
            "serve.errors": float(steady.failed + saturated.failed),
            "serve.loadgen_lag_p99_ms": lag_p99,
            "serve.connection_wait_p99_ms": 1000.0 * percentile(steady.waits, 0.99),
            "serve.ws_delivery_ratio": self.subscriber.rounds / after["rounds"],
        }
        return result

    async def _check_offline(self, result: PassResult) -> None:
        """The served state must equal an offline replay of the served trace."""
        client = self.clients[0]
        digest = (await client.get_json("/digest"))["digest"]
        recorded = await client.get_json("/trace")
        scenario = {cell: Trace.loads(text) for cell, text in recorded["cells"].items()}
        offline = build_fleet(**self.config["fleet"])
        try:
            started = time.perf_counter()
            FleetReplayer(offline, seed=self.config["seed"], workers=1).run(scenario)
            self._offline_round_ms = 1000.0 * (time.perf_counter() - started) / recorded["rounds"]
            if fleet_digest(offline) != digest:
                raise CheckFailed("serve_live: served state differs from its offline replay")
        finally:
            offline.close()
        result.digest = digest
        result.checks.append("offline_digest")

    async def _offline_layers(self) -> dict[str, float]:
        """In-process costs of the parts of a round, on the recorded session."""
        parse = []
        for raw in self._steady.requests + self._saturated.requests:
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            started = time.perf_counter()
            await read_request(reader)
            parse.append(time.perf_counter() - started)
        frame = []
        for payload in self.subscriber.round_payloads:
            started = time.perf_counter()
            text_frame(payload)
            frame.append(time.perf_counter() - started)
        _header, batches = WriteAheadLog.read(self.wal_path)
        mutations = sum(len(batch["mutations"]) for batch in batches)
        append = []
        scratch_wal = WriteAheadLog(os.path.join(self.scratch, "replay.wal"), header={})
        try:
            for batch in batches[-200:]:
                started = time.perf_counter()
                scratch_wal.append_batch(batch["round"], batch["mutations"])
                append.append(time.perf_counter() - started)
        finally:
            scratch_wal.close()
        return {
            "serve.http_parse_us": 1e6 * statistics.median(parse),
            "serve.ws_frame_us": 1e6 * statistics.median(frame),
            "serve.wal_append_ms": 1e3 * statistics.median(append),
            "serve.wal_bytes_per_mutation": os.path.getsize(self.wal_path) / mutations,
            "serve.fleet_round_ms": self._offline_round_ms,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (StormDense, ChurnHealthy, ChurnDegraded, FleetOutage, ServeLive)
}
