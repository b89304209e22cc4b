"""The fleet engine: many PhoenixEngines federated into one control plane.

:class:`FleetEngine` owns N *cells* — independent failure domains, each a
``(PhoenixEngine, StateBackend)`` pair built through the standard
:mod:`repro.api` machinery — and composes them behind one reconcile surface:

1. **Per-cell rounds.**  Every cell runs its own monitor → plan → execute
   round, serially or sharded across worker processes (``workers=N``).
   Parallel rounds are byte-identical to serial ones: workers run the same
   engine code on the same states and the results are merged in
   deterministic cell order (the discipline of the CLI's sharded sweep).
2. **Fleet coordination.**  Each round yields one
   :class:`~repro.fleet.summary.CellSummary` per cell; from those the fleet
   computes residual critical demand, asks the configured
   :class:`~repro.fleet.spillover.SpilloverPolicy` for donor placements,
   and applies them two-phase — plan first over every donor's free
   capacity, then register clone applications on the donors and let each
   donor's *own* engine place them (so no cross-cell action can violate a
   cell's capacity).
3. **Events.**  Per-cell engine events are re-emitted on the fleet-level
   bus wrapped in :class:`~repro.fleet.events.CellEvent`; the federation
   layer adds :class:`~repro.fleet.events.CellDegraded`,
   :class:`~repro.fleet.events.SpilloverPlanned` and
   :class:`~repro.fleet.events.SpilloverReleased`.

A single-cell fleet is a transparent facade: its reports and its state
evolution are byte-identical to driving the bare :class:`PhoenixEngine`
directly (no spillover donors exist, so the federation layer never acts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro import obs
from repro.adaptlab.metrics import potential_revenue
from repro.api.engine import PhoenixEngine
from repro.api.events import (
    ActionsExecuted,
    EventBus,
    FailureDetected,
    Observer,
    PlanComputed,
    RecoveryDetected,
)
from repro.cluster.state import ClusterState
from repro.core.controller import ReconcileReport, StateBackend

from repro.fleet.config import FleetConfig
from repro.fleet.events import (
    CellDegraded,
    CellEvent,
    SpilloverPlanned,
    SpilloverReleased,
)
from repro.fleet.partition import partition_state
from repro.fleet.spillover import (
    DonorCapacity,
    MsSpec,
    ResidualDemand,
    SpilloverAssignment,
    build_clone_application,
    resolve_spillover,
)
from repro.fleet.summary import (
    CellSummary,
    clone_name,
    fleet_availability,
    fleet_revenue,
    fleet_utilization,
    is_clone,
    summarize_cell,
)


class Cell:
    """One failure domain: a named (engine, backend) pair plus its reference.

    ``reference_revenue`` is the cell's pre-failure revenue potential,
    frozen at fleet construction — the denominator for fleet-level revenue
    normalization (clones registered later earn into the numerator only).
    """

    __slots__ = ("name", "engine", "backend", "reference_revenue")

    def __init__(
        self,
        name: str,
        engine: PhoenixEngine,
        backend: StateBackend,
        reference_revenue: float,
    ) -> None:
        self.name = name
        self.engine = engine
        self.backend = backend
        self.reference_revenue = reference_revenue

    @property
    def state(self) -> ClusterState:
        return self.backend.state

    def __repr__(self) -> str:
        return f"Cell(name={self.name!r}, nodes={len(self.state.nodes)})"


class SpilloverEntry(NamedTuple):
    """Ledger record: one active spillover of one application."""

    donor: str
    microservices: tuple[str, ...]
    assignment: SpilloverAssignment


@dataclass(frozen=True)
class RoundPlan:
    """The federation decisions of one round (pure; applied separately).

    ``releases`` are ledger entries to withdraw (source recovered or plan
    superseded), ``assignments`` the newly planned spillovers, ``degraded``
    the per-cell *new* residual demand (event payloads), ``unplaced`` the
    residuals no donor could take this round.
    """

    releases: tuple[tuple[tuple[str, str], SpilloverEntry], ...] = ()
    assignments: tuple[SpilloverAssignment, ...] = ()
    degraded: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()
    unplaced: tuple[tuple[str, str], ...] = ()
    residuals: tuple[tuple[str, str], ...] = ()
    #: Donor capacities the plan was computed against (for failure records).
    donors: tuple[DonorCapacity, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.releases or self.assignments)


@dataclass
class FleetReport:
    """What happened during one fleet reconcile round."""

    cell_reports: dict[str, ReconcileReport] = field(default_factory=dict)
    spillover_reports: dict[str, ReconcileReport] = field(default_factory=dict)
    summaries: dict[str, CellSummary] = field(default_factory=dict)
    degraded_cells: tuple[str, ...] = ()
    planned: tuple[SpilloverAssignment, ...] = ()
    released: tuple[SpilloverAssignment, ...] = ()
    unplaced: tuple[tuple[str, str], ...] = ()
    availability: float = 1.0
    revenue: float = 0.0
    utilization: float = 0.0

    @property
    def triggered(self) -> bool:
        return (
            any(r.triggered for r in self.cell_reports.values())
            or bool(self.planned)
            or bool(self.released)
        )

    @property
    def actions_executed(self) -> int:
        return sum(r.actions_executed for r in self.cell_reports.values()) + sum(
            r.actions_executed for r in self.spillover_reports.values()
        )


def state_signature(state: ClusterState) -> tuple:
    """Cheap drift check for the pooled reconcile's delta protocol.

    Assignment count plus the all-nodes capacity/usage accumulators, all
    bit-exact: node health changes touch none of them, so a mismatch means
    the parent state mutated in a way a health delta cannot express and the
    worker shard needs a full resync.
    """
    used = state.total_used(healthy_only=False)
    capacity = state.total_capacity(healthy_only=False)
    return (len(state.assignments), used.cpu, used.memory, capacity.cpu, capacity.memory)


def step_cells(
    cells: Sequence[Cell],
    events_by_cell: Mapping[str, Sequence],
    seed: int,
    force: bool,
    *,
    with_events: bool = True,
) -> list[CellSummary]:
    """Apply trace events and run one reconcile round per cell, in order.

    The single implementation behind both replay executors (the serial
    in-process one and the worker shards): one copy of the step logic is
    what makes the serial-vs-sharded byte-identity contract structural
    rather than a discipline three call sites must each uphold.

    ``with_events=False`` is the observer fast path: the per-node
    failure/recovery name tuples exist *only* to feed fleet-bus event
    payloads, so when the replay's bus has no subscribers the summaries
    skip building (and, sharded, shipping) them — a whole-cell outage
    otherwise drags tens of thousands of node names through the pipe per
    step that nobody reads.  Federation decisions and metrics never touch
    those tuples, so the replay output is byte-identical either way.
    """
    from repro.traces.replayer import apply_trace_event

    summaries: list[CellSummary] = []
    for cell in cells:
        for event in events_by_cell.get(cell.name, ()):
            apply_trace_event(cell.state, event, seed=seed)
        report = cell.engine.reconcile(cell.backend, force=force)
        summaries.append(
            summarize_cell(
                cell.name,
                cell.state,
                cell.reference_revenue,
                triggered=report.triggered,
                failed_nodes=report.failed_nodes if with_events else (),
                recovered_nodes=report.recovered_nodes if with_events else (),
                actions=report.actions_executed,
            )
        )
    return summaries


def adjust_cells(
    cells: Sequence[Cell],
    removes: Sequence[tuple[str, str]],
    adds: Sequence[SpilloverAssignment],
) -> tuple[dict[str, CellSummary], dict[str, ReconcileReport], list[SpilloverAssignment]]:
    """Withdraw and register spillover clones on ``cells`` (phase two).

    All removals land before any registration (two-phase, like the action
    applier), then each receiving donor runs one *forced* engine round so
    its own planner places the guests under real per-node capacity.  A
    clone the donor could not fully run — aggregate capacity fit at the
    fleet level but per-node packing refused — is **rolled back** on the
    spot and returned in the failed list, so no stranded half-placed clone
    ever survives a round.  Cells not present in ``cells`` are skipped
    (worker shards only own a subset).  Returns post-adjust summaries for
    every touched cell, the donors' forced-round reports, and the failed
    assignments (order follows the given cell order; consumers must not
    depend on it).
    """
    by_name = {cell.name: cell for cell in cells}
    touched: dict[str, None] = {}
    receiving: dict[str, list[SpilloverAssignment]] = {}
    for donor_name, app_name in removes:
        cell = by_name.get(donor_name)
        if cell is None:
            continue
        if app_name in cell.state.applications:
            cell.state.remove_application(app_name)
        touched[donor_name] = None
    for assignment in adds:
        cell = by_name.get(assignment.donor_cell)
        if cell is None:
            continue
        cell.state.add_application(build_clone_application(assignment))
        touched[assignment.donor_cell] = None
        receiving.setdefault(assignment.donor_cell, []).append(assignment)
    reports: dict[str, ReconcileReport] = {}
    failed: list[SpilloverAssignment] = []
    for cell in cells:  # deterministic donor order within this cell set
        placed = receiving.get(cell.name)
        if not placed:
            continue
        reports[cell.name] = cell.engine.reconcile(cell.backend, force=True)
        for assignment in placed:
            name = clone_name(assignment.app, assignment.source_cell)
            running = all(
                cell.state.running_replicas(name, ms.name) >= ms.replicas
                for ms in assignment.microservices
            )
            if not running:
                cell.state.remove_application(name)
                failed.append(assignment)
    summaries = {
        name: summarize_cell(
            name,
            by_name[name].state,
            by_name[name].reference_revenue,
            triggered=name in reports,
            actions=reports[name].actions_executed if name in reports else 0,
        )
        for name in touched
    }
    return summaries, reports, failed


class FleetEngine:
    """Facade federating many :class:`PhoenixEngine` cells into one fleet.

    Parameters
    ----------
    config:
        Fleet description (cell count, partitioner, spillover policy,
        per-cell engine overrides); defaults to ``FleetConfig()``.
    state:
        A whole-cluster state to partition into ``config.cells`` cells via
        the configured partitioner.  Mutually exclusive with ``states``.
    states:
        Explicit per-cell states (sequence in cell order, or a mapping of
        cell name to state).
    observers:
        Handlers subscribed to the fleet event bus at construction.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        *,
        state: ClusterState | None = None,
        states: Sequence[ClusterState] | Mapping[str, ClusterState] | None = None,
        observers: Iterable[Observer] = (),
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        if (state is None) == (states is None):
            raise ValueError("pass exactly one of `state` (to partition) or `states`")
        names = self.config.resolved_cell_names()
        if state is not None:
            cell_states = partition_state(
                state,
                self.config.cells,
                self.config.partitioner,
                seed=self.config.partition_seed,
            )
        elif isinstance(states, Mapping):
            missing = [n for n in names if n not in states]
            if missing:
                raise ValueError(f"states mapping is missing cells: {missing}")
            cell_states = [states[n] for n in names]
        else:
            cell_states = list(states)
        if len(cell_states) != self.config.cells:
            raise ValueError(
                f"expected {self.config.cells} cell states, got {len(cell_states)}"
            )
        self.cells: list[Cell] = [
            Cell(
                name,
                PhoenixEngine(self.config.engine_config_for(name)),
                StateBackend(cell_state),
                potential_revenue(cell_state),
            )
            for name, cell_state in zip(names, cell_states)
        ]
        self._by_name = {cell.name: cell for cell in self.cells}
        self.policy = resolve_spillover(
            self.config.spillover,
            objective=self.config.objective,
            implementation=self.config.implementation,
        )
        self.events = EventBus()
        for observer in observers:
            self.events.subscribe(observer)
        #: (source cell, app) -> active spillover.
        self._ledger: dict[tuple[str, str], SpilloverEntry] = {}
        #: (source cell, app) -> residual ms tuple of the previous round
        #: (CellDegraded fires only when a cell's residual *changes*).
        self._last_residuals: dict[tuple[str, str], tuple[str, ...]] = {}
        #: (source cell, app, donor) -> donor (free cpu, free mem) at the
        #: time the donor's engine refused to place the clone — the plan
        #: skips that donor for that residual until its capacity improves.
        self._spill_failures: dict[tuple[str, str, str], tuple[float, float]] = {}
        #: (cell, app) -> (price, ms name -> spec); seeded at construction
        #: and extended lazily by :meth:`_spec_for` for applications
        #: registered on a cell afterwards.  (Sharded replays cannot add
        #: applications mid-run — trace events only touch nodes — so the
        #: lazy path never diverges between serial and parallel modes.)
        self._app_specs: dict[tuple[str, str], tuple[float, dict[str, MsSpec]]] = {}
        for cell in self.cells:
            for app_name in cell.state.applications:
                self._spec_for(cell.name, app_name)
        #: Persistent shard pool for reconcile(workers>1); created lazily on
        #: the first parallel round and reused across rounds (ship states
        #: once, then per-round deltas).
        self._pool = None
        self._pool_workers = 0
        #: cell name -> (failure order, state signature, dirty generation)
        #: at last worker sync.
        self._sync: dict[str, tuple[tuple[str, ...], tuple, int]] = {}
        #: Test hook: a repro.chaos.infra.FaultPlan handed to the pool at
        #: creation (see repro.fleet.pool.ShardPool).
        self._shard_fault: object | None = None
        #: Test hook: ShardPool substitute (the infra-chaos fuzzer plants
        #: deliberately broken supervisors through this).
        self._pool_class: type | None = None

    # -- introspection ---------------------------------------------------------
    @property
    def cell_names(self) -> tuple[str, ...]:
        return tuple(cell.name for cell in self.cells)

    def cell(self, name: str) -> Cell:
        return self._by_name[name]

    @property
    def spillovers(self) -> Mapping[tuple[str, str], SpilloverEntry]:
        """Read-only view of the active spillover ledger."""
        return dict(self._ledger)

    def __repr__(self) -> str:
        return f"FleetEngine(cells={len(self.cells)}, policy={self.policy.name!r})"

    # -- summaries -------------------------------------------------------------
    def summarize(self) -> list[CellSummary]:
        """Current per-cell summaries, without running a round."""
        return [
            summarize_cell(cell.name, cell.state, cell.reference_revenue)
            for cell in self.cells
        ]

    def summary(self) -> dict[str, CellSummary]:
        """Public per-cell snapshot: cell name → picklable :class:`CellSummary`.

        The supported way for frontends (the serve layer, the CLI, external
        observers) to read fleet state without touching cell internals.
        Pure read: no round runs, no detector state moves.
        """
        return {cell.name: summary for cell, summary in zip(self.cells, self.summarize())}

    def availability(self) -> float:
        """Fleet-wide critical availability (spillover coverage included)."""
        return fleet_availability(self.summarize(), self._ledger)

    # -- the reconcile surface -------------------------------------------------
    def reconcile(self, force: bool = False, workers: int | None = None) -> FleetReport:
        """One fleet round: per-cell reconciles, then cross-cell spillover.

        ``workers`` > 1 shards the per-cell rounds across persistent worker
        processes; the merged outcome is byte-identical to a serial round (worker results
        are folded back in cell order, and the federation phase always runs
        in the parent).  ``force`` forces every cell's round.

        The process pool is created on the first parallel call and **kept**:
        workers own their cells' engines and states across rounds, the
        parent ships only per-round health deltas (derived from the states'
        dirty sets) and mirrors the workers' actions onto its own copies —
        so steady-state IPC is O(churn + report), not O(cluster).  Parent
        states stay authoritative: mutate them freely between rounds (node
        health and structural changes are picked up; structural ones cost a
        one-off state resync).

        With supervision on (``config.supervise``, the default) a dead,
        hung or corrupt worker is restarted — re-seeded from the parent's
        authoritative states with the in-flight round replayed, so the
        merged outcome stays byte-identical — and a crash-looping shard
        degrades (its cells re-home to surviving workers) instead of
        failing the call; :class:`~repro.fleet.events.ShardRestarted` /
        :class:`~repro.fleet.events.ShardDegraded` surface on the fleet
        bus.  With ``supervise=False`` a worker fault raises
        :exc:`repro.fleet.pool.ShardFailure` *before* any fold-back,
        leaving the fleet state unchanged; the next call rebuilds the pool.
        """
        with obs.tracer().span("fleet.round"):
            report = self._reconcile(force, workers)
        registry = obs.registry()
        if registry.enabled:
            registry.counter("fleet.rounds").inc()
            if report.planned:
                registry.counter("fleet.spillovers_planned").inc(len(report.planned))
            if report.released:
                registry.counter("fleet.spillovers_released").inc(len(report.released))
        return report

    def _reconcile(self, force: bool, workers: int | None) -> FleetReport:
        workers = self.config.workers if workers is None else workers
        if workers < 1:
            raise ValueError("workers must be >= 1")
        reports = self._phase_cells(force, min(workers, len(self.cells)))
        for cell, report in zip(self.cells, reports):
            self._emit_cell_report(cell.name, report)
        summaries = [
            summarize_cell(
                cell.name,
                cell.state,
                cell.reference_revenue,
                triggered=report.triggered,
                failed_nodes=report.failed_nodes,
                recovered_nodes=report.recovered_nodes,
                actions=report.actions_executed,
            )
            for cell, report in zip(self.cells, reports)
        ]
        plan = self.plan_spillover(summaries)
        updated, spill_reports, failed = self.apply_spillover(plan)
        self.commit_spillover(plan, failed)
        for donor_name, report in spill_reports.items():
            self._emit_cell_report(donor_name, report)
        final = {s.cell: s for s in summaries}
        final.update(updated)
        ordered = [final[cell.name] for cell in self.cells]
        failed_keys = {(a.source_cell, a.app) for a in failed}
        return FleetReport(
            cell_reports={c.name: r for c, r in zip(self.cells, reports)},
            spillover_reports=spill_reports,
            summaries=final,
            degraded_cells=tuple(cell for cell, _ in plan.degraded),
            planned=tuple(
                a
                for a in plan.assignments
                if (a.source_cell, a.app) not in failed_keys
            ),
            released=tuple(e.assignment for _, e in plan.releases),
            unplaced=plan.unplaced
            + tuple((a.source_cell, a.app) for a in failed),
            availability=fleet_availability(ordered, self._ledger),
            revenue=fleet_revenue(ordered),
            utilization=fleet_utilization(ordered),
        )

    def _phase_cells(self, force: bool, workers: int) -> list[ReconcileReport]:
        """Per-cell rounds, serial or sharded; results in cell order."""
        if workers <= 1 or len(self.cells) == 1:
            return [cell.engine.reconcile(cell.backend, force=force) for cell in self.cells]
        return self._phase_cells_pooled(force, workers)

    def _ensure_pool(self, workers: int):
        """The persistent shard pool, (re)built when absent or resized."""
        from repro.fleet.pool import ShardPool

        if self._pool is not None and self._pool_workers != workers:
            self.close()
        if self._pool is None:
            pool_class = self._pool_class or ShardPool
            self._pool = pool_class(
                self.cells,
                workers=workers,
                fault=self._shard_fault,
                supervisor=self.config.supervisor_config(),
                on_event=self.events.emit,
            )
            self._pool_workers = workers
            # The pool just shipped the current states; baseline the delta
            # tracking against them (drain discards pre-existing dirt).
            for cell in self.cells:
                drained = cell.state.drain_dirty()
                self._sync[cell.name] = (
                    cell.state.failure_order(),
                    state_signature(cell.state),
                    drained.end_generation,
                )
        return self._pool

    def _cell_delta(self, cell: Cell) -> tuple:
        """What one worker shard needs to catch up to the parent's state.

        Health-only churn (the supported between-rounds mutation, and the
        only kind trace replays produce) ships as an O(churn) diff against
        the failure registry *in failure order* — that order drives
        eviction order and therefore every downstream byte — plus the
        parent's healthy-capacity float accumulators, which the worker
        adopts bit-for-bit (the diff may reach the same failed set through
        a different op sequence, and float addition is not associative).
        Structural changes (applications or nodes added/removed, e.g. by a
        spillover adjustment), signature drift, and competing dirty-set
        consumers (a serial engine round drained dirt this tracker never
        saw — detected via the generation token, PR 4's discipline) all
        fall back to shipping the whole state.
        """
        state = cell.state
        dirty = state.drain_dirty()
        synced = self._sync.get(cell.name)
        current = state.failure_order()
        signature = state_signature(state)
        if (
            synced is None
            or dirty.structural
            or dirty.base_generation != synced[2]
            or signature != synced[1]
        ):
            registry = obs.registry()
            if registry.enabled:
                registry.counter("fleet.state_resyncs").inc()
            return ("full", state, cell.engine.known_failed)
        last = synced[0]
        common = 0
        for a, b in zip(last, current):
            if a != b:
                break
            common += 1
        return ("delta", last[common:], current[common:], state.health_aggregates())

    def _phase_cells_pooled(self, force: bool, workers: int) -> list[ReconcileReport]:
        """One pooled round: ship deltas, gather reports, mirror actions.

        The workers' engines run the round; the parent replays each
        triggered cell's ordered action list onto its own state through
        :func:`repro.core.scheduler.apply_actions` — the *same* single
        mutation path a serial round uses — so parent and worker states
        stay bit-identical without shipping states back.  All replies are
        gathered before any mirroring, so a worker failure leaves the
        fleet state untouched.
        """
        from repro.core.scheduler import apply_actions
        from repro.fleet.pool import ShardFailure

        pool = self._ensure_pool(workers)
        deltas = {cell.name: self._cell_delta(cell) for cell in self.cells}
        try:
            replies = pool.round(deltas, force)
        except ShardFailure:
            self._pool = None
            self._sync.clear()
            raise
        reports: list[ReconcileReport] = []
        for cell, (report, known) in zip(self.cells, replies):
            if report.triggered and report.schedule is not None:
                apply_actions(cell.state, report.schedule.ordered_actions())
            cell.engine.known_failed = known
            # Absorb the mirror's dirt and re-baseline for the next delta.
            drained = cell.state.drain_dirty()
            self._sync[cell.name] = (
                cell.state.failure_order(),
                state_signature(cell.state),
                drained.end_generation,
            )
            reports.append(report)
        return reports

    def _emit_cell_report(self, cell: str, report: ReconcileReport) -> None:
        """Re-emit one cell round's engine events, tagged, on the fleet bus."""
        bus = self.events
        if not bus:
            return
        if report.failed_nodes:
            bus.emit(CellEvent(cell, FailureDetected(nodes=tuple(report.failed_nodes))))
        if report.recovered_nodes:
            bus.emit(CellEvent(cell, RecoveryDetected(nodes=tuple(report.recovered_nodes))))
        if report.triggered and report.schedule is not None:
            bus.emit(
                CellEvent(
                    cell,
                    PlanComputed(
                        plan=report.plan,
                        schedule=report.schedule,
                        planning_seconds=report.planning_seconds,
                    ),
                )
            )
            bus.emit(
                CellEvent(
                    cell,
                    ActionsExecuted(actions=tuple(report.schedule.ordered_actions())),
                )
            )

    # -- federation phases (shared with the replay executors) -------------------
    def _spec_for(self, cell: str, app: str) -> tuple[float, dict[str, MsSpec]] | None:
        """The (price, ms specs) of one application, cached lazily.

        Reads the parent-held cell state on a miss, so applications
        registered after fleet construction still participate in spillover
        planning.  Returns ``None`` for unknown or clone applications.
        """
        key = (cell, app)
        spec = self._app_specs.get(key)
        if spec is None and not is_clone(app):
            application = self._by_name[cell].state.applications.get(app)
            if application is None:
                return None
            spec = (
                application.price_per_unit,
                {
                    ms.name: MsSpec(
                        name=ms.name,
                        cpu=ms.resources.cpu,
                        memory=ms.resources.memory,
                        replicas=ms.replicas,
                        criticality=ms.criticality.level,
                        stateful=ms.stateful,
                    )
                    for ms in application
                },
            )
            self._app_specs[key] = spec
        return spec

    def plan_spillover(self, summaries: Sequence[CellSummary]) -> RoundPlan:
        """Pure federation decision for one round, from per-cell summaries.

        Reads (but does not mutate) the ledger and the placement-failure
        memory: releases for recovered sources, residual demand for
        uncovered critical microservices, the policy's donor assignments
        for those residuals.  Donors that previously refused a residual's
        clone are skipped until their free capacity improves, with the
        policy re-planned against the remaining donors.  Deterministic in
        the summaries, so serial and parallel rounds decide identically.
        """
        releases: list[tuple[tuple[str, str], SpilloverEntry]] = []
        residuals: list[ResidualDemand] = []
        degraded: dict[str, list[tuple[str, str]]] = {}
        degraded_cells = {s.cell for s in summaries if s.degraded}
        for summary in summaries:
            missing: dict[str, tuple[str, ...]] = {}
            for app, ms in summary.missing_critical:
                if self._spec_for(summary.cell, app) is not None:
                    missing[app] = ms
            for (cell, app), entry in self._ledger.items():
                if cell != summary.cell:
                    continue
                lacking = missing.get(app)
                if lacking is None:
                    releases.append(((cell, app), entry))  # source recovered
                elif entry.donor in degraded_cells or not set(lacking) <= set(
                    entry.microservices
                ):
                    # The donor itself degraded (cascading failure) or the
                    # source's degradation deepened past the clone: supersede
                    # the entry and re-plan the full residual below.
                    releases.append(((cell, app), entry))
            released_keys = {key for key, _ in releases}
            for app, lacking in missing.items():
                key = (summary.cell, app)
                if key in self._ledger and key not in released_keys:
                    continue  # covered by an active spillover
                price, specs = self._app_specs[key]
                demand = ResidualDemand(
                    cell=summary.cell,
                    app=app,
                    price_per_unit=price,
                    microservices=tuple(
                        specs[name] for name in specs if name in set(lacking)
                    ),
                )
                residuals.append(demand)
                if self._last_residuals.get(key) != lacking:
                    degraded.setdefault(summary.cell, []).append((app, lacking))
        donors = [
            DonorCapacity(summary.cell, summary.free_cpu, summary.free_mem)
            for summary in summaries
            if not summary.degraded
        ]
        assignments = self._plan_assignments(donors, residuals)
        assigned = {(a.source_cell, a.app) for a in assignments}
        unplaced = tuple(
            (r.cell, r.app) for r in residuals if (r.cell, r.app) not in assigned
        )
        degraded_rows = tuple(
            (cell, tuple((app, ms) for app, lacking in rows for ms in lacking))
            for cell, rows in degraded.items()
        )
        return RoundPlan(
            releases=tuple(releases),
            assignments=assignments,
            degraded=degraded_rows,
            unplaced=unplaced,
            residuals=tuple((r.cell, r.app) for r in residuals),
            donors=tuple(donors),
        )

    def _plan_assignments(
        self, donors: list[DonorCapacity], residuals: list[ResidualDemand]
    ) -> tuple[SpilloverAssignment, ...]:
        """Run the policy, excluding donors known to refuse what they get.

        A donor whose engine previously rolled back a residual's clone
        (per-node fragmentation the aggregate capacity hides) is *stale*
        for that residual until its free capacity grows past the recorded
        failure point.  When the policy picks a stale pairing, the donor is
        dropped from the pool and the policy re-planned — at most one
        iteration per donor, fully deterministic.
        """
        if not donors or not residuals:
            return ()
        donor_by_cell = {donor.cell: donor for donor in donors}
        excluded: set[str] = set()
        while True:
            pool = [donor for donor in donors if donor.cell not in excluded]
            candidates = tuple(self.policy.plan(pool, residuals))
            stale: set[str] = set()
            for assignment in candidates:
                record = self._spill_failures.get(
                    (assignment.source_cell, assignment.app, assignment.donor_cell)
                )
                if record is None:
                    continue
                donor = donor_by_cell[assignment.donor_cell]
                if (
                    donor.free_cpu <= record[0] + 1e-9
                    and donor.free_mem <= record[1] + 1e-9
                ):
                    stale.add(assignment.donor_cell)
            if not stale:
                return candidates
            excluded |= stale

    def apply_spillover(
        self, plan: RoundPlan
    ) -> tuple[
        dict[str, CellSummary],
        dict[str, ReconcileReport],
        list[SpilloverAssignment],
    ]:
        """Apply a round plan to the parent-held cell states (two-phase).

        Phase one already happened (the plan was computed against every
        donor's free capacity); this is phase two, delegated to
        :func:`adjust_cells`: withdraw released clones, register the newly
        planned ones, one *forced* engine round per receiving donor, and
        roll back clones the donor could not actually run.  Returns fresh
        summaries, the donors' forced-round reports, and the rolled-back
        assignments (feed them to :meth:`commit_spillover`).
        """
        removes = [
            (entry.donor, clone_name(app, cell)) for (cell, app), entry in plan.releases
        ]
        return adjust_cells(self.cells, removes, plan.assignments)

    def commit_spillover(
        self, plan: RoundPlan, failed: Sequence[SpilloverAssignment] = ()
    ) -> None:
        """Record a round's outcome in the ledger and emit federation events.

        ``failed`` are assignments phase two rolled back (the donor's
        engine could not run the clone); they get a placement-failure
        record — keyed by the donor capacity the plan saw — instead of a
        ledger entry, so the next round re-plans them against other donors
        and retries this one only once its capacity improves.
        """
        bus = self.events
        failed_keys = {(a.source_cell, a.app) for a in failed}
        donor_by_cell = {donor.cell: donor for donor in plan.donors}
        residual_keys = set(plan.residuals)
        for cell, missing in plan.degraded:
            if bus:
                bus.emit(CellDegraded(cell=cell, missing=missing))
        for key, entry in plan.releases:
            self._ledger.pop(key, None)
            if bus:
                assignment = entry.assignment
                bus.emit(
                    SpilloverReleased(
                        source_cell=assignment.source_cell,
                        donor_cell=assignment.donor_cell,
                        app=assignment.app,
                        microservices=entry.microservices,
                    )
                )
            if key not in residual_keys:
                # Source fully recovered: forget its placement failures so a
                # future incident starts with a clean donor slate.
                self._spill_failures = {
                    k: v for k, v in self._spill_failures.items() if k[:2] != key
                }
        for assignment in plan.assignments:
            key = (assignment.source_cell, assignment.app)
            donor_key = (assignment.source_cell, assignment.app, assignment.donor_cell)
            if key in failed_keys:
                donor = donor_by_cell.get(assignment.donor_cell)
                if donor is not None:
                    self._spill_failures[donor_key] = (donor.free_cpu, donor.free_mem)
                continue
            self._spill_failures.pop(donor_key, None)
            names = tuple(ms.name for ms in assignment.microservices)
            self._ledger[key] = SpilloverEntry(
                donor=assignment.donor_cell,
                microservices=names,
                assignment=assignment,
            )
            if bus:
                bus.emit(
                    SpilloverPlanned(
                        source_cell=assignment.source_cell,
                        donor_cell=assignment.donor_cell,
                        app=assignment.app,
                        microservices=names,
                        cpu=assignment.cpu,
                        memory=assignment.memory,
                    )
                )
        # Residual snapshot for the next round's CellDegraded dedup: keep
        # exactly the residuals seen this round (planned or not).
        snapshot: dict[tuple[str, str], tuple[str, ...]] = {}
        for cell, missing in plan.degraded:
            by_app: dict[str, list[str]] = {}
            for app, ms in missing:
                by_app.setdefault(app, []).append(ms)
            for app, names in by_app.items():
                snapshot[(cell, app)] = tuple(names)
        for key in plan.residuals:
            if key not in snapshot:
                snapshot[key] = self._last_residuals.get(key, ())
        self._last_residuals = snapshot

    def reset(self) -> None:
        """Forget detection state in every cell engine (scenario replays).

        Also tears down the persistent reconcile pool: worker shards hold
        detector checkpoints that a reset must not survive.  The next
        parallel round rebuilds the pool from the current states.
        """
        self.close()
        for cell in self.cells:
            cell.engine.reset()

    def close(self) -> None:
        """Stop the persistent reconcile worker pool, if one is running.

        Idempotent; the fleet stays fully usable (serial rounds need no
        pool, and the next parallel round builds a fresh one).
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._sync.clear()

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
