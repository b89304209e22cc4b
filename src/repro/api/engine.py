"""The Phoenix engine: one facade over the plan → pack → diff pipeline.

:class:`PhoenixEngine` is the single way to drive Phoenix.  Every frontend
in the repository is a thin wrapper over it:

* the controller loop (:class:`repro.core.controller.PhoenixController`)
  calls :meth:`PhoenixEngine.reconcile` per monitoring round,
* the AdaptLab schemes wrap :meth:`PhoenixEngine.respond` through
  :class:`repro.api.adapters.SchemeAdapter`,
* kubesim, chaos and the examples go through :func:`engine` (the module
  entrypoint) and :func:`backend_for` (backend auto-wrapping).

The engine is configured by :class:`~repro.api.config.EngineConfig` and
composed of three pluggable stages (:class:`~repro.api.stages.Ranker`,
:class:`~repro.api.stages.Packer`, :class:`~repro.api.stages.Differ`);
non-stage pipelines (the exact LP) plug in via :class:`SchedulePipeline`.
Observers subscribe to the engine's typed event stream
(:mod:`repro.api.events`).
"""

from __future__ import annotations

import time
from typing import Iterable, Protocol, runtime_checkable

from repro import obs
from repro.cluster.state import ClusterState
from repro.core.controller import ClusterBackend, ReconcileReport, StateBackend
from repro.core.incremental import DEFAULT_DIRTY_NODE_THRESHOLD, IncrementalScheduler
from repro.core.objectives import OperatorObjective
from repro.core.packing import PackingHeuristic
from repro.core.plan import Action, ActivationPlan, SchedulePlan
from repro.core.scheduler import apply_schedule

from repro.api.config import EngineConfig
from repro.api.events import (
    ActionsExecuted,
    EventBus,
    FailureDetected,
    Observer,
    PlanComputed,
    RecoveryDetected,
)
from repro.api.stages import Differ, Packer, Ranker, build_stages


@runtime_checkable
class SchedulePipeline(Protocol):
    """Anything that can turn a cluster state into a schedule.

    The engine only needs ``compute``; the activation plan slot is ``None``
    for pipelines that do not produce one (e.g. the exact LP).
    """

    name: str

    def compute(
        self, state: ClusterState
    ) -> tuple[ActivationPlan | None, SchedulePlan]: ...


class StagePipeline:
    """The Phoenix-shaped pipeline: rank → pack → diff.

    ``schedule`` reproduces :meth:`repro.core.scheduler.PhoenixScheduler.schedule`
    exactly: packing runs on a node-sharing copy of the live state, and the
    differ compares the live assignment against the packed target.

    With ``incremental`` (and the stock fast packer) the per-round copy is
    replaced by the persistent scratch state of
    :class:`repro.core.incremental.IncrementalScheduler`, so reconcile
    rounds against the same live state cost O(churn) instead of O(cluster)
    while producing byte-identical schedules.  Custom packers and the
    golden reference stages silently keep the classic path.
    """

    def __init__(
        self,
        ranker: Ranker,
        packer: Packer,
        differ: Differ,
        name: str = "phoenix",
        *,
        incremental: bool = False,
        dirty_node_threshold: float = DEFAULT_DIRTY_NODE_THRESHOLD,
    ) -> None:
        self.ranker = ranker
        self.packer = packer
        self.differ = differ
        self.name = name
        self._incremental: IncrementalScheduler | None = None
        stock = isinstance(packer, PackingHeuristic)
        #: Incremental was asked for but this packer cannot keep the index.
        self._non_stock_packer = incremental and not stock
        if incremental and stock:
            self._incremental = IncrementalScheduler(
                packer, differ, dirty_node_threshold=dirty_node_threshold
            )

    @property
    def incremental(self) -> IncrementalScheduler | None:
        """The incremental scheduler, when this pipeline runs one."""
        return self._incremental

    def invalidate(self) -> None:
        """Drop incremental caches; the next round recomputes fully."""
        if self._incremental is not None:
            self._incremental.invalidate()

    def plan(self, state: ClusterState) -> ActivationPlan:
        with obs.tracer().span("rank"):
            return self.ranker.plan(state)

    def schedule(self, state: ClusterState, plan: ActivationPlan) -> SchedulePlan:
        if self._incremental is not None:
            # The incremental scheduler fuses pack and diff over its scratch
            # state; it reports its own fast/full mode (see core.incremental).
            with obs.tracer().span("pack", mode="incremental"):
                return self._incremental.schedule(state, plan)
        if self._non_stock_packer:
            registry = obs.registry()
            if registry.enabled:
                registry.counter(
                    "engine.incremental.full_rounds", reason="non_stock_packer"
                ).inc()
        working = state.copy(share_nodes=True)
        tracer = obs.tracer()
        with tracer.span("pack"):
            packing = self.packer.pack(working, plan)
        with tracer.span("diff"):
            actions = self.differ(state, packing)
        return SchedulePlan(
            target_assignment=packing.assignment,
            actions=actions,
            unplaced=packing.unplaced,
        )

    def compute(self, state: ClusterState) -> tuple[ActivationPlan, SchedulePlan]:
        plan = self.plan(state)
        return plan, self.schedule(state, plan)


class LPPipeline:
    """Exact-solver pipeline: the solver emits the schedule directly.

    ``solver`` is anything with ``solve(state)`` returning an object with
    ``to_schedule_plan(state)`` — both ILP formulations in
    :mod:`repro.core.lp` qualify.
    """

    def __init__(self, solver, name: str = "lp") -> None:
        self.solver = solver
        self.name = name

    def compute(self, state: ClusterState) -> tuple[None, SchedulePlan]:
        solution = self.solver.solve(state)
        return None, solution.to_schedule_plan(state)


def backend_for(target) -> ClusterBackend:
    """Wrap ``target`` into something satisfying the ``ClusterBackend`` protocol.

    * A backend (has ``observe`` and ``execute``) passes through unchanged.
    * A bare :class:`ClusterState` is wrapped in a
      :class:`~repro.core.controller.StateBackend` (instantaneous actions).
    * Anything exposing a ``phoenix_backend()`` factory (e.g.
      :class:`repro.kubesim.KubeCluster`) is asked to produce its own.
    """
    observe = getattr(target, "observe", None)
    execute = getattr(target, "execute", None)
    if callable(observe) and callable(execute):
        return target
    if isinstance(target, ClusterState):
        return StateBackend(target)
    maker = getattr(target, "phoenix_backend", None)
    if callable(maker):
        return maker()
    raise TypeError(
        f"cannot derive a ClusterBackend from {type(target).__name__}: expected a "
        "backend (observe/execute), a ClusterState, or an object with a "
        "phoenix_backend() factory"
    )


class PhoenixEngine:
    """Facade over the Phoenix pipeline: plan, schedule, respond, reconcile.

    Parameters
    ----------
    config:
        Declarative engine description; defaults to ``EngineConfig()``
        (revenue objective, fast stages).
    ranker / packer / differ:
        Per-stage overrides.  Anything satisfying the stage protocols plugs
        in; unspecified stages come from ``config``.
    pipeline:
        A complete :class:`SchedulePipeline` replacing the stage triple
        entirely (used for the exact-LP engines).  Mutually exclusive with
        stage overrides.
    observers:
        Event handlers subscribed to every event at construction.

    One engine drives one cluster: :meth:`reconcile` keeps the failure
    detector's known-failed set across rounds, so interleaving backends of
    different clusters through the same engine confuses detection (build one
    engine per cluster instead — they are cheap).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        ranker: Ranker | None = None,
        packer: Packer | None = None,
        differ: Differ | None = None,
        pipeline: SchedulePipeline | None = None,
        observers: Iterable[Observer] = (),
        name: str | None = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self._objective: OperatorObjective | None = None
        if pipeline is not None:
            if ranker is not None or packer is not None or differ is not None:
                raise ValueError("pass either a full pipeline or stage overrides, not both")
            self.pipeline: SchedulePipeline = pipeline
        else:
            default_ranker, default_packer, default_differ = build_stages(self.config)
            ranker = ranker if ranker is not None else default_ranker
            objective = getattr(ranker, "objective", None)
            self._objective = (
                objective if isinstance(objective, OperatorObjective) else self.config.resolved_objective()
            )
            self.pipeline = StagePipeline(
                ranker=ranker,
                packer=packer if packer is not None else default_packer,
                differ=differ if differ is not None else default_differ,
                name=f"phoenix-{self._objective.name}",
                incremental=self.config.incremental,
                dirty_node_threshold=self.config.incremental_dirty_threshold,
            )
        self._name = name
        self.events = EventBus()
        for observer in observers:
            self.events.subscribe(observer)
        self._known_failed: set[str] | None = None

    @classmethod
    def from_pipeline(
        cls,
        pipeline: SchedulePipeline,
        name: str | None = None,
        observers: Iterable[Observer] = (),
    ) -> "PhoenixEngine":
        """Build an engine around a complete pipeline (e.g. :class:`LPPipeline`)."""
        return cls(pipeline=pipeline, name=name, observers=observers)

    # -- introspection ---------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name or self.pipeline.name

    @property
    def objective(self) -> OperatorObjective | None:
        """The operator objective, when the pipeline has one (LP engines: None)."""
        return self._objective

    @property
    def ranker(self) -> Ranker | None:
        return getattr(self.pipeline, "ranker", None)

    @property
    def packer(self) -> Packer | None:
        return getattr(self.pipeline, "packer", None)

    @property
    def differ(self) -> Differ | None:
        return getattr(self.pipeline, "differ", None)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    # -- pipeline surface -------------------------------------------------------------
    def plan(self, state: ClusterState) -> ActivationPlan:
        """Stage 1 only: the globally ordered activation plan for ``state``."""
        planner = getattr(self.pipeline, "plan", None)
        if planner is None:
            raise NotImplementedError(
                f"pipeline {self.pipeline.name!r} does not expose a standalone plan stage"
            )
        return planner(state)

    def schedule(self, state: ClusterState, plan: ActivationPlan | None = None) -> SchedulePlan:
        """Schedule ``plan`` (computed if omitted) on ``state`` without executing."""
        scheduler = getattr(self.pipeline, "schedule", None)
        if scheduler is None:
            return self.pipeline.compute(state)[1]
        if plan is None:
            plan = self.plan(state)
        return scheduler(state, plan)

    # -- scheme surface ---------------------------------------------------------------
    def respond(self, state: ClusterState) -> tuple[ClusterState, float]:
        """AdaptLab semantics: (enacted target state, planning seconds).

        ``state`` is not mutated; the schedule is applied wholesale to a
        copy, exactly as the resilience schemes always did.
        """
        started = time.perf_counter()
        plan, schedule = self.pipeline.compute(state)
        elapsed = time.perf_counter() - started
        new_state = state.copy()
        apply_schedule(new_state, schedule)
        self.events.emit(PlanComputed(plan=plan, schedule=schedule, planning_seconds=elapsed))
        return new_state, elapsed

    # -- controller surface -----------------------------------------------------------
    def _detect_changes(self, state: ClusterState) -> tuple[list[str], list[str]]:
        """Diff the observed failed set against the last observation.

        First observation: every already-failed node is reported as newly
        failed and nothing as recovered.
        """
        current_failed = state.failed_names()
        if self._known_failed is None:
            self._known_failed = current_failed
            return sorted(current_failed), []
        newly_failed = sorted(current_failed - self._known_failed)
        recovered = sorted(self._known_failed - current_failed)
        self._known_failed = current_failed
        return newly_failed, recovered

    def reconcile(self, backend, force: bool = False) -> ReconcileReport:
        """One monitor → detect → plan → execute round against ``backend``.

        ``backend`` may be anything :func:`backend_for` accepts.  Planning
        and execution only happen when the failed set changed (or ``force``).
        ``force`` also drops the pipeline's incremental caches, so a forced
        round is always a full recompute.
        """
        with obs.tracer().span("reconcile.round"):
            report = self._reconcile(backend, force)
        registry = obs.registry()
        if registry.enabled:
            registry.counter("engine.rounds").inc()
            if report.failed_nodes:
                registry.counter("engine.events.failure_detected").inc()
            if report.recovered_nodes:
                registry.counter("engine.events.recovery_detected").inc()
            if report.triggered:
                registry.counter("engine.rounds_triggered").inc()
                # Pure observation of an already-computed value: the timing
                # itself came from the untouched hot path above.
                registry.histogram("engine.planning_seconds").observe(
                    report.planning_seconds
                )
                if report.actions_executed:
                    registry.counter("engine.actions_executed").inc(
                        report.actions_executed
                    )
        return report

    def _reconcile(self, backend, force: bool) -> ReconcileReport:
        backend = backend_for(backend)
        state = backend.observe()
        if force:
            invalidate = getattr(self.pipeline, "invalidate", None)
            if callable(invalidate):
                invalidate()
        failed, recovered = self._detect_changes(state)
        if failed:
            self.events.emit(FailureDetected(nodes=tuple(failed)))
        if recovered:
            self.events.emit(RecoveryDetected(nodes=tuple(recovered)))
        triggered = force or bool(failed) or bool(recovered)
        report = ReconcileReport(
            triggered=triggered, failed_nodes=failed, recovered_nodes=recovered
        )
        if not triggered:
            return report

        started = time.perf_counter()
        plan, schedule = self.pipeline.compute(state)
        report.planning_seconds = time.perf_counter() - started
        report.plan = plan
        report.schedule = schedule
        self.events.emit(
            PlanComputed(plan=plan, schedule=schedule, planning_seconds=report.planning_seconds)
        )

        actions = schedule.ordered_actions()
        self.execute(backend, actions)
        report.actions_executed = len(actions)
        self.events.emit(ActionsExecuted(actions=tuple(actions)))
        return report

    def execute(self, backend, actions: list[Action]) -> None:
        """Default executor: hand the action list to the backend.

        For bare :class:`ClusterState` targets this lands in
        :func:`repro.core.scheduler.apply_actions` via ``StateBackend`` —
        the one shared action-application code path.
        """
        backend_for(backend).execute(actions)

    def summary(
        self,
        backend,
        *,
        name: str = "cluster",
        reference_revenue: float | None = None,
    ):
        """Public snapshot of ``backend``'s observed state as a ``CellSummary``.

        The single-engine twin of :meth:`repro.fleet.FleetEngine.summary`:
        a picklable, JSON-serializable (via ``to_record``) view of the
        cluster — capacity, usage, failure counts, revenue, missing critical
        microservices — so frontends never reach into state internals.
        ``reference_revenue`` defaults to the state's *current* revenue
        potential; pass the pre-failure value to normalize like the fleet
        does.  Pure read: no round runs, no detector state moves.
        """
        from repro.adaptlab.metrics import potential_revenue
        from repro.fleet.summary import summarize_cell

        state = backend_for(backend).observe()
        if reference_revenue is None:
            reference_revenue = potential_revenue(state)
        return summarize_cell(name, state, reference_revenue)

    def reset(self) -> None:
        """Forget failure-detection state (when replaying scenarios)."""
        self._known_failed = None

    @property
    def known_failed(self) -> set[str] | None:
        """The failure detector's last observed failed set (None = virgin).

        Exposed for federating frontends (:mod:`repro.fleet`) that run
        reconcile rounds in worker processes: the detector state is
        checkpointed out of one engine and restored into its successor so
        change detection stays continuous across process boundaries.
        """
        return None if self._known_failed is None else set(self._known_failed)

    @known_failed.setter
    def known_failed(self, value: Iterable[str] | None) -> None:
        self._known_failed = None if value is None else set(value)


def engine(
    objective: OperatorObjective | str = "revenue",
    *,
    implementation: str = "fast",
    allow_migration: bool = True,
    allow_deletion: bool = True,
    monitor_interval: float = 15.0,
    incremental: bool = True,
    observers: Iterable[Observer] = (),
    ranker: Ranker | None = None,
    packer: Packer | None = None,
    differ: Differ | None = None,
) -> PhoenixEngine:
    """The one entrypoint: build a :class:`PhoenixEngine` from plain arguments.

    >>> import repro.api as api
    >>> eng = api.engine("revenue")
    >>> report = eng.reconcile(cluster_state, force=True)   # doctest: +SKIP

    Every keyword maps onto :class:`~repro.api.config.EngineConfig`; stage
    overrides pass through to :class:`PhoenixEngine`.
    """
    config = EngineConfig(
        objective=objective,
        implementation=implementation,
        allow_migration=allow_migration,
        allow_deletion=allow_deletion,
        monitor_interval=monitor_interval,
        incremental=incremental,
    )
    return PhoenixEngine(
        config, ranker=ranker, packer=packer, differ=differ, observers=observers
    )
