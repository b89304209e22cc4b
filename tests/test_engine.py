"""Tests for the ``repro.api`` layer: engine, config, events, adapters.

Covers the three surfaces the engine unifies (controller loop, AdaptLab
scheme, one-shot plan/schedule), the failure-detection edge cases the
redesign issue calls out, equivalence between legacy frontends and the
engine, and the deprecation shims.
"""

from __future__ import annotations

import warnings

import pytest

from repro.adaptlab import (
    DefaultScheme,
    FairScheme,
    PhoenixCostScheme,
    PhoenixFairScheme,
    PhoenixScheme,
    PriorityScheme,
    inject_capacity_failure,
    run_failure_sweep,
)
from repro.api import (
    ActionsExecuted,
    EngineConfig,
    EventBus,
    FailureDetected,
    PhoenixEngine,
    PlanComputed,
    RecoveryDetected,
    SchemeAdapter,
    backend_for,
    engine,
)
from repro.cluster import Node, Resources
from repro.cluster.state import ClusterState, ReplicaId
from repro.core.controller import PhoenixController, StateBackend
from repro.core.objectives import FairnessObjective, RevenueObjective
from repro.core.plan import Action, ActionKind
from repro.core.planner import PhoenixPlanner
from repro.core.scheduler import PhoenixScheduler, apply_actions, apply_schedule


@pytest.fixture
def state(simple_app, second_app) -> ClusterState:
    nodes = [Node(f"n{i}", Resources(4, 4)) for i in range(5)]
    return ClusterState(nodes=nodes, applications=[simple_app, second_app])


@pytest.fixture
def eng() -> PhoenixEngine:
    return engine("revenue")


# -- config & factory -----------------------------------------------------------------


class TestConfigAndFactory:
    def test_engine_factory_resolves_objective_names(self):
        assert engine("revenue").objective.name == "revenue"
        assert engine("fairness").objective.name == "fairness"
        assert engine("cost").objective.name == "revenue"

    def test_engine_accepts_objective_instances(self):
        objective = FairnessObjective()
        assert engine(objective).objective is objective

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            engine("throughput")

    def test_bad_objective_type_rejected(self):
        with pytest.raises(TypeError):
            EngineConfig(objective=42)

    def test_bad_implementation_rejected(self):
        with pytest.raises(ValueError, match="implementation"):
            EngineConfig(implementation="turbo")

    def test_bad_monitor_interval_rejected(self):
        with pytest.raises(ValueError, match="monitor_interval"):
            EngineConfig(monitor_interval=0)

    def test_pipeline_and_stage_overrides_are_exclusive(self):
        pipeline = engine("revenue").pipeline
        with pytest.raises(ValueError):
            PhoenixEngine(pipeline=pipeline, ranker=PhoenixPlanner(RevenueObjective()))

    def test_engine_name_follows_objective(self):
        assert engine("revenue").name == "phoenix-revenue"
        assert engine("fairness").name == "phoenix-fairness"


# -- backend wrapping -----------------------------------------------------------------


class TestBackendFor:
    def test_state_is_wrapped_in_state_backend(self, state):
        backend = backend_for(state)
        assert isinstance(backend, StateBackend)
        assert backend.state is state

    def test_backend_passes_through(self, state):
        backend = StateBackend(state)
        assert backend_for(backend) is backend

    def test_phoenix_backend_factory_is_used(self):
        class FakeCluster:
            def phoenix_backend(self):
                return self._backend

            _backend = object()

        cluster = FakeCluster()
        assert backend_for(cluster) is cluster._backend

    def test_unwrappable_target_rejected(self):
        with pytest.raises(TypeError, match="ClusterBackend"):
            backend_for(42)

    def test_kubesim_cluster_wraps_via_factory(self):
        from repro.kubesim import KubeCluster, KubeClusterConfig, PhoenixKubeBackend

        cluster = KubeCluster(KubeClusterConfig(node_count=3, node_capacity=Resources(4, 8)))
        backend = backend_for(cluster)
        assert isinstance(backend, PhoenixKubeBackend)
        assert backend.cluster is cluster


# -- failure-detection edge cases ------------------------------------------------------


class TestFailureDetectionEdgeCases:
    def test_first_observation_reports_preexisting_failures(self, state, eng):
        state.fail_nodes(["n0", "n3"])
        report = eng.reconcile(state)
        assert report.triggered
        assert report.failed_nodes == ["n0", "n3"]
        assert report.recovered_nodes == []

    def test_first_observation_with_healthy_cluster_does_not_trigger(self, state, eng):
        report = eng.reconcile(state)
        assert not report.triggered
        assert report.plan is None
        assert report.actions_executed == 0

    def test_recover_then_refail_between_rounds_is_invisible(self, state, eng):
        eng.reconcile(state, force=True)
        state.fail_nodes(["n0"])
        assert eng.reconcile(state).failed_nodes == ["n0"]
        # The blip happens entirely between observations: the detector can
        # only compare snapshots, so no change is (or can be) reported.
        state.recover_nodes(["n0"])
        state.fail_nodes(["n0"])
        report = eng.reconcile(state)
        assert not report.triggered
        assert report.failed_nodes == []
        assert report.recovered_nodes == []

    def test_recovery_with_simultaneous_new_failure_reports_both(self, state, eng):
        eng.reconcile(state, force=True)
        state.fail_nodes(["n0"])
        eng.reconcile(state)
        state.recover_nodes(["n0"])
        state.fail_nodes(["n1"])
        report = eng.reconcile(state)
        assert report.failed_nodes == ["n1"]
        assert report.recovered_nodes == ["n0"]

    def test_fail_recover_fail_across_rounds_detects_each_transition(self, state, eng):
        eng.reconcile(state, force=True)
        state.fail_nodes(["n0"])
        assert eng.reconcile(state).failed_nodes == ["n0"]
        state.recover_nodes(["n0"])
        assert eng.reconcile(state).recovered_nodes == ["n0"]
        state.fail_nodes(["n0"])
        report = eng.reconcile(state)
        assert report.failed_nodes == ["n0"]
        assert report.recovered_nodes == []

    def test_force_reconcile_on_unchanged_cluster_plans_but_converges(self, state, eng):
        first = eng.reconcile(state, force=True)
        assert first.triggered and first.actions_executed > 0
        again = eng.reconcile(state, force=True)
        assert again.triggered
        assert again.failed_nodes == [] and again.recovered_nodes == []
        assert again.plan is not None and again.schedule is not None
        # The cluster is already at the target: planning runs, nothing moves.
        assert again.actions_executed == 0

    def test_reset_forgets_detection_state(self, state, eng):
        state.fail_nodes(["n2"])
        eng.reconcile(state)
        eng.reset()
        report = eng.reconcile(state)
        assert report.failed_nodes == ["n2"]


# -- event stream ---------------------------------------------------------------------


class TestEvents:
    def test_reconcile_emits_typed_sequence(self, state, eng):
        events = []
        eng.events.subscribe(events.append)
        eng.reconcile(state, force=True)
        state.fail_nodes(["n0"])
        eng.reconcile(state)
        kinds = [type(e).__name__ for e in events]
        assert kinds == [
            "PlanComputed",
            "ActionsExecuted",
            "FailureDetected",
            "PlanComputed",
            "ActionsExecuted",
        ]
        failure = next(e for e in events if isinstance(e, FailureDetected))
        assert failure.nodes == ("n0",)

    def test_recovery_event_carries_nodes(self, state, eng):
        eng.reconcile(state, force=True)
        state.fail_nodes(["n0", "n1"])
        eng.reconcile(state)
        received = []
        eng.events.subscribe(received.append, RecoveryDetected)
        state.recover_nodes(["n1"])
        eng.reconcile(state)
        assert [e.nodes for e in received] == [("n1",)]

    def test_type_filtered_subscription(self, state, eng):
        plans, actions = [], []
        eng.events.subscribe(plans.append, PlanComputed)
        eng.events.subscribe(actions.append, ActionsExecuted)
        report = eng.reconcile(state, force=True)
        assert len(plans) == 1 and plans[0].plan is report.plan
        assert plans[0].planning_seconds == report.planning_seconds
        assert len(actions) == 1 and actions[0].count == report.actions_executed

    def test_respond_emits_plan_computed(self, state, eng):
        plans = []
        eng.events.subscribe(plans.append, PlanComputed)
        state.fail_nodes(["n0"])
        eng.respond(state)
        assert len(plans) == 1

    def test_unsubscribe(self, state, eng):
        events = []
        unsubscribe = eng.events.subscribe(events.append)
        eng.reconcile(state, force=True)
        seen = len(events)
        assert seen > 0
        unsubscribe()
        eng.reconcile(state, force=True)
        assert len(events) == seen

    def test_observers_kwarg_subscribes_at_construction(self, state):
        events = []
        eng = engine("revenue", observers=[events.append])
        eng.reconcile(state, force=True)
        assert events

    def test_bus_rejects_non_callable_handler(self):
        with pytest.raises(TypeError):
            EventBus().subscribe("not-callable")

    def test_bus_rejects_non_event_type(self):
        with pytest.raises(TypeError):
            EventBus().subscribe(lambda e: None, event_type=int)


# -- equivalence with the legacy surfaces ---------------------------------------------


def _legacy_phoenix_respond(state, objective):
    """The pre-engine ``PhoenixScheme.respond`` body, verbatim."""
    planner = PhoenixPlanner(objective)
    scheduler = PhoenixScheduler()
    plan = planner.plan(state)
    schedule = scheduler.schedule(state, plan)
    new_state = state.copy()
    apply_schedule(new_state, schedule)
    return new_state, plan, schedule


class TestLegacyEquivalence:
    def test_engine_respond_matches_hand_wired_pipeline(self, state):
        state.fail_nodes(["n0", "n1"])
        expected_state, expected_plan, _ = _legacy_phoenix_respond(state, RevenueObjective())
        eng = engine("revenue")
        got_state, _seconds = eng.respond(state)
        assert eng.plan(state).activated == expected_plan.activated
        assert list(got_state.assignments.items()) == list(expected_state.assignments.items())

    def test_engine_reconcile_matches_legacy_controller(self, simple_app, second_app):
        def fresh():
            nodes = [Node(f"n{i}", Resources(4, 4)) for i in range(5)]
            return ClusterState(nodes=nodes, applications=[simple_app, second_app])

        legacy_state, engine_state = fresh(), fresh()
        controller = PhoenixController(StateBackend(legacy_state), engine=engine("revenue"))
        eng = engine("revenue")

        for round_index in range(3):
            if round_index == 1:
                legacy_state.fail_nodes(["n0", "n1"])
                engine_state.fail_nodes(["n0", "n1"])
            legacy_report = controller.reconcile(force=round_index == 0)
            engine_report = eng.reconcile(engine_state, force=round_index == 0)
            assert engine_report.triggered == legacy_report.triggered
            assert engine_report.failed_nodes == legacy_report.failed_nodes
            assert engine_report.actions_executed == legacy_report.actions_executed
            if legacy_report.schedule is not None:
                assert engine_report.schedule.actions == legacy_report.schedule.actions
            assert list(engine_state.assignments.items()) == list(
                legacy_state.assignments.items()
            )

    def test_scheme_adapter_matches_legacy_scheme(self, small_environment):
        state = small_environment.fresh_state()
        inject_capacity_failure(state, 0.5, seed=13)
        for objective, scheme in (
            (RevenueObjective(), PhoenixCostScheme()),
            (FairnessObjective(), PhoenixFairScheme()),
        ):
            expected_state, _, _ = _legacy_phoenix_respond(state, objective)
            got_state, _ = scheme.respond(state)
            assert list(got_state.assignments.items()) == list(
                expected_state.assignments.items()
            )

    def test_reference_implementation_is_byte_identical(self, small_environment):
        state = small_environment.fresh_state()
        inject_capacity_failure(state, 0.5, seed=29)
        fast = engine("revenue")
        golden = engine("revenue", implementation="reference")
        fast_plan = fast.plan(state)
        golden_plan = golden.plan(state)
        assert fast_plan.ranked == golden_plan.ranked
        assert fast_plan.activated == golden_plan.activated
        fast_schedule = fast.schedule(state, fast_plan)
        golden_schedule = golden.schedule(state, golden_plan)
        assert fast_schedule.actions == golden_schedule.actions
        assert list(fast_schedule.target_assignment.items()) == list(
            golden_schedule.target_assignment.items()
        )

    def test_sweep_results_identical_through_adapters(self, small_environment):
        suite = [
            PhoenixCostScheme(),
            PhoenixFairScheme(),
            PriorityScheme(),
            FairScheme(),
            DefaultScheme(),
        ]
        adapters = [
            SchemeAdapter(engine("revenue"), name="phoenix-cost"),
            SchemeAdapter(engine("fairness"), name="phoenix-fair"),
            PriorityScheme(),
            FairScheme(),
            DefaultScheme(),
        ]
        levels = (0.3, 0.6)
        baseline = run_failure_sweep(small_environment, suite, failure_levels=levels)
        adapted = run_failure_sweep(small_environment, adapters, failure_levels=levels)
        for level in levels:
            for name in ("phoenix-cost", "phoenix-fair", "priority", "fair", "default"):
                a = baseline.point(name, level)
                b = adapted.point(name, level)
                assert (a.availability, a.revenue, a.fairness_positive, a.fairness_negative, a.utilization) == (
                    b.availability,
                    b.revenue,
                    b.fairness_positive,
                    b.fairness_negative,
                    b.utilization,
                )

    def test_lp_pipeline_engine_matches_legacy_lp_scheme(self, state):
        from repro.adaptlab import LPCostScheme
        from repro.api import LPPipeline
        from repro.core.lp import LPCost

        state.fail_nodes(["n0", "n1"])
        eng = PhoenixEngine.from_pipeline(LPPipeline(LPCost(time_limit=30), name="lp-cost"))
        got_state, _ = eng.respond(state)
        expected_state, _ = LPCostScheme(time_limit=30).respond(state)
        assert got_state.assignments == expected_state.assignments
        assert eng.objective is None
        with pytest.raises(NotImplementedError):
            eng.plan(state)


# -- constructors ----------------------------------------------------------------------


class TestConstructors:
    def test_controller_with_engine_does_not_warn(self, state):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            controller = PhoenixController(StateBackend(state), engine=engine("revenue"))
        assert controller.reconcile(force=True).triggered

    def test_controller_requires_engine_keyword(self, state):
        backend = StateBackend(state)
        with pytest.raises(TypeError):
            PhoenixController(backend)
        with pytest.raises(TypeError):
            PhoenixController(backend, RevenueObjective())

    @pytest.mark.parametrize(
        "keyword,value",
        [
            ("objective", RevenueObjective()),
            ("allow_migration", False),
            ("allow_deletion", False),
        ],
        ids=["objective", "allow_migration", "allow_deletion"],
    )
    def test_controller_rejects_pre_engine_keywords(self, state, keyword, value):
        # Objective and stage switches live on the engine, not the loop.
        with pytest.raises(TypeError):
            PhoenixController(
                StateBackend(state), engine=engine("revenue"), **{keyword: value}
            )

    def test_controller_exposes_engine_only(self, state):
        eng = engine("revenue")
        controller = PhoenixController(StateBackend(state), engine=eng)
        assert controller.engine is eng
        assert not hasattr(controller, "planner")
        assert not hasattr(controller, "scheduler")

    def test_phoenix_scheme_exposes_engine_only(self):
        scheme = PhoenixCostScheme()
        assert isinstance(scheme.engine, PhoenixEngine)
        assert not hasattr(scheme, "planner")
        assert not hasattr(scheme, "scheduler")

    def test_phoenix_scheme_over_engine_works(self, state):
        state.fail_nodes(["n0"])
        scheme = PhoenixScheme(engine=engine(RevenueObjective()))
        assert scheme.name == "phoenix-revenue"
        new_state, seconds = scheme.respond(state)
        assert seconds >= 0
        assert new_state is not state

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PhoenixScheme(RevenueObjective()),
            lambda: PhoenixScheme(engine=RevenueObjective()),
            lambda: SchemeAdapter("x"),
            lambda: SchemeAdapter(None, name="none"),
        ],
        ids=["scheme-objective", "scheme-objective-keyword", "adapter-str", "adapter-none"],
    )
    def test_adapter_rejects_non_engine_at_construction(self, build):
        # A wrong argument fails here, not on the first respond().
        with pytest.raises(TypeError, match="needs a PhoenixEngine"):
            build()

    def test_engine_backed_schemes_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            PhoenixCostScheme()
            PhoenixFairScheme()
            PriorityScheme()
            FairScheme()


# -- controller as a thin loop ---------------------------------------------------------


class TestControllerOverEngine:
    def test_controller_history_and_reset(self, state):
        controller = PhoenixController(StateBackend(state), engine=engine("revenue"))
        controller.reconcile(force=True)
        state.fail_nodes(["n0"])
        controller.reconcile()
        assert len(controller.history) == 2
        controller.reset()
        assert controller.history == []
        # Detection state was forgotten: the existing failure reads as new.
        assert controller.reconcile().failed_nodes == ["n0"]

    def test_controller_invalid_monitor_interval_rejected(self, state):
        with pytest.raises(ValueError):
            PhoenixController(StateBackend(state), engine=engine("revenue"), monitor_interval=0)

    def test_controller_exposes_engine_events(self, state):
        events = []
        eng = engine("revenue", observers=[events.append])
        controller = PhoenixController(StateBackend(state), engine=eng)
        controller.reconcile(force=True)
        assert any(isinstance(e, ActionsExecuted) for e in events)


# -- action application dedup ----------------------------------------------------------


class TestApplyActions:
    def test_state_backend_delegates_to_apply_actions(self, state):
        twin = state.copy()
        replica = ReplicaId("shop", "frontend", 0)
        actions = [Action(ActionKind.START, replica, target_node="n0")]
        StateBackend(state).execute(actions)
        apply_actions(twin, actions)
        assert state.assignments == twin.assignments

    def test_delete_of_unassigned_replica_is_noop(self, state):
        replica = ReplicaId("shop", "frontend", 0)
        apply_actions(state, [Action(ActionKind.DELETE, replica, source_node="n0")])
        assert state.node_of(replica) is None

    def test_start_with_stale_placement_moves_the_replica(self, state):
        replica = ReplicaId("shop", "frontend", 0)
        state.assign(replica, "n0")
        apply_actions(state, [Action(ActionKind.START, replica, target_node="n1")])
        assert state.node_of(replica) == "n1"

    def test_migrate_unassigned_replica_assigns(self, state):
        replica = ReplicaId("shop", "frontend", 0)
        apply_actions(
            state,
            [Action(ActionKind.MIGRATE, replica, source_node="n0", target_node="n1")],
        )
        assert state.node_of(replica) == "n1"
