"""Tests for the Phoenix controller and the StateBackend."""

import pytest

import repro.api as api
from repro.cluster import Node, Resources
from repro.cluster.state import ClusterState, ReplicaId
from repro.core.controller import PhoenixController, StateBackend
from repro.core.objectives import RevenueObjective
from repro.core.plan import Action, ActionKind


@pytest.fixture
def backend(simple_app, second_app):
    nodes = [Node(f"n{i}", Resources(4, 4)) for i in range(5)]
    state = ClusterState(nodes=nodes, applications=[simple_app, second_app])
    return StateBackend(state)


@pytest.fixture
def controller(backend):
    return PhoenixController(
        backend, engine=api.engine(RevenueObjective()), monitor_interval=15.0
    )


class TestStateBackend:
    def test_execute_start(self, backend):
        replica = ReplicaId("shop", "frontend", 0)
        backend.execute([Action(ActionKind.START, replica, target_node="n0")])
        assert backend.state.node_of(replica) == "n0"

    def test_execute_delete(self, backend):
        replica = ReplicaId("shop", "frontend", 0)
        backend.state.assign(replica, "n0")
        backend.execute([Action(ActionKind.DELETE, replica, source_node="n0")])
        assert backend.state.node_of(replica) is None

    def test_execute_migrate(self, backend):
        replica = ReplicaId("shop", "frontend", 0)
        backend.state.assign(replica, "n0")
        backend.execute([Action(ActionKind.MIGRATE, replica, source_node="n0", target_node="n1")])
        assert backend.state.node_of(replica) == "n1"

    def test_delete_of_unassigned_replica_is_noop(self, backend):
        replica = ReplicaId("shop", "frontend", 0)
        backend.execute([Action(ActionKind.DELETE, replica, source_node="n0")])
        assert backend.state.node_of(replica) is None


class TestController:
    def test_invalid_monitor_interval_rejected(self, backend):
        with pytest.raises(ValueError):
            PhoenixController(
                backend, engine=api.engine(RevenueObjective()), monitor_interval=0
            )

    def test_first_reconcile_places_everything(self, controller, backend):
        report = controller.reconcile(force=True)
        assert report.triggered
        assert report.actions_executed > 0
        active = backend.state.active_microservices()
        assert active["shop"] == set(backend.state.application("shop").microservices)

    def test_no_trigger_when_nothing_changed(self, controller):
        controller.reconcile(force=True)
        report = controller.reconcile()
        assert not report.triggered
        assert report.plan is None

    def test_failure_detection_triggers_replanning(self, controller, backend):
        controller.reconcile(force=True)
        backend.state.fail_nodes(["n0", "n1"])
        report = controller.reconcile()
        assert report.triggered
        assert report.failed_nodes == ["n0", "n1"]
        # critical services survive on the remaining capacity
        active = backend.state.active_microservices()
        assert "frontend" in active["shop"]
        assert "api" in active["blog"]

    def test_recovery_detection(self, controller, backend):
        controller.reconcile(force=True)
        backend.state.fail_nodes(["n0"])
        controller.reconcile()
        backend.state.recover_nodes(["n0"])
        report = controller.reconcile()
        assert report.recovered_nodes == ["n0"]

    def test_planning_time_recorded(self, controller):
        report = controller.reconcile(force=True)
        assert report.planning_seconds > 0

    def test_run_executes_multiple_rounds(self, controller):
        reports = controller.run(3)
        assert len(reports) == 3
        assert len(controller.history) == 3

    def test_run_rejects_negative_rounds(self, controller):
        with pytest.raises(ValueError):
            controller.run(-1)

    def test_reset_clears_history_and_detection(self, controller, backend):
        controller.reconcile(force=True)
        controller.reset()
        assert controller.history == []
        # After reset, pre-existing failures are reported as new.
        backend.state.fail_nodes(["n2"])
        report = controller.reconcile()
        assert "n2" in report.failed_nodes
