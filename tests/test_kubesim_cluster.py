"""End-to-end tests for KubeCluster and the Phoenix backend adapter."""

import pytest

import repro.api as api
from repro.cluster import Application, Resources
from repro.core import PhoenixController, RevenueObjective
from repro.kubesim import KubeCluster, KubeClusterConfig, PhoenixKubeBackend
from repro.kubesim.cluster import criticality_to_priority

from tests.conftest import make_microservice


def small_app(name="web-app"):
    return Application.from_microservices(
        name,
        [
            make_microservice("frontend", 2, 2, 1),
            make_microservice("backend", 2, 2, 1),
            make_microservice("extras", 2, 2, 5),
        ],
        dependency_edges=[("frontend", "backend"), ("frontend", "extras")],
        price_per_unit=2.0,
        critical_service="backend",
    )


@pytest.fixture
def cluster():
    return KubeCluster(KubeClusterConfig(node_count=3, node_capacity=Resources(4, 4)))


class TestPriorityMapping:
    def test_more_critical_means_higher_priority(self):
        assert criticality_to_priority(1) > criticality_to_priority(5) > criticality_to_priority(10)

    def test_priority_never_negative(self):
        assert criticality_to_priority(99) == 0


class TestDeployment:
    def test_deploy_creates_namespace_and_deployments(self, cluster):
        cluster.deploy_application(small_app())
        assert cluster.api.get_namespace("web-app").phoenix_enabled
        assert len(cluster.api.list_deployments(namespace="web-app")) == 3

    def test_step_schedules_and_starts_pods(self, cluster):
        cluster.deploy_application(small_app())
        cluster.step(60)
        assert cluster.serving_microservices("web-app") == {"frontend", "backend", "extras"}

    def test_step_rejects_negative_time(self, cluster):
        with pytest.raises(ValueError):
            cluster.step(-5)

    def test_non_phoenix_namespace(self, cluster):
        cluster.deploy_application(small_app("legacy"), phoenix_enabled=False)
        assert not cluster.api.get_namespace("legacy").phoenix_enabled


class TestFailureLifecycle:
    def test_kubelet_stop_marks_node_not_ready(self, cluster):
        cluster.deploy_application(small_app())
        cluster.step(30)
        cluster.fail_nodes(["node-0"])
        cluster.step(120)
        assert "node-0" not in cluster.ready_nodes()

    def test_recovery_brings_node_back(self, cluster):
        cluster.fail_nodes(["node-0"])
        cluster.step(120)
        cluster.recover_nodes(["node-0"])
        cluster.step(60)
        assert "node-0" in cluster.ready_nodes()

    def test_default_self_healing_when_capacity_allows(self, cluster):
        cluster.deploy_application(small_app())
        cluster.step(60)
        cluster.fail_nodes(["node-0"])
        cluster.step(300)  # eviction + deployment controller + scheduler
        assert cluster.serving_microservices("web-app") == {"frontend", "backend", "extras"}


class TestClusterStateSnapshot:
    def test_snapshot_reflects_running_pods(self, cluster):
        cluster.deploy_application(small_app())
        cluster.step(60)
        state = cluster.to_cluster_state()
        assert len(state.nodes) == 3
        active = state.active_microservices()["web-app"]
        assert active == {"frontend", "backend", "extras"}

    def test_snapshot_marks_failed_nodes(self, cluster):
        cluster.deploy_application(small_app())
        cluster.step(30)
        cluster.fail_nodes(["node-1"])
        cluster.step(120)
        state = cluster.to_cluster_state()
        assert state.node("node-1").failed


class TestPhoenixIntegration:
    def test_phoenix_degrades_noncritical_under_crunch(self):
        # Capacity for all three microservices needs 6 cpu; after failing two
        # of three 4-cpu nodes only 4 cpu remain, so Phoenix must shut the C5
        # container down to keep both C1 containers running.
        cluster = KubeCluster(KubeClusterConfig(node_count=3, node_capacity=Resources(4, 4)))
        cluster.deploy_application(small_app())
        cluster.step(60)
        backend = PhoenixKubeBackend(cluster)
        controller = PhoenixController(backend, engine=api.engine(RevenueObjective()))
        controller.reconcile()  # learn steady state
        cluster.fail_nodes(["node-0", "node-1"])
        cluster.step(150)       # detection + eviction
        report = controller.reconcile()
        assert report.triggered
        cluster.step(60)
        serving = cluster.serving_microservices("web-app")
        assert {"frontend", "backend"} <= serving
        assert "extras" not in serving

    def test_phoenix_restores_noncritical_after_recovery(self):
        cluster = KubeCluster(KubeClusterConfig(node_count=3, node_capacity=Resources(4, 4)))
        cluster.deploy_application(small_app())
        cluster.step(60)
        backend = PhoenixKubeBackend(cluster)
        controller = PhoenixController(backend, engine=api.engine(RevenueObjective()))
        controller.reconcile()
        cluster.fail_nodes(["node-0", "node-1"])
        cluster.step(150)
        controller.reconcile()
        cluster.step(60)
        cluster.recover_nodes(["node-0", "node-1"])
        cluster.step(120)
        controller.reconcile()
        cluster.step(60)
        assert cluster.serving_microservices("web-app") == {"frontend", "backend", "extras"}

    def test_backend_delete_action_scales_deployment_to_zero(self):
        from repro.cluster.state import ReplicaId
        from repro.core.plan import Action, ActionKind

        cluster = KubeCluster(KubeClusterConfig(node_count=3, node_capacity=Resources(4, 4)))
        cluster.deploy_application(small_app())
        cluster.step(60)
        backend = PhoenixKubeBackend(cluster)
        extras_pod = cluster.pods_of("web-app", "extras")[0]
        backend.execute(
            [Action(ActionKind.DELETE, ReplicaId("web-app", "extras", 0), source_node=extras_pod.node_name)]
        )
        # the deleted non-critical deployment must be scaled to zero so the
        # deployment controller does not recreate it.
        assert cluster.api.get_deployment("web-app", "extras").replicas == 0
        cluster.step(120)
        assert "extras" not in cluster.serving_microservices("web-app")

    def test_backend_start_action_creates_bound_pod(self):
        from repro.cluster.state import ReplicaId
        from repro.core.plan import Action, ActionKind

        cluster = KubeCluster(KubeClusterConfig(node_count=3, node_capacity=Resources(4, 4)))
        cluster.deploy_application(small_app())
        backend = PhoenixKubeBackend(cluster)
        backend.execute(
            [Action(ActionKind.START, ReplicaId("web-app", "frontend", 0), target_node="node-1")]
        )
        pods = cluster.pods_of("web-app", "frontend")
        assert any(p.node_name == "node-1" for p in pods)
