"""Integration tests: the CloudLab-style scenario end to end.

These tests exercise the full stack — application models deployed on the
Kubernetes-like simulator, Phoenix reacting to a capacity crunch, load
generators measuring critical-service throughput — and assert the paper's
headline qualitative claims on a scaled-down cluster.
"""

import pytest

import repro.api as api
from repro.apps import LoadGenerator, MultiAppLoadRecorder, cloudlab_workload
from repro.cluster.resources import Resources
from repro.core import FairnessObjective, PhoenixController, RevenueObjective
from repro.kubesim import KubeCluster, KubeClusterConfig, PhoenixKubeBackend


def build_cloudlab_cluster(node_count=25, cpu_per_node=8.0):
    """A 25-node / 200-CPU cluster running the five paper app instances."""
    cluster = KubeCluster(
        KubeClusterConfig(
            node_count=node_count,
            node_capacity=Resources(cpu=cpu_per_node, memory=cpu_per_node * 2),
            pod_startup_seconds=10,
            pod_termination_seconds=5,
        )
    )
    workload = cloudlab_workload(total_capacity_cpu=node_count * cpu_per_node)
    for template in workload.values():
        cluster.deploy_application(template.application)
    return cluster, workload


@pytest.fixture(scope="module")
def steady_cluster():
    cluster, workload = build_cloudlab_cluster()
    cluster.step(120)
    return cluster, workload


class TestSteadyState:
    def test_all_applications_fully_serving(self, steady_cluster):
        cluster, workload = steady_cluster
        for name, template in workload.items():
            serving = cluster.serving_microservices(name)
            assert serving == set(template.application.microservices)

    def test_all_critical_service_goals_met(self, steady_cluster):
        cluster, workload = steady_cluster
        recorder = MultiAppLoadRecorder(workload)
        recorder.observe(cluster.now, cluster.serving_microservices)
        assert recorder.apps_meeting_goal() == len(workload)


class TestPhoenixUnderFailure:
    """Reduce capacity to ~42 % (the paper's breaking point) and recover."""

    def _run_failure_scenario(self, objective):
        cluster, workload = build_cloudlab_cluster()
        cluster.step(120)
        backend = PhoenixKubeBackend(cluster)
        controller = PhoenixController(backend, engine=api.engine(objective))
        controller.reconcile()

        # Fail 14 of 25 nodes -> 44 % of capacity remains.
        failed = [f"node-{i}" for i in range(14)]
        cluster.fail_nodes(failed)
        cluster.step(180)          # detection + eviction
        controller.reconcile()
        cluster.step(120)          # pods start on surviving nodes

        recorder = MultiAppLoadRecorder(workload)
        recorder.observe(cluster.now, cluster.serving_microservices)
        goals_met = recorder.apps_meeting_goal()

        # Nodes come back; Phoenix restores non-critical services.
        cluster.recover_nodes(failed)
        cluster.step(180)
        controller.reconcile()
        cluster.step(180)
        recorder.observe(cluster.now, cluster.serving_microservices)
        return cluster, workload, goals_met, recorder

    def test_phoenix_cost_keeps_critical_services_alive(self):
        cluster, workload, goals_met, _ = self._run_failure_scenario(RevenueObjective())
        # Paper: Phoenix retains critical-service availability for 5/5 apps
        # while Default manages only 2/5; we require a clear majority here.
        assert goals_met >= 4

    def test_phoenix_fair_keeps_critical_services_alive(self):
        _, _, goals_met, _ = self._run_failure_scenario(FairnessObjective())
        assert goals_met >= 4

    def test_full_recovery_after_nodes_return(self):
        cluster, workload, _, recorder = self._run_failure_scenario(RevenueObjective())
        for name, template in workload.items():
            assert cluster.serving_microservices(name) == set(template.application.microservices)
        assert recorder.apps_meeting_goal() == len(workload)

    def test_default_kubernetes_misses_goals_under_crunch(self):
        cluster, workload = build_cloudlab_cluster()
        cluster.step(120)
        failed = [f"node-{i}" for i in range(14)]
        cluster.fail_nodes(failed)
        cluster.step(600)  # give the default control loops plenty of time
        recorder = MultiAppLoadRecorder(workload)
        recorder.observe(cluster.now, cluster.serving_microservices)
        default_goals = recorder.apps_meeting_goal()
        assert default_goals < len(workload)

    def test_phoenix_beats_default_on_goals_met(self):
        _, _, phoenix_goals, _ = self._run_failure_scenario(RevenueObjective())

        cluster, workload = build_cloudlab_cluster()
        cluster.step(120)
        cluster.fail_nodes([f"node-{i}" for i in range(14)])
        cluster.step(600)
        recorder = MultiAppLoadRecorder(workload)
        recorder.observe(cluster.now, cluster.serving_microservices)
        default_goals = recorder.apps_meeting_goal()

        assert phoenix_goals > default_goals


class TestDiagonalScalingUtility:
    def test_overleaf_utility_preserved_for_edits_only(self):
        """Figure 6d: edits keep full utility, spell-check/versions drop to 0."""
        workload = cloudlab_workload()
        overleaf = workload["overleaf0"]
        generator = LoadGenerator(overleaf)
        critical_only = set(overleaf.critical_request().microservices)
        report = generator.report(critical_only)
        assert report.sample("document-edits").utility >= 0.9
        assert report.sample("spell-check").utility == 0.0
        assert report.sample("versions").utility == 0.0

    def test_hr_reserve_utility_drops_to_point_eight(self):
        """Figure 6f: reserve keeps serving as guest with utility 0.8."""
        workload = cloudlab_workload()
        hr = workload["hr1"]
        generator = LoadGenerator(hr)
        serving = set(hr.application.microservices) - {"user"}
        report = generator.report(serving)
        assert report.sample("reserve").served_rps > 0
        assert report.sample("reserve").utility == pytest.approx(0.8)
