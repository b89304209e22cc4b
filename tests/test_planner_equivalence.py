"""Golden-equivalence suite: optimized plan → pack → diff vs. the naive seed.

The optimized hot path (lazy-rescore heap ranker, blocked node index,
incremental victim index, trusted state mutators, cached differ) must
produce **byte-identical** output to the naive reference implementations
retained in :mod:`repro.core.reference`.  This suite generates randomized
cluster/failure scenarios — heterogeneous nodes, memory-constrained
microservices, dependency graphs, stateful pinning, multi-replica services,
over-committed plans that force migration and delete-lower-ranks — and
asserts equality of:

* the activation plan (``ranked``/``activated``, order included),
* the packing result (assignment *including insertion order*, unplaced,
  deleted and migrated, order included), and
* the scheduler's action list.

It also cross-checks the state's incremental running-replica index against a
brute-force recount after every scenario.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.application import Application
from repro.cluster.microservice import Microservice
from repro.cluster.node import Node
from repro.cluster.resources import Resources
from repro.cluster.state import ClusterState, ReplicaId
from repro.core.objectives import FairnessObjective, RevenueObjective
from repro.core.packing import PackingHeuristic
from repro.core.plan import ActivationPlan, RankedMicroservice
from repro.core.planner import PhoenixPlanner, PriorityEstimator
from repro.core.reference import (
    ReferencePackingHeuristic,
    reference_diff,
    reference_rank,
)
from repro.core.scheduler import PhoenixScheduler
from repro.criticality import CriticalityTag

SEEDS = list(range(12))


# -- scenario generation ---------------------------------------------------------


def _random_application(rng: random.Random, index: int) -> Application:
    """An app with random criticalities, resources, replicas and (maybe) a DG."""
    n_ms = rng.randint(3, 9)
    microservices = []
    for j in range(n_ms):
        memory_heavy = rng.random() < 0.3
        microservices.append(
            Microservice(
                name=f"ms{j}",
                resources=Resources(
                    cpu=rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]),
                    # Occasionally memory-dominant, to exercise the node
                    # index's per-block memory pruning.
                    memory=rng.choice([4.0, 6.0]) if memory_heavy else rng.choice([0.0, 0.5, 1.0, 2.0]),
                ),
                criticality=CriticalityTag(rng.randint(1, 5)),
                replicas=rng.choice([1, 1, 1, 2, 3]),
                stateful=rng.random() < 0.15,
            )
        )
    edges = None
    if rng.random() < 0.6:  # dependency-graph case
        edges = []
        for j in range(1, n_ms):
            # Random DAG: every node gets at least one earlier predecessor.
            for _ in range(rng.randint(1, 2)):
                edges.append((f"ms{rng.randint(0, j - 1)}", f"ms{j}"))
        if rng.random() < 0.3 and n_ms >= 4:
            edges.append((f"ms{n_ms - 1}", f"ms{n_ms - 2}"))  # cycle case
    return Application.from_microservices(
        f"app{index}",
        microservices,
        dependency_edges=edges,
        price_per_unit=rng.choice([1.0, 2.0, 3.0, 5.0]),
    )


def _random_state(rng: random.Random) -> ClusterState:
    apps = [_random_application(rng, i) for i in range(rng.randint(2, 5))]
    nodes = [
        Node(
            f"n{i}",
            Resources(
                cpu=rng.choice([4.0, 6.0, 8.0, 12.0]),
                memory=rng.choice([4.0, 6.0, 8.0, 12.0]),
            ),
        )
        for i in range(rng.randint(6, 24))
    ]
    state = ClusterState(nodes=nodes, applications=apps)
    # Random initial placement: first-fit in shuffled order, best effort.
    replicas = [
        replica
        for app in apps
        for ms in app
        for replica in state.iter_replicas(app.name, ms.name)
    ]
    rng.shuffle(replicas)
    node_names = [n.name for n in nodes]
    for replica in replicas:
        if rng.random() < 0.2:
            continue  # leave some replicas unplaced
        rng.shuffle(node_names)
        demand = state.demand_of(replica.app, replica.microservice)
        for name in node_names:
            if demand.fits_within(state.free_on(name)):
                state.assign(replica, name)
                break
    return state


def _fail_some_nodes(rng: random.Random, state: ClusterState) -> None:
    names = list(state.nodes)
    count = rng.randint(1, max(1, len(names) // 2))
    state.fail_nodes(rng.sample(names, count))


def _objective_for(kind: str):
    return RevenueObjective() if kind == "revenue" else FairnessObjective()


def reference_plan(state: ClusterState, objective) -> ActivationPlan:
    """The seed's ``PhoenixPlanner.plan`` logic on top of ``reference_rank``."""
    estimator = PriorityEstimator()
    applications = state.applications
    capacity = state.total_capacity().cpu

    pinned = 0.0
    degradable: dict[str, Application] = {}
    pinned_entries: list[RankedMicroservice] = []
    for name, app in applications.items():
        stateless = [ms for ms in app if not ms.stateful]
        stateful = [ms for ms in app if ms.stateful]
        pinned += sum(ms.total_resources.cpu for ms in stateful)
        pinned_entries.extend(
            RankedMicroservice(name, ms.name, ms.total_resources.cpu) for ms in stateful
        )
        if stateful:
            degradable[name] = Application(
                name=app.name,
                microservices={ms.name: ms for ms in stateless},
                dependency_graph=(
                    app.dependency_graph.subgraph(ms.name for ms in stateless).copy()
                    if app.dependency_graph is not None
                    else None
                ),
                price_per_unit=app.price_per_unit,
                critical_service=app.critical_service,
            )
        else:
            degradable[name] = app

    available = max(0.0, capacity - pinned)
    app_rank = {name: estimator.rank(app) for name, app in degradable.items()}
    plan = reference_rank(objective, degradable, app_rank, available)
    plan.activated = pinned_entries + plan.activated
    plan.ranked = pinned_entries + plan.ranked
    plan.capacity = capacity
    return plan


def assert_packing_equal(optimized, reference) -> None:
    assert list(optimized.assignment.items()) == list(reference.assignment.items())
    assert optimized.unplaced == reference.unplaced
    assert optimized.deleted == reference.deleted
    assert list(optimized.migrated.items()) == list(reference.migrated.items())


def assert_running_index_consistent(state: ClusterState) -> None:
    """The incremental running counters must match a brute-force recount."""
    expected: dict[tuple[str, str], int] = {}
    for replica, node_name in state.assignments.items():
        if state.node(node_name).is_healthy:
            key = (replica.app, replica.microservice)
            expected[key] = expected.get(key, 0) + 1
    assert state.running_replica_counts() == expected


# -- the suite -------------------------------------------------------------------


@pytest.mark.parametrize("objective_kind", ["revenue", "fairness"])
@pytest.mark.parametrize("seed", SEEDS)
class TestGoldenEquivalence:
    """>= 24 randomized scenarios (12 seeds x 2 objectives)."""

    def test_plan_pack_diff_identical(self, seed, objective_kind):
        rng = random.Random(seed)
        state = _random_state(rng)
        _fail_some_nodes(rng, state)

        planner = PhoenixPlanner(_objective_for(objective_kind))
        plan_opt = planner.plan(state)
        plan_ref = reference_plan(state, _objective_for(objective_kind))
        assert plan_opt.ranked == plan_ref.ranked
        assert plan_opt.activated == plan_ref.activated
        assert plan_opt.capacity == plan_ref.capacity
        # Warm split-cache path must be identical to the cold one.
        plan_again = planner.plan(state)
        assert plan_again.ranked == plan_opt.ranked
        assert plan_again.activated == plan_opt.activated

        packing_opt = PackingHeuristic().pack(state.copy(), plan_opt)
        packing_ref = ReferencePackingHeuristic().pack(state.copy(), plan_ref)
        assert_packing_equal(packing_opt, packing_ref)

        actions_opt = PhoenixScheduler._diff(state, packing_opt)
        actions_ref = reference_diff(state, packing_ref)
        assert actions_opt == actions_ref

        # Full-stack: schedule() against the reference pipeline.
        schedule = PhoenixScheduler().schedule(state, plan_opt)
        assert schedule.actions == actions_ref
        assert schedule.target_assignment == packing_ref.assignment

        assert_running_index_consistent(state)

    def test_overcommitted_plan_forces_migration_and_deletion(self, seed, objective_kind):
        """Activate the full ranked list regardless of capacity.

        This drives the packer deep into the repack and delete-lower-ranks
        strategies, exercising the victim index against the per-call re-sort.
        """
        rng = random.Random(10_000 + seed)
        state = _random_state(rng)
        _fail_some_nodes(rng, state)

        planner = PhoenixPlanner(_objective_for(objective_kind))
        plan = planner.plan(state)
        overcommitted = ActivationPlan(
            ranked=list(plan.ranked),
            activated=list(plan.ranked),  # everything, capacity ignored
            capacity=plan.capacity,
            objective=plan.objective,
        )
        reference_copy = ActivationPlan(
            ranked=list(plan.ranked),
            activated=list(plan.ranked),
            capacity=plan.capacity,
            objective=plan.objective,
        )

        packing_opt = PackingHeuristic().pack(state.copy(), overcommitted)
        packing_ref = ReferencePackingHeuristic().pack(state.copy(), reference_copy)
        assert_packing_equal(packing_opt, packing_ref)
        assert PhoenixScheduler._diff(state, packing_opt) == reference_diff(state, packing_ref)

    def test_packing_without_migration_or_deletion(self, seed, objective_kind):
        rng = random.Random(20_000 + seed)
        state = _random_state(rng)
        _fail_some_nodes(rng, state)
        plan = PhoenixPlanner(_objective_for(objective_kind)).plan(state)
        for kwargs in (
            {"allow_migration": False, "allow_deletion": False},
            {"allow_migration": True, "allow_deletion": False},
            {"allow_migration": False, "allow_deletion": True},
        ):
            packing_opt = PackingHeuristic(**kwargs).pack(state.copy(), plan)
            packing_ref = ReferencePackingHeuristic(**kwargs).pack(state.copy(), plan)
            assert_packing_equal(packing_opt, packing_ref)


class TestTargetedEquivalence:
    """Deterministic cases the random generator might under-sample."""

    def test_stateful_pinning_case(self):
        app = Application.from_microservices(
            "pinned",
            [
                Microservice("api", Resources(2, 2), CriticalityTag(1)),
                Microservice("db", Resources(3, 3), CriticalityTag(4), stateful=True),
                Microservice("cache", Resources(1, 1), CriticalityTag(2), stateful=True),
                Microservice("batch", Resources(2, 2), CriticalityTag(5)),
            ],
            dependency_edges=[("api", "db"), ("api", "cache"), ("api", "batch")],
        )
        state = ClusterState(nodes=[Node(f"n{i}", Resources(5, 5)) for i in range(3)], applications=[app])
        state.assign(ReplicaId("pinned", "db", 0), "n0")
        state.fail_nodes(["n2"])
        for objective in (RevenueObjective(), FairnessObjective()):
            plan_opt = PhoenixPlanner(objective).plan(state)
            plan_ref = reference_plan(state, type(objective)())
            assert plan_opt.ranked == plan_ref.ranked
            assert plan_opt.activated == plan_ref.activated
            packing_opt = PackingHeuristic().pack(state.copy(), plan_opt)
            packing_ref = ReferencePackingHeuristic().pack(state.copy(), plan_ref)
            assert_packing_equal(packing_opt, packing_ref)

    def test_memory_constrained_best_fit(self):
        """CPU fits but memory does not: the block-pruned index must agree."""
        rng = random.Random(777)
        apps = [
            Application.from_microservices(
                "memheavy",
                [
                    Microservice("wide", Resources(1.0, 7.0), CriticalityTag(1), replicas=4),
                    Microservice("thin", Resources(2.0, 0.5), CriticalityTag(2), replicas=6),
                ],
            )
        ]
        nodes = [Node(f"n{i}", Resources(rng.choice([4.0, 8.0]), rng.choice([1.0, 8.0]))) for i in range(16)]
        state = ClusterState(nodes=nodes, applications=apps)
        state.fail_nodes(["n3", "n7"])
        plan = PhoenixPlanner(RevenueObjective()).plan(state)
        packing_opt = PackingHeuristic().pack(state.copy(), plan)
        packing_ref = ReferencePackingHeuristic().pack(state.copy(), plan)
        assert_packing_equal(packing_opt, packing_ref)

    def test_weighted_objective_uses_heap_and_matches_reference(self):
        from repro.core.objectives import WeightedObjective

        objective = WeightedObjective({RevenueObjective(): 0.5, FairnessObjective(): 0.5})
        assert objective.independent_scores
        rng = random.Random(42)
        state = _random_state(rng)
        _fail_some_nodes(rng, state)
        plan_opt = PhoenixPlanner(objective).plan(state)
        plan_ref = reference_plan(
            state, WeightedObjective({RevenueObjective(): 0.5, FairnessObjective(): 0.5})
        )
        assert plan_opt.ranked == plan_ref.ranked
        assert plan_opt.activated == plan_ref.activated

    def test_coupled_objective_falls_back_to_reference_loop(self):
        """``independent_scores = False`` objectives take the exact path."""

        class CoupledObjective(RevenueObjective):
            independent_scores = False

            def score(self, app, microservice, allocated):
                # Depends on *other* apps' allocations: illegal for the heap.
                return super().score(app, microservice, allocated) - 0.01 * sum(allocated.values())

        rng = random.Random(7)
        state = _random_state(rng)
        _fail_some_nodes(rng, state)
        plan_opt = PhoenixPlanner(CoupledObjective()).plan(state)
        plan_ref = reference_plan(state, CoupledObjective())
        assert plan_opt.ranked == plan_ref.ranked
        assert plan_opt.activated == plan_ref.activated


# -- the refusal path under a real crunch ------------------------------------------

from repro.core.scheduler import apply_schedule

CRUNCH_SETTINGS = [
    {"allow_migration": migration, "allow_deletion": deletion}
    for migration in (True, False)
    for deletion in (True, False)
]


def _crunch_tenant(rng: random.Random, tenant: int, template: list[tuple]) -> Application:
    """One renamed copy of the template application (tenant tiling)."""
    return Application.from_microservices(
        f"tenant{tenant:02d}",
        [
            Microservice(
                name=name,
                resources=Resources(cpu=cpu, memory=memory),
                criticality=CriticalityTag(criticality),
                replicas=replicas,
            )
            for name, cpu, memory, criticality, replicas in template
        ],
        price_per_unit=rng.choice([1.0, 2.0, 3.0, 5.0]),
    )


def _crunch_cluster(seed: int, tenants: int = 6, node_count: int = 40):
    """A tiled cluster >= 70 % full on the cpu axis, then 35 % of it lost.

    Demands are two-dimensional and heterogeneous (cpu-heavy, memory-heavy
    and balanced microservices, one to three replicas), so best-fit fails on
    either axis and a refusal on one axis says nothing about the other.
    """
    rng = random.Random(seed)
    template = []
    for j in range(rng.randint(14, 20)):
        shape = rng.random()
        if shape < 0.3:  # memory-heavy
            cpu, memory = rng.choice([0.25, 0.5, 1.0]), rng.choice([3.0, 4.0, 6.0])
        elif shape < 0.6:  # cpu-heavy
            cpu, memory = rng.choice([2.0, 3.0, 4.0]), rng.choice([0.25, 0.5, 1.0])
        else:
            cpu, memory = rng.choice([0.5, 1.0, 1.5, 2.0]), rng.choice([0.5, 1.0, 2.0])
        template.append((f"ms{j:02d}", cpu, memory, rng.randint(1, 5), rng.choice([1, 1, 2, 3])))
    apps = [_crunch_tenant(rng, t, template) for t in range(tenants)]
    cpu = sum(app.total_demand().cpu for app in apps)
    memory = sum(app.total_demand().memory for app in apps)
    nodes = [
        Node(f"n{i:02d}", Resources(cpu / (0.74 * node_count), memory / (0.74 * node_count)))
        for i in range(node_count)
    ]
    state = ClusterState(nodes=nodes, applications=apps)
    planner = PhoenixPlanner(RevenueObjective())
    apply_schedule(state, PhoenixScheduler().schedule(state, planner.plan(state)))
    assert state.utilization() >= 0.70, "the cluster must be full before the loss"
    state.fail_nodes(rng.sample(sorted(state.nodes), round(0.35 * node_count)))
    return rng, state, planner


@pytest.mark.parametrize("settings", CRUNCH_SETTINGS, ids=lambda s: "mig{allow_migration:d}-del{allow_deletion:d}".format(**s))
@pytest.mark.parametrize("seed", range(5))
def test_crunch_refusals_identical_to_reference(seed, settings):
    """Fast == reference byte for byte while most of the tail is refused.

    Three rounds: the 35 % loss itself, then two churn rounds on the adopted
    packing (nodes swap between failed and healthy), where lower ranks run
    and delete-lower-ranks has real victims.
    """
    rng, state, planner = _crunch_cluster(30_000 + seed)
    refused = 0
    for _ in range(3):
        plan = planner.plan(state)
        packing_opt = PackingHeuristic(**settings).pack(state.copy(), plan)
        packing_ref = ReferencePackingHeuristic(**settings).pack(state.copy(), plan)
        assert_packing_equal(packing_opt, packing_ref)
        actions_opt = PhoenixScheduler._diff(state, packing_opt)
        assert actions_opt == reference_diff(state, packing_ref)
        refused += len(packing_opt.unplaced)

        schedule = PhoenixScheduler(**settings).schedule(state, plan)
        assert schedule.actions == actions_opt
        apply_schedule(state, schedule)
        assert_running_index_consistent(state)
        failed = sorted(state.failed_names())
        healthy = sorted(set(state.nodes) - set(failed))
        state.recover_nodes(rng.sample(failed, 2))
        state.fail_nodes(rng.sample(healthy, 2))
    assert refused, "the scenario must exercise the refusal path"
