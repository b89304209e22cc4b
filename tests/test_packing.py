"""Tests for the packing heuristic (Algorithm 2)."""

from repro.cluster import Application, Node, Resources
from repro.cluster.state import ClusterState, ReplicaId
from repro.core.objectives import RevenueObjective
from repro.core.packing import PackingHeuristic
from repro.core.plan import ActivationPlan, RankedMicroservice
from repro.core.planner import PhoenixPlanner

from tests.conftest import make_microservice


def plan_for(state):
    return PhoenixPlanner(RevenueObjective()).plan(state)


def entry(app, ms, cpu):
    return RankedMicroservice(app, ms, cpu)


class TestBestFit:
    def test_places_on_tightest_node(self):
        app = Application.from_microservices("a", [make_microservice("m", cpu=2, memory=2)])
        state = ClusterState(
            nodes=[Node("big", Resources(10, 10)), Node("small", Resources(3, 3))],
            applications=[app],
        )
        plan = ActivationPlan(ranked=[entry("a", "m", 2)], activated=[entry("a", "m", 2)])
        result = PackingHeuristic().pack(state.copy(), plan)
        assert result.assignment[ReplicaId("a", "m", 0)] == "small"

    def test_keeps_already_running_replicas_in_place(self, simple_app):
        state = ClusterState(
            nodes=[Node("n0", Resources(8, 8)), Node("n1", Resources(8, 8))],
            applications=[simple_app],
        )
        state.assign(ReplicaId("shop", "frontend", 0), "n1")
        plan = plan_for(state)
        result = PackingHeuristic().pack(state.copy(), plan)
        assert result.assignment[ReplicaId("shop", "frontend", 0)] == "n1"

    def test_unplaced_when_nothing_fits(self):
        app = Application.from_microservices("a", [make_microservice("huge", cpu=10, memory=10)])
        state = ClusterState(nodes=[Node("n0", Resources(4, 4))], applications=[app])
        plan = ActivationPlan(ranked=[entry("a", "huge", 10)], activated=[entry("a", "huge", 10)])
        result = PackingHeuristic().pack(state.copy(), plan)
        assert ("a", "huge") in result.unplaced
        assert ReplicaId("a", "huge", 0) not in result.assignment


class TestDiagonalScaling:
    def test_non_activated_running_containers_are_deleted(self, simple_app):
        state = ClusterState(
            nodes=[Node("n0", Resources(8, 8))],
            applications=[simple_app],
        )
        state.assign(ReplicaId("shop", "recommend", 0), "n0")
        plan = ActivationPlan(
            ranked=[entry("shop", "frontend", 2)],
            activated=[entry("shop", "frontend", 2)],
        )
        result = PackingHeuristic().pack(state.copy(), plan)
        assert ReplicaId("shop", "recommend", 0) in result.deleted
        assert ReplicaId("shop", "recommend", 0) not in result.assignment

    def test_replicas_on_failed_nodes_are_rescheduled(self, simple_app):
        state = ClusterState(
            nodes=[Node("n0", Resources(8, 8)), Node("n1", Resources(8, 8))],
            applications=[simple_app],
        )
        state.assign(ReplicaId("shop", "frontend", 0), "n0")
        state.fail_nodes(["n0"])
        plan = plan_for(state)
        result = PackingHeuristic().pack(state.copy(), plan)
        assert result.assignment[ReplicaId("shop", "frontend", 0)] == "n1"


class TestMigration:
    def _fragmented_state(self):
        """Two nodes, each half full, so a large container needs migration.

        Each node has 6 CPU with a 3-CPU filler on it: 3 CPU free per node,
        while the new container needs 5 — only consolidating the fillers
        onto one node makes room.
        """
        filler0 = make_microservice("filler0", cpu=3, memory=3, criticality=2)
        filler1 = make_microservice("filler1", cpu=3, memory=3, criticality=2)
        big = make_microservice("big", cpu=5, memory=5, criticality=1)
        app = Application.from_microservices("a", [filler0, filler1, big])
        state = ClusterState(
            nodes=[Node("n0", Resources(6, 6)), Node("n1", Resources(6, 6))],
            applications=[app],
        )
        state.assign(ReplicaId("a", "filler0", 0), "n0")
        state.assign(ReplicaId("a", "filler1", 0), "n1")
        return state

    def test_migration_frees_a_node(self):
        state = self._fragmented_state()
        plan = ActivationPlan(
            ranked=[entry("a", "filler0", 3), entry("a", "filler1", 3), entry("a", "big", 5)],
            activated=[entry("a", "filler0", 3), entry("a", "filler1", 3), entry("a", "big", 5)],
        )
        result = PackingHeuristic().pack(state.copy(), plan)
        assert ReplicaId("a", "big", 0) in result.assignment
        assert result.migrated  # something moved to make room

    def test_migration_disabled_falls_back_to_deletion_or_unplaced(self):
        state = self._fragmented_state()
        plan = ActivationPlan(
            ranked=[entry("a", "filler0", 3), entry("a", "filler1", 3), entry("a", "big", 5)],
            activated=[entry("a", "filler0", 3), entry("a", "filler1", 3), entry("a", "big", 5)],
        )
        result = PackingHeuristic(allow_migration=False, allow_deletion=False).pack(state.copy(), plan)
        assert ("a", "big") in result.unplaced

    def test_capacity_invariant_after_migration(self):
        state = self._fragmented_state()
        plan = ActivationPlan(
            ranked=[entry("a", "filler0", 3), entry("a", "filler1", 3), entry("a", "big", 5)],
            activated=[entry("a", "filler0", 3), entry("a", "filler1", 3), entry("a", "big", 5)],
        )
        working = state.copy()
        PackingHeuristic().pack(working, plan)
        for node in working.nodes.values():
            assert working.used_on(node.name).fits_within(node.capacity)


class TestDeletion:
    def test_lower_ranked_deleted_for_higher_ranked(self):
        low = make_microservice("low", cpu=4, memory=4, criticality=5)
        high = make_microservice("high", cpu=4, memory=4, criticality=1)
        app = Application.from_microservices("a", [high, low])
        state = ClusterState(nodes=[Node("n0", Resources(4, 4))], applications=[app])
        state.assign(ReplicaId("a", "low", 0), "n0")
        plan = ActivationPlan(
            ranked=[entry("a", "high", 4), entry("a", "low", 4)],
            activated=[entry("a", "high", 4), entry("a", "low", 4)],
        )
        result = PackingHeuristic().pack(state.copy(), plan)
        assert result.assignment.get(ReplicaId("a", "high", 0)) == "n0"
        assert ReplicaId("a", "low", 0) in result.deleted

    def test_deletion_disabled_keeps_lower_ranked(self):
        low = make_microservice("low", cpu=4, memory=4, criticality=5)
        high = make_microservice("high", cpu=4, memory=4, criticality=1)
        app = Application.from_microservices("a", [high, low])
        state = ClusterState(nodes=[Node("n0", Resources(4, 4))], applications=[app])
        state.assign(ReplicaId("a", "low", 0), "n0")
        plan = ActivationPlan(
            ranked=[entry("a", "high", 4), entry("a", "low", 4)],
            activated=[entry("a", "high", 4), entry("a", "low", 4)],
        )
        result = PackingHeuristic(allow_migration=False, allow_deletion=False).pack(state.copy(), plan)
        assert ReplicaId("a", "low", 0) in result.assignment
        assert ("a", "high") in result.unplaced

    def test_higher_ranked_never_deleted_for_lower_ranked(self):
        high = make_microservice("high", cpu=4, memory=4, criticality=1)
        low = make_microservice("low", cpu=4, memory=4, criticality=5)
        app = Application.from_microservices("a", [high, low])
        state = ClusterState(nodes=[Node("n0", Resources(4, 4))], applications=[app])
        state.assign(ReplicaId("a", "high", 0), "n0")
        plan = ActivationPlan(
            ranked=[entry("a", "high", 4), entry("a", "low", 4)],
            activated=[entry("a", "high", 4), entry("a", "low", 4)],
        )
        result = PackingHeuristic().pack(state.copy(), plan)
        assert result.assignment.get(ReplicaId("a", "high", 0)) == "n0"
        assert ReplicaId("a", "high", 0) not in result.deleted


class TestReplicas:
    def test_all_replicas_placed_or_none(self):
        app = Application.from_microservices(
            "a", [make_microservice("web", cpu=3, memory=3, replicas=3)]
        )
        # Only two 4-cpu nodes: the third replica cannot fit anywhere.
        state = ClusterState(
            nodes=[Node("n0", Resources(4, 4)), Node("n1", Resources(4, 4))],
            applications=[app],
        )
        plan = ActivationPlan(ranked=[entry("a", "web", 9)], activated=[entry("a", "web", 9)])
        result = PackingHeuristic().pack(state.copy(), plan)
        assert ("a", "web") in result.unplaced
        assert not any(r.app == "a" for r in result.assignment)

    def test_multiple_replicas_spread_across_nodes(self):
        app = Application.from_microservices(
            "a", [make_microservice("web", cpu=3, memory=3, replicas=2)]
        )
        state = ClusterState(
            nodes=[Node("n0", Resources(4, 4)), Node("n1", Resources(4, 4))],
            applications=[app],
        )
        plan = ActivationPlan(ranked=[entry("a", "web", 6)], activated=[entry("a", "web", 6)])
        result = PackingHeuristic().pack(state.copy(), plan)
        nodes_used = {result.assignment[ReplicaId("a", "web", i)] for i in range(2)}
        assert nodes_used == {"n0", "n1"}


# -- dead-end memos: a refused placement is proven once per index epoch -------------

import pytest

from repro import obs
from repro.core.packing import REPACK_CANDIDATE_NODES, _DeadEnds, _NodeIndex, _VictimIndex
from repro.core.reference import ReferencePackingHeuristic


@pytest.fixture
def pack_counters():
    """Pack with the obs plane on and hand back the ``engine.pack.*`` counters."""
    obs.disable()
    obs.registry().reset()

    def run(packer, state, plan):
        obs.registry().reset()
        obs.enable()
        try:
            result = packer.pack(state, plan)
        finally:
            obs.disable()
        registry = obs.registry()
        names = ("refused", "refusals_short_circuited", "repack_probes", "victim_index_builds")
        return result, {name: registry.counter(f"engine.pack.{name}").value for name in names}

    yield run
    obs.disable()
    obs.registry().reset()


def _plan_of(*entries):
    return ActivationPlan(ranked=list(entries), activated=list(entries))


def _assert_matches_reference(state, plan, result, **kwargs):
    reference = ReferencePackingHeuristic(**kwargs).pack(state.copy(), plan)
    assert list(result.assignment.items()) == list(reference.assignment.items())
    assert result.unplaced == reference.unplaced
    assert result.deleted == reference.deleted
    assert list(result.migrated.items()) == list(reference.migrated.items())


RESIDENTS_PER_NODE = 3


def _full_cluster(refused_cpus, node_count=10, tail=()):
    """Every node holds three immovable 2.5-cpu fillers (0.5 free of 8).

    The fillers outrank the ``big*`` entries, whose demands fit nowhere: each
    of them is refused by all three prongs without the state changing.
    ``tail`` microservices are ranked (and activated) after them.
    """
    fillers = [
        make_microservice(f"f{i:02d}", cpu=2.5, memory=1, criticality=1)
        for i in range(node_count * RESIDENTS_PER_NODE)
    ]
    bigs = [
        make_microservice(f"big{j:03d}", cpu=cpu, memory=1, criticality=5)
        for j, cpu in enumerate(refused_cpus)
    ] + list(tail)
    app = Application.from_microservices("a", fillers + bigs)
    state = ClusterState(
        nodes=[Node(f"n{i}", Resources(8, 8)) for i in range(node_count)], applications=[app]
    )
    for i, filler in enumerate(fillers):
        state.assign(ReplicaId("a", filler.name, 0), f"n{i // RESIDENTS_PER_NODE}")
    plan = _plan_of(*(entry("a", ms.name, ms.resources.cpu) for ms in fillers + bigs))
    return state, plan


class TestRefusalWorkCount:
    """Work counts, not clocks: N refusals at one epoch cost O(N) probes."""

    FIRST_WALK = REPACK_CANDIDATE_NODES * RESIDENTS_PER_NODE

    def _best_fit_calls(self, monkeypatch, refused_cpus):
        calls = []
        builds = []
        real_best_fit = _NodeIndex.best_fit
        real_build = _VictimIndex._build
        monkeypatch.setattr(
            _NodeIndex, "best_fit", lambda self, demand: calls.append(demand) or real_best_fit(self, demand)
        )
        monkeypatch.setattr(
            _VictimIndex, "_build", lambda self, *a: builds.append(a) or real_build(self, *a)
        )
        state, plan = _full_cluster(refused_cpus)
        working = state.copy()
        result = PackingHeuristic().pack(working, plan)
        assert len(result.unplaced) == len(refused_cpus)
        assert not result.migrated and not result.deleted
        _assert_matches_reference(state, plan, result)
        return len(calls), len(builds)

    @pytest.mark.parametrize("count", [10, 40])
    def test_undominated_refusals_cost_one_probe_each(self, monkeypatch, count):
        # Strictly shrinking demands: no refusal covers the next one, so each
        # entry asks best-fit once — but only the first walks the candidates.
        cpus = [6.0 - 0.01 * j for j in range(count)]
        calls, builds = self._best_fit_calls(monkeypatch, cpus)
        assert calls == count + self.FIRST_WALK
        assert builds == 0, "no running replica outranks a refused entry"

    def test_dominated_refusals_cost_nothing(self, monkeypatch):
        cpus = [5.0 + 0.01 * j for j in range(40)]  # each >= the first
        calls, builds = self._best_fit_calls(monkeypatch, cpus)
        assert calls == 1 + self.FIRST_WALK
        assert builds == 0

    def test_counters_say_where_the_round_went(self, pack_counters):
        state, plan = _full_cluster([5.0] * 25)
        _, counters = pack_counters(PackingHeuristic(), state.copy(), plan)
        assert counters == {
            "refused": 25,
            "refusals_short_circuited": 24,
            "repack_probes": self.FIRST_WALK,
            "victim_index_builds": 0,
        }

    def test_memory_axis_is_not_covered_by_a_cpu_refusal(self):
        """Dominance needs both axes: a thin entry after a wide refusal fits."""
        thin = make_microservice("thin", cpu=0.5, memory=4, criticality=5)
        state, plan = _full_cluster([5.0], tail=[thin])
        result = PackingHeuristic().pack(state.copy(), plan)
        assert result.unplaced == [("a", "big000")]
        assert ReplicaId("a", "thin", 0) in result.assignment
        _assert_matches_reference(state, plan, result)


class TestVictimIndexLaziness:
    def _spy(self, monkeypatch):
        builds = []
        real_build = _VictimIndex._build

        def build(self, assignments, floor):
            real_build(self, assignments, floor)
            builds.append((floor, sum(len(b) for b in self._buckets.values())))

        monkeypatch.setattr(_VictimIndex, "_build", build)
        return builds

    def test_only_replicas_ranked_after_the_asker_are_bucketed(self, monkeypatch):
        builds = self._spy(monkeypatch)
        keep = [make_microservice(f"keep{i}", cpu=2, memory=2, criticality=1) for i in range(3)]
        high = make_microservice("high", cpu=4, memory=4, criticality=1)
        low = [make_microservice(f"low{i}", cpu=2, memory=2, criticality=5) for i in range(2)]
        app = Application.from_microservices("a", [*keep, high, *low])
        state = ClusterState(
            nodes=[Node("n0", Resources(6, 6)), Node("n1", Resources(4, 4))], applications=[app]
        )
        for ms in keep:
            state.assign(ReplicaId("a", ms.name, 0), "n0")
        for ms in low:
            state.assign(ReplicaId("a", ms.name, 0), "n1")
        plan = _plan_of(*(entry("a", ms.name, ms.resources.cpu) for ms in [*keep, high, *low]))
        result = PackingHeuristic(allow_migration=False).pack(state.copy(), plan)
        assert result.assignment[ReplicaId("a", "high", 0)] == "n1"
        assert result.deleted == [ReplicaId("a", "low1", 0), ReplicaId("a", "low0", 0)]
        assert builds == [(3, 2)], "one build, floor = high's rank, two victims bucketed"
        _assert_matches_reference(state, plan, result, allow_migration=False)

    def test_asker_below_the_floor_rebuilds(self, monkeypatch):
        """Entries need not arrive in rank order; a lower asker must see its victims."""
        builds = self._spy(monkeypatch)
        mss = {
            name: make_microservice(name, cpu=cpu, memory=1, criticality=3)
            for name, cpu in [("r0", 4), ("r1", 4), ("r2", 2), ("r3", 2), ("r4", 2), ("r5", 2)]
        }
        app = Application.from_microservices("a", list(mss.values()))
        state = ClusterState(
            nodes=[Node("n0", Resources(4, 4)), Node("n1", Resources(4, 4))], applications=[app]
        )
        for name, node in [("r2", "n0"), ("r3", "n0"), ("r4", "n1"), ("r5", "n1")]:
            state.assign(ReplicaId("a", name, 0), node)
        ranked = [entry("a", name, ms.resources.cpu) for name, ms in mss.items()]
        # r1 (rank 1) asks before r0 (rank 0): the second ask is below the floor.
        order = [ranked[1], ranked[0], *ranked[2:]]
        plan = ActivationPlan(ranked=ranked, activated=order)
        result = PackingHeuristic(allow_migration=False).pack(state.copy(), plan)
        assert [floor for floor, _ in builds] == [1, 0]
        _assert_matches_reference(state, plan, result, allow_migration=False)


class TestMemoInvalidation:
    """Every kind of state change voids what was proven before it."""

    def test_index_epoch_follows_published_changes_only(self):
        state, _ = _full_cluster([])
        index = _NodeIndex(state)
        start = index.epoch
        index.remove("n3")
        index.reinsert("n3")  # a bracket around an untouched node
        assert index.epoch == start
        index.update("n3")
        assert index.epoch == start + 1
        index.refresh("n4")  # equal free pair, but residents may have been swapped
        assert index.epoch == start + 2
        state.fail_nodes(["n5"])
        index.refresh("n5")
        assert index.epoch == start + 3 and len(index) == 9

    def test_dead_ends_are_scoped_to_one_epoch(self):
        state, _ = _full_cluster([])
        index = _NodeIndex(state)
        memo = _DeadEnds(index)
        assert not memo.covers(3.0, 1.0, 7)
        memo.record(3.0, 1.0, 7)
        assert memo.covers(3.0, 1.0, 7) and memo.covers(4.0, 2.0, 9)
        assert not memo.covers(2.9, 5.0, 9), "smaller cpu"
        assert not memo.covers(4.0, 0.5, 9), "smaller memory"
        assert not memo.covers(4.0, 2.0, 6), "better rank: it may still have victims"
        memo.record(2.0, 0.5, 5)  # dominates the first refusal: the frontier stays minimal
        assert memo._frontier == [(2.0, 0.5, 5)]
        index.update("n0")
        assert not memo.covers(4.0, 2.0, 9), "the epoch moved"
        assert memo.short_circuited == 2

    def test_migration_voids_the_refusal(self, pack_counters):
        """A walk that moves a resident proves nothing: the next entry walks again."""
        caps = [6.5, 9, 9, 9, 9, 9, 9, 9, 8, 7]  # n0 .. n9
        fillers_on = [1, 2, 2, 2, 2, 2, 2, 2, 2, 2]  # 3.5-cpu fillers: free 3,2,...,2,1,0
        fillers, homes = [], {}
        for node, count in enumerate(fillers_on):
            for _ in range(count):
                ms = make_microservice(f"f{len(fillers):02d}", cpu=3.5, memory=1, criticality=1)
                fillers.append(ms)
                homes[ms.name] = f"n{node}"
        small = make_microservice("small", cpu=1, memory=1, criticality=1)
        homes["small"] = "n0"  # n0: one filler + small, 2 free like n1..n7
        bigs = [make_microservice(f"big{i}", cpu=6, memory=1, criticality=5) for i in range(3)]
        app = Application.from_microservices("a", [*fillers, small, *bigs])
        state = ClusterState(
            nodes=[Node(f"n{i}", Resources(cap, 8)) for i, cap in enumerate(caps)],
            applications=[app],
        )
        for name, node in homes.items():
            state.assign(ReplicaId("a", name, 0), node)
        plan = _plan_of(
            *(entry("a", ms.name, ms.resources.cpu) for ms in [*fillers, small, *bigs])
        )
        result, counters = pack_counters(PackingHeuristic(), state.copy(), plan)
        # big0 walks n7..n0 (2 free each): only ``small`` can move, to n8, the
        # tightest node and not a candidate.  That changed the epoch, so big0's
        # refusal is not recorded; big1 walks again (n0 now has 3 free, still no
        # room for a filler), moves nothing and proves the dead end; big2 is
        # refused by the memo.
        assert result.migrated == {ReplicaId("a", "small", 0): ("n0", "n8")}
        assert result.unplaced == [("a", "big0"), ("a", "big1"), ("a", "big2")]
        assert counters["refusals_short_circuited"] == 1
        assert counters["repack_probes"] == (7 * 2 + 2) + (1 + 7 * 2)
        _assert_matches_reference(state, plan, result)

    def test_victim_deletion_voids_the_refusal(self, pack_counters):
        lows = [make_microservice(f"low{i}", cpu=2, memory=2, criticality=5) for i in range(2)]
        bigs = [make_microservice(f"big{i}", cpu=5, memory=5, criticality=1) for i in range(3)]
        fits = make_microservice("fits", cpu=4, memory=4, criticality=1)
        app = Application.from_microservices("a", [*bigs, fits, *lows])
        state = ClusterState(nodes=[Node("n0", Resources(4, 4))], applications=[app])
        for ms in lows:
            state.assign(ReplicaId("a", ms.name, 0), "n0")
        plan = _plan_of(*(entry("a", ms.name, ms.resources.cpu) for ms in [*bigs, fits, *lows]))
        result, counters = pack_counters(PackingHeuristic(), state.copy(), plan)
        # big0 deletes both victims and still does not fit (epoch moved: not
        # recorded); big1 proves the dead end; big2 is short-circuited; the
        # 4-cpu entry is smaller than the refusal and takes the freed node.
        assert result.deleted == [ReplicaId("a", "low1", 0), ReplicaId("a", "low0", 0)]
        assert result.unplaced == [("a", "big0"), ("a", "big1"), ("a", "big2"), ("a", "low0"), ("a", "low1")]
        assert result.assignment == {ReplicaId("a", "fits", 0): "n0"}
        assert counters["refusals_short_circuited"] == 2  # big2, and low1 after low0
        assert counters["victim_index_builds"] == 1
        _assert_matches_reference(state, plan, result)

    def test_rollback_voids_the_refusal(self, pack_counters):
        """All-or-nothing rollback changes the epoch: the refusal is not a fact."""
        web = make_microservice("web", cpu=3, memory=3, replicas=3, criticality=1)
        solo = make_microservice("solo", cpu=3, memory=3, criticality=2)
        again = make_microservice("again", cpu=3, memory=3, replicas=2, criticality=3)
        app = Application.from_microservices("a", [web, solo, again])
        state = ClusterState(
            nodes=[Node("n0", Resources(4, 4)), Node("n1", Resources(4, 4))], applications=[app]
        )
        plan = _plan_of(entry("a", "web", 9), entry("a", "solo", 3), entry("a", "again", 6))
        result, counters = pack_counters(PackingHeuristic(), state.copy(), plan)
        # web places two replicas, fails the third and rolls back; solo has the
        # same per-replica demand and a worse rank, and must still be placed.
        assert result.unplaced == [("a", "web"), ("a", "again")]
        assert ReplicaId("a", "solo", 0) in result.assignment
        assert counters["refusals_short_circuited"] == 0
        _assert_matches_reference(state, plan, result)
