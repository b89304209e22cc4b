"""Naive reference implementations of the plan → pack → diff hot path.

This module preserves the original (pre-optimization) implementations of

* the global ranking loop (:func:`reference_rank`),
* the packing heuristic (:class:`ReferencePackingHeuristic`), and
* the schedule differ (:func:`reference_diff`)

exactly as they shipped in the seed.  They are deliberately simple and
super-linear: the ranker rescans every application cursor per activation,
the packing node index is a flat ``bisect``-maintained list, and the
delete-lower-ranks strategy re-sorts all assignments on every unplaced
container.

They exist for two reasons:

1. **Golden equivalence** — the optimized implementations in
   :mod:`repro.core.planner`, :mod:`repro.core.packing` and
   :mod:`repro.core.scheduler` must produce byte-identical plans, packings
   and action lists.  ``tests/test_planner_equivalence.py`` asserts this
   across randomized scenarios, and ``EngineConfig(implementation=
   "reference")`` runs a whole engine on them for verification runs.
2. **Generality fallback** — operator objectives whose ``score`` depends on
   *other* applications' allocations (``independent_scores = False``) cannot
   use the lazy-rescore heap; :class:`~repro.core.planner.GlobalRanker`
   falls back to :func:`reference_rank` for them.

Do not optimize this module.
"""

from __future__ import annotations

import bisect
from typing import Mapping

from repro.cluster.application import Application
from repro.cluster.resources import Resources
from repro.cluster.state import ClusterState, ReplicaId
from repro.core.objectives import OperatorObjective
from repro.core.packing import REPACK_CANDIDATE_NODES, PackingResult
from repro.core.plan import Action, ActionKind, ActivationPlan, RankedMicroservice


class _ReferenceCursor:
    """Iteration state over one application's priority list."""

    __slots__ = ("app", "order", "index")

    def __init__(self, app: Application, order: list[str]) -> None:
        self.app = app
        self.order = order
        self.index = 0

    def current(self) -> str | None:
        if self.index >= len(self.order):
            return None
        return self.order[self.index]

    def advance(self) -> None:
        self.index += 1


def reference_rank(
    objective: OperatorObjective,
    applications: Mapping[str, Application],
    app_rank: Mapping[str, list[str]],
    capacity: float,
) -> ActivationPlan:
    """The seed's global ranking loop (Alg. 1, lines 21-30), verbatim.

    Every iteration re-scores the head container of *every* application and
    picks the argmax (ties break on the application name), which is
    O(containers x applications).
    """
    objective.prepare(applications, capacity)
    allocated = {name: 0.0 for name in applications}
    cursors = {
        name: _ReferenceCursor(applications[name], list(app_rank.get(name, [])))
        for name in applications
    }

    ranked: list[RankedMicroservice] = []
    activated: list[RankedMicroservice] = []
    remaining = capacity
    blocked: set[str] = set()

    while True:
        best_app: str | None = None
        best_score = float("-inf")
        for name, cursor in cursors.items():
            ms_name = cursor.current()
            if ms_name is None:
                continue
            ms = cursor.app.get(ms_name)
            score = objective.score(cursor.app, ms, allocated)
            if score > best_score or (score == best_score and (best_app is None or name < best_app)):
                best_score = score
                best_app = name
        if best_app is None:
            break

        cursor = cursors[best_app]
        ms_name = cursor.current()
        assert ms_name is not None
        ms = cursor.app.get(ms_name)
        demand = ms.total_resources.cpu
        entry = RankedMicroservice(best_app, ms_name, demand)
        ranked.append(entry)
        if best_app not in blocked and demand <= remaining + 1e-9:
            activated.append(entry)
            remaining -= demand
            allocated[best_app] += demand
        else:
            blocked.add(best_app)
        cursor.advance()

    return ActivationPlan(
        ranked=ranked,
        activated=activated,
        capacity=capacity,
        objective=objective.name,
    )


class _ReferenceNodeIndex:
    """The seed's flat sorted-list node index (O(nodes) memory-miss scans)."""

    def __init__(self, state: ClusterState) -> None:
        self._state = state
        self._entries: list[tuple[float, str]] = []
        for node in state.healthy_nodes():
            free = state.free_on(node.name)
            bisect.insort(self._entries, (free.cpu, node.name))

    def remove(self, node_name: str) -> None:
        free = self._state.free_on(node_name).cpu
        index = bisect.bisect_left(self._entries, (free, node_name))
        while index < len(self._entries):
            if self._entries[index][1] == node_name:
                del self._entries[index]
                return
            if self._entries[index][0] > free:
                break
            index += 1
        # Fallback (should not happen): linear removal.
        self._entries = [e for e in self._entries if e[1] != node_name]

    def reinsert(self, node_name: str) -> None:
        free = self._state.free_on(node_name).cpu
        bisect.insort(self._entries, (free, node_name))

    def best_fit(self, demand: Resources) -> str | None:
        start = bisect.bisect_left(self._entries, (demand.cpu - 1e-9, ""))
        for free_cpu, node_name in self._entries[start:]:
            if demand.fits_within(self._state.free_on(node_name)):
                return node_name
        return None

    def nodes_by_free_desc(self) -> list[str]:
        return [name for _, name in reversed(self._entries)]


class ReferencePackingHeuristic:
    """The seed's criticality-aware bin packing (Algorithm 2), verbatim.

    Mirrors :class:`repro.core.packing.PackingHeuristic` behaviour exactly
    but with the original data structures: flat node index, full re-sort of
    all assignments per delete-lower-ranks call, double sort of node
    residents during repacking.
    """

    def __init__(self, allow_migration: bool = True, allow_deletion: bool = True) -> None:
        self.allow_migration = allow_migration
        self.allow_deletion = allow_deletion

    def pack(self, state: ClusterState, plan: ActivationPlan):
        result = PackingResult()
        state.evict_from_failed_nodes()

        activated = list(plan.activated)
        activated_set = {(e.app, e.microservice) for e in activated}
        rank_of = {(e.app, e.microservice): i for i, e in enumerate(plan.ranked)}

        for replica in list(state.assignments):
            if (replica.app, replica.microservice) not in activated_set:
                state.unassign(replica)
                result.deleted.append(replica)

        index = _ReferenceNodeIndex(state)

        for entry in activated:
            placed = self._place_microservice(state, index, entry, rank_of, result)
            if not placed:
                result.unplaced.append((entry.app, entry.microservice))

        result.assignment = dict(state.assignments)
        return result

    def _place_microservice(self, state, index, entry, rank_of, result) -> bool:
        ms = state.microservice(entry.app, entry.microservice)
        placed_now: list[ReplicaId] = []
        for replica in state.iter_replicas(entry.app, entry.microservice):
            if state.node_of(replica) is not None:
                continue
            node_name = self._find_node(state, index, ms.resources, entry, rank_of, result)
            if node_name is None:
                for done in placed_now:
                    node = state.node_of(done)
                    assert node is not None
                    index.remove(node)
                    state.unassign(done)
                    index.reinsert(node)
                return False
            self._assign(state, index, replica, node_name)
            placed_now.append(replica)
        return True

    def _assign(self, state, index, replica, node_name) -> None:
        index.remove(node_name)
        state.assign(replica, node_name)
        index.reinsert(node_name)

    def _find_node(self, state, index, demand, entry, rank_of, result):
        node_name = index.best_fit(demand)
        if node_name is not None:
            return node_name
        if self.allow_migration:
            node_name = self._repack_to_fit(state, index, demand, result)
            if node_name is not None:
                return node_name
        if self.allow_deletion:
            node_name = self._delete_lower_ranks_to_fit(state, index, demand, entry, rank_of, result)
            if node_name is not None:
                return node_name
        return None

    def _repack_to_fit(self, state, index, demand, result):
        candidates = index.nodes_by_free_desc()[:REPACK_CANDIDATE_NODES]
        for node_name in candidates:
            if demand.fits_within(state.free_on(node_name)):
                return node_name
            residents = sorted(
                state.replicas_on(node_name),
                key=lambda r: state.microservice(r.app, r.microservice).resources.cpu,
            )
            index.remove(node_name)
            for resident in residents:
                if demand.fits_within(state.free_on(node_name)):
                    break
                resident_demand = state.microservice(resident.app, resident.microservice).resources
                target = index.best_fit(resident_demand)
                if target is None:
                    continue
                state.unassign(resident)
                self._assign(state, index, resident, target)
                result.migrated[resident] = (node_name, target)
            index.reinsert(node_name)
            if demand.fits_within(state.free_on(node_name)):
                return node_name
        return None

    def _delete_lower_ranks_to_fit(self, state, index, demand, entry, rank_of, result):
        my_rank = rank_of.get((entry.app, entry.microservice), len(rank_of))
        victims = sorted(
            (
                replica
                for replica in state.assignments
                if rank_of.get((replica.app, replica.microservice), len(rank_of)) > my_rank
            ),
            key=lambda r: rank_of.get((r.app, r.microservice), len(rank_of)),
            reverse=True,
        )
        for victim in victims:
            node_name = state.node_of(victim)
            assert node_name is not None
            index.remove(node_name)
            state.unassign(victim)
            index.reinsert(node_name)
            result.deleted.append(victim)
            candidate = index.best_fit(demand)
            if candidate is not None:
                return candidate
        return None


def reference_diff(live: ClusterState, packing) -> list[Action]:
    """The seed's action differ, verbatim (per-replica ``node()`` lookups)."""
    live_assignment = dict(live.assignments)
    target = packing.assignment

    deletions: list[Action] = []
    migrations: list[Action] = []
    starts: list[Action] = []

    for replica, live_node in live_assignment.items():
        target_node = target.get(replica)
        node_failed = live.node(live_node).failed
        if target_node is None:
            if not node_failed:
                deletions.append(Action(ActionKind.DELETE, replica, source_node=live_node))
        elif target_node != live_node:
            if node_failed:
                starts.append(Action(ActionKind.START, replica, target_node=target_node))
            else:
                migrations.append(
                    Action(
                        ActionKind.MIGRATE,
                        replica,
                        target_node=target_node,
                        source_node=live_node,
                    )
                )

    for replica, target_node in target.items():
        if replica not in live_assignment:
            starts.append(Action(ActionKind.START, replica, target_node=target_node))

    def sort_key(action: Action) -> tuple[str, str, int]:
        return (action.replica.app, action.replica.microservice, action.replica.replica)

    deletions.sort(key=sort_key)
    migrations.sort(key=sort_key)
    starts.sort(key=sort_key)
    return [*deletions, *migrations, *starts]
