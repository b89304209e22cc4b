"""Resilience schemes evaluated by AdaptLab (§6).

Cooperative schemes (the paper's contribution):

* :class:`PhoenixCostScheme` — Phoenix engine, revenue objective.
* :class:`PhoenixFairScheme` — Phoenix engine, fairness objective.
* :class:`LPCostScheme` / :class:`LPFairScheme` — the exact ILP formulations.

Non-cooperative baselines:

* :class:`FairScheme` — operator-enforced fair-share redistribution that is
  blind to criticality tags.
* :class:`PriorityScheme` — applications expose criticality tags but the
  operator enforces no per-application quota, so tag-rich applications hog
  capacity.
* :class:`DefaultScheme` — vanilla Kubernetes behaviour: reschedule evicted
  pods with a spreading policy, no criticality awareness, no deletions of
  running pods, no packing efficiency.
* :class:`NoDegradationScheme` — applications that cannot adapt at all (the
  "×" marker of Figure 5): unless the *whole* application fits, it is down.

Every scheme consumes a post-failure :class:`ClusterState` and returns a new
state (the enacted target) plus the planning time it took to compute it.

Since the engine redesign the planner-driven schemes are
:class:`~repro.api.adapters.SchemeAdapter` wrappers around a
:class:`~repro.api.engine.PhoenixEngine`: the Phoenix schemes use the stock
pipeline, the LP schemes use an :class:`~repro.api.engine.LPPipeline`, and
the Fair/Priority baselines plug their policy in as a custom
:class:`~repro.api.stages.Ranker` — same engine, different stage.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

import networkx as nx
import numpy as np

from repro.api.adapters import SchemeAdapter
from repro.api.config import EngineConfig
from repro.api.engine import LPPipeline, PhoenixEngine
from repro.cluster.application import Application
from repro.cluster.state import ClusterState
from repro.core.lp import LPCost, LPFair
from repro.core.objectives import FairnessObjective, RevenueObjective
from repro.core.plan import ActivationPlan, RankedMicroservice
from repro.core.planner import GlobalRanker, PriorityEstimator


class ResilienceScheme(ABC):
    """A degradation/recovery policy responding to a capacity crunch."""

    name: str = "scheme"

    @abstractmethod
    def respond(self, state: ClusterState) -> tuple[ClusterState, float]:
        """Return (new cluster state, planning seconds) for a failed state.

        ``state`` is not mutated.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# -- Phoenix --------------------------------------------------------------------


class PhoenixScheme(SchemeAdapter, ResilienceScheme):
    """Phoenix engine under a configurable operator objective.

    ``PhoenixScheme(engine=...)`` wraps a fully configured engine; plain
    :class:`~repro.api.adapters.SchemeAdapter` does the same outside the
    scheme hierarchy.
    """


class PhoenixCostScheme(PhoenixScheme):
    """PhoenixCost: revenue-maximizing operator objective."""

    def __init__(self) -> None:
        super().__init__(
            engine=PhoenixEngine(EngineConfig(objective=RevenueObjective())),
            name="phoenix-cost",
        )


class PhoenixFairScheme(PhoenixScheme):
    """PhoenixFair: water-filling max-min fairness operator objective."""

    def __init__(self) -> None:
        super().__init__(
            engine=PhoenixEngine(EngineConfig(objective=FairnessObjective())),
            name="phoenix-fair",
        )


# -- exact LP baselines ------------------------------------------------------------


class LPCostScheme(SchemeAdapter, ResilienceScheme):
    """Exact revenue-maximizing ILP (does not scale beyond ~1000 nodes)."""

    name = "lp-cost"

    def __init__(self, time_limit: float = 60.0) -> None:
        super().__init__(
            PhoenixEngine.from_pipeline(
                LPPipeline(LPCost(time_limit=time_limit), name="lp-cost")
            )
        )

    @property
    def _lp(self):
        """Legacy view of the underlying solver."""
        return self.engine.pipeline.solver


class LPFairScheme(LPCostScheme):
    """Exact fairness ILP (Appendix C)."""

    name = "lp-fair"

    def __init__(self, time_limit: float = 60.0) -> None:
        SchemeAdapter.__init__(
            self,
            PhoenixEngine.from_pipeline(
                LPPipeline(LPFair(time_limit=time_limit), name="lp-fair")
            ),
        )


# -- non-cooperative baselines --------------------------------------------------------


class _CriticalityBlindEstimator(PriorityEstimator):
    """Orders microservices by dependency topology only (no criticality)."""

    def rank(self, app: Application) -> list[str]:
        if not app.has_dependency_graph:
            return sorted(app.microservices)
        graph = app.dependency_graph
        try:
            order = [n for n in nx.lexicographical_topological_sort(graph)]
        except nx.NetworkXUnfeasible:  # cycles: fall back to name order
            order = sorted(app.microservices)
        missing = [n for n in sorted(app.microservices) if n not in order]
        return order + missing


class _CriticalityBlindRanker:
    """Fair-share :class:`~repro.api.stages.Ranker`, blind to criticality.

    A fresh fairness objective is prepared per plan (matching the pre-engine
    scheme, which rebuilt its objective every ``respond`` call).
    """

    def __init__(self) -> None:
        self._estimator = _CriticalityBlindEstimator()

    def plan(self, state: ClusterState) -> ActivationPlan:
        ranker = GlobalRanker(FairnessObjective())
        app_rank = {
            name: self._estimator.rank(app) for name, app in state.applications.items()
        }
        return ranker.rank(state.applications, app_rank, state.total_capacity().cpu)


class FairScheme(SchemeAdapter, ResilienceScheme):
    """Fair-share redistribution without criticality awareness."""

    name = "fair"

    def __init__(self) -> None:
        super().__init__(
            PhoenixEngine(
                EngineConfig(objective="fairness"), ranker=_CriticalityBlindRanker()
            ),
            name="fair",
        )


class _PriorityQueueRanker:
    """Per-application criticality order with no inter-application policy.

    Each application restores its own containers in criticality order, but
    the operator applies no per-application quota and no inter-application
    coordination: applications are simply served one after another, and —
    as the paper observes — "a few applications with many high-criticality
    microservices use most of the resources", starving the applications that
    come later in the queue.  Applications with larger high-criticality
    footprints reclaim capacity first (they generate the most restart
    traffic), which is what makes the behaviour pathological.
    """

    def __init__(self) -> None:
        self._estimator = PriorityEstimator()

    def plan(self, state: ClusterState) -> ActivationPlan:
        capacity = state.total_capacity().cpu

        def c1_demand(app: Application) -> float:
            return sum(
                ms.total_resources.cpu for ms in app if ms.criticality.level == 1
            )

        app_order = sorted(
            state.applications.values(), key=lambda a: (-c1_demand(a), a.name)
        )
        ranked: list[RankedMicroservice] = []
        activated: list[RankedMicroservice] = []
        remaining = capacity
        for app in app_order:
            blocked = False
            for ms_name in self._estimator.rank(app):
                ms = app.get(ms_name)
                demand = ms.total_resources.cpu
                entry = RankedMicroservice(app.name, ms_name, demand)
                ranked.append(entry)
                if not blocked and demand <= remaining + 1e-9:
                    activated.append(entry)
                    remaining -= demand
                else:
                    blocked = True
        return ActivationPlan(
            ranked=ranked, activated=activated, capacity=capacity, objective="priority"
        )


class PriorityScheme(SchemeAdapter, ResilienceScheme):
    """Criticality tags without operator-level inter-application policy."""

    name = "priority"

    def __init__(self) -> None:
        super().__init__(
            PhoenixEngine(ranker=_PriorityQueueRanker()), name="priority"
        )


class DefaultScheme(ResilienceScheme):
    """Vanilla cluster-scheduler behaviour (the Kubernetes "Default" baseline).

    Pods on healthy nodes keep running; pods lost with failed nodes are
    rescheduled in name order using a least-allocated (spreading) policy.
    Nothing is ever turned off to make room, so under a capacity crunch the
    reschedule queue simply stalls — exactly the behaviour Phoenix improves
    on.  (Not engine-shaped: there is no planning pipeline to speak of.)
    """

    name = "default"

    def respond(self, state: ClusterState) -> tuple[ClusterState, float]:
        started = time.perf_counter()
        new_state = state.copy()
        evicted = new_state.evict_from_failed_nodes()
        evicted.sort(key=lambda r: (r.app, r.microservice, r.replica))
        # Vectorized least-allocated scan: one row per healthy node (in node
        # registration order, matching the per-replica scan it replaces);
        # the chosen row is refreshed from the state after each assignment so
        # selections are identical to recomputing free capacity every time.
        names = [node.name for node in new_state.healthy_nodes()]
        free_cpu = np.empty(len(names))
        free_mem = np.empty(len(names))
        for i, name in enumerate(names):
            free = new_state.free_on(name)
            free_cpu[i] = free.cpu
            free_mem[i] = free.memory
        for replica in evicted:
            demand = new_state.demand_of(replica.app, replica.microservice)
            fits = (demand.cpu <= free_cpu + 1e-9) & (demand.memory <= free_mem + 1e-9)
            if not fits.any():
                continue
            # np.argmax returns the first maximum, matching the strict
            # "free.cpu > best" scan order over healthy nodes.
            index = int(np.argmax(np.where(fits, free_cpu, -np.inf)))
            target = names[index]
            new_state.assign(replica, target)
            free = new_state.free_on(target)
            free_cpu[index] = free.cpu
            free_mem[index] = free.memory
        elapsed = time.perf_counter() - started
        return new_state, elapsed


class NoDegradationScheme(ResilienceScheme):
    """Applications that cannot degrade: all-or-nothing availability.

    After Default-style rescheduling, any application that is not fully
    running is considered down and its remaining replicas are withdrawn —
    modelling applications that cannot adapt to a resource crunch (the "×"
    marker in Figure 5).
    """

    name = "no-degradation"

    def __init__(self) -> None:
        self._default = DefaultScheme()

    def respond(self, state: ClusterState) -> tuple[ClusterState, float]:
        new_state, elapsed = self._default.respond(state)
        started = time.perf_counter()
        active = new_state.active_microservices()
        for name, app in new_state.applications.items():
            fully_up = all(ms.name in active[name] for ms in app)
            if fully_up:
                continue
            for ms in app:
                for replica in new_state.iter_replicas(name, ms.name):
                    if new_state.node_of(replica) is not None:
                        new_state.unassign(replica)
        return new_state, elapsed + (time.perf_counter() - started)


def default_scheme_suite() -> list[ResilienceScheme]:
    """The five schemes shown in Figures 7 and 10-16."""
    return [
        PhoenixCostScheme(),
        PhoenixFairScheme(),
        PriorityScheme(),
        FairScheme(),
        DefaultScheme(),
    ]
