"""Incremental reconciliation: per-round cost follows churn, not cluster size.

The classic schedule stage pays O(cluster) per round even when one node
blinked: it copies the live state (O(nodes) dict clones), scans every node
for eviction, and rebuilds the packing node index from scratch
(O(nodes log nodes)).  :class:`IncrementalScheduler` replaces that with a
**persistent scratch state** and a **persistent node index** that are
realigned with the live state each round using the dirty set the live state
accumulated (:meth:`repro.cluster.state.ClusterState.drain_dirty`).

Round cost.  With R assigned replicas, C activated containers, D dirty
nodes, U entries the pack refuses and E epoch changes during the pack
(placements, migrations, victim deletions), a fast round costs

    O(R + C + D · log nodes + U · F + E · W)

where F is the size of the packer's refusal frontier (a handful of
``(cpu, memory, rank)`` triples; see :class:`repro.core.packing._DeadEnds`)
and W one repack walk (8 candidates × their residents × one best-fit).  A
refused entry used to cost W on its own, which on a cluster in a capacity
crunch — thousands of refusals, almost all at one epoch — was most of the
round.  What is still O(R) or O(C) every round, crunch or not:
``plan.activated_set()`` and the not-activated scan over the assignment map
in ``pack_onto``, the ``resync_from`` clone of that map, the final
``assignments_snapshot`` and ``diff_actions``.  Those wait for a pack that
restarts from the first rank whose inputs changed.

Byte-identity
-------------
Incremental rounds produce output *byte-identical* to the classic
copy-and-repack path (and therefore to the golden reference stages, which
the classic path is already pinned to).  The argument:

1. The scratch's assignment map is rebuilt each round as an order-preserving
   clone of the live map — exactly what ``state.copy()`` does — so every
   order-sensitive consumer (the delete-non-activated scan, the
   delete-lower-ranks victim order) sees the same sequence.
2. Per-node usage floats are *copied* from the live state for every node
   that changed on either side since the last round; unchanged nodes were
   equal before and were not touched, so equality is inductive.  No float is
   ever re-derived in a different accumulation order.
3. Failed-node eviction is re-derived from the live map every round (the
   live state keeps replicas assigned to failed nodes, exactly like the
   fresh copy the classic path evicts from).
4. The persistent node index is updated to contain exactly the
   ``(free cpu, name, free memory)`` entries a fresh build would contain.
   Its block layout differs, but both ``best_fit`` and
   ``nodes_by_free_desc`` scan entries in globally sorted order, so the
   layout is unobservable.  Every node that changed on either side goes
   through ``_NodeIndex.refresh``, which advances the index epoch even when
   the free pair comes out equal, so the one packer memo that outlives a
   round (the *idle* repack epoch) can only survive a round in which no
   indexed node's usage or residents changed; the refusal frontier and the
   victim index are rank-relative and are rebuilt by every pack.
5. With an equivalent state and an equivalent index, the pack runs the very
   same code (:meth:`repro.core.packing.PackingHeuristic.pack_onto`), and
   the differ is a pure function of (live state, packing).

Fallback conditions (the round runs the classic full recompute, which also
re-seeds the scratch).  The ``reason=`` label is what
``engine.incremental.full_rounds`` is counted under and what
:attr:`IncrementalScheduler.last_full_reason` reports:

============================  ====================  ==============================================
condition                      ``reason=``           why
============================  ====================  ==============================================
first round / new state        ``new_state``         nothing to reuse yet (a state is adopted
                                                     once it is seen on two consecutive rounds)
``invalidate()`` called        ``invalidated``       forced full recompute (``reconcile(force=True)``)
structural dirty               ``structural``        nodes/applications added or removed
drain token mismatch           ``token_mismatch``    another consumer drained the dirty set
dirty nodes > threshold        ``dirty_threshold``   rebuilding is cheaper than resyncing
non-stock packer               ``non_stock_packer``  only :class:`PackingHeuristic` maintains the
                                                     index (counted by ``StagePipeline``, which
                                                     never builds an ``IncrementalScheduler``)
============================  ====================  ==============================================
"""

from __future__ import annotations

import weakref

from repro import obs
from repro.cluster.state import ClusterState
from repro.core.packing import PackingHeuristic, _NodeIndex
from repro.core.plan import ActivationPlan, SchedulePlan

#: Fraction of the cluster that may be dirty before a full rebuild is
#: cheaper than an incremental resync (capacity-target moves that fail or
#: recover a large slice of the cluster fall back through this).
DEFAULT_DIRTY_NODE_THRESHOLD = 0.25


class IncrementalScheduler:
    """Schedule stage with a persistent scratch state and node index.

    Drop-in for the classic ``working = state.copy(share_nodes=True)`` /
    pack / diff sequence in :class:`repro.api.engine.StagePipeline` and
    :class:`repro.core.scheduler.PhoenixScheduler`.  One instance tracks one
    live state (the one it last scheduled); scheduling a different state
    object falls back to the classic path and re-targets the scratch.

    Parameters
    ----------
    packer:
        The stock :class:`~repro.core.packing.PackingHeuristic`; other
        packers cannot maintain the persistent index.
    differ:
        The diff stage (``(live, packing) -> list[Action]``); any differ
        works — it is a pure function evaluated on the live state.
    dirty_node_threshold:
        Fraction of the cluster that may be dirty before falling back.
    """

    def __init__(
        self,
        packer: PackingHeuristic,
        differ,
        dirty_node_threshold: float = DEFAULT_DIRTY_NODE_THRESHOLD,
    ) -> None:
        if not isinstance(packer, PackingHeuristic):
            raise TypeError(
                "IncrementalScheduler requires the stock PackingHeuristic, got "
                f"{type(packer).__name__}"
            )
        if not 0.0 < dirty_node_threshold <= 1.0:
            raise ValueError("dirty_node_threshold must be in (0, 1]")
        self._packer = packer
        self._differ = differ
        self._threshold = dirty_node_threshold
        self._tracked: weakref.ref | None = None
        self._token = -1
        self._scratch: ClusterState | None = None
        self._index: _NodeIndex | None = None
        #: The state of the previous schedule() call, whatever it was —
        #: used to adopt a new live state only once it repeats, so callers
        #: that pass a fresh copy every round (the AdaptLab ``respond``
        #: pattern) never pin a scratch that can never be reused.
        self._last_seen: weakref.ref | None = None
        #: Round counters, for observability and the fallback tests.
        self.fast_rounds = 0
        self.full_rounds = 0
        self.last_mode = "none"
        #: Why the most recent full round was one (a ``reason=`` label of
        #: the module's fallback table), or ``None`` before the first.
        self.last_full_reason: str | None = None
        self._invalidated = False

    def invalidate(self) -> None:
        """Drop the scratch so the next round is a full recompute."""
        self._drop_scratch()
        self._invalidated = True

    def _drop_scratch(self) -> None:
        self._tracked = None
        self._token = -1
        self._scratch = None
        self._index = None

    def schedule(self, state: ClusterState, plan: ActivationPlan) -> SchedulePlan:
        """One schedule round; incremental when the scratch is reusable."""
        tracked = self._tracked() if self._tracked is not None else None
        if self._tracked is not None and tracked is None:
            self._drop_scratch()  # the tracked state died: free scratch + index
        try:
            reason = "invalidated" if self._invalidated else "new_state"
            self._invalidated = False
            if self._scratch is not None and tracked is state:
                outcome = self._fast_schedule(state, plan)
                if not isinstance(outcome, str):
                    self.fast_rounds += 1
                    self.last_mode = "incremental"
                    registry = obs.registry()
                    if registry.enabled:
                        registry.counter("engine.incremental.fast_rounds").inc()
                    return outcome
                reason = outcome
            # Seed (or re-seed) the scratch only for states that have shown
            # reuse potential: the tracked state itself, or a state seen on
            # two consecutive rounds (a reconcile loop to adopt).  One-shot
            # states — fresh copies passed by respond()-style callers —
            # run classic without pinning a scratch that can never be
            # reused (and without displacing a live one).
            retain = tracked is state or (
                self._last_seen is not None and self._last_seen() is state
            )
            self.full_rounds += 1
            self.last_mode = "full"
            self.last_full_reason = reason
            registry = obs.registry()
            if registry.enabled:
                registry.counter("engine.incremental.full_rounds", reason=reason).inc()
            return self._full_schedule(state, plan, retain)
        finally:
            self._last_seen = weakref.ref(state)

    # -- the two paths -------------------------------------------------------
    def _full_schedule(
        self, live: ClusterState, plan: ActivationPlan, retain: bool
    ) -> SchedulePlan:
        """Classic copy-and-repack; the working copy becomes the new scratch."""
        live.drain_dirty()
        working = live.copy(share_nodes=True)
        packing, index = self._packer.pack_onto(working, plan)
        if retain:
            self._scratch = working
            self._index = index
            self._tracked = weakref.ref(live)
            self._token = live.generation
        actions = self._differ(live, packing)
        return SchedulePlan(
            target_assignment=packing.assignment,
            actions=actions,
            unplaced=packing.unplaced,
        )

    def _fast_schedule(self, live: ClusterState, plan: ActivationPlan) -> SchedulePlan | str:
        """Incremental round, or the ``reason=`` label of the fallback that holds."""
        dirty = live.drain_dirty()
        if dirty.structural:
            return "structural"
        if dirty.base_generation != self._token:
            return "token_mismatch"
        scratch = self._scratch
        own = scratch.drain_dirty()
        dirty_nodes = set(dirty.nodes)
        dirty_nodes.update(own.nodes)
        if len(dirty_nodes) > self._threshold * len(live.nodes):
            return "dirty_threshold"

        # Realign the scratch with the live state: exact assignment-map
        # clone, per-node floats copied for everything that changed on
        # either side, failed nodes re-derived so the eviction below
        # replays what a fresh copy would evict.
        resync_nodes = dirty_nodes | live.failed_names()
        scratch.resync_from(live, resync_nodes)
        scratch.evict_from_failed_nodes()

        index = self._index
        for name in dirty_nodes:
            index.refresh(name)

        packing, index = self._packer.pack_onto(scratch, plan, node_index=index)
        self._index = index
        self._token = dirty.end_generation
        actions = self._differ(live, packing)
        return SchedulePlan(
            target_assignment=packing.assignment,
            actions=actions,
            unplaced=packing.unplaced,
        )
