"""The Phoenix scheduler's packing heuristic (Algorithm 2 / Appendix B).

The packing module maps the planner's globally ordered activation list onto
healthy nodes using a three-pronged strategy:

1. **Best fit** — place the replica on the healthy node with the *least*
   free capacity that can still hold it.
2. **Repack (migration)** — if no node fits, try to free one up by migrating
   smaller replicas off a candidate node onto other nodes.
3. **Delete lower ranks** — as a last resort, delete replicas of
   lower-ranked microservices (from the tail of the planner's list) until
   the replica fits.

All work happens on a *copy* of the cluster state; the agent later applies
the resulting action list to the real cluster.

Scalability notes (100k-node hot path):

* :class:`_NodeIndex` is a blocked sorted structure keyed by
  ``(free cpu, node name)`` with a per-block *maximum free memory*.  Best-fit
  lookups skip whole blocks whose memory cannot possibly fit the demand, so
  the "CPU fits but memory does not" pathology no longer degrades to an
  O(nodes) scan, and the index snapshots each node's free resources so scans
  never recompute them.  Removal uses the exact stored key — no tolerance
  scan, no linear fallback.
* :class:`_VictimIndex` keeps the delete-lower-ranks victim order (rank
  descending, assignment order within a rank) incrementally, instead of
  re-sorting every assignment on each unplaced container.  It is lazy twice
  over: an upper bound on the highest running rank answers "no victim
  outranks the asker" without touching an assignment, and when a victim can
  exist only replicas ranked above the asker are bucketed.
* Dead ends are proven once.  :class:`_NodeIndex` carries a mutation
  **epoch**; a refused placement leaves the epoch where it found it, so in
  a capacity crunch thousands of refusals share one epoch.  A repack walk
  that migrated nothing marks the epoch *idle* (later walks only re-check
  the candidates' free capacity), and :class:`_DeadEnds` remembers which
  ``(cpu, memory, rank)`` demands were refused at the epoch so that any
  entry at least as demanding and no better ranked is refused in O(1).

All of it is behaviour-preserving: packings are byte-identical to the naive
implementation retained in :mod:`repro.core.reference`, which the
golden-equivalence tests enforce.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro import obs
from repro.cluster.resources import Resources
from repro.cluster.state import ClusterState, ReplicaId, SchedulingError  # noqa: F401  (re-export)
from repro.core.plan import ActivationPlan, RankedMicroservice

#: How many nodes the repack (migration) strategy examines per placement.
#: The candidates with the most free capacity are the ones most likely to be
#: freed up, so a small bound keeps the heuristic close to linear without
#: changing its outcome in practice.  Shared with the reference twin.
REPACK_CANDIDATE_NODES = 8


class _NodeIndex:
    """Healthy nodes indexed by ``(free cpu, name)`` in sorted blocks.

    The index is maintained incrementally as replicas are placed or removed:
    every mutation of a node's usage is bracketed by :meth:`remove` /
    :meth:`reinsert`, so the ``(free cpu, free memory)`` snapshot in
    ``_free`` always equals the state's live ``free_on`` value.

    Each block caches its maximum free memory as a ``[value, multiplicity]``
    pair: removing one of several equal-max entries just decrements the
    multiplicity, so homogeneous-memory workloads never rescan a block.

    ``epoch`` advances whenever a node's free pair or resident set may have
    changed — in :meth:`update` and :meth:`refresh`, the two calls that
    publish a changed node (a bare :meth:`remove` / :meth:`reinsert` bracket
    around a node nobody touched restores the same entry set and leaves it
    alone).  Everything the packer proves about "nothing fits" is stamped
    with the epoch it was proven at and is void at any other.
    """

    #: Target block size; blocks split at twice this length.
    BLOCK = 384

    def __init__(self, state: ClusterState) -> None:
        self._state = state
        self._free_pair = state.free_pair
        entries = state.free_table()
        #: node name -> (free cpu, free memory), authoritative inside the index
        self._free: dict[str, tuple[float, float]] = {
            name: (cpu, mem) for cpu, name, mem in entries
        }
        entries.sort()
        block = self.BLOCK
        self._blocks: list[list[tuple[float, str, float]]] = [
            entries[i : i + block] for i in range(0, len(entries), block)
        ]
        self._maxmem: list[list[float]] = [self._block_max(b) for b in self._blocks]
        #: (cpu, name) of each block's last entry, for block bisection
        self._tails: list[tuple[float, str]] = [(b[-1][0], b[-1][1]) for b in self._blocks]
        self.epoch = 0
        #: The epoch at which a repack walk over the top candidates probed
        #: every resident and could migrate none (see ``_repack_to_fit``).
        self.idle_epoch = -1

    @staticmethod
    def _block_max(block: list[tuple[float, str, float]]) -> list[float]:
        top = max(e[2] for e in block)
        count = 0
        for e in block:
            if e[2] == top:
                count += 1
        return [top, count]

    def __len__(self) -> int:
        return len(self._free)

    def remove(self, node_name: str) -> None:
        """Remove a node using its exact stored key (raises if absent)."""
        cpu, mem = self._free.pop(node_name)
        key = (cpu, node_name)
        i = bisect.bisect_left(self._tails, key)
        block = self._blocks[i]
        j = bisect.bisect_left(block, key)
        if block[j][1] != node_name:  # pragma: no cover - index corruption guard
            raise KeyError(f"node {node_name!r} not at its indexed position")
        del block[j]
        if not block:
            del self._blocks[i]
            del self._maxmem[i]
            del self._tails[i]
            return
        self._tails[i] = (block[-1][0], block[-1][1])
        top = self._maxmem[i]
        if mem == top[0]:
            top[1] -= 1
            if top[1] == 0:
                self._maxmem[i] = self._block_max(block)

    def update(self, node_name: str, new_pair: tuple[float, float] | None = None) -> None:
        """Re-key a node after its usage changed (fused remove + reinsert).

        ``new_pair`` is the node's new free (cpu, memory) when the caller
        already knows it (the trusted state mutators return it); otherwise it
        is recomputed from the state.  When the new key lands in the same
        block the entry is moved with a single block edit; otherwise it falls
        back to remove + reinsert.
        """
        pair = self._free.get(node_name)
        if pair is None:  # pragma: no cover - index corruption guard
            raise KeyError(node_name)
        self.epoch += 1
        cpu, mem = pair
        if new_pair is None:
            new_pair = self._free_pair(node_name)
        ncpu, nmem = new_pair
        key = (cpu, node_name)
        new_key = (ncpu, node_name)
        i = bisect.bisect_left(self._tails, key)
        blocks = self._blocks
        block = blocks[i]
        if (i == 0 or self._tails[i - 1] < new_key) and (
            i == len(blocks) - 1 or new_key < (blocks[i + 1][0][0], blocks[i + 1][0][1])
        ):
            j = bisect.bisect_left(block, key)
            if block[j][1] != node_name:  # pragma: no cover - corruption guard
                raise KeyError(f"node {node_name!r} not at its indexed position")
            del block[j]
            bisect.insort(block, (ncpu, node_name, nmem))
            self._free[node_name] = new_pair
            self._tails[i] = (block[-1][0], block[-1][1])
            if nmem != mem:  # unchanged memory leaves the block max as-is
                top = self._maxmem[i]
                if mem == top[0]:
                    top[1] -= 1
                if nmem > top[0]:
                    self._maxmem[i] = [nmem, 1]
                elif nmem == top[0]:
                    top[1] += 1
                elif top[1] == 0:
                    self._maxmem[i] = self._block_max(block)
            return
        self.remove(node_name)
        self.reinsert(node_name)

    def refresh(self, node_name: str) -> None:
        """Reconcile one node's entry after out-of-band state changes.

        Used by the incremental scheduler when re-using a persistent index
        across rounds: a node that failed leaves the index, a node that
        recovered (re)enters it, and a healthy node whose usage changed is
        re-keyed.  The resulting entry set is exactly what a fresh
        ``_NodeIndex(state)`` build would contain for this node.  The epoch
        advances even when the free pair comes out equal: the node's
        residents may have been swapped for others of the same total demand.
        """
        present = node_name in self._free
        if present and not self._state.nodes[node_name].failed:
            self.update(node_name)
            return
        self.epoch += 1
        if present:
            self.remove(node_name)
        elif not self._state.nodes[node_name].failed:
            self.reinsert(node_name)

    def reinsert(self, node_name: str) -> None:
        cpu, mem = self._free_pair(node_name)
        self._free[node_name] = (cpu, mem)
        entry = (cpu, node_name, mem)
        blocks = self._blocks
        if not blocks:
            blocks.append([entry])
            self._maxmem.append([mem, 1])
            self._tails.append((cpu, node_name))
            return
        i = bisect.bisect_left(self._tails, (cpu, node_name))
        if i == len(blocks):
            i -= 1
        block = blocks[i]
        bisect.insort(block, entry)
        top = self._maxmem[i]
        if mem > top[0]:
            self._maxmem[i] = [mem, 1]
        elif mem == top[0]:
            top[1] += 1
        self._tails[i] = (block[-1][0], block[-1][1])
        if len(block) > 2 * self.BLOCK:
            self._split(i)

    def _split(self, i: int) -> None:
        block = self._blocks[i]
        mid = len(block) // 2
        right = block[mid:]
        del block[mid:]
        self._blocks.insert(i + 1, right)
        self._maxmem[i] = self._block_max(block)
        self._maxmem.insert(i + 1, self._block_max(right))
        self._tails[i] = (block[-1][0], block[-1][1])
        self._tails.insert(i + 1, (right[-1][0], right[-1][1]))

    def best_fit(self, demand: Resources) -> str | None:
        """Healthy node with the smallest free capacity >= demand, or None."""
        demand_cpu = demand.cpu
        demand_mem = demand.memory
        start_key = (demand_cpu - 1e-9, "")
        blocks = self._blocks
        maxmem = self._maxmem
        first = bisect.bisect_left(self._tails, start_key)
        for bi in range(first, len(blocks)):
            # Skip blocks where no entry can satisfy the memory dimension.
            if demand_mem > maxmem[bi][0] + 1e-9:
                continue
            block = blocks[bi]
            j = bisect.bisect_left(block, start_key) if bi == first else 0
            for k in range(j, len(block)):
                entry = block[k]
                # Same fit predicate as Resources.fits_within on the node's
                # live free capacity (cpu is >= demand - 1e-9 by construction
                # of the scan start, but kept for exactness on ties).
                if demand_cpu <= entry[0] + 1e-9 and demand_mem <= entry[2] + 1e-9:
                    return entry[1]
        return None

    def nodes_by_free_desc(self, limit: int | None = None) -> list[str]:
        """Node names by free CPU descending, optionally only the top few."""
        out: list[str] = []
        for bi in range(len(self._blocks) - 1, -1, -1):
            block = self._blocks[bi]
            for k in range(len(block) - 1, -1, -1):
                out.append(block[k][1])
                if limit is not None and len(out) >= limit:
                    return out
        return out


class _VictimIndex:
    """Assigned replicas grouped by global rank, for delete-lower-ranks.

    Victims are consumed lowest-priority first: highest rank, and within a
    rank in assignment order (matching the stable reverse sort over the
    assignment map that the naive implementation performs per call — a
    replica that is unassigned and re-assigned moves to the back of its rank
    bucket, exactly like a re-inserted key moves to the back of a dict).

    Nothing is computed before the first delete-lower-ranks call (many packs
    never reach that strategy), and then only what the question needs:

    * ``_ceiling`` is an upper bound on the highest rank of any running
      replica: one O(microservices) pass over the state's running counters,
      raised by every later :meth:`add` and never lowered (a deletion can
      only make the true maximum smaller).  An asker ranked at or above it
      has no victim, and no assignment is looked at.
    * Otherwise the replicas ranked above the asker (``_floor``) are bucketed
      from the assignment map.  Askers arrive in rank order, so one build
      serves the rest of the pack; an asker below the floor rebuilds.
    """

    def __init__(self, rank_of: dict[tuple[str, str], int]) -> None:
        self._rank_of = rank_of
        self._default = len(rank_of)
        #: rank -> insertion-ordered replica set (dict keys used as a set)
        self._buckets: dict[int, dict[ReplicaId, None]] = {}
        #: sorted list of ranks that currently have victims
        self._ranks: list[int] = []
        self._ceiling = -1
        self._floor: int | None = None
        #: True from the first look-up on: the packer reports every
        #: assignment change from then on (:meth:`add` / :meth:`discard`).
        self.tracking = False
        #: How many times the assignment map was bucketed (observability).
        self.builds = 0

    def _build(self, assignments, floor: int) -> None:
        """Bucket the replicas ranked above ``floor`` (insertion order)."""
        rank_get = self._rank_of.get
        default = self._default
        buckets: dict[int, dict[ReplicaId, None]] = {}
        for replica in assignments:
            rank = rank_get(replica[:2], default)
            if rank > floor:
                bucket = buckets.get(rank)
                if bucket is None:
                    buckets[rank] = {replica: None}
                else:
                    bucket[replica] = None
        self._buckets = buckets
        self._ranks = sorted(buckets)
        self._floor = floor
        self.builds += 1

    def add(self, replica: ReplicaId) -> None:
        rank = self._rank_of.get(replica[:2], self._default)
        if rank > self._ceiling:
            self._ceiling = rank
        floor = self._floor
        if floor is None or rank <= floor:
            return
        bucket = self._buckets.get(rank)
        if bucket is None:
            self._buckets[rank] = {replica: None}
            bisect.insort(self._ranks, rank)
        else:
            bucket[replica] = None

    def discard(self, replica: ReplicaId) -> None:
        rank = self._rank_of.get(replica[:2], self._default)
        bucket = self._buckets.get(rank)
        if bucket is None or replica not in bucket:
            return
        del bucket[replica]
        if not bucket:
            del self._buckets[rank]
            i = bisect.bisect_left(self._ranks, rank)
            del self._ranks[i]

    def lowest_above(self, above_rank: int, state: ClusterState) -> ReplicaId | None:
        """Next victim with rank strictly greater than ``above_rank``.

        ``state`` must have no replica on a failed node (the pack evicts
        them first), so its running counters cover every assignment.
        """
        if not self.tracking:
            rank_get = self._rank_of.get
            default = self._default
            self._ceiling = max(
                (
                    rank_get(key, default)
                    for key, count in state.running_view().items()
                    if count > 0
                ),
                default=-1,
            )
            self.tracking = True
        if self._ceiling <= above_rank:
            return None
        if self._floor is None or above_rank < self._floor:
            self._build(state.assignments, above_rank)
        ranks = self._ranks
        if not ranks or ranks[-1] <= above_rank:
            return None
        return next(iter(self._buckets[ranks[-1]]))


class _DeadEnds:
    """Refusals one pack has proven at the node index's current epoch.

    A microservice is *refused* when best-fit, repack and delete-lower-ranks
    all fail for one of its replicas.  If the index epoch did not move while
    that happened, nothing was placed, migrated or deleted, and the refusal
    is a fact about its ``(cpu, memory, rank)`` at that epoch which extends
    to every entry that is >= on all three:

    * best-fit's predicate is monotone in the demand — a node that fits
      ``(c', m')`` fits every ``(c, m)`` with ``c <= c'`` and ``m <= m'``,
      and the scan for the larger demand starts no earlier;
    * the repack walk moved nothing, so the epoch is idle and a later walk
      would only repeat that same monotone fit test on the same candidates;
    * no running replica was ranked after the asker, so none is ranked
      after anything that itself ranks after the asker.

    Such an entry is refused without asking again.  Only the minimal
    refusals (a Pareto frontier) are kept, so the check stays a short scan.
    The two counters ride along for ``engine.pack.*`` observability.
    """

    __slots__ = ("_index", "_epoch", "_frontier", "short_circuited", "repack_probes")

    def __init__(self, index: _NodeIndex) -> None:
        self._index = index
        self._epoch = index.epoch
        self._frontier: list[tuple[float, float, int]] = []
        #: Entries refused by :meth:`covers` alone.
        self.short_circuited = 0
        #: Per-resident best-fit probes made by repack walks.
        self.repack_probes = 0

    def covers(self, cpu: float, memory: float, rank: int) -> bool:
        """True when a refusal recorded at this epoch settles this entry."""
        epoch = self._index.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self._frontier = []
            return False
        for known_cpu, known_memory, known_rank in self._frontier:
            if cpu >= known_cpu and memory >= known_memory and rank >= known_rank:
                self.short_circuited += 1
                return True
        return False

    def record(self, cpu: float, memory: float, rank: int) -> None:
        """Remember a refusal that left the epoch :meth:`covers` last saw."""
        self._frontier = [
            known
            for known in self._frontier
            if not (cpu <= known[0] and memory <= known[1] and rank <= known[2])
        ]
        self._frontier.append((cpu, memory, rank))


@dataclass
class PackingResult:
    """Outcome of one packing run."""

    #: Final replica -> node assignment (on the working copy).
    assignment: dict[ReplicaId, str] = field(default_factory=dict)
    #: Microservices that could not be placed (app, microservice).
    unplaced: list[tuple[str, str]] = field(default_factory=list)
    #: Replicas deleted by the delete-lower-ranks strategy.
    deleted: list[ReplicaId] = field(default_factory=list)
    #: Replicas migrated by the repacking strategy: replica -> (from, to).
    migrated: dict[ReplicaId, tuple[str, str]] = field(default_factory=dict)


class PackingHeuristic:
    """Criticality-aware bin packing (Algorithm 2)."""

    def __init__(self, allow_migration: bool = True, allow_deletion: bool = True) -> None:
        self.allow_migration = allow_migration
        self.allow_deletion = allow_deletion

    # -- public API ----------------------------------------------------------
    def pack(self, state: ClusterState, plan: ActivationPlan) -> PackingResult:
        """Pack the plan's activated microservices onto healthy nodes.

        ``state`` must be a working copy the caller is willing to have
        mutated; replicas already running on healthy nodes are kept in place
        whenever possible.
        """
        return self.pack_onto(state, plan)[0]

    def pack_onto(
        self,
        state: ClusterState,
        plan: ActivationPlan,
        node_index: _NodeIndex | None = None,
    ) -> tuple[PackingResult, _NodeIndex]:
        """Like :meth:`pack`, but exposing the node index for reuse.

        Without ``node_index`` this is the classic pack: evict failed-node
        replicas, then build a fresh index.  With ``node_index`` the caller
        provides a persistent index already synchronized to ``state`` (and
        has performed the eviction itself); the pack keeps the index
        up to date through every mutation, so the returned index can be
        carried into the next round by the incremental scheduler.  Both
        modes produce byte-identical packings — index block layout never
        affects best-fit or free-descending scans, only the entry set does.
        """
        result = PackingResult()
        prebuilt = node_index is not None
        if not prebuilt:
            # Remove replicas stranded on failed nodes; they must be restarted.
            state.evict_from_failed_nodes()

        activated = list(plan.activated)
        activated_set = plan.activated_set()
        rank_of = plan.rank_index()

        # Delete running replicas of microservices the planner chose NOT to
        # activate (diagonal scaling: turning off non-critical containers).
        # replica[:2] == (app, microservice); after eviction every assigned
        # replica runs on a healthy node, so the trusted unassign applies.
        if prebuilt:
            index = node_index
            for replica in list(state.assignments):
                if replica[:2] not in activated_set:
                    node_name, new_free = state.unassign_packed(replica)
                    index.update(node_name, new_free)
                    result.deleted.append(replica)
        else:
            for replica in list(state.assignments):
                if replica[:2] not in activated_set:
                    state.unassign_packed(replica)
                    result.deleted.append(replica)
            index = _NodeIndex(state)
        victims = _VictimIndex(rank_of) if self.allow_deletion else None
        dead_ends = _DeadEnds(index)

        applications = state.applications
        running = state.running_view()
        # The fully-running early-out runs on the state's deficit index: at
        # production scale almost every activated entry is already running,
        # and even a per-entry counter lookup would dominate the loop.  The
        # index is consulted live (not snapshotted) because deletions
        # (delete-lower-ranks, all-or-nothing rollback) may change counts
        # mid-loop.
        deficit_get = state._deficit.get
        unplaced_append = result.unplaced.append
        for entry in activated:
            app_name = entry[0]
            lacking = deficit_get(app_name)
            if lacking is None or entry[1] not in lacking:
                continue  # every replica already runs on a healthy node
            placed = self._place_microservice(
                state, index, victims, dead_ends, entry, rank_of, result, applications, running
            )
            if not placed:
                unplaced_append((app_name, entry[1]))

        result.assignment = state.assignments_snapshot()
        registry = obs.registry()
        if registry.enabled:
            registry.counter("engine.pack.refused").inc(len(result.unplaced))
            registry.counter("engine.pack.refusals_short_circuited").inc(
                dead_ends.short_circuited
            )
            registry.counter("engine.pack.repack_probes").inc(dead_ends.repack_probes)
            registry.counter("engine.pack.victim_index_builds").inc(
                victims.builds if victims is not None else 0
            )
        return result, index

    # -- internal steps --------------------------------------------------------
    def _place_microservice(
        self,
        state: ClusterState,
        index: _NodeIndex,
        victims: _VictimIndex | None,
        dead_ends: _DeadEnds,
        entry: RankedMicroservice,
        rank_of: dict[tuple[str, str], int],
        result: PackingResult,
        applications=None,
        running=None,
    ) -> bool:
        """Place every replica of one microservice; all-or-nothing (Appendix D)."""
        app_name = entry.app
        ms_name = entry.microservice
        if applications is None:
            applications = state.applications
        if running is None:
            running = state.running_view()
        ms = applications[app_name].microservices[ms_name]
        replica_count = ms.replicas
        if running.get((app_name, ms_name), 0) >= replica_count:
            return True  # every replica already runs on a healthy node
        resources = ms.resources
        my_rank = rank_of.get(entry[:2], len(rank_of))
        if dead_ends.covers(resources.cpu, resources.memory, my_rank):
            return False
        epoch = index.epoch
        node_of = state.node_of
        best_fit = index.best_fit
        tuple_new = tuple.__new__
        placed_now: list[ReplicaId] = []
        for idx in range(replica_count):
            # tuple.__new__ skips the generated NamedTuple __new__ wrapper
            replica = tuple_new(ReplicaId, (app_name, ms_name, idx))
            if node_of(replica) is not None:
                continue  # already running on a healthy node — keep in place
            node_name = best_fit(resources)
            if node_name is None:
                node_name = self._find_node_slow(
                    state, index, victims, dead_ends, resources, my_rank, result
                )
            if node_name is None:
                # Roll back replicas of this microservice placed in this round.
                for done in placed_now:
                    self._unassign(state, index, victims, done)
                if index.epoch == epoch:
                    dead_ends.record(resources.cpu, resources.memory, my_rank)
                return False
            self._assign(state, index, victims, replica, node_name)
            placed_now.append(replica)
        return True

    def _assign(
        self,
        state: ClusterState,
        index: _NodeIndex,
        victims: _VictimIndex | None,
        replica: ReplicaId,
        node_name: str,
    ) -> None:
        new_free = state.assign_packed(replica, node_name)
        index.update(node_name, new_free)
        if victims is not None and victims.tracking:
            victims.add(replica)

    def _unassign(
        self,
        state: ClusterState,
        index: _NodeIndex,
        victims: _VictimIndex | None,
        replica: ReplicaId,
    ) -> str:
        node_name, new_free = state.unassign_packed(replica)
        index.update(node_name, new_free)
        if victims is not None and victims.tracking:
            victims.discard(replica)
        return node_name

    def _find_node_slow(
        self,
        state: ClusterState,
        index: _NodeIndex,
        victims: _VictimIndex | None,
        dead_ends: _DeadEnds,
        demand: Resources,
        my_rank: int,
        result: PackingResult,
    ) -> str | None:
        """Fallback strategies once best-fit found no node (Alg. 2 steps 2-3)."""
        if self.allow_migration:
            node_name = self._repack_to_fit(state, index, victims, dead_ends, demand, result)
            if node_name is not None:
                return node_name
        if victims is not None:
            node_name = self._delete_lower_ranks_to_fit(
                state, index, victims, demand, my_rank, result
            )
            if node_name is not None:
                return node_name
        return None

    def _repack_to_fit(
        self,
        state: ClusterState,
        index: _NodeIndex,
        victims: _VictimIndex | None,
        dead_ends: _DeadEnds,
        demand: Resources,
        result: PackingResult,
    ) -> str | None:
        """Try to free up one node by migrating its smallest replicas away.

        Nodes are visited from most free to least free (they need the least
        help to fit the new replica); only the top few candidates are tried.
        Migration moves are applied eagerly; if a candidate still cannot fit
        the demand the moves are kept (they only improve packing) and the
        next candidate is tried, matching the heuristic's greedy character.

        Whether a resident can move does not depend on ``demand``.  A walk
        that probed every resident of every candidate and moved none marks
        the index epoch *idle*; until the epoch advances, a walk for any
        demand would find the same candidates, probe the same residents and
        move none again, so only the direct fit test — the one step that
        reads ``demand`` — is repeated.
        """
        candidates = index.nodes_by_free_desc(REPACK_CANDIDATE_NODES)
        epoch = index.epoch
        idle = index.idle_epoch == epoch
        demand_of = state.demand_of
        for node_name in candidates:
            if demand.fits_within(state.free_on(node_name)):
                return node_name
            if idle:
                continue
            # Single sort on (cpu, replica id) == the naive cpu-keyed stable
            # sort over the name-sorted resident list.
            residents = sorted(
                state.iter_replicas_on(node_name),
                key=lambda r: (demand_of(r.app, r.microservice).cpu, r.app, r.microservice, r.replica),
            )
            # Exclude the candidate from the index while we migrate off it so
            # that best-fit lookups for its residents never pick it again.
            index.remove(node_name)
            for resident in residents:
                if demand.fits_within(state.free_on(node_name)):
                    break
                resident_demand = demand_of(resident.app, resident.microservice)
                dead_ends.repack_probes += 1
                target = index.best_fit(resident_demand)
                if target is None:
                    continue
                state.unassign_packed(resident)
                if victims is not None and victims.tracking:
                    victims.discard(resident)
                self._assign(state, index, victims, resident, target)
                result.migrated[resident] = (node_name, target)
            index.reinsert(node_name)
            if demand.fits_within(state.free_on(node_name)):
                return node_name
        if index.epoch == epoch:  # every migration re-keys its target node
            index.idle_epoch = epoch
        return None

    def _delete_lower_ranks_to_fit(
        self,
        state: ClusterState,
        index: _NodeIndex,
        victims: _VictimIndex,
        demand: Resources,
        my_rank: int,
        result: PackingResult,
    ) -> str | None:
        """Delete lower-priority running replicas until the demand fits."""
        while True:
            victim = victims.lowest_above(my_rank, state)
            if victim is None:
                return None
            self._unassign(state, index, victims, victim)
            result.deleted.append(victim)
            candidate = index.best_fit(demand)
            if candidate is not None:
                return candidate
