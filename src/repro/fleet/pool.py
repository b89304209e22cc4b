"""Persistent worker shards for the fleet: ship states once, then deltas.

:class:`ShardPool` is the one process-backed executor behind both parallel
fleet surfaces — :meth:`repro.fleet.engine.FleetEngine.reconcile` and
:class:`repro.fleet.replay.FleetReplayer`.  Each worker process *owns* a
round-robin shard of the fleet's cells (``cells[w::workers]``) for the
pool's whole lifetime: engines, backends and cluster states are shipped
exactly once, at start.  Afterwards only compact per-round payloads cross
the pipe, encoded by the :mod:`repro.fleet.wire` codec:

* **replay protocol** — trace events out, summaries back (``step``), with
  optional multi-step batching (``batch`` / ``rewind``) and the spillover
  adjustment round (``adjust``);
* **reconcile protocol** — dirty-set-derived health deltas out, full
  reconcile reports and detector checkpoints back (``round``), with a
  full-state resync frame for mutations a delta cannot express.

Every parent→worker exchange is strictly request/reply, and the parent
gathers **all** shard replies before acting on any of them — no partial
result ever folds back.  What happens when a worker faults depends on the
pool's :class:`~repro.fleet.config.SupervisorConfig`:

* **supervised** (the default through :class:`~repro.fleet.config.FleetConfig`)
  — the :class:`ShardSupervisor` detects dead workers (pipe EOF), hung
  workers (per-reply deadlines via ``Connection.poll``) and corrupt reply
  frames (:exc:`~repro.fleet.wire.WireError`), restarts the shard with
  bounded retry + exponential backoff + seeded jitter, re-ships only that
  shard's state, and replays the in-flight command so the fold is
  byte-identical to a fault-free run.  A shard that crash-loops past
  ``max_restarts`` consecutive failures is *degraded* instead of failing
  the call: its cells re-home to an in-process server immediately and are
  redistributed to surviving workers at the next dispatch
  (:class:`~repro.fleet.events.ShardDegraded`).
* **unsupervised** (``supervisor=None``) — any worker fault surfaces as
  one clear :exc:`ShardFailure` naming the lost cells, never as a hang or
  a partial fold-back (fail-fast semantics).

Restart correctness rests on one asymmetry between the two protocols.  In
the reconcile protocol the parent's cell states are *authoritative* before
every round (deltas are derived from them; worker actions are mirrored back
onto them only after the full gather), so a restarted worker is re-seeded
from the parent's current cells and the in-flight round is re-sent with
no-op deltas.  In the replay protocol the parent's states are frozen at
pool start, so each shard keeps a journal of completed commands; a restart
re-seeds from the shard's restart baseline and replays the journal
worker-side (``restore``) before re-sending the in-flight command.  The
journal is kept bounded: past :attr:`ShardPool.JOURNAL_COMPACT_THRESHOLD`
commands the parent pulls a ``snapshot`` of the worker's state, makes it
the new baseline, and truncates the journal.  Either way the
re-executed work runs the exact same code over the exact same inputs as a
fault-free round.

``fault`` injects worker faults deterministically for the failure tests:
a :class:`~repro.chaos.infra.FaultPlan` (kill / hang / corrupt-frame, per
incarnation).

The pool keeps cumulative per-phase wall-clock in :attr:`phase_seconds`
(``ship`` = encode+send, ``wait`` = blocked on replies, including any
recovery work) so benchmarks can attribute where parallel rounds spend
their time.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from typing import Callable, Mapping, Sequence

from repro import obs
from repro.api.engine import PhoenixEngine
from repro.core.controller import StateBackend

from repro.fleet.config import SupervisorConfig
from repro.fleet.engine import Cell, adjust_cells, step_cells
from repro.fleet.events import ShardDegraded, ShardRestarted
from repro.fleet.wire import WireError, dumps, loads


class ShardFailure(RuntimeError):
    """A worker shard failed unrecoverably; the round did not land."""


class _ShardDown(Exception):
    """Internal: one shard faulted (died / hung / corrupt frame)."""


class _UnknownCommand(Exception):
    """Internal: a worker received a command outside the protocol."""


def _snapshot_state(state):
    """Cheap batch checkpoint: a ``share_nodes`` copy + the failed set.

    Every mid-batch mutation of :class:`~repro.cluster.node.Node` objects is
    a health flag flip through ``fail_nodes``/``recover_nodes`` (trace and
    capacity events; reconcile actions only touch assignment maps), so the
    snapshot can share node objects — skipping the O(nodes) re-allocation a
    full copy pays on every batch — and repair the flags from the recorded
    failed set if a rewind actually restores it.
    """
    return state.copy(share_nodes=True), frozenset(state.failure_order())


def _restore_state(snapshot):
    """Reinstate a :func:`_snapshot_state` checkpoint (repairs node health)."""
    state, failed = snapshot
    for name, node in state.nodes.items():
        node.failed = name in failed
    return state


def _build_cells(payload: Sequence[tuple]) -> list[Cell]:
    """Materialize cells from a shipped payload (worker and local shards)."""
    cells = []
    for name, state, config, known_failed, reference_revenue in payload:
        engine = PhoenixEngine(config)
        engine.known_failed = known_failed
        cells.append(Cell(name, engine, StateBackend(state), reference_revenue))
    return cells


def _cell_payload(cell: Cell, *, copy_state: bool = False) -> tuple:
    """One cell's shippable tuple; ``copy_state`` for in-process servers."""
    state = cell.state.copy() if copy_state else cell.state
    return (
        cell.name,
        state,
        cell.engine.config,
        cell.engine.known_failed,
        cell.reference_revenue,
    )


class _ShardServer:
    """The command executor a shard runs over its cells.

    One implementation serves three homes: worker processes
    (:func:`_shard_main`), journal replay during a restart (``restore``),
    and in-process degraded shards in the parent.  Running the exact same
    handler everywhere is what keeps degraded and restarted rounds
    byte-identical to fault-free ones.
    """

    __slots__ = ("cells", "seed", "snapshot")

    def __init__(self, payload: Sequence[tuple], seed: int) -> None:
        self.cells = _build_cells(payload)
        self.seed = seed
        # Last batch checkpoint: (states, detector checkpoints, step events,
        # force, with_events) — enough to rewind when the parent's fold finds
        # a spillover round mid-batch (see FleetReplayer).
        self.snapshot = None

    def handle(self, message: tuple):
        command = message[0]
        if command == "step":
            _, events_by_cell, force, with_events = message
            self.snapshot = None
            return step_cells(
                self.cells, events_by_cell, self.seed, force, with_events=with_events
            )
        if command == "batch":
            _, step_events, force, with_events = message
            self.snapshot = (
                [_snapshot_state(cell.state) for cell in self.cells],
                [cell.engine.known_failed for cell in self.cells],
                step_events,
                force,
                with_events,
            )
            return [
                step_cells(self.cells, events, self.seed, force, with_events=with_events)
                for events in step_events
            ]
        if command == "rewind":
            # Roll the shard back to just after batch step ``keep - 1``:
            # restore the pre-batch checkpoint and re-run the first ``keep``
            # steps.  Replay is deterministic (same states, same events, same
            # seed), and engine caches going cold against the restored states
            # cannot change output — incremental and full recomputes are
            # byte-identical by construction.
            keep = message[1]
            states, knowns, step_events, force, with_events = self.snapshot
            self.snapshot = None
            for cell, checkpoint, known in zip(self.cells, states, knowns):
                cell.backend.state = _restore_state(checkpoint)
                cell.engine.known_failed = known
            for events in step_events[:keep]:
                step_cells(self.cells, events, self.seed, force, with_events=with_events)
            return None
        if command == "adjust":
            _, removes, adds = message
            self.snapshot = None
            summaries, _reports, failed = adjust_cells(self.cells, removes, adds)
            return (summaries, failed)
        if command == "round":
            _, deltas, force = message
            self.snapshot = None
            replies = []
            for cell in self.cells:
                delta = deltas[cell.name]
                if delta[0] == "full":
                    # Resync: the parent's mutations were not expressible as
                    # a health delta; replace state and detector.
                    cell.backend.state = delta[1]
                    cell.engine.known_failed = delta[2]
                else:
                    _, recover, fail, aggregates = delta
                    state = cell.state
                    if recover:
                        state.recover_nodes(recover)
                    if fail:
                        state.fail_nodes(fail)
                    # The diff reaches the parent's failed *set* through a
                    # possibly different op sequence; restore the float
                    # accumulators bit-for-bit (see health_aggregates).
                    state.set_health_aggregates(*aggregates)
                report = cell.engine.reconcile(cell.backend, force=force)
                replies.append((report, cell.engine.known_failed))
            return replies
        if command == "adopt":
            # Take ownership of cells re-homed from a degraded shard.  The
            # batch snapshot (if any) predates these cells and is only ever
            # consumed by an immediately-following rewind, which the pool
            # never interleaves with an adoption.
            self.cells.extend(_build_cells(message[1]))
            return None
        if command == "snapshot":
            # Journal compaction: ship the shard's current logical state
            # back to the parent, which makes it the new restart baseline
            # and truncates the replay journal (read-only here — encoding
            # the reply is itself the state copy).
            return [_cell_payload(cell) for cell in self.cells]
        raise _UnknownCommand(f"unknown command {message[0]!r}")


_HANG_SECONDS = 3600.0


def _traced_handle(server: _ShardServer, message: tuple, parent_id: str, prefix: str):
    """Run one command under the worker's tracer, parented to the caller.

    The worker enables its default tracer under the parent-chosen id
    prefix (``w<shard>i<incarnation>.`` — deterministic across restarts),
    attaches the parent span id from the wire, and wraps the command in a
    ``shard.<command>`` span; spans the instrumented engine code emits
    inside nest underneath it.  Returns the handler's data plus every
    finished span, for shipping home in the reply.
    """
    tracer = obs.tracer()
    tracer.enable(prefix=prefix)
    with tracer.attach(parent_id):
        with tracer.span("shard." + message[0]):
            data = server.handle(message)
    return data, tuple(tracer.drain())


def _shard_main(conn, payload: list, seed: int, faults) -> None:
    """Worker process: owns a shard of cells for the pool's lifetime.

    Protocol: every parent message is a tuple whose first element is the
    command; every reply is ``("ok", data)`` or ``("error", message)``.
    When the parent traces, a command arrives wrapped as ``("span",
    parent_id, id_prefix, inner)`` and the reply grows a third element —
    the worker's finished spans (see :func:`_traced_handle`); an untraced
    command is handled exactly as before, so observability off keeps the
    wire bytes identical.  The per-cell work is the shared
    :class:`_ShardServer` — the exact code the serial paths and degraded
    in-process shards run, so results match the parent's byte for byte.

    ``faults`` (tests only) is a list of ``(kind, nth, mode)`` tuples for
    this incarnation: ``kill`` hard-exits on the Nth received message,
    ``hang`` ignores SIGTERM and sleeps past any deadline, ``corrupt``
    damages the Nth reply frame after executing the command.
    """
    server = _ShardServer(payload, seed)
    fault_at = {nth: (kind, mode) for kind, nth, mode in faults or ()}
    commands = 0
    try:
        while True:
            message = loads(conn.recv_bytes())
            commands += 1
            fault = fault_at.get(commands)
            if fault is not None:
                kind = fault[0]
                if kind == "kill":
                    os._exit(13)
                if kind == "hang":
                    import signal

                    # A genuinely wedged worker does not die politely; make
                    # the simulated one just as stubborn so the supervisor's
                    # terminate→kill escalation is actually exercised.
                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                    time.sleep(_HANG_SECONDS)
                    os._exit(3)
            command = message[0]
            span_wrap = None
            if command == "span":
                span_wrap = (message[1], message[2])
                message = message[3]
                command = message[0]
            if command == "stop":
                break
            try:
                if command == "restore":
                    # Journal replay after a restart: re-execute completed
                    # commands without individual replies, then ack once.
                    for entry in message[1]:
                        server.handle(entry)
                    reply = ("ok", None)
                elif span_wrap is not None:
                    data, spans = _traced_handle(server, message, *span_wrap)
                    reply = ("ok", data, spans)
                else:
                    reply = ("ok", server.handle(message))
            except _UnknownCommand as exc:
                reply = ("error", str(exc))
            out = dumps(reply)
            if fault is not None and fault[0] == "corrupt":
                out = _corrupt_frame(out, fault[1])
            conn.send_bytes(out)
    except Exception as exc:  # surface worker failures to the parent
        import traceback

        try:
            conn.send_bytes(dumps(("error", f"{exc!r}\n{traceback.format_exc()}")))
        except Exception:
            pass
    finally:
        conn.close()


def _corrupt_frame(frame: bytes, mode: str) -> bytes:
    """Deterministically damage an encoded reply frame (fault injection)."""
    if mode == "truncate":
        return frame[: max(1, len(frame) // 2)]
    damaged = bytearray(frame)
    damaged[len(damaged) // 2] ^= 0x40
    return bytes(damaged)


class _Shard:
    """One shard: a worker process, or an in-process server once degraded."""

    __slots__ = (
        "index",
        "names",
        "process",
        "conn",
        "incarnation",
        "failures",
        "journal",
        "initial_payload",
        "server",
    )

    def __init__(self, index: int, names: list[str], initial_payload: list) -> None:
        self.index = index
        self.names = names
        self.process = None
        self.conn = None
        self.incarnation = 0
        self.failures = 0
        # Completed replay-protocol commands since the last compaction
        # snapshot, for journal-based restarts.  ``None`` when journaling
        # is pointless or invalid (unsupervised pool, reconcile protocol,
        # degradation).
        self.journal: list | None = []
        self.initial_payload = initial_payload
        self.server: _ShardServer | None = None

    @property
    def remote(self) -> bool:
        return self.server is None


class ShardSupervisor:
    """Restart/degrade policy for a :class:`ShardPool`'s worker shards.

    Owns the consecutive-failure accounting, the exponential backoff with
    seeded jitter, the two restart strategies (parent-state resync for the
    reconcile protocol, journal replay for the replay protocol) and the
    degradation path that re-homes a crash-looping shard's cells in-process.
    Purely a policy object: all process plumbing stays in the pool.
    """

    def __init__(self, pool: "ShardPool", config: SupervisorConfig) -> None:
        self.pool = pool
        self.config = config
        self._rng = random.Random(config.seed)

    def backoff(self, attempt: int) -> None:
        registry = obs.registry()
        if registry.enabled:
            registry.counter("fleet.shard_backoffs").inc()
        base = self.config.backoff_base
        if base <= 0:
            return
        delay = min(self.config.backoff_cap, base * (2 ** (attempt - 1)))
        # Jitter in [0.5, 1.5) from a seeded RNG: deterministic schedule,
        # de-synchronized restarts.  Timing never influences results.
        time.sleep(delay * (0.5 + self._rng.random()))

    def recover(self, shard: _Shard, build, resync, reason: str):
        """Handle one shard fault; returns ``("pending", None)`` if the
        restarted worker's reply should be awaited, or ``("done", data)``
        when the shard was degraded and the in-flight command already ran
        in-process."""
        pool = self.pool
        while True:
            shard.failures += 1
            if shard.failures > self.config.max_restarts:
                inflight = resync(shard.names) if resync is not None else build(shard.names)
                self.degrade(shard, reason)
                return ("done", pool._local_call(shard, inflight))
            self.backoff(shard.failures)
            shard.incarnation += 1
            pool._emit(
                ShardRestarted(
                    shard=shard.index,
                    attempt=shard.failures,
                    cells=tuple(shard.names),
                    reason=reason,
                )
            )
            try:
                self._respawn(shard, reconcile=resync is not None)
                message = resync(shard.names) if resync is not None else build(shard.names)
                pool._send(shard, message)
                return ("pending", None)
            except _ShardDown as exc:
                reason = str(exc)
                continue

    def _respawn(self, shard: _Shard, *, reconcile: bool) -> None:
        """Start a fresh worker and bring it to the pre-command state."""
        pool = self.pool
        if reconcile:
            # Reconcile protocol: the parent's cells are authoritative before
            # every round, so re-ship them as the new incarnation's payload.
            payload = [_cell_payload(pool._cells[name]) for name in shard.names]
            pool._spawn(shard, payload)
            return
        if shard.journal is None:
            pool._fail(
                f"fleet shard worker died with no recovery journal "
                f"(cells {shard.names})"
            )
        pool._spawn(shard, shard.initial_payload)
        if shard.journal:
            pool._send(shard, ("restore", list(shard.journal)))
            status, _data = pool._await_reply(shard)
            if status != "ok":
                raise _ShardDown("shard failed while replaying its journal")

    def _local_server(self, shard: _Shard) -> _ShardServer:
        """An in-process server holding this shard's current logical state.

        Reconcile protocol: copies of the parent's (authoritative) cells.
        Replay protocol: the initial payload re-copied, with the shard's
        journal replayed over it — the same reconstruction a restarted
        worker performs, just in the parent's process.
        """
        pool = self.pool
        if pool._protocol == "reconcile":
            payload = [
                _cell_payload(pool._cells[name], copy_state=True)
                for name in shard.names
            ]
            return _ShardServer(payload, pool._seed)
        if shard.journal is None:
            pool._fail(
                f"fleet shard worker died with no recovery journal "
                f"(cells {shard.names})"
            )
        payload = [
            (name, state.copy(), config, known, ref)
            for name, state, config, known, ref in shard.initial_payload
        ]
        server = _ShardServer(payload, pool._seed)
        for entry in shard.journal:
            server.handle(entry)
        return server

    def degrade(self, shard: _Shard, reason: str) -> None:
        """Re-home a crash-looping shard's cells in-process.

        The server is the same class workers run, over equivalent state, so
        every subsequent reply is byte-identical to a fault-free worker's.
        """
        server = self._local_server(shard)
        shard.server = server
        shard.journal = None
        shard.process = None
        if shard.conn is not None:
            shard.conn.close()
            shard.conn = None
        self.pool._emit(
            ShardDegraded(shard=shard.index, cells=tuple(shard.names), reason=reason)
        )


class ShardPool:
    """Persistent worker processes, each owning a round-robin cell shard.

    Parameters
    ----------
    cells:
        The fleet's cells, in fleet order.  States, engine configs and
        detector checkpoints ship to the workers once, here.  The pool
        keeps a reference: under supervision, restarted reconcile-protocol
        shards are re-seeded from the parent's current (authoritative)
        cell states.
    seed:
        Seed for randomized ``capacity`` trace events (replay protocol).
    workers:
        Shard count; capped at the cell count by the caller.
    fault:
        Test hook — any object with ``for_shard(shard, incarnation)``
        returning ``(kind, nth, mode)`` worker-fault tuples (see
        :class:`~repro.chaos.infra.FaultPlan`).
    supervisor:
        :class:`~repro.fleet.config.SupervisorConfig` enabling the
        self-healing restart/degrade machinery, or ``None`` for
        fail-fast :exc:`ShardFailure` semantics.
    on_event:
        Optional callback receiving :class:`~repro.fleet.events.ShardRestarted`
        and :class:`~repro.fleet.events.ShardDegraded` as they happen
        (the fleet wires its event bus here).
    """

    #: ``close()`` escalation deadlines, seconds (class attrs so tests can
    #: shrink them): cooperative join after "stop", then SIGTERM, then
    #: SIGKILL for workers that ignore both.
    STOP_JOIN_TIMEOUT = 10.0
    TERMINATE_JOIN_TIMEOUT = 5.0
    KILL_JOIN_TIMEOUT = 5.0
    #: Replay-journal compaction threshold, in journaled commands: once a
    #: shard's journal grows past this, the parent pulls a state snapshot
    #: from the worker, makes it the new restart baseline, and truncates
    #: the journal — bounding parent memory at O(threshold) commands per
    #: shard for arbitrarily long replay sessions (class attr so tests
    #: can shrink it).
    JOURNAL_COMPACT_THRESHOLD = 64

    def __init__(
        self,
        cells: Sequence[Cell],
        *,
        seed: int = 0,
        workers: int,
        fault=None,
        supervisor: SupervisorConfig | None = None,
        on_event: Callable | None = None,
    ) -> None:
        import multiprocessing as mp

        self._context = mp.get_context()
        self.order = [cell.name for cell in cells]
        self.phase_seconds = {"ship": 0.0, "wait": 0.0}
        self.last_reply_bytes = 0
        #: Shard indexes whose worker needed SIGTERM/SIGKILL at close.
        self.force_killed: list[int] = []
        self._cells = {cell.name: cell for cell in cells}
        self._seed = seed
        self._protocol = "replay"
        self._fault = fault
        self._on_event = on_event
        self.supervisor = (
            ShardSupervisor(self, supervisor) if supervisor is not None else None
        )
        self._shards: list[_Shard] = []
        for index in range(workers):
            shard_cells = cells[index::workers]
            if not shard_cells:
                continue
            payload = [_cell_payload(cell) for cell in shard_cells]
            shard = _Shard(index, [c.name for c in shard_cells], payload)
            if self.supervisor is None:
                # Unsupervised pools never restart a worker, so journaling
                # replay commands would only accumulate memory.
                shard.journal = None
            self._spawn(shard, payload)
            self._shards.append(shard)

    # -- plumbing --------------------------------------------------------------
    def _emit(self, event) -> None:
        registry = obs.registry()
        if registry.enabled:
            # PR 9's supervision events double as metrics: one counter per
            # event kind, labelled by shard, so restart storms show up in
            # /metrics without anyone subscribing to the bus.
            if isinstance(event, ShardRestarted):
                registry.counter("fleet.shard_restarts", shard=event.shard).inc()
            elif isinstance(event, ShardDegraded):
                registry.counter("fleet.shard_degraded", shard=event.shard).inc()
        if self._on_event is not None:
            self._on_event(event)

    def _spawn(self, shard: _Shard, payload: list) -> None:
        parent_conn, child_conn = self._context.Pipe()
        faults = (
            self._fault.for_shard(shard.index, shard.incarnation)
            if self._fault is not None
            else []
        )
        process = self._context.Process(
            target=_shard_main,
            args=(child_conn, payload, self._seed, faults),
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn

    def _send(self, shard: _Shard, message: tuple) -> None:
        try:
            shard.conn.send_bytes(dumps(message))
        except (BrokenPipeError, OSError) as exc:
            raise _ShardDown(
                f"fleet shard worker died mid-round (cells {shard.names}): {exc!r}"
            ) from exc

    def _await_reply(self, shard: _Shard) -> tuple:
        """One decoded reply from a worker, subject to the supervisor's
        per-reply deadline.  Raises :class:`_ShardDown` on death (EOF),
        hang (deadline) or a corrupt frame — the worker is already killed
        when that happens, so a restart can follow immediately."""
        timeout = (
            self.supervisor.config.round_timeout if self.supervisor is not None else None
        )
        if timeout is not None and not shard.conn.poll(timeout):
            self._kill_worker(shard)
            raise _ShardDown(
                f"fleet shard worker hung past the {timeout:g}s deadline "
                f"(cells {shard.names})"
            )
        try:
            raw = shard.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise _ShardDown(
                f"fleet shard worker died mid-round (cells {shard.names}): {exc!r}"
            ) from exc
        self.last_reply_bytes += len(raw)
        try:
            reply = loads(raw)
            if len(reply) == 3 and reply[0] == "ok":
                # Traced reply: the third element is the worker's finished
                # spans; fold them into the parent's tree and hand callers
                # the usual (status, data) shape.
                if reply[2]:
                    obs.tracer().adopt(reply[2])
                return reply[0], reply[1]
            return reply
        except WireError as exc:
            self._kill_worker(shard)
            raise _ShardDown(
                f"fleet shard worker sent a corrupt reply frame "
                f"(cells {shard.names}): {exc}"
            ) from exc

    def _kill_worker(self, shard: _Shard) -> None:
        process = shard.process
        if process is None:
            return
        process.terminate()
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _local_call(self, shard: _Shard, message: tuple):
        try:
            return shard.server.handle(message)
        except _UnknownCommand as exc:
            self._fail(f"fleet shard worker failed: {exc}")
        except ShardFailure:
            raise
        except Exception as exc:
            self._fail(f"fleet shard worker failed: {exc!r}")

    def _fail(self, message: str) -> None:
        self.close()
        raise ShardFailure(message)

    def _maybe_adopt(self) -> None:
        """Re-home degraded shards' cells onto surviving workers.

        Runs at dispatch time (never between a batch and its rewind, which
        is the one command pair that depends on worker-side snapshots).
        Failures during adoption restart the target worker but do not retry
        the hand-off this round — the cells simply stay in-process until the
        next dispatch.
        """
        for shard in [s for s in self._shards if not s.remote and s.names]:
            remote = [s for s in self._shards if s.remote]
            if not remote:
                break
            target = remote[shard.index % len(remote)]
            payload = [_cell_payload(cell) for cell in shard.server.cells]
            message = ("adopt", payload)
            try:
                self._send(target, message)
                status, _data = self._await_reply(target)
                if status != "ok":
                    self._fail(f"fleet shard worker failed: {_data}")
            except _ShardDown as exc:
                self._restart_in_place(target, str(exc))
                continue
            target.failures = 0
            if target.journal is not None:
                target.journal.append(message)
            target.names.extend(shard.names)
            shard.names = []
            shard.server = None
        self._shards = [s for s in self._shards if s.names]

    def _maybe_compact(self) -> None:
        """Truncate oversized replay journals against a fresh worker snapshot.

        Runs at dispatch time, next to :meth:`_maybe_adopt` (so it can
        never slip between a batch and its rewind — the one command pair
        that depends on worker-side snapshots).  The snapshot reply is the
        same shippable payload a spawn uses; once it lands, the journal
        entries it subsumes are dropped and a later restart replays only
        commands issued after it.  A worker that faults during the snapshot
        is restarted in place (journal intact) and simply keeps its journal
        until the next compaction opportunity.
        """
        for shard in self._shards:
            if (
                not shard.remote
                or shard.journal is None
                or len(shard.journal) < self.JOURNAL_COMPACT_THRESHOLD
            ):
                continue
            try:
                self._send(shard, ("snapshot",))
                status, data = self._await_reply(shard)
                if status != "ok":
                    self._fail(f"fleet shard worker failed: {data}")
            except _ShardDown as exc:
                self._restart_in_place(shard, str(exc))
                continue
            shard.failures = 0
            shard.initial_payload = data
            shard.journal = []

    def _restart_in_place(self, shard: _Shard, reason: str) -> None:
        """Bring a worker back to its pre-command state with no in-flight
        command to re-send (used when an adoption hand-off fails)."""
        supervisor = self.supervisor
        while True:
            shard.failures += 1
            if shard.failures > supervisor.config.max_restarts:
                supervisor.degrade(shard, reason)
                return
            supervisor.backoff(shard.failures)
            shard.incarnation += 1
            self._emit(
                ShardRestarted(
                    shard=shard.index,
                    attempt=shard.failures,
                    cells=tuple(shard.names),
                    reason=reason,
                )
            )
            try:
                supervisor._respawn(shard, reconcile=self._protocol == "reconcile")
                return
            except _ShardDown as exc:
                reason = str(exc)

    # -- command execution -----------------------------------------------------
    def _run(
        self,
        build: Callable[[list[str]], tuple],
        *,
        journal: bool,
        resync: Callable[[list[str]], tuple] | None = None,
        adoptable: bool = True,
    ) -> dict:
        """Execute one command across every shard; replies keyed by shard index.

        ``build(names)`` produces the command message for a shard owning
        ``names`` (called again on restarts, so ownership changes stay
        coherent).  ``resync(names)`` — reconcile protocol only — produces
        the no-op variant re-sent after a restart re-shipped parent state.
        ``journal`` marks replay-protocol commands that must be journaled
        for journal-based restarts.
        """
        self._protocol = "reconcile" if resync is not None else "replay"
        if self.supervisor is not None and adoptable:
            self._maybe_adopt()
            self._maybe_compact()
        self.last_reply_bytes = 0
        registry = obs.registry()
        tracer = obs.tracer()
        sent: dict[int, tuple] = {}
        down: dict[int, str] = {}
        started = time.perf_counter()
        with tracer.span("fleet.ship"):
            for shard in self._shards:
                if not shard.remote:
                    continue
                message = build(shard.names)
                sent[shard.index] = message
                if tracer.enabled:
                    # Wrap the command so the worker parents its spans under
                    # ours.  Only the inner message is journaled/re-sent —
                    # recovery replay stays byte-identical to the untraced
                    # protocol.
                    message = (
                        "span",
                        tracer.current_id(),
                        f"w{shard.index}i{shard.incarnation}.",
                        message,
                    )
                try:
                    self._send(shard, message)
                except _ShardDown as exc:
                    down[shard.index] = str(exc)
        elapsed = time.perf_counter() - started
        self.phase_seconds["ship"] += elapsed
        if registry.enabled:
            registry.histogram("fleet.ship_seconds").observe(elapsed)
        replies: dict[int, object] = {}
        for shard in self._shards:
            if shard.remote:
                continue
            replies[shard.index] = self._local_call(shard, build(shard.names))
        started = time.perf_counter()
        try:
            with tracer.span("fleet.compute"):
                queue = deque(shard for shard in self._shards if shard.remote)
                while queue:
                    shard = queue.popleft()
                    try:
                        if shard.index in down:
                            raise _ShardDown(down.pop(shard.index))
                        status, data = self._await_reply(shard)
                    except _ShardDown as exc:
                        if self.supervisor is None:
                            self._fail(str(exc))
                        outcome, local_data = self.supervisor.recover(
                            shard, build, resync, str(exc)
                        )
                        if outcome == "pending":
                            sent[shard.index] = (
                                resync(shard.names)
                                if resync is not None
                                else build(shard.names)
                            )
                            queue.append(shard)
                        else:
                            replies[shard.index] = local_data
                        continue
                    if status != "ok":
                        self._fail(f"fleet shard worker failed: {data}")
                    shard.failures = 0
                    if journal and shard.journal is not None:
                        shard.journal.append(sent[shard.index])
                    replies[shard.index] = data
        finally:
            elapsed = time.perf_counter() - started
            self.phase_seconds["wait"] += elapsed
            if registry.enabled:
                registry.histogram("fleet.wait_seconds").observe(elapsed)
                registry.counter("fleet.reply_bytes").inc(self.last_reply_bytes)
        return replies

    def _shard_replies(self, replies: dict) -> list:
        """(names, reply) pairs in shard order for positional merges."""
        return [
            (shard.names, replies[shard.index])
            for shard in self._shards
            if shard.index in replies
        ]

    # -- replay protocol -------------------------------------------------------
    def step(self, events_by_cell: Mapping[str, list], force: bool, with_events: bool):
        """One trace step on every shard; summaries merged to fleet order."""
        replies = self._run(
            lambda names: (
                "step",
                {n: events_by_cell[n] for n in names if n in events_by_cell},
                force,
                with_events,
            ),
            journal=True,
        )
        by_cell = {}
        for _names, reply in self._shard_replies(replies):
            for summary in reply:
                by_cell[summary.cell] = summary
        return [by_cell[name] for name in self.order]

    def step_batch(self, step_events: list, force: bool, with_events: bool):
        """K trace steps in one round trip; K summary lists, fleet order.

        Workers checkpoint their states before running the batch, so the
        caller may :meth:`rewind` if its per-step fold discovers a spillover
        round partway through.
        """
        replies = self._run(
            lambda names: (
                "batch",
                [{n: events[n] for n in names if n in events} for events in step_events],
                force,
                with_events,
            ),
            journal=True,
        )
        merged = [dict() for _ in step_events]
        for _names, reply in self._shard_replies(replies):
            for step_index, summaries in enumerate(reply):
                for summary in summaries:
                    merged[step_index][summary.cell] = summary
        return [[by_cell[name] for name in self.order] for by_cell in merged]

    def rewind(self, keep_steps: int) -> None:
        """Roll every shard back to just after batch step ``keep_steps - 1``."""
        self._run(
            lambda names: ("rewind", keep_steps),
            journal=True,
            adoptable=False,
        )

    def adjust(self, removes: list, adds: list):
        """Spillover phase two on every shard; merged summaries + failures."""
        replies = self._run(
            lambda names: ("adjust", removes, adds),
            journal=True,
        )
        updated: dict = {}
        failed: list = []
        for _names, reply in self._shard_replies(replies):
            summaries, shard_failed = reply
            updated.update(summaries)
            failed.extend(shard_failed)
        return updated, failed

    # -- reconcile protocol ----------------------------------------------------
    def round(self, deltas: Mapping[str, tuple], force: bool) -> list:
        """One reconcile round from per-cell deltas; replies in fleet order.

        ``deltas[cell]`` is either ``("delta", recover, fail, aggregates)``
        or ``("full", state, known_failed)``.  Returns one
        ``(report, known_failed)`` pair per cell.
        """
        # The reconcile protocol restarts from parent state, which makes any
        # replay journal from an earlier protocol useless; drop it.
        for shard in self._shards:
            shard.journal = None

        def resync(names: list[str]) -> tuple:
            # A restarted worker was just re-seeded with the parent's current
            # states, which already include this round's health mutations —
            # re-send the round with empty deltas and the states' own
            # aggregates so the worker recomputes from identical inputs.
            return (
                "round",
                {
                    n: ("delta", (), (), self._cells[n].state.health_aggregates())
                    for n in names
                },
                force,
            )

        replies = self._run(
            lambda names: ("round", {n: deltas[n] for n in names}, force),
            journal=False,
            resync=resync,
        )
        by_cell = {}
        for names, reply in self._shard_replies(replies):
            for name, pair in zip(names, reply):
                by_cell[name] = pair
        return [by_cell[name] for name in self.order]

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker, escalating join → terminate → kill.

        Shards whose worker ignored the cooperative stop (and, for the
        truly wedged, SIGTERM too) are force-killed and reported in
        :attr:`force_killed`.
        """
        self.force_killed = []
        shards = [s for s in self._shards if s.remote and s.process is not None]
        for shard in shards:
            try:
                shard.conn.send_bytes(dumps(("stop",)))
            except (BrokenPipeError, OSError):
                pass
            shard.conn.close()
        for shard in shards:
            process = shard.process
            process.join(timeout=self.STOP_JOIN_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self.TERMINATE_JOIN_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join(timeout=self.KILL_JOIN_TIMEOUT)
                self.force_killed.append(shard.index)
        self._shards = []
