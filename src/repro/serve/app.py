"""The live control plane: one asyncio server owning one fleet.

:class:`ControlPlane` turns a :class:`~repro.fleet.engine.FleetEngine`
from a replay substrate into a *served* system: HTTP clients POST
mutations (trace-event records, schema v1), GET summaries/metrics/config,
and subscribe to the typed event bus over a WebSocket — all on one port,
all stdlib.

Determinism contract
--------------------
The round driver is the **only** coroutine that touches the fleet.  It
drains the admission batcher (canonical order, see
:mod:`repro.serve.admission`) and folds each batch through the replayer's
own code: :class:`~repro.fleet.replay.FleetReplayer`'s serial executor
steps the cells, then :func:`~repro.fleet.replay.fold_step` — the one
per-step fold every replay runs — builds one
:class:`~repro.fleet.replay.FleetReplayStep` at ``time = round index``.
Every admitted batch is also appended to the session recorder, so replaying
``recorder.scenario()`` offline through a ``FleetReplayer`` over an
identically built fleet reproduces the served fleet state (equal
:func:`~repro.serve.session.fleet_digest`) and the served step records,
byte for byte: served and replayed sessions run one copy of the fold,
and the tests and the CI serve-smoke job check the result.

Engine rounds run synchronously inside the driver (single-threaded
asyncio), so admissions only accumulate *between* rounds — which is what
makes "whatever queued during round N becomes batch N+1" a complete
description of batching.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time as _time
from typing import Mapping

from repro import obs
from repro.fleet.checkpoint import save_checkpoint
from repro.fleet.engine import FleetEngine
from repro.fleet.events import CellEvent
from repro.fleet.replay import FleetReplayStep, _LocalExecutor, fold_step
from repro.api.events import EngineEvent
from repro.traces.schema import TraceError, parse_event

from repro.serve.admission import AdmissionBatcher, AdmissionFull
from repro.serve.dashboard import DASHBOARD_HTML
from repro.serve.http1 import (
    HttpError,
    HttpRequest,
    json_body,
    read_request,
    write_response,
)
from repro.serve.session import SessionRecorder, fleet_digest
from repro.serve.websocket import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    accept_key,
    encode_frame,
    read_frame,
    text_frame,
)

#: Per-subscriber event queue depth; a slow reader drops, never blocks rounds.
SUBSCRIBER_QUEUE = 512


class ServeCrash(RuntimeError):
    """Injected control-plane crash (see :class:`repro.chaos.infra.FaultPlan`).

    Raised by the round driver *after* the batch is journaled but *before*
    it applies — the exact window the WAL recovery path must cover.  Only
    fault plans raise this; production code never does.
    """


def build_fleet(
    *,
    cells: int = 3,
    nodes_per_cell: int = 40,
    apps: int = 4,
    tagging: str = "service-p90",
    resource_model: str = "cpm",
    utilization: float = 0.7,
    env_seed: int = 2025,
    objective: str = "revenue",
    spillover: str = "packed",
) -> FleetEngine:
    """A converged fleet from AdaptLab environments (cell ``i`` ← seed+i).

    The same construction the ``repro fleet`` CLI commands use — and the
    construction the offline-equivalence check must repeat, so the served
    ``/config`` endpoint echoes exactly these parameters back.
    """
    from repro.adaptlab import build_environment
    from repro.fleet import FleetConfig

    environments = [
        build_environment(
            node_count=nodes_per_cell,
            n_apps=apps,
            tagging_scheme=tagging,
            resource_model=resource_model,
            target_utilization=utilization,
            seed=env_seed + index,
        )
        for index in range(cells)
    ]
    config = FleetConfig(cells=cells, objective=objective, spillover=spillover)
    fleet = FleetEngine(config, states=[env.fresh_state() for env in environments])
    fleet.reconcile(force=True, workers=1)
    return fleet


def event_record(event) -> dict[str, object]:
    """Serialize one typed bus event to a JSON-able record, recursively.

    :class:`CellEvent` is a pure cell-tag wrapper, so it is flattened: the
    inner event's record plus a ``cell`` key — subscribers see
    ``{"event": "FailureDetected", "cell": "cell-0", ...}`` rather than a
    nested envelope.
    """
    if isinstance(event, CellEvent):
        return event_record(event.event) | {"cell": event.cell}
    record: dict[str, object] = {"event": type(event).__name__}
    for spec in dataclasses.fields(event):
        record[spec.name] = _jsonable(getattr(event, spec.name))
    return record


def _jsonable(value):
    if isinstance(value, EngineEvent):
        return event_record(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            spec.name: _jsonable(getattr(value, spec.name))
            for spec in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class ControlPlane:
    """One served fleet: HTTP control surface + admission-batched rounds."""

    def __init__(
        self,
        fleet: FleetEngine,
        *,
        seed: int = 0,
        force_each_step: bool = False,
        queue_limit: int = 1024,
        retry_after: float = 1.0,
        fleet_params: dict[str, object] | None = None,
        wal=None,
        checkpoint_path=None,
        checkpoint_every: int = 0,
        fault_plan=None,
    ) -> None:
        self.fleet = fleet
        self.seed = seed
        self.force_each_step = force_each_step
        #: Construction parameters echoed by ``/config`` so a client can
        #: rebuild the identical fleet for offline-replay verification.
        self.fleet_params = dict(fleet_params or {})
        #: Optional :class:`~repro.serve.wal.WriteAheadLog`; every admitted
        #: batch is journaled (fsync) before the round applies.
        self.wal = wal
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        #: Optional :class:`~repro.chaos.infra.FaultPlan` (duck-typed: only
        #: ``wal_crash_round`` / ``ws_drop_after`` are read here).
        self.fault_plan = fault_plan
        self._resumed = False
        self.batcher = AdmissionBatcher(queue_limit=queue_limit, retry_after=retry_after)
        self.recorder = SessionRecorder(
            fleet.cell_names,
            metadata={"generator": "serve", "seed": seed},
        )
        self.steps: list[FleetReplayStep] = []
        self._executor = _LocalExecutor(fleet, seed)
        # Always-on round timer, private to this plane: /metrics and the
        # dashboard read it whether or not the shared obs plane is enabled.
        timing = obs.MetricsRegistry()
        timing.enable()
        self._round_seconds = timing.histogram("serve.round_seconds")
        self._subscribers: dict[int, asyncio.Queue] = {}
        self._next_subscriber = 0
        self.dropped_events = 0
        self._server: asyncio.AbstractServer | None = None
        self._driver: asyncio.Task | None = None
        self._unsubscribe = None
        self._with_events = True
        self.host: str | None = None
        self.port: int | None = None

    # -- lifecycle -------------------------------------------------------------

    def mark_resumed(self) -> None:
        """Flag this plane as WAL-recovered: :meth:`start` must keep the
        rebuilt fleet state instead of resetting it."""
        self._resumed = True

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Reset the fleet, start the round driver and bind the listener.

        The reset mirrors :meth:`FleetReplayer.run`'s entry (detector state
        forgotten, pool torn down), so a served session starts from the
        same point an offline replay of its recorded trace will.  A plane
        rebuilt by :func:`~repro.serve.wal.resume_control_plane` skips the
        reset — its state *is* the replayed session.
        """
        if self._server is not None:
            raise RuntimeError("control plane already started")
        if not self._resumed:
            self.fleet.reset()
        self._unsubscribe = self.fleet.events.subscribe(self._on_bus_event)
        self._with_events = bool(self.fleet.events)
        self._driver = asyncio.create_task(self._drive())
        self._server = await asyncio.start_server(self._handle_client, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop admitting, drain the driver, close the listener and streams."""
        self.batcher.close()
        if self._driver is not None:
            await self._driver
            self._driver = None
        self.batcher.fail_pending(RuntimeError("control plane shut down"))
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        for queue in list(self._subscribers.values()):
            _offer(queue, None)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.wal is not None:
            self.wal.close()
        self.fleet.close()

    # -- the round driver ------------------------------------------------------

    async def _drive(self) -> None:
        while True:
            batch = await self.batcher.next_batch()
            if not batch:
                return
            started = _time.perf_counter()
            events_by_cell: dict[str, list] = {}
            for mutation in batch:
                events_by_cell.setdefault(mutation.cell, []).append(mutation.event)
            round_index = self.recorder.record_batch(
                (mutation.cell, mutation.event) for mutation in batch
            )
            if self.wal is not None:
                # Durability point: once this returns, the batch survives a
                # crash — apply must never precede it.
                self.wal.append_batch(
                    round_index,
                    [(mutation.cell, mutation.record) for mutation in batch],
                )
            if (
                self.fault_plan is not None
                and getattr(self.fault_plan, "wal_crash_round", None) == round_index
            ):
                crash = ServeCrash(
                    f"injected crash after journaling round {round_index}"
                )
                for mutation in batch:
                    if not mutation.future.done():
                        mutation.future.set_exception(crash)
                raise crash
            try:
                with obs.tracer().span("serve.batch", size=len(batch)):
                    step = self._apply_round(round_index, events_by_cell)
            except Exception as exc:  # engine invariant broken: fail loudly
                for mutation in batch:
                    if not mutation.future.done():
                        mutation.future.set_exception(exc)
                raise
            self.steps.append(step)
            elapsed = _time.perf_counter() - started
            self._round_seconds.observe(elapsed)
            registry = obs.registry()
            if registry.enabled:
                registry.counter("serve.rounds").inc()
                registry.counter("serve.mutations").inc(len(batch))
                registry.histogram("serve.round_seconds").observe(elapsed)
                registry.gauge("serve.queue_depth").set(len(self.batcher))
            if (
                self.checkpoint_path is not None
                and self.checkpoint_every > 0
                and (round_index + 1) % self.checkpoint_every == 0
            ):
                save_checkpoint(
                    self.fleet,
                    self.checkpoint_path,
                    # Steps ride along so a checkpoint-fast-forwarded resume
                    # serves a complete /steps list (wal.resume_control_plane
                    # skips re-applying these rounds but still needs their
                    # step records).
                    extra={
                        "rounds": round_index + 1,
                        "steps": [step.to_record() for step in self.steps],
                    },
                )
            record = step.to_record()
            result = {"round": round_index, "step": record}
            for mutation in batch:
                if not mutation.future.done():
                    mutation.future.set_result(result)
            self._broadcast(
                {
                    "event": "RoundCommitted",
                    "round": round_index,
                    "step": record,
                    "cells": self._cell_records(),
                }
            )

    def _apply_round(
        self, round_index: int, events_by_cell: Mapping[str, list]
    ) -> FleetReplayStep:
        """One fleet round over one admitted batch: the replayer's serial
        step and :func:`fold_step`, with ``time = round index``."""
        executor = self._executor
        summaries = executor.step(events_by_cell, self.force_each_step, self._with_events)
        return fold_step(
            self.fleet, float(round_index), events_by_cell, summaries, executor.adjust
        )

    # -- event fan-out ---------------------------------------------------------

    def _on_bus_event(self, event) -> None:
        self._broadcast(event_record(event))

    def _broadcast(self, record: dict[str, object]) -> None:
        if not self._subscribers:
            return
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        for queue in self._subscribers.values():
            if not _offer(queue, line):
                self.dropped_events += 1

    def _cell_records(self) -> list[dict[str, object]]:
        return [summary.to_record() for summary in self.fleet.summarize()]

    # -- HTTP ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await write_response(
                        writer,
                        exc.status,
                        json_body({"error": exc.message}),
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return
                if request.path == "/ws":
                    await self._handle_ws(request, reader, writer)
                    return
                keep_alive = request.keep_alive
                try:
                    await self._route(request, writer, keep_alive)
                except HttpError as exc:
                    headers = (
                        {"Retry-After": str(exc.retry_after)}
                        if exc.status == 429 and hasattr(exc, "retry_after")
                        else None
                    )
                    await write_response(
                        writer,
                        exc.status,
                        json_body({"error": exc.message}),
                        headers=headers,
                        keep_alive=keep_alive,
                    )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown mid-connection; fall through and close
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _route(
        self, request: HttpRequest, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        path = request.path
        if request.method == "POST":
            if path == "/mutations":
                payload = await self._post_mutations(request)
                await write_response(writer, 200, json_body(payload), keep_alive=keep_alive)
                return
            if path in ("/healthz", "/config", "/cells", "/metrics", "/digest", "/trace", "/steps", "/spans"):
                raise HttpError(405, f"{path} is read-only (GET)")
            raise HttpError(404, f"no POST route {path!r}")
        if request.method != "GET":
            raise HttpError(405, f"method {request.method} not allowed")
        if path == "/":
            await write_response(
                writer,
                200,
                DASHBOARD_HTML,
                content_type="text/html; charset=utf-8",
                keep_alive=keep_alive,
            )
            return
        if path == "/metrics":
            accept = request.headers.get("accept", "")
            if "text/plain" in accept or "openmetrics" in accept:
                # Prometheus scrape; JSON stays the default so the dashboard
                # and every existing client keep their shape.
                await write_response(
                    writer,
                    200,
                    self._prometheus_metrics(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                    keep_alive=keep_alive,
                )
                return
        if path == "/spans":
            await write_response(
                writer,
                200,
                obs.tracer().to_jsonl(),
                content_type="application/x-ndjson",
                keep_alive=keep_alive,
            )
            return
        payload = self._get(path)
        await write_response(writer, 200, json_body(payload), keep_alive=keep_alive)

    def _get(self, path: str):
        fleet = self.fleet
        if path == "/healthz":
            return {
                "status": "ok",
                "rounds": self.recorder.rounds,
                "pending": len(self.batcher),
                "cells": len(fleet.cells),
            }
        if path == "/config":
            return {
                "fleet": self.fleet_params,
                "seed": self.seed,
                "force_each_step": self.force_each_step,
                "cells": list(fleet.cell_names),
                "policy": fleet.policy.name,
                "queue_limit": self.batcher.queue_limit,
            }
        if path == "/cells":
            return {"cells": self._cell_records()}
        if path.startswith("/cells/"):
            rest = path[len("/cells/") :]
            name, _, tail = rest.partition("/")
            if name not in fleet.cell_names:
                raise HttpError(404, f"unknown cell {name!r}")
            if tail == "nodes":
                state = fleet.cell(name).state
                return {
                    "cell": name,
                    "nodes": [
                        {
                            "node": node_name,
                            "failed": node.failed,
                            "capacity_cpu": node.capacity.cpu,
                            "capacity_mem": node.capacity.memory,
                        }
                        for node_name, node in sorted(state.nodes.items())
                    ],
                }
            if tail:
                raise HttpError(404, f"no route {path!r}")
            return fleet.summary()[name].to_record()
        if path == "/metrics":
            return {
                "admitted": self.batcher.admitted,
                "rejected": self.batcher.rejected,
                "rounds": self.recorder.rounds,
                "mutations": self.recorder.mutations,
                "pending": len(self.batcher),
                "subscribers": len(self._subscribers),
                "dropped_events": self.dropped_events,
                "round_seconds": self._round_seconds.summary(),
                "spillovers_active": len(fleet.spillovers),
            }
        if path == "/digest":
            return {"digest": fleet_digest(fleet), "rounds": self.recorder.rounds}
        if path == "/spans":
            # JSON fallback for clients that hit /spans through _get (tests);
            # the HTTP route serves the raw JSONL body directly.
            return {"spans": obs.tracer().to_jsonl()}
        if path == "/trace":
            return {
                "metadata": dict(self.recorder.metadata),
                "rounds": self.recorder.rounds,
                "cells": self.recorder.traces_jsonl(),
            }
        if path == "/steps":
            return {"steps": [step.to_record() for step in self.steps]}
        raise HttpError(404, f"no route {path!r}")

    def _prometheus_metrics(self) -> str:
        """Prometheus text exposition: the core serve block under
        ``repro_serve_*`` plus the whole observability registry under
        ``repro_obs_*`` (distinct prefixes, so the two sources can never
        collide on a family name)."""
        core = self._get("/metrics")
        text = obs.render_prometheus(
            counters={
                f"repro_serve_{key}": core[key]
                for key in ("admitted", "rejected", "rounds", "mutations", "dropped_events")
            },
            gauges={
                f"repro_serve_{key}": core[key]
                for key in ("pending", "subscribers", "spillovers_active")
            },
            summaries={"repro_serve_round_seconds": core["round_seconds"]},
        )
        return text + obs.registry().prometheus_text()

    async def _post_mutations(self, request: HttpRequest) -> dict[str, object]:
        payload = request.json()
        if isinstance(payload, Mapping) and "mutations" in payload:
            items = payload["mutations"]
            if not isinstance(items, list) or not items:
                raise HttpError(400, "'mutations' must be a non-empty list")
        else:
            items = [payload]
        futures = []
        admitted = 0
        registry = obs.registry()
        try:
            with obs.tracer().span("serve.admit", items=len(items)):
                for item in items:
                    if not isinstance(item, Mapping):
                        raise HttpError(400, "each mutation must be an object")
                    cell = item.get("cell")
                    if cell not in self.fleet.cell_names:
                        raise HttpError(
                            400,
                            f"unknown cell {cell!r}; fleet has {list(self.fleet.cell_names)}",
                        )
                    record = item.get("event")
                    if not isinstance(record, Mapping):
                        raise HttpError(400, "mutation needs an 'event' record (schema v1)")
                    try:
                        event = parse_event(record, default_time=0.0)
                    except TraceError as exc:
                        raise HttpError(400, str(exc)) from None
                    try:
                        futures.append(self.batcher.submit(cell, event, dict(record)))
                    except AdmissionFull as exc:
                        if registry.enabled:
                            # Back-pressure signal: queue full, client told 429.
                            registry.counter("serve.rejected").inc()
                        error = HttpError(429, str(exc))
                        error.retry_after = exc.retry_after
                        raise error from None
                    admitted += 1
        except HttpError:
            # Partially admitted items still commit (they are queued); the
            # client learns the cutoff from 'admitted' in later retries.
            if registry.enabled and admitted:
                registry.counter("serve.admitted").inc(admitted)
            raise
        if registry.enabled:
            registry.counter("serve.admitted").inc(admitted)
        results = await asyncio.gather(*futures)
        last = results[-1]
        return {
            "admitted": admitted,
            "round": last["round"],
            "rounds": sorted({result["round"] for result in results}),
            "step": last["step"],
        }

    # -- WebSocket -------------------------------------------------------------

    async def _handle_ws(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        upgrade = request.headers.get("upgrade", "").lower()
        if request.method != "GET" or upgrade != "websocket" or not key:
            await write_response(
                writer,
                426,
                json_body({"error": "'/ws' requires a WebSocket upgrade"}),
                headers={"Upgrade": "websocket"},
                keep_alive=False,
            )
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept_key(key)}\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        queue: asyncio.Queue = asyncio.Queue(maxsize=SUBSCRIBER_QUEUE)
        token = self._next_subscriber
        self._next_subscriber += 1
        self._subscribers[token] = queue
        hello = {
            "event": "Hello",
            "round": self.recorder.rounds,
            "cells": self._cell_records(),
        }
        writer.write(
            text_frame(json.dumps(hello, sort_keys=True, separators=(",", ":")))
        )
        await writer.drain()
        sender = asyncio.create_task(self._ws_sender(queue, writer))
        try:
            while True:
                try:
                    opcode, payload = await read_frame(reader, require_mask=True)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if opcode == OP_CLOSE:
                    return
                if opcode == OP_PING:
                    writer.write(encode_frame(OP_PONG, payload))
                    await writer.drain()
                # Text/pong from clients is ignored: the stream is one-way.
        finally:
            self._subscribers.pop(token, None)
            sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass

    async def _ws_sender(self, queue: asyncio.Queue, writer: asyncio.StreamWriter) -> None:
        drop_after = (
            getattr(self.fault_plan, "ws_drop_after", None)
            if self.fault_plan is not None
            else None
        )
        sent = 0
        try:
            while True:
                line = await queue.get()
                if line is None:
                    writer.write(encode_frame(OP_CLOSE))
                    await writer.drain()
                    return
                if drop_after is not None and sent >= drop_after:
                    # Injected infrastructure fault: hard-drop the peer
                    # (no close frame), as a dying network path would.
                    writer.transport.abort()
                    return
                writer.write(text_frame(line))
                await writer.drain()
                sent += 1
        except (ConnectionError, OSError):
            pass  # the reader loop notices the dead peer and unregisters us


def _offer(queue: asyncio.Queue, item) -> bool:
    try:
        queue.put_nowait(item)
    except asyncio.QueueFull:
        return False
    return True
