"""The benchmark's own load generator for ``serve_live`` (stdlib only).

Kept apart from ``repro.serve.loadgen`` and ``repro.serve.http1`` on
purpose: those are program code that later changes may optimise, and the
instrument must not move with the thing it measures.

* :class:`MutationStream` — the seeded mutation schedule (the workload's
  generated input; the server only ever sees these records).
* :class:`HttpClient` — one keep-alive HTTP/1.1 connection.
* :class:`WsDrain` — one WebSocket subscriber that counts what it receives.
* :func:`open_loop` — mutation *i* is due at ``start + i/rate`` whether or
  not earlier requests finished; each POST carries the mutations already
  due (at most :data:`BATCH`) and every mutation's latency runs from its
  own due time.  How late the generator itself ran is reported per POST.
* :func:`closed_loop` — every connection posts :data:`BATCH` mutations
  back to back, the next request only after the previous response.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import random
import struct
import time
from collections import deque
from dataclasses import dataclass, field

#: Mutations per POST: the cap in the open loop, the fixed size in the closed one.
BATCH = 32

_TRANSPORT_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError)


#: Nodes of a 30-node cell that are down while load runs.  The served cells
#: are 70 % full: from 9 nodes down a cell loses revenue, from 20 it turns
#: containers of critical services off.  The schedule walks inside this band,
#: so every round the server commits is planned in a capacity crunch.
DOWN_MIN, DOWN_MAX = 12, 22
#: Every this many mutations one is a ``load_change``.
LOAD_EVERY = 50


class MutationStream:
    """Deterministic mutations over a fleet's cells, generated on demand.

    :meth:`ramp` comes first and uses no randomness: it takes every cell
    from healthy down to :data:`DOWN_MAX` failed nodes and back to the
    middle of the band, one node per cell per group.  :meth:`take` then
    walks the cells round-robin, failing or recovering one random node so
    that the count of failed nodes stays inside the band and is drawn to
    its middle, with a ``load_change`` every :data:`LOAD_EVERY` mutations.

    The server applies a round's mutations in its own canonical order and
    two POSTs in flight may commit in either order, so two mutations of one
    node that close together could land reversed and the served cells drift
    away from this schedule.  Hence a node is left alone for as many of its
    cell's mutations as two full POSTs can hold; :meth:`failed_nodes` is
    what the server must then report.
    """

    def __init__(self, seed: int, cells: list[str], nodes_per_cell: int) -> None:
        if nodes_per_cell <= DOWN_MAX:
            raise ValueError(f"cells need more than {DOWN_MAX} nodes")
        self._rng = random.Random(seed)
        self._cells = list(cells)
        self._nodes = [f"node-{i}" for i in range(nodes_per_cell)]
        self._down: dict[str, list[str]] = {cell: [] for cell in self._cells}
        quiet = -(-2 * BATCH // len(self._cells))
        self._recent: dict[str, deque] = {cell: deque(maxlen=quiet) for cell in self._cells}
        self._index = 0

    def ramp(self) -> list[list[dict]]:
        """The groups (one POST each) that bring every cell into the band."""
        middle = (DOWN_MIN + DOWN_MAX) // 2
        groups = []
        for kind, nodes in (
            ("node_failure", self._nodes[:DOWN_MAX]),
            ("node_recovery", self._nodes[DOWN_MAX - 1 : middle - 1 : -1]),
        ):
            for node in nodes:
                event = {"record": "event", "kind": kind, "nodes": [node]}
                groups.append([{"cell": cell, "event": event} for cell in self._cells])
        for cell in self._cells:
            self._down[cell] = self._nodes[:middle]
        return groups

    def take(self, count: int) -> list[dict]:
        return [self._next() for _ in range(count)]

    def failed_nodes(self) -> int:
        """Nodes down over all cells once everything taken so far is applied."""
        return sum(len(down) for down in self._down.values())

    def _next(self) -> dict:
        index = self._index
        self._index += 1
        rng = self._rng
        cell = self._cells[index % len(self._cells)]
        if index % LOAD_EVERY == LOAD_EVERY - 1:
            event = {
                "record": "event",
                "kind": "load_change",
                "multiplier": round(0.5 + rng.random(), 3),
                "app": None,
            }
            return {"cell": cell, "event": event}
        down, recent = self._down[cell], self._recent[cell]
        may_fail = [name for name in self._nodes if name not in down and name not in recent]
        may_recover = [name for name in down if name not in recent]
        # The further from the middle of the band, the likelier the step back:
        # what a round costs depends on how many nodes are down, and this way
        # every seed spends its time at about the same counts.
        recover = rng.random() < (len(down) - DOWN_MIN) / (DOWN_MAX - DOWN_MIN)
        # Near the top of the band every node that is up may have come up
        # only just now; then the band gives way, not the quiet period.
        if recover or not may_fail:
            node = may_recover[rng.randrange(len(may_recover))]
            down.remove(node)
            kind = "node_recovery"
        else:
            node = may_fail[rng.randrange(len(may_fail))]
            down.append(node)
            kind = "node_failure"
        recent.append(node)
        return {"cell": cell, "event": {"record": "event", "kind": kind, "nodes": [node]}}


class HttpClient:
    """One keep-alive HTTP/1.1 connection (Content-Length bodies only)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes, bytes]:
        """Send one request; returns (status, response body, request bytes)."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        raw = head + body
        try:
            self._writer.write(raw)
            await self._writer.drain()
            response_head = await self._reader.readuntil(b"\r\n\r\n")
            status = int(response_head.split(b" ", 2)[1])
            length = 0
            for line in response_head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            payload = await self._reader.readexactly(length) if length else b""
        except _TRANSPORT_ERRORS:
            await self.close()  # the next request reconnects
            raise
        return status, payload, raw

    async def get_json(self, path: str):
        status, payload, _ = await self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {payload[:200]!r}")
        return json.loads(payload)

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except _TRANSPORT_ERRORS:
                pass


def _mask(opcode: int, payload: bytes = b"") -> bytes:
    """One masked client frame (payloads here are always under 126 bytes)."""
    key = os.urandom(4)
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes([0x80 | opcode, 0x80 | len(payload)]) + key + masked


class WsDrain:
    """A WebSocket subscriber that drains ``/ws`` and counts the messages."""

    #: RoundCommitted payloads kept for the offline framing measurement.
    KEEP = 256

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.messages = 0
        self.rounds = 0
        self.round_payloads: list[str] = []
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task | None = None

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        key = base64.b64encode(os.urandom(16)).decode("latin-1")
        writer.write(
            (
                f"GET /ws HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0]:
            raise RuntimeError(f"WebSocket upgrade refused: {head[:120]!r}")
        await self._read_message(reader)  # Hello
        self._task = asyncio.create_task(self._drain(reader))

    async def _read_message(self, reader: asyncio.StreamReader) -> tuple[int, bytes]:
        first, second = await reader.readexactly(2)
        length = second & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", await reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", await reader.readexactly(8))
        payload = await reader.readexactly(length) if length else b""
        return first & 0x0F, payload

    async def _drain(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                opcode, payload = await self._read_message(reader)
                if opcode == 0x8:  # close
                    return
                if opcode == 0x9:  # ping
                    self._writer.write(_mask(0xA, payload[:125]))
                    continue
                if opcode != 0x1:
                    continue
                self.messages += 1
                if b'"event":"RoundCommitted"' in payload:
                    self.rounds += 1
                    if len(self.round_payloads) < self.KEEP:
                        self.round_payloads.append(payload.decode("utf-8"))
        except _TRANSPORT_ERRORS:
            return

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is None:
            return
        try:
            writer.write(_mask(0x8, struct.pack(">H", 1000)))
            await writer.drain()
        except _TRANSPORT_ERRORS:
            pass
        if self._task is not None:
            try:
                await asyncio.wait_for(self._task, timeout=2.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pass
            self._task = None
        writer.close()
        try:
            await writer.wait_closed()
        except _TRANSPORT_ERRORS:
            pass


_KEEP_REQUESTS = 128


@dataclass
class PhaseStats:
    """What one load phase sent and what came back."""

    sent: int = 0
    admitted: int = 0
    refused: int = 0
    failed: int = 0
    seconds: float = 0.0
    #: Open loop: per-mutation seconds from due time to committed response.
    #: Closed loop: per-POST seconds from send to committed response.
    latencies: list[float] = field(default_factory=list)
    #: Open loop, per mutation: seconds between the moment its POST could go
    #: out (the first mutation due and the connection free) and when it did:
    #: the generator's own lateness.
    lags: list[float] = field(default_factory=list)
    #: Open loop, per mutation: seconds the first mutation of its POST was due
    #: before a connection was free.  Not lateness of the generator: the
    #: server was still answering, and the wait is part of every latency,
    #: which runs from the due time.
    waits: list[float] = field(default_factory=list)
    #: (send, done, mutations) per admitted POST, on the perf_counter clock.
    posts: list[tuple[float, float, int]] = field(default_factory=list)
    #: Raw request bytes of the first POSTs, for the offline parse measurement.
    requests: list[bytes] = field(default_factory=list)

    def absorb(self, other: "PhaseStats") -> None:
        """Add another phase of the same kind to this running total."""
        self.sent += other.sent
        self.admitted += other.admitted
        self.refused += other.refused
        self.failed += other.failed
        self.seconds += other.seconds
        self.latencies += other.latencies
        self.lags += other.lags
        self.waits += other.waits
        self.posts += other.posts
        self.requests += other.requests[: _KEEP_REQUESTS - len(self.requests)]


async def post(
    client: HttpClient, group: list[dict], stats: PhaseStats
) -> tuple[float, float, bool]:
    """POST one group and book the outcome; returns (sent, done, admitted)."""
    body = json.dumps({"mutations": group}, separators=(",", ":")).encode("utf-8")
    stats.sent += len(group)
    sent_at = time.perf_counter()
    try:
        status, payload, raw = await client.request("POST", "/mutations", body)
    except _TRANSPORT_ERRORS:
        stats.failed += len(group)
        return sent_at, time.perf_counter(), False
    done = time.perf_counter()
    if len(stats.requests) < _KEEP_REQUESTS:
        stats.requests.append(raw)
    if status == 200 and json.loads(payload).get("admitted") == len(group):
        stats.admitted += len(group)
        stats.posts.append((sent_at, done, len(group)))
        return sent_at, done, True
    if status == 429:
        stats.refused += len(group)
    else:
        stats.failed += len(group)
    return sent_at, done, False


async def open_loop(
    clients: list[HttpClient], mutations: list[dict], rate: float
) -> PhaseStats:
    """Offer ``mutations`` at ``rate`` per second over the given connections."""
    stats = PhaseStats()
    interval = 1.0 / rate
    count = len(mutations)
    start = time.perf_counter() + 0.02
    cursor = 0

    async def connection(client: HttpClient) -> None:
        nonlocal cursor
        free_at = start
        while cursor < count:
            first = cursor
            due = start + first * interval
            now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                continue  # the other connection may have taken it meanwhile
            already_due = int((now - start) / interval) + 1
            size = max(1, min(BATCH, count - first, already_due - first))
            cursor = first + size
            stats.lags += [time.perf_counter() - max(due, free_at)] * size
            stats.waits += [max(0.0, free_at - due)] * size
            _sent, done, admitted = await post(
                client, mutations[first : first + size], stats
            )
            free_at = done
            if admitted:
                stats.latencies.extend(
                    done - (start + index * interval) for index in range(first, first + size)
                )

    await asyncio.gather(*(connection(client) for client in clients))
    stats.seconds = time.perf_counter() - start
    return stats


async def closed_loop(
    clients: list[HttpClient], stream: MutationStream, seconds: float
) -> PhaseStats:
    """Post :data:`BATCH` mutations back to back on every connection."""
    stats = PhaseStats()
    start = time.perf_counter()
    deadline = start + seconds
    last_done = start

    async def connection(client: HttpClient) -> None:
        nonlocal last_done
        while time.perf_counter() < deadline:
            sent_at, done, admitted = await post(client, stream.take(BATCH), stats)
            if admitted:
                stats.latencies.append(done - sent_at)
            last_done = max(last_done, done)

    await asyncio.gather(*(connection(client) for client in clients))
    stats.seconds = last_done - start
    return stats
