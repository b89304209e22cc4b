"""Tests for the serve layer: protocols, admission, determinism, back-pressure.

The heart of the file is the determinism gate: N concurrent clients
submitting a fixed mutation set produce a fleet state (canonical digest),
a recorded trace, and step records that are byte-identical to a serial
offline replay of that trace — the serve layer's core contract.  Around
it: unit tests for the hand-rolled HTTP/1.1 and WebSocket framing, the
admission batcher's canonical ordering and 429 back-pressure, the
EventBus's concurrent-subscription safety, and the public ``summary()``
snapshots' field stability.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import threading

import pytest

from repro import obs
from repro.api.config import EngineConfig
from repro.api.engine import PhoenixEngine
from repro.api.events import EventBus, FailureDetected
from repro.fleet import FleetReplayer
from repro.fleet import replay as fleet_replay
from repro.serve import (
    AdmissionBatcher,
    AdmissionFull,
    ControlPlane,
    HttpConnection,
    ServeCrash,
    WalError,
    WebSocketClient,
    WriteAheadLog,
    build_fleet,
    canonical_key,
    fleet_digest,
    resume_control_plane,
    run_load,
)
from repro.serve.http1 import HttpError, read_request, render_response
from repro.serve.websocket import (
    OP_BINARY,
    WebSocketError,
    accept_key,
    encode_frame,
    read_frame,
    text_frame,
)
from repro.traces.schema import Trace, TraceError, parse_event

FLEET_PARAMS = dict(cells=2, nodes_per_cell=12, apps=2)


def build_plane(**overrides) -> ControlPlane:
    fleet = build_fleet(**FLEET_PARAMS)
    return ControlPlane(fleet, fleet_params=FLEET_PARAMS, **overrides)


def mutation(cell: str, kind: str, **fields) -> dict:
    return {"cell": cell, "event": {"record": "event", "kind": kind, **fields}}


async def post(conn: HttpConnection, payload) -> tuple[int, dict, dict]:
    status, headers, body = await conn.request(
        "POST", "/mutations", body=json.dumps(payload)
    )
    return status, headers, json.loads(body)


# -- HTTP/1.1 parsing ----------------------------------------------------------


def parse_bytes(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


class TestHttp1:
    def test_parses_request_line_headers_and_body(self):
        request = parse_bytes(
            b"POST /mutations?a=1&b=x%20y HTTP/1.1\r\n"
            b"Host: h\r\nContent-Length: 4\r\nX-Thing: v\r\n\r\nbody"
        )
        assert request.method == "POST"
        assert request.path == "/mutations"
        assert request.query == {"a": "1", "b": "x y"}
        assert request.headers["x-thing"] == "v"
        assert request.body == b"body"
        assert request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    def test_malformed_request_line_raises_400(self):
        with pytest.raises(HttpError) as err:
            parse_bytes(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_bad_content_length_raises_400(self):
        with pytest.raises(HttpError) as err:
            parse_bytes(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert err.value.status == 400

    def test_connection_close_disables_keep_alive(self):
        request = parse_bytes(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_render_response_roundtrips_status_and_body(self):
        raw = render_response(429, b'{"e":1}', headers={"Retry-After": "1.0"})
        text = raw.decode("latin-1")
        assert text.startswith("HTTP/1.1 429 Too Many Requests\r\n")
        assert "Retry-After: 1.0" in text
        assert text.endswith('{"e":1}')


# -- WebSocket framing ---------------------------------------------------------


class TestWebSocketFraming:
    def test_accept_key_matches_rfc6455_example(self):
        assert (
            accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize("size", [0, 1, 125, 126, 65535, 65536])
    @pytest.mark.parametrize("mask", [False, True])
    def test_frame_roundtrip_all_length_encodings(self, size, mask):
        payload = bytes(range(256)) * (size // 256) + bytes(range(size % 256))

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(OP_BINARY, payload, mask=mask))
            return await read_frame(reader, require_mask=mask)

        opcode, decoded = asyncio.run(run())
        assert opcode == OP_BINARY
        assert decoded == payload

    def test_unmasked_client_frame_rejected(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(text_frame("x", mask=False))
            return await read_frame(reader, require_mask=True)

        with pytest.raises(WebSocketError):
            asyncio.run(run())


# -- parse_event (schema v1 single records) ------------------------------------


class TestParseEvent:
    def test_parses_and_validates(self):
        event = parse_event(
            {"record": "event", "kind": "node_failure", "time": 3.0, "nodes": ["n1"]}
        )
        assert event.kind == "node_failure"
        assert event.nodes == ("n1",)

    def test_default_time_fills_missing_time(self):
        event = parse_event(
            {"record": "event", "kind": "load_change", "multiplier": 2.0, "app": None},
            default_time=7.0,
        )
        assert event.time == 7.0

    def test_missing_time_without_default_raises(self):
        with pytest.raises(TraceError):
            parse_event({"record": "event", "kind": "node_failure", "nodes": ["n1"]})

    def test_unknown_kind_raises(self):
        with pytest.raises(TraceError, match="unknown event kind"):
            parse_event({"record": "event", "kind": "meteor", "time": 0.0})

    def test_unknown_event_version_raises(self):
        with pytest.raises(TraceError, match="unsupported event version"):
            parse_event(
                {"record": "event", "kind": "node_failure", "time": 0.0,
                 "nodes": ["n1"], "version": 99}
            )


# -- EventBus concurrency (satellite: emission-safe subscribe/unsubscribe) -----


class TestEventBusConcurrency:
    def test_emit_with_concurrent_subscribe_unsubscribe(self):
        """Threaded fuzz: emits never crash or miss registered handlers."""
        bus = EventBus()
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    cancels = [bus.subscribe(lambda e: None) for _ in range(5)]
                    for cancel in cancels:
                        cancel()
            except BaseException as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        seen = []
        bus.subscribe(seen.append)
        try:
            for index in range(2000):
                bus.emit(FailureDetected(nodes=(f"n{index}",)))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(seen) == 2000

    def test_unsubscribe_during_emit_takes_effect_next_emit(self):
        bus = EventBus()
        calls = []
        cancel = bus.subscribe(lambda e: calls.append(e))
        bus.emit(FailureDetected(nodes=("a",)))
        cancel()
        bus.emit(FailureDetected(nodes=("b",)))
        assert len(calls) == 1

    def test_duplicate_handler_unsubscribes_one_registration(self):
        bus = EventBus()
        calls = []
        handler = calls.append
        first = bus.subscribe(handler)
        bus.subscribe(handler)
        first()
        bus.emit(FailureDetected(nodes=("a",)))
        assert len(calls) == 1


# -- public summary() snapshots (satellite) ------------------------------------

SUMMARY_FIELDS = {
    "record",
    "cell",
    "triggered",
    "failed_nodes",
    "recovered_nodes",
    "actions",
    "failed_count",
    "capacity_cpu",
    "healthy_cpu",
    "healthy_mem",
    "used_cpu",
    "used_mem",
    "free_cpu",
    "free_mem",
    "revenue",
    "reference_revenue",
    "app_count",
    "missing_critical",
    "degraded",
}


class TestSummarySnapshots:
    def test_fleet_summary_shape_and_pickle(self):
        fleet = build_fleet(**FLEET_PARAMS)
        try:
            summary = fleet.summary()
            assert set(summary) == set(fleet.cell_names)
            for name, cell_summary in summary.items():
                record = cell_summary.to_record()
                assert set(record) == SUMMARY_FIELDS
                assert record["record"] == "cell-summary"
                assert record["cell"] == name
                clone = pickle.loads(pickle.dumps(cell_summary))
                assert clone.to_record() == record
                json.dumps(record)  # JSON-able end to end
        finally:
            fleet.close()

    def test_engine_summary_matches_backend_state(self):
        from repro.adaptlab import build_environment

        env = build_environment(node_count=10, n_apps=2, seed=4)
        state = env.fresh_state()
        engine = PhoenixEngine(EngineConfig())
        engine.reconcile(state, force=True)
        summary = engine.summary(state, name="solo")
        record = summary.to_record()
        assert set(record) == SUMMARY_FIELDS
        assert record["cell"] == "solo"
        assert record["failed_count"] == 0
        assert record["capacity_cpu"] > 0


# -- admission batcher ---------------------------------------------------------


class TestAdmissionBatcher:
    def test_batch_order_is_canonical_regardless_of_submit_order(self):
        async def run(order):
            batcher = AdmissionBatcher()
            for cell, record in order:
                batcher.submit(cell, object(), record)
            batch = await batcher.next_batch()
            return [m.key for m in batch]

        records = [
            ("cell-1", {"kind": "node_failure", "nodes": ["b"]}),
            ("cell-0", {"kind": "node_failure", "nodes": ["z"]}),
            ("cell-0", {"kind": "node_failure", "nodes": ["a"]}),
        ]
        forward = asyncio.run(run(records))
        backward = asyncio.run(run(list(reversed(records))))
        assert forward == backward == sorted(
            canonical_key(cell, record) for cell, record in records
        )

    def test_queue_limit_rejects_with_retry_after(self):
        async def run():
            batcher = AdmissionBatcher(queue_limit=2, retry_after=3.5)
            batcher.submit("c", object(), {"i": 0})
            batcher.submit("c", object(), {"i": 1})
            with pytest.raises(AdmissionFull) as err:
                batcher.submit("c", object(), {"i": 2})
            assert err.value.retry_after == 3.5
            assert batcher.rejected == 1
            assert len(batcher) == 2

        asyncio.run(run())

    def test_close_wakes_driver_with_empty_batch(self):
        async def run():
            batcher = AdmissionBatcher()
            waiter = asyncio.ensure_future(batcher.next_batch())
            await asyncio.sleep(0)
            batcher.close()
            assert await waiter == []
            with pytest.raises(RuntimeError):
                batcher.submit("c", object(), {})

        asyncio.run(run())


# -- the served control plane --------------------------------------------------


class TestControlPlane:
    def test_mutations_queries_and_trace_roundtrip(self):
        async def run():
            plane = build_plane()
            host, port = await plane.start()
            try:
                async with HttpConnection(host, port) as conn:
                    health = await conn.get_json("/healthz")
                    assert health["status"] == "ok"
                    config = await conn.get_json("/config")
                    assert config["fleet"] == FLEET_PARAMS
                    assert config["cells"] == ["cell-0", "cell-1"]

                    status, _, result = await post(
                        conn, mutation("cell-0", "node_failure", nodes=["node-0", "node-1"])
                    )
                    assert status == 200
                    assert result["round"] == 0
                    assert result["step"]["failed_nodes"] == 2

                    status, _, result = await post(
                        conn, mutation("cell-0", "node_recovery", nodes=["node-0", "node-1"])
                    )
                    assert status == 200
                    assert result["round"] == 1

                    cells = await conn.get_json("/cells")
                    assert {c["cell"] for c in cells["cells"]} == {"cell-0", "cell-1"}
                    nodes = await conn.get_json("/cells/cell-1/nodes")
                    assert len(nodes["nodes"]) == FLEET_PARAMS["nodes_per_cell"]
                    metrics = await conn.get_json("/metrics")
                    assert metrics["admitted"] == 2
                    assert metrics["rounds"] == 2

                    trace = await conn.get_json("/trace")
                    recorded = Trace.loads(trace["cells"]["cell-0"])
                    assert [e.kind for e in recorded] == ["node_failure", "node_recovery"]
                    assert [e.time for e in recorded] == [0.0, 1.0]
            finally:
                await plane.shutdown()

        asyncio.run(run())

    def test_error_paths(self):
        async def run():
            plane = build_plane()
            host, port = await plane.start()
            try:
                async with HttpConnection(host, port) as conn:
                    status, _, body = await conn.request("GET", "/nope")
                    assert status == 404
                    status, _, body = await conn.request("DELETE", "/cells")
                    assert status == 405
                    status, _, body = await post(conn, {"cell": "mars", "event": {}})
                    assert status == 400
                    status, _, body = await post(
                        conn,
                        {"cell": "cell-0", "event": {"record": "event", "kind": "meteor"}},
                    )
                    assert status == 400
                    assert "unknown event kind" in body["error"]
                    status, _, _ = await conn.request("GET", "/cells/unknown")
                    assert status == 404
            finally:
                await plane.shutdown()

        asyncio.run(run())

    def test_back_pressure_answers_429_with_retry_after(self):
        async def run():
            plane = build_plane(queue_limit=1, retry_after=2.0)
            host, port = await plane.start()
            try:
                # Park the driver behind one slow-ish round, then overfill the
                # queue within a single event-loop tick so the second submit
                # sees it at capacity.
                loop = asyncio.get_running_loop()
                event = parse_event(
                    {"record": "event", "kind": "node_failure", "nodes": ["node-2"]},
                    default_time=0.0,
                )
                recovery = parse_event(
                    {"record": "event", "kind": "node_recovery", "nodes": ["node-2"]},
                    default_time=0.0,
                )
                first = plane.batcher.submit("cell-0", event, {"k": 1})
                with pytest.raises(AdmissionFull):
                    plane.batcher.submit("cell-0", recovery, {"k": 2})
                await first

                # The HTTP surface maps the same condition to 429 + Retry-After.
                plane.batcher.submit("cell-0", recovery, {"k": 3})  # refill
                async with HttpConnection(host, port) as conn:
                    status, headers, body = await post(
                        conn, mutation("cell-1", "node_failure", nodes=["node-3"])
                    )
                    if status == 429:  # race: driver may drain first
                        assert headers["retry-after"] == "2.0"
                        assert "full" in body["error"]
                metrics_conn = HttpConnection(host, port)
                metrics = await metrics_conn.get_json("/metrics")
                await metrics_conn.close()
                assert metrics["rejected"] >= 1
                assert loop is asyncio.get_running_loop()
            finally:
                await plane.shutdown()

        asyncio.run(run())

    def test_websocket_streams_typed_events(self):
        async def run():
            plane = build_plane()
            host, port = await plane.start()
            try:
                async with WebSocketClient(host, port) as ws:
                    hello = json.loads(await ws.recv_text(timeout=5))
                    assert hello["event"] == "Hello"
                    assert len(hello["cells"]) == 2
                    async with HttpConnection(host, port) as conn:
                        await post(
                            conn, mutation("cell-0", "node_failure", nodes=["node-4"])
                        )
                    records = []
                    while not any(r["event"] == "RoundCommitted" for r in records):
                        message = await ws.recv_text(timeout=5)
                        assert message is not None
                        records.append(json.loads(message))
                    kinds = [r["event"] for r in records]
                    assert "FailureDetected" in kinds
                    detected = records[kinds.index("FailureDetected")]
                    assert detected["cell"] == "cell-0"  # cell-tagged, flattened
                    assert detected["nodes"] == ["node-4"]
                    assert "CellReconciled" in kinds
            finally:
                await plane.shutdown()

        asyncio.run(run())

    def test_round_timer_is_one_histogram_per_plane(self):
        """Round quantiles come from the plane's own histogram, obs off."""

        async def serve_rounds(rounds: int) -> tuple[dict, str]:
            plane = build_plane()
            host, port = await plane.start()
            try:
                async with HttpConnection(host, port) as conn:
                    for index in range(rounds):
                        kind = "node_failure" if index % 2 == 0 else "node_recovery"
                        status, _, _ = await post(
                            conn, mutation("cell-0", kind, nodes=["node-1"])
                        )
                        assert status == 200
                    metrics = await conn.get_json("/metrics")
                    _, _, text = await conn.request(
                        "GET", "/metrics", headers={"Accept": "text/plain"}
                    )
                return metrics, text.decode("utf-8")
            finally:
                await plane.shutdown()

        was_enabled = obs.registry().enabled
        obs.disable()
        try:
            first, text = asyncio.run(serve_rounds(3))
            second, _ = asyncio.run(serve_rounds(1))
        finally:
            if was_enabled:
                obs.enable()
        for metrics, rounds in ((first, 3), (second, 1)):
            timer = metrics["round_seconds"]
            assert metrics["rounds"] == rounds
            assert timer["count"] == rounds  # two planes never share counts
            assert 0.0 < timer["p50"] <= timer["p99"] <= timer["max"]
            assert timer["sum"] >= timer["max"]
        assert "p999" not in first["round_seconds"]
        assert not obs.validate_prometheus_text(text)
        assert "repro_serve_round_seconds_count 3" in text.splitlines()
        assert 'repro_serve_round_seconds{quantile="0.99"}' in text

    def test_load_generator_reports_histogram_quantiles(self):
        async def run():
            plane = build_plane()
            host, port = await plane.start()
            try:
                return await run_load(
                    host, port, rate=40.0, duration=0.5, connections=2, seed=3
                )
            finally:
                await plane.shutdown()

        report = asyncio.run(run())
        admission = report["admission_seconds"]
        assert report["admitted"] == report["offered"] == admission["count"] == 20
        assert 0.0 < admission["p50"] <= admission["p99"] <= admission["p999"]
        assert admission["p999"] <= admission["max"]
        server = report["server"]
        assert server["round_seconds"]["count"] == server["rounds"] > 0

    def test_dashboard_served_at_root(self):
        async def run():
            plane = build_plane()
            host, port = await plane.start()
            try:
                async with HttpConnection(host, port) as conn:
                    status, headers, body = await conn.request("GET", "/")
                    assert status == 200
                    assert headers["content-type"].startswith("text/html")
                    assert b"repro serve" in body
                    assert b"/ws" in body
            finally:
                await plane.shutdown()

        asyncio.run(run())


# -- the determinism gate ------------------------------------------------------


class TestDeterminismGate:
    """N concurrent clients == serial offline replay, byte for byte."""

    MUTATIONS = [
        mutation("cell-0", "node_failure", nodes=["node-0", "node-3"]),
        mutation("cell-1", "node_failure", nodes=["node-5"]),
        mutation("cell-0", "load_change", multiplier=1.5, app=None),
        mutation("cell-0", "node_recovery", nodes=["node-0"]),
        mutation("cell-1", "node_recovery", nodes=["node-5"]),
        mutation("cell-0", "node_recovery", nodes=["node-3"]),
        mutation("cell-1", "capacity", available_fraction=0.8),
        mutation("cell-1", "capacity", available_fraction=1.0),
    ]

    async def _serve_fixed_set(self, clients: int) -> tuple[str, dict, list]:
        """Serve MUTATIONS split across ``clients`` concurrent connections."""
        plane = build_plane()
        host, port = await plane.start()
        try:
            async def submit(shard: list) -> None:
                async with HttpConnection(host, port) as conn:
                    for payload in shard:
                        status, _, _ = await post(conn, payload)
                        assert status == 200

            shards = [self.MUTATIONS[i::clients] for i in range(clients)]
            await asyncio.gather(*[submit(shard) for shard in shards if shard])
            async with HttpConnection(host, port) as conn:
                digest = await conn.get_json("/digest")
                trace = await conn.get_json("/trace")
                steps = await conn.get_json("/steps")
            return digest["digest"], trace["cells"], steps["steps"]
        finally:
            await plane.shutdown()

    def test_concurrent_clients_equal_offline_replay(self):
        digest, traces, steps = asyncio.run(self._serve_fixed_set(clients=4))

        scenario = {cell: Trace.loads(text) for cell, text in traces.items()}
        fleet = build_fleet(**FLEET_PARAMS)
        try:
            metrics = FleetReplayer(fleet, seed=0, workers=1).run(scenario)
            offline_steps = [step.to_record() for step in metrics.steps]
            assert fleet_digest(fleet) == digest
        finally:
            fleet.close()
        assert json.dumps(steps, sort_keys=True) == json.dumps(
            offline_steps, sort_keys=True
        )

    @pytest.mark.parametrize("clients", [1, 3])
    def test_every_session_equals_its_offline_replay(self, clients):
        """The contract holds for any client count, not just the fan-out case.

        Round *boundaries* may differ between client counts (a lone client
        gets one round per submit, concurrent submits coalesce) — what is
        invariant is that each session's recorded trace replays to the
        session's exact end state and step records.
        """
        digest, traces, steps = asyncio.run(self._serve_fixed_set(clients=clients))
        if clients == 1:
            assert len(steps) == len(self.MUTATIONS)  # one round per submit
        scenario = {cell: Trace.loads(text) for cell, text in traces.items()}
        fleet = build_fleet(**FLEET_PARAMS)
        try:
            metrics = FleetReplayer(fleet, seed=0, workers=1).run(scenario)
            assert fleet_digest(fleet) == digest
            assert [step.to_record() for step in metrics.steps] == steps
        finally:
            fleet.close()


    #: Quiet rounds, then one whole cell down and back: the fleet plans
    #: spillovers onto the other cell and later releases them.  A single
    #: client makes one round per mutation, so the failure lands at step 3 —
    #: inside the sharded replayer's third, 4-step batch, which must rewind.
    CELL_OUTAGE = [
        mutation("cell-1", "node_failure", nodes=["node-5"]),
        mutation("cell-1", "node_recovery", nodes=["node-5"]),
        mutation("cell-1", "capacity", available_fraction=1.0),
        mutation("cell-0", "node_failure", nodes=[f"node-{i}" for i in range(12)]),
        mutation("cell-1", "node_failure", nodes=["node-7"]),
        mutation("cell-1", "node_recovery", nodes=["node-7"]),
        mutation("cell-0", "node_recovery", nodes=[f"node-{i}" for i in range(12)]),
    ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_spillover_session_equals_offline_replay(self, workers, monkeypatch):
        async def serve() -> tuple[str, dict, list]:
            plane = build_plane()
            host, port = await plane.start()
            try:
                async with HttpConnection(host, port) as conn:
                    for payload in self.CELL_OUTAGE:
                        status, _, _ = await post(conn, payload)
                        assert status == 200
                    digest = await conn.get_json("/digest")
                    trace = await conn.get_json("/trace")
                    steps = await conn.get_json("/steps")
                return digest["digest"], trace["cells"], steps["steps"]
            finally:
                await plane.shutdown()

        digest, traces, steps = asyncio.run(serve())
        # Non-vacuous: the served session really planned and released.
        assert any(step["spillovers_planned"] > 0 for step in steps)
        assert any(step["spillovers_released"] > 0 for step in steps)

        rewinds: list[int] = []
        rewind = fleet_replay._PoolExecutor.rewind
        monkeypatch.setattr(
            fleet_replay._PoolExecutor,
            "rewind",
            lambda executor, keep: (rewinds.append(keep), rewind(executor, keep))[1],
        )
        scenario = {cell: Trace.loads(text) for cell, text in traces.items()}
        fleet = build_fleet(**FLEET_PARAMS)
        try:
            metrics = FleetReplayer(fleet, seed=0, workers=workers).run(scenario)
            if workers == 1:
                assert fleet_digest(fleet) == digest
            else:
                # A sharded replay leaves the parent's cell states stale, so
                # its fleet digest is not comparable; the steps are.
                assert rewinds, "the sharded replay never rewound a batch"
        finally:
            fleet.close()
        assert [step.to_record() for step in metrics.steps] == steps


# -- write-ahead journal + crash recovery --------------------------------------

#: A fixed serial workload: one round per mutation (single client).
WAL_MUTATIONS = [
    mutation("cell-0", "node_failure", nodes=["node-0", "node-3"]),
    mutation("cell-1", "node_failure", nodes=["node-5"]),
    mutation("cell-0", "node_recovery", nodes=["node-0"]),
    mutation("cell-1", "node_recovery", nodes=["node-5"]),
]


def _wal_header() -> dict:
    return {
        "fleet": FLEET_PARAMS,
        "seed": 0,
        "force_each_step": False,
        "queue_limit": 1024,
    }


def build_wal_plane(wal_path, **overrides) -> ControlPlane:
    return build_plane(
        wal=WriteAheadLog(wal_path, header=_wal_header()), **overrides
    )


async def _post_and_drop(host, port, payload) -> None:
    """POST a mutation on a raw one-shot socket and read to EOF.

    The crash tests need this instead of :class:`HttpConnection`: the
    keep-alive client retries once on a dropped connection, and re-sending
    the mutation to a crashed driver would wait forever on a future no one
    will resolve.
    """
    body = json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        b"POST /mutations HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
        % (len(body), body)
    )
    await writer.drain()
    await reader.read()  # EOF: the handler died with the driver
    writer.close()


async def _abandon(plane: ControlPlane) -> None:
    """Tear a crashed plane down the way kill -9 would (no graceful drain)."""
    if plane._server is not None:
        plane._server.close()
        await plane._server.wait_closed()
        plane._server = None
    plane.batcher.fail_pending(RuntimeError("crashed"))
    if plane.wal is not None:
        plane.wal.close()
    plane.fleet.close()


async def _session_snapshot(host, port) -> tuple[str, dict, list]:
    async with HttpConnection(host, port) as conn:
        digest = await conn.get_json("/digest")
        trace = await conn.get_json("/trace")
        steps = await conn.get_json("/steps")
    return digest["digest"], trace["cells"], steps["steps"]


async def _run_uncrashed_twin() -> tuple[str, dict, list]:
    """The fault-free reference: all WAL_MUTATIONS served start to finish."""
    plane = build_plane()
    host, port = await plane.start()
    try:
        async with HttpConnection(host, port) as conn:
            for payload in WAL_MUTATIONS:
                status, _, _ = await post(conn, payload)
                assert status == 200
        return await _session_snapshot(host, port)
    finally:
        await plane.shutdown()


class TestWriteAheadLog:
    def test_journal_roundtrip(self, tmp_path):
        path = tmp_path / "session.wal"
        wal = WriteAheadLog(path, header=_wal_header())
        wal.append_batch(0, [("cell-0", {"kind": "node_failure", "nodes": ["a"]})])
        wal.append_batch(1, [("cell-1", {"kind": "node_recovery", "nodes": ["a"]})])
        wal.close()
        header, batches = WriteAheadLog.read(path)
        assert header["fleet"] == FLEET_PARAMS
        assert [b["round"] for b in batches] == [0, 1]
        assert batches[0]["mutations"] == [
            ["cell-0", {"kind": "node_failure", "nodes": ["a"]}]
        ]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "session.wal"
        wal = WriteAheadLog(path, header=_wal_header())
        wal.append_batch(0, [("cell-0", {"kind": "node_failure", "nodes": ["a"]})])
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "batch", "round": 1, "mut')  # crash mid-write
        _header, batches = WriteAheadLog.read(path)
        assert [b["round"] for b in batches] == [0]

    def test_append_after_torn_tail_truncates(self, tmp_path):
        """Reopening for append (the resume path) cuts a torn final line, so
        the next record starts on a fresh line instead of concatenating onto
        the fragment — which would corrupt the journal for every later read."""
        path = tmp_path / "session.wal"
        wal = WriteAheadLog(path, header=_wal_header())
        wal.append_batch(0, [("cell-0", {"kind": "node_failure", "nodes": ["a"]})])
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "batch", "round": 1, "mut')  # crash mid-write
        wal = WriteAheadLog(path)  # append-reopen, as resume does
        wal.append_batch(1, [("cell-1", {"kind": "node_recovery", "nodes": ["a"]})])
        wal.close()
        _header, batches = WriteAheadLog.read(path)
        assert [b["round"] for b in batches] == [0, 1]
        assert batches[1]["mutations"] == [
            ["cell-1", {"kind": "node_recovery", "nodes": ["a"]}]
        ]

    def test_append_to_headerless_torn_file_raises(self, tmp_path):
        """A file holding nothing but a torn header line cannot be resumed."""
        path = tmp_path / "session.wal"
        path.write_text('{"record": "wal", "versi')  # crash during line one
        with pytest.raises(WalError, match="no intact journal header"):
            WriteAheadLog(path)

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "session.wal"
        wal = WriteAheadLog(path, header=_wal_header())
        wal.append_batch(0, [("cell-0", {"kind": "node_failure", "nodes": ["a"]})])
        wal.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # damage a non-tail record
        lines.append('{"record": "batch", "round": 1, "mutations": []}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalError, match="corrupt journal line"):
            WriteAheadLog.read(path)

    def test_out_of_order_rounds_raise(self, tmp_path):
        path = tmp_path / "session.wal"
        wal = WriteAheadLog(path, header=_wal_header())
        wal.append_batch(1, [("cell-0", {"kind": "node_failure", "nodes": ["a"]})])
        wal.close()
        # A trailing valid record keeps round 1 from being torn-tail-dropped.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "batch", "round": 2, "mutations": []}\n')
        with pytest.raises(WalError, match="out of order"):
            WriteAheadLog.read(path)


class TestCrashRecovery:
    def test_wal_append_precedes_apply(self, tmp_path):
        """The crash window: a journaled round the fleet never saw."""

        class _Plan:
            wal_crash_round = 0
            ws_drop_after = None

        async def run():
            path = tmp_path / "session.wal"
            plane = build_wal_plane(path, fault_plan=_Plan())
            host, port = await plane.start()
            try:
                await _post_and_drop(host, port, WAL_MUTATIONS[0])
                with pytest.raises(ServeCrash):
                    await plane._driver
                assert plane.recorder.rounds == 1  # recorded and journaled...
                assert plane.steps == []  # ...but never applied
            finally:
                await _abandon(plane)
            _header, batches = WriteAheadLog.read(path)
            assert [b["round"] for b in batches] == [0]

        asyncio.run(run())

    def test_crash_then_resume_matches_uncrashed_run(self, tmp_path):
        """Kill the driver after journaling round 2; resume replays it and
        finishes the workload — trace, digest, and steps all byte-equal the
        fault-free twin's."""

        class _Plan:
            wal_crash_round = 2
            ws_drop_after = None

        async def crash_run(path) -> None:
            plane = build_wal_plane(path, fault_plan=_Plan())
            host, port = await plane.start()
            try:
                async with HttpConnection(host, port) as conn:
                    for payload in WAL_MUTATIONS[:2]:
                        status, _, _ = await post(conn, payload)
                        assert status == 200
                await _post_and_drop(host, port, WAL_MUTATIONS[2])
                with pytest.raises(ServeCrash):
                    await plane._driver
            finally:
                await _abandon(plane)

        async def resume_run(path) -> tuple[str, dict, list]:
            plane = resume_control_plane(path)
            assert plane.recorder.rounds == 3  # rounds 0-2 rebuilt from the WAL
            host, port = await plane.start()
            try:
                async with HttpConnection(host, port) as conn:
                    status, _, result = await post(conn, WAL_MUTATIONS[3])
                    assert status == 200
                    assert result["round"] == 3  # continues where the WAL ended
                return await _session_snapshot(host, port)
            finally:
                await plane.shutdown()

        async def run():
            path = tmp_path / "session.wal"
            await crash_run(path)
            recovered = await resume_run(path)
            reference = await _run_uncrashed_twin()
            assert recovered == reference

        asyncio.run(run())

    async def _serve_checkpointed_session(self, wal_path, checkpoint_path):
        """Serve WAL_MUTATIONS with a checkpoint cadence; return the session
        snapshot ``(digest, traces, steps)``."""
        plane = build_wal_plane(
            wal_path, checkpoint_path=checkpoint_path, checkpoint_every=2
        )
        host, port = await plane.start()
        try:
            async with HttpConnection(host, port) as conn:
                for payload in WAL_MUTATIONS:
                    status, _, _ = await post(conn, payload)
                    assert status == 200
            return await _session_snapshot(host, port)
        finally:
            await plane.shutdown()

    @staticmethod
    def _count_applied(monkeypatch) -> list[int]:
        """Instrument ControlPlane._apply_round to record applied rounds."""
        applied: list[int] = []
        original = ControlPlane._apply_round

        def counting(self, round_index, events_by_cell):
            applied.append(round_index)
            return original(self, round_index, events_by_cell)

        monkeypatch.setattr(ControlPlane, "_apply_round", counting)
        return applied

    def test_resume_with_checkpoint_skips_rounds_but_serves_steps(
        self, tmp_path, monkeypatch
    ):
        async def run():
            wal_path = tmp_path / "session.wal"
            checkpoint_path = tmp_path / "session.ckpt"
            digest, traces, steps = await self._serve_checkpointed_session(
                wal_path, checkpoint_path
            )
            assert checkpoint_path.exists()

            applied = self._count_applied(monkeypatch)
            resumed = resume_control_plane(wal_path, checkpoint_path=checkpoint_path)
            try:
                # The checkpoint covers all 4 rounds: nothing re-applies, yet
                # the trace, fleet state AND step records match the original
                # (steps ride in the checkpoint extra).
                assert applied == []
                assert resumed.recorder.rounds == 4
                assert [step.to_record() for step in resumed.steps] == steps
                assert fleet_digest(resumed.fleet) == digest
                assert resumed.recorder.traces_jsonl() == traces
            finally:
                if resumed.wal is not None:
                    resumed.wal.close()
                resumed.fleet.close()

        asyncio.run(run())

    def test_checkpoint_without_steps_falls_back_to_full_replay(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint missing its step records (an older build's file) is
        ignored: the whole journal replays and the session is still exact."""
        from repro.fleet.checkpoint import CHECKPOINT_MAGIC, CHECKPOINT_VERSION
        from repro.fleet.wire import dumps as wire_dumps, loads as wire_loads

        async def run():
            wal_path = tmp_path / "session.wal"
            checkpoint_path = tmp_path / "session.ckpt"
            digest, traces, steps = await self._serve_checkpointed_session(
                wal_path, checkpoint_path
            )

            blob = checkpoint_path.read_bytes()
            payload = wire_loads(blob[len(CHECKPOINT_MAGIC) + 1 :])
            del payload["extra"]["steps"]
            checkpoint_path.write_bytes(
                CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION]) + wire_dumps(payload)
            )

            applied = self._count_applied(monkeypatch)
            resumed = resume_control_plane(wal_path, checkpoint_path=checkpoint_path)
            try:
                assert applied == [0, 1, 2, 3]  # no fast-forward: full replay
                assert resumed.recorder.rounds == 4
                assert [step.to_record() for step in resumed.steps] == steps
                assert fleet_digest(resumed.fleet) == digest
                assert resumed.recorder.traces_jsonl() == traces
            finally:
                if resumed.wal is not None:
                    resumed.wal.close()
                resumed.fleet.close()

        asyncio.run(run())

    def test_client_disconnect_mid_batch_keeps_trace_intact(self, tmp_path):
        """An admitted mutation commits even if its client vanishes before
        the response — the recorded trace stays replayable and complete."""

        async def run():
            path = tmp_path / "session.wal"
            plane = build_wal_plane(path)
            host, port = await plane.start()
            try:
                # Fire a full POST and slam the connection without reading
                # the response.
                body = json.dumps(WAL_MUTATIONS[0]).encode()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /mutations HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
                writer.close()
                # The round driver is oblivious: wait for the round to land.
                for _ in range(200):
                    if plane.recorder.rounds >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert plane.recorder.rounds == 1
                async with HttpConnection(host, port) as conn:
                    status, _, result = await post(conn, WAL_MUTATIONS[1])
                    assert status == 200
                    assert result["round"] == 1
                digest, traces, steps = await _session_snapshot(host, port)
            finally:
                await plane.shutdown()

            # Both mutations are in the trace, and it replays to the digest.
            scenario = {cell: Trace.loads(text) for cell, text in traces.items()}
            assert sum(len(t) for t in scenario.values()) == 2
            fleet = build_fleet(**FLEET_PARAMS)
            try:
                metrics = FleetReplayer(fleet, seed=0, workers=1).run(scenario)
                assert fleet_digest(fleet) == digest
                assert [step.to_record() for step in metrics.steps] == steps
            finally:
                fleet.close()

        asyncio.run(run())


class TestServeSubprocess:
    """The CLI boots a real server process that a client can talk to."""

    def test_boot_announce_healthz_sigint(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--cells", "2", "--nodes-per-cell", "10", "--apps", "2",
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            cwd=str(root),
        )
        try:
            info = json.loads(proc.stdout.readline())
            assert info["event"] == "Serving"
            assert info["cells"] == 2

            async def probe():
                async with HttpConnection(info["host"], info["port"]) as conn:
                    health = await conn.get_json("/healthz")
                    config = await conn.get_json("/config")
                return health, config

            health, config = asyncio.run(probe())
            assert health["status"] == "ok"
            assert config["fleet"]["nodes_per_cell"] == 10
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0

    def test_sigterm_drains_and_wal_resumes(self, tmp_path):
        """SIGTERM is a graceful drain: admitted rounds finish, the journal
        flushes, and an offline resume reproduces the served session."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        wal_path = tmp_path / "session.wal"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--cells", "2", "--nodes-per-cell", "12", "--apps", "2",
                "--port", "0", "--wal", str(wal_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            cwd=str(root),
        )
        try:
            info = json.loads(proc.stdout.readline())
            assert info["event"] == "Serving"
            assert info["resumed"] is False

            async def drive():
                async with HttpConnection(info["host"], info["port"]) as conn:
                    for payload in WAL_MUTATIONS:
                        status, _, _ = await post(conn, payload)
                        assert status == 200
                    digest = await conn.get_json("/digest")
                return digest["digest"]

            served_digest = asyncio.run(drive())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

        plane = resume_control_plane(wal_path)
        try:
            assert plane.recorder.rounds == len(WAL_MUTATIONS)
            assert fleet_digest(plane.fleet) == served_digest
        finally:
            if plane.wal is not None:
                plane.wal.close()
            plane.fleet.close()

    def test_resume_defaults_to_journaled_queue_limit(self, tmp_path):
        """A resumed CLI session keeps the admission back-pressure recorded
        in the journal header unless --queue-limit is re-specified."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        wal_path = tmp_path / "session.wal"
        base = [
            sys.executable, "-m", "repro", "serve",
            "--cells", "2", "--nodes-per-cell", "10", "--apps", "2",
            "--port", "0", "--wal", str(wal_path),
        ]

        def boot(extra):
            return subprocess.Popen(
                base + extra,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                cwd=str(root),
            )

        async def config_of(info) -> dict:
            async with HttpConnection(info["host"], info["port"]) as conn:
                return await conn.get_json("/config")

        proc = boot(["--queue-limit", "7"])
        try:
            info = json.loads(proc.stdout.readline())
            assert json.loads(
                wal_path.read_text().splitlines()[0]
            )["queue_limit"] == 7
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

        proc = boot(["--resume"])
        try:
            info = json.loads(proc.stdout.readline())
            assert info["resumed"] is True
            config = asyncio.run(config_of(info))
            assert config["queue_limit"] == 7  # journal header, not the default
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
