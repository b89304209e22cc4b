"""Async open-loop load generator for a running control plane.

Open-loop means arrivals are scheduled by the clock, not by completions:
mutation ``i`` is *due* at ``start + i/rate`` whether or not earlier
requests have finished, and its recorded admission latency runs from that
due time to the server's committed response — so a server that falls
behind shows the backlog as latency (and eventually as 429s), exactly the
coordinated-omission-free measurement an admission-batcher needs.

The generated workload is deterministic in the seed: a round-robin walk
over the fleet's cells toggling node health (every node the generator
fails, it later recovers — tracked client-side, so served state stays
bounded), with an occasional ``load_change``.  Latency quantiles
(p50/p90/p99/p999) come from one :class:`~repro.obs.metrics.Histogram`
over every admitted mutation (log buckets, ~19 % resolution; count, sum
and max exact); the report also snapshots the server's ``/metrics`` for
the round-latency view.
"""

from __future__ import annotations

import asyncio
import json
import random
import time as _time

from repro.obs import MetricsRegistry
from repro.serve.http1 import HttpConnection


def _workload(
    rng: random.Random,
    cell_nodes: dict[str, list[str]],
    count: int,
    *,
    load_every: int = 50,
) -> list[dict[str, object]]:
    """``count`` deterministic mutations over the given cells and nodes."""
    cells = sorted(cell_nodes)
    down: dict[str, set[str]] = {cell: set() for cell in cells}
    mutations: list[dict[str, object]] = []
    for index in range(count):
        cell = cells[index % len(cells)]
        if load_every and index % load_every == load_every - 1:
            event: dict[str, object] = {
                "record": "event",
                "kind": "load_change",
                "multiplier": round(0.5 + rng.random(), 3),
                "app": None,
            }
        else:
            failed = down[cell]
            # Recover when half the sampled pool is down, else fail another.
            pool = cell_nodes[cell]
            if failed and (len(failed) >= max(1, len(pool) // 2) or rng.random() < 0.4):
                node = rng.choice(sorted(failed))
                failed.discard(node)
                event = {"record": "event", "kind": "node_recovery", "nodes": [node]}
            else:
                candidates = [n for n in pool if n not in failed]
                if not candidates:
                    continue
                node = rng.choice(candidates)
                failed.add(node)
                event = {"record": "event", "kind": "node_failure", "nodes": [node]}
        mutations.append({"cell": cell, "event": event})
    return mutations


async def run_load(
    host: str,
    port: int,
    *,
    rate: float = 1000.0,
    duration: float = 5.0,
    connections: int = 8,
    batch: int = 1,
    seed: int = 0,
    nodes_per_cell: int = 16,
) -> dict[str, object]:
    """Drive the server open-loop at ``rate``/s for ``duration`` seconds.

    ``nodes_per_cell`` caps the node pool sampled per cell (smaller pools
    mean more churn per node, a harsher detector workload).  ``batch`` lets
    each worker coalesce up to that many *already-due* mutations into one
    ``POST /mutations`` request — amortising per-request HTTP cost without
    changing the open-loop schedule (latency is still measured per mutation
    from its own due time).  Returns the latency/throughput report as a
    JSON-able dict.
    """
    if rate <= 0 or duration <= 0 or connections < 1 or batch < 1:
        raise ValueError(
            "rate and duration must be positive, connections and batch >= 1"
        )
    probe = HttpConnection(host, port)
    config = await probe.get_json("/config")
    cell_nodes: dict[str, list[str]] = {}
    for cell in config["cells"]:
        listing = await probe.get_json(f"/cells/{cell}/nodes")
        names = [entry["node"] for entry in listing["nodes"]]
        cell_nodes[cell] = names[:nodes_per_cell]
    await probe.close()

    count = int(rate * duration)
    mutations = _workload(random.Random(seed), cell_nodes, count)
    interval = 1.0 / rate

    due: asyncio.Queue = asyncio.Queue()
    latency = MetricsRegistry()
    latency.enable()
    admission_seconds = latency.histogram("loadgen.admission_seconds")
    outcomes = {"admitted": 0, "rejected_429": 0, "errors": 0}

    async def producer() -> None:
        start = _time.perf_counter()
        for index, mutation in enumerate(mutations):
            target = start + index * interval
            delay = target - _time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            due.put_nowait((target, mutation))
        for _ in range(connections):
            due.put_nowait(None)

    async def worker() -> None:
        async with HttpConnection(host, port) as connection:
            while True:
                item = await due.get()
                if item is None:
                    return
                group = [item]
                while len(group) < batch:
                    try:
                        extra = due.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is None:
                        # Not ours to consume: hand the stop signal back so
                        # every worker still sees exactly one.
                        due.put_nowait(None)
                        break
                    group.append(extra)
                if len(group) == 1:
                    body = json.dumps(group[0][1])
                else:
                    body = json.dumps({"mutations": [m for _, m in group]})
                try:
                    status, _headers, _body = await connection.request(
                        "POST", "/mutations", body=body
                    )
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    outcomes["errors"] += len(group)
                    continue
                done = _time.perf_counter()
                if status == 200:
                    for due_at, _mutation in group:
                        admission_seconds.observe(done - due_at)
                    outcomes["admitted"] += len(group)
                elif status == 429:
                    outcomes["rejected_429"] += len(group)
                else:
                    outcomes["errors"] += len(group)

    started = _time.perf_counter()
    await asyncio.gather(producer(), *[worker() for _ in range(connections)])
    elapsed = _time.perf_counter() - started

    async with HttpConnection(host, port) as connection:
        server_metrics = await connection.get_json("/metrics")

    admitted = outcomes["admitted"]
    return {
        "offered": len(mutations),
        "offered_rate": rate,
        "duration_seconds": round(elapsed, 6),
        "admitted": admitted,
        "rejected_429": outcomes["rejected_429"],
        "errors": outcomes["errors"],
        "admitted_rate": round(admitted / elapsed, 3) if elapsed > 0 else 0.0,
        "connections": connections,
        "batch": batch,
        "seed": seed,
        "admission_seconds": {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in (
                admission_seconds.summary()
                | {"p999": admission_seconds.quantile(0.999)}
            ).items()
        },
        "server": {
            "rounds": server_metrics["rounds"],
            "mutations": server_metrics["mutations"],
            "round_seconds": {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in server_metrics["round_seconds"].items()
            },
            "dropped_events": server_metrics["dropped_events"],
        },
    }
