"""Observation neutrality: obs fully on vs fully off is byte-identical.

The observability plane's core contract is that it only *watches*:
enabling the registry and tracer must never change a digest, a metrics
JSONL byte, a step record, or any float accumulation — across the serial
engine path, the parallel sharded fleet path (spans crossing IPC), the
supervised-restart path, and the serve WAL-resume path.  Each test here
runs the same workload twice — obs off, then obs on — and compares the
complete observable output for equality.

The file also carries the acceptance check for span IPC: one
``reconcile(workers=2)`` round yields a single merged span tree
containing both parent and worker spans shipped over the wire codec.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.adaptlab import build_environment
from repro.chaos import FaultPlan, WorkerFault
from repro.fleet import FleetConfig, FleetEngine, FleetReplayer
from repro.serve import (
    ControlPlane,
    HttpConnection,
    WriteAheadLog,
    build_fleet,
    fleet_digest,
    resume_control_plane,
)
from repro.traces import TraceReplayer, fleet_scenario, generators

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


@pytest.fixture(autouse=True)
def _clean_default_obs():
    obs.disable()
    obs.registry().reset()
    obs.tracer().clear()
    obs.tracer().prefix = ""
    yield
    obs.disable()
    obs.registry().reset()
    obs.tracer().clear()
    obs.tracer().prefix = ""


def _run_twice(workload):
    """Run ``workload()`` with obs off, then fully on; return both results."""
    obs.disable()
    obs.registry().reset()
    obs.tracer().clear()
    off = workload()
    obs.enable()
    try:
        on = workload()
    finally:
        obs.disable()
    return off, on


# -- serial engine replay ------------------------------------------------------


def _engine_replay() -> str:
    import repro.api as api

    env = build_environment(node_count=60, n_apps=3, seed=11)
    trace = generators.poisson_failures(60, horizon=1800.0, mtbf=600.0, mttr=120.0, seed=5)
    engine = api.engine("revenue")
    metrics = TraceReplayer(engine, seed=3).run(env.fresh_state(), trace)
    return metrics.to_jsonl()


def test_serial_engine_replay_is_lockstep():
    off, on = _run_twice(_engine_replay)
    assert off == on


# -- parallel sharded fleet replay ---------------------------------------------


def _build_fleet(cells: int = 3, nodes_per_cell: int = 12, **config_kwargs) -> FleetEngine:
    states = [
        build_environment(node_count=nodes_per_cell, n_apps=2, seed=21 + i).fresh_state()
        for i in range(cells)
    ]
    return FleetEngine(FleetConfig(cells=cells, **config_kwargs), states=states)


def _fleet_state_fingerprint(fleet: FleetEngine) -> list:
    return [
        {
            "assignments": dict(cell.state.assignments),
            "failed": cell.state.failed_names(),
        }
        for cell in fleet.cells
    ]


def _fleet_parallel_replay() -> tuple[str, list]:
    fleet = _build_fleet()
    scenario = fleet_scenario(
        3,
        12,
        horizon=1800.0,
        mtbf=900.0,
        mttr=300.0,
        outage_cell=0,
        outage_at=600.0,
        outage_recovery_after=900.0,
        seed=4,
    )
    try:
        metrics = FleetReplayer(fleet, seed=2, workers=2).run(scenario)
        return metrics.to_jsonl(), _fleet_state_fingerprint(fleet)
    finally:
        fleet.close()


def test_parallel_fleet_replay_is_lockstep():
    off, on = _run_twice(_fleet_parallel_replay)
    assert off == on


# -- supervised restart --------------------------------------------------------


def _supervised_restart_rounds() -> list:
    """Two rounds with shard 0 dying on its second command (supervisor
    restarts it mid-round) — the recovery path must stay untraced-compatible."""
    fleet = _build_fleet(shard_backoff=0.0)
    try:
        fleet._shard_fault = FaultPlan(
            workers=(WorkerFault("kill", 0, 2, incarnations=None),)
        )
        fleet.reconcile(force=True, workers=2)
        for cell in (0, 1):
            fleet.cells[cell].state.fail_nodes([f"node-{cell + 1}"])
        report = fleet.reconcile(workers=2)  # the worker dies here
        return [
            report.planned,
            report.released,
            report.degraded_cells,
            round(report.availability, 12),
            round(report.revenue, 12),
            _fleet_state_fingerprint(fleet),
        ]
    finally:
        fleet.close()


def test_supervised_restart_is_lockstep():
    off, on = _run_twice(_supervised_restart_rounds)
    assert off == on


# -- serve with WAL resume -----------------------------------------------------


SERVE_PARAMS = dict(cells=2, nodes_per_cell=10, apps=2)


def _mutation(cell: str, kind: str, **fields) -> dict:
    return {"cell": cell, "event": {"record": "event", "kind": kind, **fields}}


SERVE_MUTATIONS = [
    _mutation("cell-0", "node_failure", nodes=["node-0", "node-1"]),
    _mutation("cell-1", "node_failure", nodes=["node-2"]),
    _mutation("cell-0", "node_recovery", nodes=["node-0"]),
]


def _serve_resume_session(wal_path: Path) -> tuple:
    async def post(conn, payload):
        status, _, body = await conn.request("POST", "/mutations", body=json.dumps(payload))
        assert status == 200, body
        return json.loads(body)

    async def run():
        fleet = build_fleet(**SERVE_PARAMS)
        wal = WriteAheadLog(
            wal_path,
            header={
                "fleet": SERVE_PARAMS,
                "seed": 0,
                "force_each_step": False,
                "queue_limit": 64,
            },
        )
        plane = ControlPlane(fleet, fleet_params=SERVE_PARAMS, wal=wal, queue_limit=64)
        host, port = await plane.start()
        try:
            async with HttpConnection(host, port) as conn:
                for payload in SERVE_MUTATIONS[:2]:
                    await post(conn, payload)
        finally:
            await plane.shutdown()

        resumed = resume_control_plane(wal_path)
        host, port = await resumed.start()
        try:
            async with HttpConnection(host, port) as conn:
                result = await post(conn, SERVE_MUTATIONS[2])
                assert result["round"] == 2  # continues where the journal ended
            digest = fleet_digest(resumed.fleet)
            steps = [step.to_record() for step in resumed.steps]
            trace = resumed.recorder.traces_jsonl()
        finally:
            await resumed.shutdown()
        return digest, steps, trace

    return asyncio.run(run())


def test_serve_resume_is_lockstep(tmp_path):
    off, on = _run_twice(
        lambda: _serve_resume_session(
            tmp_path / f"session-{'on' if obs.enabled() else 'off'}.wal"
        )
    )
    assert off == on


# -- the merged span tree (acceptance criterion) --------------------------------


def test_parallel_reconcile_produces_one_merged_span_tree():
    fleet = _build_fleet()
    obs.enable()
    try:
        obs.tracer().clear()
        fleet.cells[0].state.fail_nodes(["node-1"])
        fleet.reconcile(force=True, workers=2)
    finally:
        obs.disable()
        fleet.close()
    spans = list(obs.tracer().finished)
    by_id = {span.span_id: span for span in spans}
    worker_spans = [s for s in spans if s.span_id.startswith("w")]
    assert worker_spans, "no worker spans were shipped over the wire codec"
    # The shard wrapper span plus the engine's own spans from inside the
    # worker process, all shipped home over the wire codec.
    assert {"shard.round", "reconcile.round"} <= {s.name for s in worker_spans}
    # Every span chains to a root that lives in the same buffer: one tree.
    roots = set()
    for span in spans:
        node = span
        seen = set()
        while node.parent_id:
            assert node.parent_id in by_id, (node.span_id, node.parent_id)
            assert node.span_id not in seen
            seen.add(node.span_id)
            node = by_id[node.parent_id]
        roots.add(node.span_id)
    assert len(roots) == 1, f"expected one merged tree, got roots {roots}"
    assert by_id[next(iter(roots))].name == "fleet.round"
    # Shard wrapper spans hang off the parent's ship spans, per the IPC
    # protocol; deeper worker spans nest under their shard wrapper.
    for span in worker_spans:
        if span.name == "shard.round":
            assert by_id[span.parent_id].name == "fleet.ship"
        else:
            assert span.parent_id.startswith("w")


# -- CLI --metrics-out subprocess determinism ----------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["REPRO_OBS_CLOCK"] = "tick"  # deterministic span/registry clock
    env.pop("REPRO_OBS", None)
    return env


def _run_cli(args: list[str], cwd: Path) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_cli_fleet_replay_metrics_out_is_deterministic(tmp_path):
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"metrics-{run}.jsonl"
        _run_cli(
            [
                "fleet",
                "replay",
                "--cells",
                "2",
                "--nodes-per-cell",
                "10",
                "--horizon",
                "600",
                "--out",
                str(tmp_path / f"steps-{run}.jsonl"),
                "--metrics-out",
                str(out),
            ],
            cwd=tmp_path,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    records = [json.loads(line) for line in outputs[0].decode().splitlines()]
    names = {record["metric"] for record in records}
    assert "engine.rounds" in names
    assert "fleet.replay.steps" in names
    # histograms carry counts only: wall-clock fields ride behind --timing
    for record in records:
        if record["type"] == "histogram":
            assert set(record) == {"metric", "type", "count"}


def test_cli_replay_metrics_out_is_deterministic(tmp_path):
    trace_path = tmp_path / "churn.jsonl"
    trace = generators.poisson_failures(40, horizon=1200.0, mtbf=600.0, mttr=120.0, seed=9)
    trace_path.write_text(trace.dumps(), encoding="utf-8")
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"metrics-{run}.jsonl"
        _run_cli(
            [
                "replay",
                "--trace",
                str(trace_path),
                "--nodes",
                "40",
                "--out",
                str(tmp_path / f"steps-{run}.jsonl"),
                "--metrics-out",
                str(out),
            ],
            cwd=tmp_path,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b'"metric":"engine.rounds"' in outputs[0]
