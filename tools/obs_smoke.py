#!/usr/bin/env python
"""Observability smoke: scrape a live ``repro serve`` under ``REPRO_OBS=1``.

What it proves, in one run:

1. the CLI boots with the observability plane enabled and serves rounds
   exactly as it does with the plane off (the lockstep suite proves
   byte-identity; this proves the live wiring);
2. ``GET /metrics`` with ``Accept: text/plain`` returns Prometheus
   exposition text that passes :func:`repro.obs.validate_prometheus_text`
   and carries both the serve core families and the shared registry's
   ``repro_obs_*`` families, while the default JSON content type is
   untouched for existing clients;
3. ``GET /spans`` returns JSONL span records forming parent-linked traces
   of the rounds just served (``serve.batch`` wrapping the fleet round).

Run from the repository root (CI obs-smoke does)::

    python tools/obs_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs import validate_prometheus_text  # noqa: E402
from repro.serve import HttpConnection  # noqa: E402

SERVE_ARGS = [
    "--cells", "2", "--nodes-per-cell", "12", "--apps", "2",
    "--port", "0", "--seed", "0",
]


def _failure(cell: str, node: str) -> dict:
    return {
        "cell": cell,
        "event": {"record": "event", "kind": "node_failure", "nodes": [node]},
    }


async def drive(host: str, port: int) -> dict:
    async with HttpConnection(host, port) as connection:
        config = await connection.get_json("/config")
        cells = config["cells"]
        nodes = {}
        for cell in cells:
            listing = await connection.get_json(f"/cells/{cell}/nodes")
            nodes[cell] = [entry["node"] for entry in listing["nodes"]]

        for index, cell in enumerate(cells):
            status, _headers, body = await connection.request(
                "POST", "/mutations", body=json.dumps(_failure(cell, nodes[cell][index]))
            )
            assert status == 200, (status, body)

        # Default scrape stays JSON — the dashboard and loadgen depend on it.
        status, headers, body = await connection.request("GET", "/metrics")
        assert status == 200, (status, body)
        assert headers["content-type"].startswith("application/json"), headers
        metrics_json = json.loads(body.decode())

        status, headers, body = await connection.request(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200, (status, body)
        assert headers["content-type"].startswith("text/plain"), headers
        prom_text = body.decode()

        status, headers, body = await connection.request("GET", "/spans")
        assert status == 200, (status, body)
        assert headers["content-type"] == "application/x-ndjson", headers
        spans_jsonl = body.decode()
    return {"json": metrics_json, "prometheus": prom_text, "spans": spans_jsonl}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_OBS"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *SERVE_ARGS],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=str(ROOT),
    )
    try:
        line = proc.stdout.readline()
        info = json.loads(line)
        assert info.get("event") == "Serving", f"unexpected boot line: {line!r}"
        scrape = asyncio.run(drive(info["host"], info["port"]))
    except BaseException:
        proc.kill()
        proc.wait()
        stderr = proc.stderr.read()
        if stderr:
            print(stderr, file=sys.stderr)
        raise
    proc.send_signal(signal.SIGINT)
    code = proc.wait(timeout=30)
    assert code == 0, f"server exited {code}: {proc.stderr.read()}"

    assert scrape["json"]["rounds"] >= 2, scrape["json"]

    errors = validate_prometheus_text(scrape["prometheus"])
    assert not errors, "invalid Prometheus exposition:\n" + "\n".join(errors)
    families = {
        line.split("{")[0].split(" ")[0]
        for line in scrape["prometheus"].splitlines()
        if line and not line.startswith("#")
    }
    for family in (
        "repro_serve_rounds_total",
        "repro_serve_pending",
        "repro_serve_round_seconds",
        "repro_obs_serve_rounds_total",
        "repro_obs_engine_rounds_total",
    ):
        assert family in families, f"missing family {family}"

    spans = [json.loads(line) for line in scrape["spans"].splitlines()]
    assert spans, "no spans recorded"
    by_id = {span["span"]: span for span in spans}
    names = {span["name"] for span in spans}
    assert {"serve.batch", "reconcile.round"} <= names, names
    for span in spans:  # every non-root span links to a recorded parent
        assert not span["parent"] or span["parent"] in by_id, span

    print(
        "obs smoke: OK — "
        f"{scrape['json']['rounds']} rounds, "
        f"{len(families)} Prometheus families validated, "
        f"{len(spans)} parent-linked spans"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
