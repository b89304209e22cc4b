"""Tier-1 smoke test of the end-to-end benchmark.

Runs ``run.py --smoke`` (1,600-node clusters, a handful of operations, two
seconds of serve load) and checks the contract between ``run.py`` and
``BENCHMARK.json``: every metric the file names comes out, by that name,
with a unit and a finite value, for every workload; the size caps hold;
every correctness check ran.  No timing is asserted.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

EXPECTED_CHECKS = {
    "storm_dense": {"input_digest", "traffic_guard", "invariants", "trace_digest"},
    "churn_healthy": {"input_digest", "replay_consistency", "invariants", "trace_digest"},
    "churn_degraded": {"input_digest", "replay_consistency", "invariants", "trace_digest"},
    "fleet_outage": {"input_digest", "determinism", "serial_identity", "invariants", "trace_digest"},
    # Not "loadgen_lag": a generator made late by the host is a warning, and
    # this test asserts no timing.
    "serve_live": {"input_digest", "traffic_guard", "failed_nodes", "offline_digest", "trace_digest"},
}


def test_catalogue_within_caps():
    workloads = [entry["name"] for entry in BENCHMARK["workloads"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = workloads + [e["name"] for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    assert all(0 < entry["bound"] <= 0.25 for entry in BENCHMARK["end_to_end"])
    assert set(workloads) == set(EXPECTED_CHECKS)


def test_smoke_run_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    document = json.loads(out.read_text(encoding="utf-8"))
    assert {"commit", "date", "python", "host"} <= set(document["stamp"])
    records = {record["workload"]: record for record in document["records"]}
    assert set(records) == set(EXPECTED_CHECKS)
    for name, record in records.items():
        assert record["scale"] == "smoke"
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert EXPECTED_CHECKS[name] <= set(record["checks"]), (name, record["checks"])
        for key in ("end_to_end", "per_layer"):
            values = record[key]
            assert set(values) == {entry["name"] for entry in BENCHMARK[key]}, (name, key)
            assert all(math.isfinite(value) for value in values.values()), (name, key)
        assert all(value > 0 for value in record["end_to_end"].values()), name
        assert (HERE.parent.parent / record["spans"]).is_file()
    # Printed by name with its unit, for every workload.
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert len(re.findall(rf"^  {re.escape(entry['name'])} +\S+ {re.escape(entry['unit'])}$",
                              done.stdout, re.M)) == len(records), entry["name"]

    compared = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert compared.returncode == 0, compared.stdout + compared.stderr
    rows = compared.stdout.strip().splitlines()[1:]
    assert len(rows) == len(records) * len(BENCHMARK["end_to_end"])
    assert all(row.endswith("unchanged") for row in rows)
