"""repro.serve — a live async control plane over the fleet.

The layer that turns the repository's replay engines into a *served*
system: one stdlib-only asyncio server (hand-rolled HTTP/1.1 and
WebSocket, like the fleet's wire codec) owning one
:class:`~repro.fleet.engine.FleetEngine`, admitting concurrent mutations
through a deterministic batcher, streaming the typed event bus, and
recording every admitted batch as a replayable schema-v1 trace.

Entry points: ``python -m repro serve`` boots a server,
``python -m repro serve-load`` drives one open-loop; programmatic use goes
through :class:`ControlPlane` and :func:`run_load`.
"""

from repro.serve.admission import AdmissionBatcher, AdmissionFull, canonical_key
from repro.serve.app import (
    ControlPlane,
    ServeCrash,
    build_fleet,
    event_record,
)
from repro.serve.http1 import HttpConnection, HttpError
from repro.serve.loadgen import run_load
from repro.serve.session import SessionRecorder, fleet_digest, state_digest
from repro.serve.wal import WalError, WriteAheadLog, resume_control_plane
from repro.serve.websocket import WebSocketClient, WebSocketError

__all__ = [
    "AdmissionBatcher",
    "AdmissionFull",
    "ControlPlane",
    "HttpConnection",
    "HttpError",
    "ServeCrash",
    "SessionRecorder",
    "WalError",
    "WebSocketClient",
    "WebSocketError",
    "WriteAheadLog",
    "build_fleet",
    "canonical_key",
    "event_record",
    "fleet_digest",
    "resume_control_plane",
    "run_load",
    "state_digest",
]
