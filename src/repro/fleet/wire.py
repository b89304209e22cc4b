"""Compact binary wire codec for fleet IPC payloads.

Everything the fleet's worker shards send or receive — trace events out,
:class:`~repro.fleet.summary.CellSummary` objects and
:class:`~repro.core.controller.ReconcileReport` bundles back — used to
travel as pickles.  Pickle is general but verbose: every summary re-spells
its field names, every ``ReplicaId`` re-spells its app and microservice
strings, and the framing alone costs tens of bytes per object.  This module
replaces it with a struct-packed format built for exactly the closed set of
types that cross the fleet's process boundary:

* one-byte type tags, LEB128 varints (zigzag for signed), ``<d`` doubles;
* **per-message string interning** — the first occurrence of a string is
  sent inline, every repeat is a varint back-reference, so the app/node
  names that dominate fleet payloads are paid for once per message;
* **typed records** for the hot domain objects (summaries, trace events,
  actions, plans, reports, spillover specs), encoded positionally with no
  field names on the wire;
* a **pickle escape frame** for anything outside the closed set (shipped
  cluster states during a resync, engine configs at pool start), so the
  codec never refuses a payload — unknown types just skip the compaction.

The format carries an explicit schema version (:data:`WIRE_VERSION`) and a
CRC-32 of the body in a seven-byte header; decoding a different version
raises :exc:`WireError` rather than mis-parsing, which is what lets a fleet
refuse a peer running an older wire schema instead of silently corrupting a
round.  The checksum makes *every* truncation or bit-flip of a frame —
header or body, at any byte offset — surface deterministically as
:exc:`WireError`, never as a hang, a crash, or a silently wrong decode;
the shard supervisor relies on this to treat a corrupt reply as a worker
fault it can recover from.

``dumps``/``loads`` round-trip every supported value exactly (object
types, tuple-vs-list shape, dict insertion order, float bits), which the
wire tests assert — byte-identity of serial vs parallel fleet output runs
through this property.
"""

from __future__ import annotations

import pickle
import struct
import zlib

from repro.cluster.state import ReplicaId
from repro.core.controller import ReconcileReport
from repro.core.plan import (
    Action,
    ActionKind,
    ActivationPlan,
    RankedMicroservice,
    SchedulePlan,
    make_action,
)
from repro.obs.trace import SpanRecord
from repro.traces.schema import CapacityTarget, LoadChange, NodeFailure, NodeRecovery

from repro.fleet.spillover import DonorCapacity, MsSpec, SpilloverAssignment
from repro.fleet.summary import CellSummary

#: Wire schema version.  Bump when tags, record ids, record field lists or
#: the header layout change; decoders reject any other version outright.
#: v2 added the CRC-32 body checksum to the header.
#: v3 added record 14 (``SpanRecord``) so observability spans propagate
#: across shard IPC without falling back to the pickle escape frame.
WIRE_VERSION = 3

#: Two-byte magic prefixing every message (catches non-wire input early).
MAGIC = b"FW"

#: Header layout: 2-byte magic + 1-byte version + 4-byte little-endian
#: CRC-32 of the body.
HEADER_SIZE = 7

_pack_crc = struct.Struct("<I").pack
_unpack_crc = struct.Struct("<I").unpack_from


class WireError(ValueError):
    """Raised for unknown magic, version mismatch, or corrupt frames."""


# -- value tags ----------------------------------------------------------------
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3  # zigzag varint
_T_FLOAT = 4  # little-endian IEEE double
_T_STR_DEF = 5  # varint byte length + UTF-8; assigns the next intern index
_T_STR_REF = 6  # varint index into the message's intern table
_T_BYTES = 7
_T_LIST = 8
_T_TUPLE = 9
_T_DICT = 10
_T_SET = 11
_T_RECORD = 12  # varint record id + varint field count + field values
_T_PICKLE = 13  # varint length + pickle bytes (escape hatch)

_pack_double = struct.Struct("<d").pack
_unpack_double = struct.Struct("<d").unpack_from


# -- typed records -------------------------------------------------------------
#
# Record ids and field orders are part of schema v1: reordering or extending
# an entry requires a WIRE_VERSION bump.  ``to_values`` flattens an object
# into a value tuple, ``from_values`` rebuilds it; nested values recurse
# through the generic encoder, so records can contain records.

_SUMMARY_FIELDS = (
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
)


def _summary_values(s: CellSummary) -> tuple:
    return tuple(getattr(s, name) for name in _SUMMARY_FIELDS)


_RECORDS: list[tuple[type, object, object]] = [
    # 0
    (ReplicaId, lambda o: tuple(o), lambda v: ReplicaId(v[0], v[1], v[2])),
    # 1
    (
        Action,
        lambda o: (o.kind.value, o.replica, o.target_node, o.source_node),
        lambda v: make_action(ActionKind(v[0]), v[1], v[2], v[3]),
    ),
    # 2
    (RankedMicroservice, lambda o: tuple(o), lambda v: RankedMicroservice(v[0], v[1], v[2])),
    # 3
    (
        ActivationPlan,
        lambda o: (o.ranked, o.activated, o.capacity, o.objective),
        lambda v: ActivationPlan(
            ranked=list(v[0]), activated=list(v[1]), capacity=v[2], objective=v[3]
        ),
    ),
    # 4
    (
        SchedulePlan,
        lambda o: (o.target_assignment, o.actions, o.unplaced),
        lambda v: SchedulePlan(
            target_assignment=v[0], actions=list(v[1]), unplaced=list(v[2])
        ),
    ),
    # 5
    (
        ReconcileReport,
        lambda o: (
            o.triggered,
            o.failed_nodes,
            o.recovered_nodes,
            o.plan,
            o.schedule,
            o.planning_seconds,
            o.actions_executed,
        ),
        lambda v: ReconcileReport(
            triggered=v[0],
            failed_nodes=list(v[1]),
            recovered_nodes=list(v[2]),
            plan=v[3],
            schedule=v[4],
            planning_seconds=v[5],
            actions_executed=v[6],
        ),
    ),
    # 6
    (CellSummary, _summary_values, lambda v: CellSummary(*v)),
    # 7
    (MsSpec, lambda o: tuple(o), lambda v: MsSpec(v[0], v[1], v[2], v[3], v[4], v[5])),
    # 8
    (
        SpilloverAssignment,
        lambda o: tuple(o),
        lambda v: SpilloverAssignment(v[0], v[1], v[2], v[3], tuple(v[4]), v[5], v[6]),
    ),
    # 9
    (DonorCapacity, lambda o: tuple(o), lambda v: DonorCapacity(v[0], v[1], v[2])),
    # 10
    (
        NodeFailure,
        lambda o: (o.time, o.nodes),
        lambda v: NodeFailure(time=v[0], nodes=tuple(v[1])),
    ),
    # 11
    (
        NodeRecovery,
        lambda o: (o.time, o.nodes),
        lambda v: NodeRecovery(time=v[0], nodes=tuple(v[1])),
    ),
    # 12
    (
        CapacityTarget,
        lambda o: (o.time, o.available_fraction),
        lambda v: CapacityTarget(time=v[0], available_fraction=v[1]),
    ),
    # 13
    (
        LoadChange,
        lambda o: (o.time, o.multiplier, o.app),
        lambda v: LoadChange(time=v[0], multiplier=v[1], app=v[2]),
    ),
    # 14 (v3): observability spans shipped back from worker shards
    (
        SpanRecord,
        lambda o: (o.name, o.span_id, o.parent_id, o.start, o.end, o.attrs),
        lambda v: SpanRecord(
            name=v[0],
            span_id=v[1],
            parent_id=v[2],
            start=v[3],
            end=v[4],
            attrs=dict(v[5]),
        ),
    ),
]

_ENCODERS: dict[type, tuple[int, object]] = {
    cls: (rid, to_values) for rid, (cls, to_values, _) in enumerate(_RECORDS)
}
_DECODERS: list[object] = [from_values for _, _, from_values in _RECORDS]


# -- encoding ------------------------------------------------------------------
def _write_varint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _encode(obj, buf: bytearray, interns: dict[str, int]) -> None:
    kind = type(obj)
    if kind is str:
        index = interns.get(obj)
        if index is None:
            interns[obj] = len(interns)
            raw = obj.encode("utf-8")
            buf.append(_T_STR_DEF)
            _write_varint(buf, len(raw))
            buf += raw
        else:
            buf.append(_T_STR_REF)
            _write_varint(buf, index)
    elif kind is float:
        buf.append(_T_FLOAT)
        buf += _pack_double(obj)
    elif kind is bool:
        buf.append(_T_TRUE if obj else _T_FALSE)
    elif kind is int:
        buf.append(_T_INT)
        _write_varint(buf, (obj << 1) if obj >= 0 else (((-obj) << 1) - 1))
    elif obj is None:
        buf.append(_T_NONE)
    elif kind is list or kind is tuple:
        buf.append(_T_LIST if kind is list else _T_TUPLE)
        _write_varint(buf, len(obj))
        for item in obj:
            _encode(item, buf, interns)
    elif kind is dict:
        buf.append(_T_DICT)
        _write_varint(buf, len(obj))
        for key, value in obj.items():
            _encode(key, buf, interns)
            _encode(value, buf, interns)
    elif kind is set:
        buf.append(_T_SET)
        _write_varint(buf, len(obj))
        for item in obj:
            _encode(item, buf, interns)
    elif kind is bytes:
        buf.append(_T_BYTES)
        _write_varint(buf, len(obj))
        buf += obj
    else:
        entry = _ENCODERS.get(kind)
        if entry is not None:
            rid, to_values = entry
            values = to_values(obj)
            buf.append(_T_RECORD)
            _write_varint(buf, rid)
            _write_varint(buf, len(values))
            for value in values:
                _encode(value, buf, interns)
        else:
            # Escape hatch: anything outside the closed set (shipped states,
            # engine configs) rides as an embedded pickle frame.
            raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            buf.append(_T_PICKLE)
            _write_varint(buf, len(raw))
            buf += raw


def dumps(obj) -> bytes:
    """Encode ``obj`` as one framed wire message (magic + version + crc + value)."""
    body = bytearray()
    _encode(obj, body, {})
    buf = bytearray(MAGIC)
    buf.append(WIRE_VERSION)
    buf += _pack_crc(zlib.crc32(body) & 0xFFFFFFFF)
    buf += body
    return bytes(buf)


# -- decoding ------------------------------------------------------------------
def _read_varint(data: bytes, i: int) -> tuple[int, int]:
    shift = 0
    result = 0
    while True:
        if shift > 127:
            # A frame that passed the CRC never encodes varints this long;
            # bound the loop so even a checksum collision cannot spin it.
            raise WireError("varint overruns 128 bits")
        byte = data[i]
        i += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, i
        shift += 7


def _decode(data: bytes, i: int, interns: list[str]):
    tag = data[i]
    i += 1
    if tag == _T_STR_REF:
        index, i = _read_varint(data, i)
        return interns[index], i
    if tag == _T_STR_DEF:
        length, i = _read_varint(data, i)
        text = data[i : i + length]
        if len(text) != length:
            raise IndexError
        value = text.decode("utf-8")
        interns.append(value)
        return value, i + length
    if tag == _T_FLOAT:
        if i + 8 > len(data):
            raise IndexError
        return _unpack_double(data, i)[0], i + 8
    if tag == _T_INT:
        zz, i = _read_varint(data, i)
        return (-((zz + 1) >> 1) if zz & 1 else zz >> 1), i
    if tag == _T_NONE:
        return None, i
    if tag == _T_TRUE:
        return True, i
    if tag == _T_FALSE:
        return False, i
    if tag == _T_LIST or tag == _T_TUPLE or tag == _T_SET:
        count, i = _read_varint(data, i)
        items = []
        for _ in range(count):
            item, i = _decode(data, i, interns)
            items.append(item)
        if tag == _T_LIST:
            return items, i
        return (tuple(items) if tag == _T_TUPLE else set(items)), i
    if tag == _T_DICT:
        count, i = _read_varint(data, i)
        out: dict = {}
        for _ in range(count):
            key, i = _decode(data, i, interns)
            out[key], i = _decode(data, i, interns)
        return out, i
    if tag == _T_RECORD:
        rid, i = _read_varint(data, i)
        if rid >= len(_DECODERS):
            raise WireError(f"unknown wire record id {rid} (schema skew?)")
        count, i = _read_varint(data, i)
        values = []
        for _ in range(count):
            value, i = _decode(data, i, interns)
            values.append(value)
        return _DECODERS[rid](values), i
    if tag == _T_BYTES:
        length, i = _read_varint(data, i)
        raw = bytes(data[i : i + length])
        if len(raw) != length:
            raise IndexError
        return raw, i + length
    if tag == _T_PICKLE:
        length, i = _read_varint(data, i)
        raw = data[i : i + length]
        if len(raw) != length:
            raise IndexError
        try:
            return pickle.loads(raw), i + length
        except WireError:
            raise
        except Exception as exc:
            raise WireError(f"corrupt pickle escape frame: {exc!r}") from exc
    raise WireError(f"unknown wire tag {tag}")


def loads(data: bytes):
    """Decode one framed wire message produced by :func:`dumps`."""
    if data[:2] != MAGIC:
        raise WireError(f"bad wire magic {bytes(data[:2])!r} (expected {MAGIC!r})")
    if len(data) < 3:
        raise WireError("truncated wire message: missing version byte")
    version = data[2]
    if version != WIRE_VERSION:
        raise WireError(
            f"wire schema version {version} is not supported "
            f"(this build speaks version {WIRE_VERSION})"
        )
    if len(data) < HEADER_SIZE:
        raise WireError("truncated wire message: missing body checksum")
    data = bytes(data)
    expected = _unpack_crc(data, 3)[0]
    actual = zlib.crc32(data[HEADER_SIZE:]) & 0xFFFFFFFF
    if actual != expected:
        raise WireError(
            f"wire body checksum mismatch (crc32 {actual:#010x}, header says "
            f"{expected:#010x}): frame truncated or corrupted in flight"
        )
    try:
        value, offset = _decode(data, HEADER_SIZE, [])
    except (IndexError, struct.error) as exc:
        raise WireError(f"truncated or corrupt wire message: {exc!r}") from exc
    if offset != len(data):
        raise WireError(
            f"trailing garbage after wire message ({len(data) - offset} bytes)"
        )
    return value

