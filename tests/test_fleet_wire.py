"""Wire codec: round-trips, string interning, versioning and corruption.

The codec carries every fleet IPC payload, so the contract is strict:
``loads(dumps(x))`` must reproduce ``x`` exactly (float bits included),
unknown versions must be refused loudly (never mis-decoded), and truncated
or trailing bytes must raise :class:`~repro.fleet.wire.WireError` rather
than returning a partial object.
"""

from __future__ import annotations

import math
import random
import struct

import pytest

from repro.api.config import EngineConfig
from repro.core.controller import ReconcileReport
from repro.core.plan import ActionKind, ActivationPlan, RankedMicroservice, SchedulePlan, make_action
from repro.fleet import wire
from repro.fleet.spillover import DonorCapacity, MsSpec, SpilloverAssignment
from repro.fleet.summary import CellSummary
from repro.fleet.wire import WireError, dumps, loads
from repro.traces.schema import CapacityTarget, LoadChange, NodeFailure, NodeRecovery


def roundtrip(obj):
    return loads(dumps(obj))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            63,
            64,
            -65,
            2**40,
            -(2**40),
            2**70,
            0.0,
            1.5,
            -2.25,
            "",
            "node-17",
            "unicode: ✓ ß 日本",
            b"",
            b"\x00\xffraw",
            [],
            (),
            {},
            set(),
            [1, "two", 3.0, None, True],
            ("nested", (1, (2, (3,)))),
            {"key": [1, 2], "other": {"inner": ()}},
            {frozenset, "sets"} - {frozenset},
        ],
    )
    def test_primitives(self, value):
        result = roundtrip(value)
        assert result == value
        assert type(result) is type(value)

    def test_float_bits_survive(self):
        for value in (0.1 + 0.2, -0.0, 1e-308, float("inf"), float("-inf")):
            out = roundtrip(value)
            assert struct.pack("<d", out) == struct.pack("<d", value)
        assert math.isnan(roundtrip(float("nan")))

    def test_dict_order_preserved(self):
        ordered = {"z": 1, "a": 2, "m": 3}
        assert list(roundtrip(ordered)) == ["z", "a", "m"]

    def test_int_keys_and_tuple_values(self):
        payload = {1: ("a", 2.0), -7: None}
        assert roundtrip(payload) == payload

    def test_string_interning_shrinks_repeats(self):
        """Repeated strings encode as references, not repeated bodies."""
        name = "some-rather-long-node-name-0001"
        once = len(dumps([name]))
        many = len(dumps([name] * 100))
        assert many < once + 100 * 3  # ~2 bytes per reference, not ~30

    def test_actions_and_plans(self):
        actions = [
            make_action(ActionKind.START, ("app", "ms", 0), "node-1", None),
            make_action(ActionKind.MIGRATE, ("app", "ms", 1), "node-2", "node-1"),
            make_action(ActionKind.DELETE, ("app", "ms", 2), None, "node-3"),
        ]
        for action in actions:
            back = roundtrip(action)
            assert back == action
            assert back.kind is action.kind
        ranked = RankedMicroservice("app", "ms", 1.25)
        plan = ActivationPlan(ranked=[ranked], activated=[ranked])
        assert roundtrip(plan) == plan

    def test_reconcile_report(self):
        # Field shapes mirror what the controller actually produces (lists),
        # which is what the decoder normalizes to.
        ranked = RankedMicroservice("app", "front", 2.0)
        plan = ActivationPlan(ranked=[ranked], activated=[ranked])
        schedule = SchedulePlan(
            target_assignment={("app", "front", 0): "node-1"},
            actions=[make_action(ActionKind.START, ("app", "front", 0), "node-1", None)],
            unplaced=[("app", "back")],
        )
        report = ReconcileReport(
            triggered=True,
            failed_nodes=["node-9"],
            recovered_nodes=[],
            plan=plan,
            schedule=schedule,
            planning_seconds=0.125,
            actions_executed=1,
        )
        back = roundtrip(report)
        assert back == report
        assert dict(back.schedule.target_assignment) == dict(
            schedule.target_assignment
        )

    def test_cell_summary(self):
        summary = CellSummary(
            cell="cell-1",
            triggered=True,
            failed_nodes=("n1", "n2"),
            recovered_nodes=(),
            actions=3,
            failed_count=2,
            capacity_cpu=100.0,
            healthy_cpu=80.0,
            healthy_mem=90.0,
            used_cpu=40.0,
            used_mem=45.0,
            free_cpu=40.0,
            free_mem=45.0,
            revenue=0.75,
            reference_revenue=1.0,
            app_count=4,
            missing_critical=(("app", "ms"),),
        )
        assert roundtrip(summary) == summary

    def test_spillover_and_trace_records(self):
        spec = MsSpec("front", 1.0, 2.0, 3, 1, False)
        assignment = SpilloverAssignment("cell-0", "app", "cell-1", 0.5, (spec,), 3.0, 6.0)
        donor = DonorCapacity("cell-1", 10.0, 20.0)
        events = (
            NodeFailure(time=10.0, nodes=("n1",)),
            NodeRecovery(time=20.0, nodes=("n1",)),
            CapacityTarget(time=30.0, available_fraction=0.75),
            LoadChange(time=40.0, multiplier=1.5),
        )
        for record in (spec, assignment, donor, *events):
            assert roundtrip(record) == record

    def test_pickle_escape_for_unknown_types(self):
        """Types outside the schema still travel (resync frames need it)."""
        config = EngineConfig()
        assert roundtrip(config) == config
        assert roundtrip({"mixed": [config, 1, "x"]}) == {"mixed": [config, 1, "x"]}


class TestVersioningAndCorruption:
    def test_bad_magic_rejected(self):
        with pytest.raises(WireError, match="magic"):
            loads(b"XX" + dumps(1)[2:])

    def test_future_version_rejected(self):
        payload = dumps(["versioned"])
        future = wire.MAGIC + bytes([wire.WIRE_VERSION + 1]) + payload[3:]
        with pytest.raises(WireError, match="version"):
            loads(future)

    def test_truncation_rejected(self):
        payload = dumps({"key": ["value", 1, 2.0]})
        for cut in (4, len(payload) // 2, len(payload) - 1):
            with pytest.raises(WireError):
                loads(payload[:cut])

    def test_trailing_bytes_rejected(self):
        # The checksum covers the exact body, so appended bytes fail the CRC
        # before the decoder could even notice the trailing garbage.
        with pytest.raises(WireError, match="trailing|checksum"):
            loads(dumps([1, 2]) + b"\x00")

    def test_empty_input_rejected(self):
        with pytest.raises(WireError):
            loads(b"")

    def test_checksum_detects_body_bit_flip(self):
        payload = bytearray(dumps({"cells": ["cell-0", "cell-1"], "round": 3}))
        payload[wire.HEADER_SIZE + 2] ^= 0x10
        with pytest.raises(WireError, match="checksum"):
            loads(bytes(payload))


def _corruption_corpus():
    """Small but shape-diverse frames for the exhaustive corruption sweep."""
    ranked = RankedMicroservice("app", "front", 2.0)
    plan = ActivationPlan(ranked=[ranked], activated=[ranked])
    schedule = SchedulePlan(
        target_assignment={("app", "front", 0): "node-1"},
        actions=[make_action(ActionKind.START, ("app", "front", 0), "node-1", None)],
        unplaced=[],
    )
    report = ReconcileReport(
        triggered=True,
        failed_nodes=["node-9"],
        recovered_nodes=[],
        plan=plan,
        schedule=schedule,
        planning_seconds=0.125,
        actions_executed=1,
    )
    return [
        ("round", {"cell-0": ("delta", ("n1",), ("n2",), (1.0, 2.0))}, True),
        ("ok", [(report, {"node-9"})]),
        ("step", {"cell-0": (NodeFailure(time=10.0, nodes=("n1", "n2")),)}, False, True),
        {"nested": [1, "two", 3.5, None, b"\x00\xff", {"k": (1, 2)}]},
        ("pickle-escape", EngineConfig()),
    ]


class TestCorruptionFuzz:
    """Satellite: every single-byte truncation/bit-flip must raise WireError.

    The supervisor treats a corrupt reply frame as a recoverable worker
    fault, which is only safe if *no* corruption can hang the decoder,
    crash it with a non-WireError, or silently decode to a wrong value.
    The CRC-32 header makes this exhaustive sweep tractable: any damaged
    frame fails the checksum (or an earlier header check) outright.
    """

    def test_every_truncation_offset_rejected(self):
        for frame in (dumps(obj) for obj in _corruption_corpus()):
            for cut in range(len(frame)):
                with pytest.raises(WireError):
                    loads(frame[:cut])

    def test_every_single_bit_flip_rejected_or_roundtrips(self):
        rng = random.Random(20260808)
        for obj in _corruption_corpus():
            frame = dumps(obj)
            for offset in range(len(frame)):
                corrupt = bytearray(frame)
                corrupt[offset] ^= 1 << rng.randrange(8)
                with pytest.raises(WireError):
                    loads(bytes(corrupt))

    def test_random_multi_byte_damage_rejected(self):
        rng = random.Random(7)
        frames = [dumps(obj) for obj in _corruption_corpus()]
        for _ in range(200):
            frame = bytearray(rng.choice(frames))
            for _ in range(rng.randrange(1, 4)):
                frame[rng.randrange(len(frame))] ^= rng.randrange(1, 256)
            with pytest.raises(WireError):
                loads(bytes(frame))

