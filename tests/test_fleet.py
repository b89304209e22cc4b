"""Fleet layer: partitioner determinism, facade equivalence, spillover,
parallel byte-identity and the fleet CLI.

The two load-bearing suites mirror the acceptance criteria:

* ``TestSingleCellEquivalence`` — a one-cell ``FleetEngine`` is
  byte-identical to a bare ``PhoenixEngine`` over long churn (the facade
  adds no drift);
* ``TestWorkerEquivalence`` — ``reconcile(workers=4)`` and the sharded
  fleet replayer produce byte-identical output to serial runs (lockstep
  fuzz in the style of ``tests/test_incremental.py``).
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api as api
import repro.fleet.replay
from repro.adaptlab import build_environment
from repro.apps import build_hotel_reservation, build_overleaf
from repro.chaos import (
    FaultPlan,
    WorkerFault,
    check_equivalence,
    run_cell_outage_check,
    verify_invariants,
)
from repro.cluster import ClusterState, Node, Resources
from repro.fleet import (
    CellDegraded,
    FleetConfig,
    FleetEngine,
    FleetReplayer,
    HashPartitioner,
    NoSpillover,
    RackAwarePartitioner,
    SpilloverPlanned,
    SpilloverReleased,
    partition_state,
    stable_cell,
)
from repro.fleet.summary import is_clone
from repro.traces import TraceReplayer, fleet_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def _template_cell(builder, nodes=10, headroom=1.5) -> ClusterState:
    """One cell hosting one template application with spare headroom."""
    app = builder().application
    demand = app.total_demand()
    per_cpu = max(
        demand.cpu * headroom / nodes, max(ms.resources.cpu for ms in app) * 1.2
    )
    per_mem = max(
        demand.memory * headroom / nodes,
        max(ms.resources.memory for ms in app) * 1.2,
        1.0,
    )
    return ClusterState(
        nodes=[Node(f"node-{i}", Resources(per_cpu, per_mem)) for i in range(nodes)],
        applications=[app],
    )


def _three_cell_fleet(**config_kwargs) -> FleetEngine:
    states = [
        _template_cell(build_overleaf),
        _template_cell(build_hotel_reservation),
        _template_cell(build_overleaf),
    ]
    return FleetEngine(FleetConfig(cells=3, **config_kwargs), states=states)


def _kill_fault(shard: int, nth: int) -> FaultPlan:
    """Kill ``shard`` on its ``nth`` received command, in every incarnation."""
    return FaultPlan(workers=(WorkerFault("kill", shard, nth, incarnations=None),))


def _report_fingerprint(report):
    """Everything observable about one engine round (no wall-clock fields)."""
    plan = report.plan
    schedule = report.schedule
    return {
        "triggered": report.triggered,
        "failed": report.failed_nodes,
        "recovered": report.recovered_nodes,
        "ranked": None if plan is None else list(plan.ranked),
        "activated": None if plan is None else list(plan.activated),
        "target": None if schedule is None else dict(schedule.target_assignment),
        "actions": None if schedule is None else list(schedule.actions),
        "unplaced": None if schedule is None else list(schedule.unplaced),
        "executed": report.actions_executed,
    }


def _fleet_fingerprint(report):
    return {
        "cells": {k: _report_fingerprint(v) for k, v in report.cell_reports.items()},
        "spill": {k: _report_fingerprint(v) for k, v in report.spillover_reports.items()},
        "planned": report.planned,
        "released": report.released,
        "unplaced": report.unplaced,
        "degraded": report.degraded_cells,
        "availability": report.availability,
        "revenue": report.revenue,
        "utilization": report.utilization,
    }


def _state_fingerprint(state: ClusterState):
    return {
        "assignments": dict(state.assignments),
        "failed": state.failed_names(),
        "apps": sorted(state.applications),
        "summary": state.summary(),
    }


# -- partitioners ---------------------------------------------------------------


class TestPartitionerDeterminism:
    def test_stable_cell_is_stable(self):
        assert stable_cell("node-17", 8, seed=3) == stable_cell("node-17", 8, seed=3)
        assert stable_cell("node-17", 8, seed=3) != stable_cell("node-17", 8, seed=4) or True
        # Different tokens spread (not all in one cell for a real population).
        cells = {stable_cell(f"node-{i}", 8, seed=0) for i in range(256)}
        assert len(cells) == 8

    def test_stable_across_processes_and_hashseed(self):
        """Same node set + seed ⇒ byte-identical assignment across processes.

        Runs the partition in subprocesses with *different* PYTHONHASHSEED
        values — the built-in ``hash`` would shuffle, ``stable_cell`` must
        not.
        """
        script = (
            "from repro.fleet import HashPartitioner, RackAwarePartitioner\n"
            "from repro.cluster import Node, Resources\n"
            "nodes = [Node(f'node-{i}', Resources(1, 1), labels={'rack': f'r{i // 4}'})"
            " for i in range(64)]\n"
            "hp, rp = HashPartitioner(seed=7), RackAwarePartitioner(seed=7)\n"
            "print([hp.cell_of_node(n, 5) for n in nodes])\n"
            "print([rp.cell_of_node(n, 5) for n in nodes])\n"
        )
        outputs = []
        for hashseed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": hashseed},
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_rack_partitioner_keeps_racks_together(self):
        nodes = [
            Node(f"node-{i}", Resources(1, 1), labels={"rack": f"rack-{i // 8}"})
            for i in range(80)
        ]
        partitioner = RackAwarePartitioner(seed=0)
        for rack_start in range(0, 80, 8):
            cells = {partitioner.cell_of_node(n, 4) for n in nodes[rack_start : rack_start + 8]}
            assert len(cells) == 1, "a rack was split across cells"

    def test_unlabeled_nodes_fall_back_to_name_hash(self):
        node = Node("node-3", Resources(1, 1))
        rack = RackAwarePartitioner(seed=11)
        plain = HashPartitioner(seed=11)
        assert rack.cell_of_node(node, 6) == plain.cell_of_node(node, 6)

    def test_partition_state_preserves_colocated_assignments(self):
        env = build_environment(node_count=40, n_apps=4, seed=9)
        state = env.fresh_state()
        parts = partition_state(state, 3, "hash", seed=2)
        assert sum(len(p.nodes) for p in parts) == 40
        assert sum(len(p.applications) for p in parts) == len(state.applications)
        total_preserved = sum(len(p.assignments) for p in parts)
        assert 0 < total_preserved <= len(state.assignments)
        for part in parts:
            for replica, node_name in part.assignments.items():
                assert state.assignments[replica] == node_name

    def test_partition_state_is_deterministic(self):
        env = build_environment(node_count=30, n_apps=3, seed=4)
        first = partition_state(env.fresh_state(), 4, "hash", seed=1)
        second = partition_state(env.fresh_state(), 4, "hash", seed=1)
        for a, b in zip(first, second):
            assert sorted(a.nodes) == sorted(b.nodes)
            assert sorted(a.applications) == sorted(b.applications)
            assert dict(a.assignments) == dict(b.assignments)

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            FleetConfig(cells=2, partitioner="bogus")


# -- config ---------------------------------------------------------------------


class TestFleetConfig:
    def test_cell_names_default_and_explicit(self):
        assert FleetConfig(cells=3).resolved_cell_names() == ("cell-0", "cell-1", "cell-2")
        config = FleetConfig(cells=2, cell_names=("east", "west"))
        assert config.resolved_cell_names() == ("east", "west")
        with pytest.raises(ValueError, match="cell_names"):
            FleetConfig(cells=2, cell_names=("only-one",))

    def test_per_cell_overrides(self):
        config = FleetConfig(
            cells=2,
            objective="revenue",
            cell_overrides={"cell-1": {"implementation": "reference", "incremental": False}},
        )
        assert config.engine_config_for("cell-0").implementation == "fast"
        ref = config.engine_config_for("cell-1")
        assert ref.implementation == "reference"
        assert ref.incremental is False
        # Index keys work too.
        by_index = FleetConfig(cells=2, cell_overrides={1: {"allow_deletion": False}})
        assert by_index.engine_config_for(1).allow_deletion is False

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ValueError, match="unknown EngineConfig"):
            FleetConfig(cells=2, cell_overrides={"cell-0": {"bogus_field": 1}})

    @pytest.mark.parametrize("field", ["executor", "codec", "batch_steps"])
    def test_no_ipc_knobs(self, field):
        # One executor (processes), one codec (wire), auto-tuned batches.
        with pytest.raises(TypeError):
            FleetConfig(cells=2, **{field: None})
        fleet = _three_cell_fleet()
        try:
            with pytest.raises(TypeError):
                FleetReplayer(fleet, workers=2, **{field: None})
        finally:
            fleet.close()

    def test_engine_validation_still_applies(self):
        with pytest.raises(ValueError):
            FleetConfig(cells=0)
        with pytest.raises(ValueError):
            FleetConfig(workers=0)
        with pytest.raises(ValueError):
            FleetConfig(objective="bogus")


# -- facade equivalence ----------------------------------------------------------


class TestSingleCellEquivalence:
    """A one-cell fleet is byte-identical to the bare engine: no drift."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lockstep_churn(self, seed):
        rng = random.Random(seed)
        bare_state = _template_cell(build_overleaf, nodes=16)
        fleet_state = _template_cell(build_overleaf, nodes=16)
        engine = api.engine("revenue")
        fleet = FleetEngine(FleetConfig(cells=1), states=[fleet_state])
        reports = (
            engine.reconcile(bare_state, force=True),
            fleet.reconcile(force=True),
        )
        assert _report_fingerprint(reports[0]) == _report_fingerprint(
            reports[1].cell_reports["cell-0"]
        )
        for step in range(120):
            healthy = sorted(n for n, node in bare_state.nodes.items() if not node.failed)
            failed = sorted(bare_state.failed_names())
            roll = rng.random()
            if roll < 0.4 and healthy:
                picked = rng.sample(healthy, min(len(healthy), rng.randint(1, 3)))
                bare_state.fail_nodes(picked)
                fleet_state.fail_nodes(picked)
            elif roll < 0.8 and failed:
                picked = rng.sample(failed, 1)
                bare_state.recover_nodes(picked)
                fleet_state.recover_nodes(picked)
            force = rng.random() < 0.05
            bare_report = engine.reconcile(bare_state, force=force)
            fleet_report = fleet.reconcile(force=force)
            assert _report_fingerprint(bare_report) == _report_fingerprint(
                fleet_report.cell_reports["cell-0"]
            ), f"step {step}"
            assert not fleet_report.planned and not fleet_report.released
            assert _state_fingerprint(bare_state) == _state_fingerprint(fleet_state), (
                f"step {step} state"
            )


# -- parallel byte-identity ------------------------------------------------------


def _tiny_app(name: str):
    from repro.cluster import Application, Microservice
    from repro.criticality import CriticalityTag

    return Application.from_microservices(
        name, [Microservice("svc", Resources(0.05, 0.05), CriticalityTag(3))]
    )


class TestWorkerEquivalence:
    """workers=4 == workers=1, byte for byte, reports and states.

    The persistent shard pool only ships per-round health deltas, so the
    fuzz also injects structural mutations (``add_application`` between
    rounds) to exercise the full-resync guard, and interleaves a serial
    round mid-run to exercise the competing-dirty-consumer guard.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reconcile_lockstep_fuzz(self, seed):
        rng = random.Random(seed)
        serial = _three_cell_fleet()
        parallel = _three_cell_fleet()
        try:
            serial.reconcile(force=True)
            parallel.reconcile(force=True, workers=4)
            for step in range(30):
                for index in range(3):
                    probe = serial.cells[index].state
                    shadow = parallel.cells[index].state
                    healthy = sorted(
                        n for n, node in probe.nodes.items() if not node.failed
                    )
                    failed = sorted(probe.failed_names())
                    roll = rng.random()
                    if roll < 0.4 and healthy:
                        picked = rng.sample(healthy, min(len(healthy), rng.randint(1, 4)))
                        probe.fail_nodes(picked)
                        shadow.fail_nodes(picked)
                    elif roll < 0.7 and failed:
                        picked = rng.sample(failed, 1)
                        probe.recover_nodes(picked)
                        shadow.recover_nodes(picked)
                if step in (10, 20):
                    # Structural dirt a health delta cannot express: the
                    # pooled round must fall back to a full state resync.
                    app = _tiny_app(f"fuzz-extra-{step}")
                    serial.cells[step % 3].state.add_application(app)
                    parallel.cells[step % 3].state.add_application(
                        _tiny_app(f"fuzz-extra-{step}")
                    )
                if step == 15:
                    # A serial round drains the dirty sets behind the pool's
                    # back; the generation token must force a resync.
                    a = serial.reconcile()
                    b = parallel.reconcile(workers=1)
                    assert _fleet_fingerprint(a) == _fleet_fingerprint(b)
                force = rng.random() < 0.1
                serial_report = serial.reconcile(force=force)
                parallel_report = parallel.reconcile(force=force, workers=4)
                assert _fleet_fingerprint(serial_report) == _fleet_fingerprint(
                    parallel_report
                ), f"step {step}"
                for a, b in zip(serial.cells, parallel.cells):
                    assert _state_fingerprint(a.state) == _state_fingerprint(b.state), (
                        f"step {step} cell {a.name}"
                    )
                    # Fingerprint equality says serial == parallel; the oracle
                    # says both are *internally* sound and identical per round.
                    violations = check_equivalence(
                        a.state, b.state, labels=("serial", "parallel")
                    )
                    assert not violations, f"step {step} cell {a.name}: {violations}"
                if step % 7 == 0:
                    verify_invariants(serial)
            verify_invariants(serial)
            verify_invariants(parallel)
        finally:
            serial.close()
            parallel.close()

    @pytest.mark.parametrize(
        "max_steps",
        [
            repro.fleet.replay.BATCH_MAX_STEPS,  # auto-tuned batching
            1,  # batching off
            3,  # small batches: frequent mid-batch rewinds
        ],
        ids=["auto", "off", "small"],
    )
    def test_replayer_serial_equals_sharded(self, monkeypatch, max_steps):
        # The batch size is chosen in the parent (_next_batch), so capping
        # it here drives the sharded path through every batching regime.
        monkeypatch.setattr(repro.fleet.replay, "BATCH_MAX_STEPS", max_steps)
        scenario = fleet_scenario(
            3,
            24,
            horizon=1500.0,
            mtbf=500.0,
            mttr=250.0,
            storm_at=400.0,
            storm_cells=2,
            outage_cell=2,
            outage_at=800.0,
            outage_recovery_after=400.0,
            seed=6,
        )

        def run(workers):
            states = [
                build_environment(node_count=24, n_apps=3, seed=21 + i).fresh_state()
                for i in range(3)
            ]
            fleet = FleetEngine(FleetConfig(cells=3), states=states)
            fleet.reconcile(force=True)
            try:
                return FleetReplayer(fleet, seed=2, workers=workers).run(scenario)
            finally:
                fleet.close()

        serial = run(1)
        sharded = run(3)
        assert serial.to_jsonl() == sharded.to_jsonl()
        assert len(serial) > 0


# -- worker-shard failure --------------------------------------------------------


class TestShardFailure:
    """Worker faults: fail-fast without supervision, self-healing with it.

    The all-replies-before-fold contract is load-bearing either way — an
    unsupervised pool raises before any partial fold-back; a supervised one
    restarts the worker and re-executes the in-flight command, so the
    eventual fold is byte-identical to a fault-free round.  Deeper fault
    coverage (hangs, corrupt frames, journal restarts, degraded adoption)
    lives in ``tests/test_infra.py``.
    """

    def test_unsupervised_worker_death_is_atomic(self):
        from repro.fleet.pool import ShardFailure

        fleet = _three_cell_fleet(supervise=False)
        try:
            fleet._shard_fault = _kill_fault(0, 2)  # shard 0 dies on its 2nd command
            fleet.reconcile(force=True, workers=2)  # command 1: survives
            before = [_state_fingerprint(cell.state) for cell in fleet.cells]
            with pytest.raises(ShardFailure, match="died mid-round"):
                fleet.reconcile(workers=2)
            after = [_state_fingerprint(cell.state) for cell in fleet.cells]
            assert after == before, "failed round mutated fleet state"
            # The next parallel round rebuilds the pool and completes.
            fleet._shard_fault = None
            report = fleet.reconcile(workers=2)
            assert set(report.cell_reports) == set(fleet.cell_names)
        finally:
            fleet.close()

    def test_unsupervised_replay_worker_death_raises_cleanly(self):
        from repro.fleet.pool import ShardFailure

        scenario = fleet_scenario(3, 16, horizon=1500.0, mtbf=300.0, seed=4)
        states = [
            build_environment(node_count=16, n_apps=2, seed=61 + i).fresh_state()
            for i in range(3)
        ]
        fleet = FleetEngine(FleetConfig(cells=3, supervise=False), states=states)
        fleet.reconcile(force=True)
        fleet._shard_fault = _kill_fault(0, 3)
        try:
            with pytest.raises(ShardFailure, match="died mid-round|pipe closed"):
                FleetReplayer(fleet, seed=2, workers=2).run(scenario)
        finally:
            fleet.close()

    def test_supervised_restart_mid_round_is_byte_identical(self):
        """Kill a worker mid-round: the supervisor restarts it and the round
        lands byte-identically to a fault-free serial twin's."""
        from repro.fleet import ShardRestarted

        fleet = _three_cell_fleet(shard_backoff=0.0)
        twin = _three_cell_fleet()
        restarts = []
        fleet.events.subscribe(restarts.append, ShardRestarted)
        try:
            fleet._shard_fault = _kill_fault(0, 2)  # shard 0 dies on its 2nd command
            fleet.reconcile(force=True, workers=2)
            twin.reconcile(force=True)
            for target in (fleet, twin):
                target.cells[0].state.fail_nodes(["node-1", "node-3"])
                target.cells[1].state.fail_nodes(["node-2"])
            report = fleet.reconcile(workers=2)  # command 2: worker dies here
            twin_report = twin.reconcile()
            assert restarts and restarts[0].shard == 0, (
                "expected a ShardRestarted event for shard 0"
            )
            assert _fleet_fingerprint(report) == _fleet_fingerprint(twin_report)
            assert [_state_fingerprint(c.state) for c in fleet.cells] == [
                _state_fingerprint(c.state) for c in twin.cells
            ]
        finally:
            fleet.close()
            twin.close()

    def test_supervised_crash_loop_degrades_instead_of_raising(self):
        """A shard that dies on every incarnation exhausts its restart budget
        and degrades — the round still completes, matching the serial twin."""
        from repro.fleet import ShardDegraded, ShardRestarted

        fleet = _three_cell_fleet(shard_backoff=0.0, max_shard_restarts=1)
        twin = _three_cell_fleet()
        restarts, degraded = [], []
        fleet.events.subscribe(restarts.append, ShardRestarted)
        fleet.events.subscribe(degraded.append, ShardDegraded)
        try:
            # The fault kills on the Nth command of *every* incarnation,
            # so shard 0 can never complete a round remotely.
            fleet._shard_fault = _kill_fault(0, 1)
            report = fleet.reconcile(force=True, workers=2)
            twin_report = twin.reconcile(force=True)
            assert len(restarts) == 1, "one restart before the budget ran out"
            assert degraded and degraded[0].shard == 0
            assert set(degraded[0].cells) <= set(fleet.cell_names)
            assert _fleet_fingerprint(report) == _fleet_fingerprint(twin_report)
            # Subsequent rounds keep working (cells re-homed to survivors).
            for target in (fleet, twin):
                target.cells[2].state.fail_nodes(["node-4"])
            assert _fleet_fingerprint(fleet.reconcile(workers=2)) == _fleet_fingerprint(
                twin.reconcile()
            )
        finally:
            fleet.close()
            twin.close()

    def test_pool_fault_hook_targets_one_shard(self):
        from repro.fleet.pool import ShardFailure, ShardPool

        fleet = _three_cell_fleet()
        fleet.reconcile(force=True)
        pool = ShardPool(fleet.cells, workers=2, fault=_kill_fault(1, 1))
        try:
            deltas = {
                cell.name: ("delta", (), (), cell.state.health_aggregates())
                for cell in fleet.cells
            }
            with pytest.raises(ShardFailure, match="died mid-round"):
                pool.round(deltas, False)
        finally:
            pool.close()
            fleet.close()


# -- spillover -------------------------------------------------------------------


class TestSpillover:
    def test_cell_outage_recovers_and_releases(self):
        fleet = _three_cell_fleet()
        planned, released, degraded = [], [], []
        fleet.events.subscribe(planned.append, SpilloverPlanned)
        fleet.events.subscribe(released.append, SpilloverReleased)
        fleet.events.subscribe(degraded.append, CellDegraded)
        fleet.reconcile(force=True)
        assert fleet.availability() == pytest.approx(1.0)

        victim = fleet.cell("cell-0")
        victim.state.fail_nodes(list(victim.state.nodes))
        report = fleet.reconcile()
        assert degraded and degraded[0].cell == "cell-0"
        assert planned, "no spillover planned for the dark cell"
        assert report.availability == pytest.approx(1.0)
        donor = fleet.cell(planned[0].donor_cell)
        assert any(is_clone(name) for name in donor.state.applications)
        # Donor never exceeds per-node capacity (two-phase apply contract).
        for cell in fleet.cells:
            for name, node in cell.state.nodes.items():
                used = cell.state.used_on(name)
                assert used.cpu <= node.capacity.cpu + 1e-6
                assert used.memory <= node.capacity.memory + 1e-6

        victim.state.recover_nodes(list(victim.state.nodes))
        report = fleet.reconcile()
        assert released, "spillover never released after recovery"
        assert report.availability == pytest.approx(1.0)
        assert not any(
            is_clone(name) for cell in fleet.cells for name in cell.state.applications
        )
        assert not fleet.spillovers

    def test_no_spillover_policy_stays_degraded(self):
        fleet = _three_cell_fleet(spillover="none")
        fleet.reconcile(force=True)
        victim = fleet.cell("cell-0")
        victim.state.fail_nodes(list(victim.state.nodes))
        report = fleet.reconcile()
        assert isinstance(fleet.policy, NoSpillover)
        assert not report.planned
        assert report.availability < 1.0
        assert report.unplaced  # residual demand reported, nowhere to go

    def test_degraded_event_fires_once_per_residual_change(self):
        fleet = _three_cell_fleet(spillover="none")
        events = []
        fleet.events.subscribe(events.append, CellDegraded)
        fleet.reconcile(force=True)
        victim = fleet.cell("cell-0")
        victim.state.fail_nodes(list(victim.state.nodes))
        fleet.reconcile()
        count_after_outage = len(events)
        assert count_after_outage >= 1
        fleet.reconcile(force=True)  # same residual again: no new event
        assert len(events) == count_after_outage

    def test_fragmented_donor_rolls_back_and_retries_on_capacity(self):
        """Aggregate capacity fits but no node does: the clone must be
        rolled back (not stranded), reported unplaced, and retried once the
        donor's capacity actually improves."""
        from repro.cluster import Application, Microservice
        from repro.criticality import CriticalityTag

        big_app = Application.from_microservices(
            "big",
            [Microservice("core", Resources(2.0, 2.0), CriticalityTag(1))],
        )
        source = ClusterState(
            nodes=[Node("src-node", Resources(2.5, 2.5))], applications=[big_app]
        )
        donors = []
        for index in (1, 2):
            tiny = Application.from_microservices(
                f"tiny{index}",
                [Microservice("svc", Resources(0.1, 0.1), CriticalityTag(1))],
            )
            nodes = [Node(f"n{index}{j}", Resources(1.1, 1.1)) for j in range(4)]
            if index == 1:
                nodes.append(Node("big-node", Resources(3.0, 3.0), failed=True))
            donors.append(ClusterState(nodes=nodes, applications=[tiny]))
        fleet = FleetEngine(FleetConfig(cells=3), states=[source, *donors])
        fleet.reconcile(force=True)

        fleet.cell("cell-0").state.fail_nodes(["src-node"])
        report = fleet.reconcile()
        # Fleet-level plan picked a donor, but 2.0-cpu does not fit any
        # 1.1-cpu node: the clone is rolled back, visibly unplaced.
        assert not report.planned
        assert ("cell-0", "big") in report.unplaced
        assert not fleet.spillovers
        assert not any(
            is_clone(name) for cell in fleet.cells for name in cell.state.applications
        )
        # Subsequent rounds exclude no-better donors; still unplaced, never
        # stranded, availability honestly degraded.
        report = fleet.reconcile()
        assert not report.planned and ("cell-0", "big") in report.unplaced
        assert report.availability < 1.0

        # A capable node recovers: the failure record is beaten and the
        # residual finally lands.
        fleet.cell("cell-1").state.recover_nodes(["big-node"])
        report = fleet.reconcile()
        assert report.planned and report.planned[0].donor_cell == "cell-1"
        assert report.availability == pytest.approx(1.0)
        assert ("cell-0", "big") in fleet.spillovers

    def test_cascading_donor_failure_rehomes_spillover(self):
        """The donor dies too: the clone is superseded and re-planned."""
        fleet = _three_cell_fleet()
        fleet.reconcile(force=True)
        victim = fleet.cell("cell-0")
        victim.state.fail_nodes(list(victim.state.nodes))
        report = fleet.reconcile()
        assert report.planned
        first_donor = report.planned[0].donor_cell
        donor = fleet.cell(first_donor)
        donor.state.fail_nodes(list(donor.state.nodes))
        report = fleet.reconcile()
        # The stranded clone was released; both cells' residuals re-planned
        # onto the one remaining healthy cell (or honestly unplaced).
        assert any(a.source_cell == "cell-0" for a in report.released)
        for key, entry in fleet.spillovers.items():
            assert entry.donor != first_donor, f"{key} still on the dark donor"

    def test_cell_outage_chaos_check(self):
        for builder in (build_overleaf, build_hotel_reservation):
            report = run_cell_outage_check(builder())
            assert report.passed, report.problems
            assert report.spillovers_planned >= 1
            assert report.spillovers_released >= 1
            assert report.capacity_respected and report.clones_released

    def test_chaos_check_fails_without_donor_capacity(self):
        """With headroom ~1.0 the donors cannot host the refugees."""
        report = run_cell_outage_check(build_overleaf(), cells=2, headroom=1.01)
        assert not report.passed
        assert any("availability" in problem for problem in report.problems)


# -- fleet replay ---------------------------------------------------------------


class TestReplayBatching:
    """The IPC batch size is auto-tuned from two module constants only."""

    @pytest.fixture
    def replayer(self):
        fleet = _three_cell_fleet()
        try:
            yield FleetReplayer(fleet, workers=2)
        finally:
            fleet.close()

    def test_spillover_resets_batch_to_one(self, replayer):
        assert replayer._next_batch(16, adjusted=True, last_step_bytes=10.0) == 1

    def test_quiet_stretch_doubles_up_to_max_steps(self, replayer, monkeypatch):
        monkeypatch.setattr(repro.fleet.replay, "BATCH_MAX_STEPS", 8)
        sizes = [1]
        for _ in range(5):
            sizes.append(replayer._next_batch(sizes[-1], False, 10.0))
        assert sizes == [1, 2, 4, 8, 8, 8]

    def test_large_steps_cap_batch_by_target_bytes(self, replayer):
        target = repro.fleet.replay.BATCH_TARGET_BYTES
        assert replayer._next_batch(16, False, target / 4) == 4
        # A step bigger than the whole target still ships one step a trip.
        assert replayer._next_batch(16, False, target * 10) == 1


class TestFleetReplay:
    def test_scenario_same_seed_is_byte_identical(self):
        first = fleet_scenario(3, 20, storm_at=300.0, seed=9)
        second = fleet_scenario(3, 20, storm_at=300.0, seed=9)
        assert sorted(first) == sorted(second)
        for cell in first:
            assert first[cell].dumps() == second[cell].dumps()
        third = fleet_scenario(3, 20, storm_at=300.0, seed=10)
        assert any(first[c].dumps() != third[c].dumps() for c in first)

    def test_outage_scenario_dips_and_recovers(self):
        scenario = fleet_scenario(
            3, 20, mtbf=None, outage_cell=0, outage_at=100.0,
            outage_recovery_after=500.0, seed=1,
        )
        states = [
            build_environment(node_count=20, n_apps=2, seed=31 + i).fresh_state()
            for i in range(3)
        ]
        fleet = FleetEngine(FleetConfig(cells=3), states=states)
        fleet.reconcile(force=True)
        metrics = FleetReplayer(fleet, seed=0).run(scenario)
        assert metrics.final().failed_nodes == 0
        assert metrics.final().spillovers_active == 0
        outage_step = metrics.steps[0]
        assert outage_step.spillovers_planned >= 1
        assert metrics.min("available_fraction") < 1.0

    def test_trace_replayer_dispatches_fleet_drivers(self):
        scenario = fleet_scenario(2, 16, mtbf=None, outage_cell=1, seed=3)
        states = [
            build_environment(node_count=16, n_apps=2, seed=41 + i).fresh_state()
            for i in range(2)
        ]
        fleet = FleetEngine(FleetConfig(cells=2), states=states)
        fleet.reconcile(force=True)
        metrics = TraceReplayer(fleet, seed=5).run(None, scenario)
        assert len(metrics) == len(
            {e.time for trace in scenario.values() for e in trace.events}
        )
        with pytest.raises(TypeError, match="fleet drivers own"):
            TraceReplayer(fleet, seed=5).run(states[0], scenario)

    def test_observer_fast_path_keeps_output_and_events(self):
        """No subscribers: node-name payloads are skipped, output unchanged.

        With a subscriber the sharded replay must still deliver named
        failure events — the fast path may only drop work nobody observes.
        """
        from repro.api.events import FailureDetected
        from repro.fleet.events import CellEvent

        scenario = fleet_scenario(
            2, 16, horizon=1200.0, mtbf=None, outage_cell=1, outage_at=300.0, seed=8
        )

        def run(workers, subscribe):
            states = [
                build_environment(node_count=16, n_apps=2, seed=71 + i).fresh_state()
                for i in range(2)
            ]
            fleet = FleetEngine(FleetConfig(cells=2), states=states)
            fleet.reconcile(force=True)
            captured = []
            if subscribe:
                fleet.events.subscribe(captured.append, CellEvent)
            try:
                metrics = FleetReplayer(fleet, seed=2, workers=workers).run(scenario)
            finally:
                fleet.close()
            return metrics.to_jsonl(), captured

        quiet, none_captured = run(2, subscribe=False)
        observed, captured = run(2, subscribe=True)
        assert quiet == observed  # metrics never depend on the event payloads
        assert not none_captured
        failures = [
            event for event in captured if isinstance(event.event, FailureDetected)
        ]
        assert failures and all(event.event.nodes for event in failures)

    def test_unknown_cell_in_scenario_rejected(self):
        from repro.traces.schema import TraceError

        states = [
            build_environment(node_count=16, n_apps=2, seed=51).fresh_state(),
        ]
        fleet = FleetEngine(FleetConfig(cells=1), states=states)
        scenario = fleet_scenario(["not-a-cell"], 16, mtbf=900.0, seed=0)
        with pytest.raises(TraceError, match="unknown cells"):
            FleetReplayer(fleet).run(scenario)


# -- CLI ------------------------------------------------------------------------


class TestFleetCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_fleet_help_paths(self, capsys):
        assert self._run("fleet") == 0
        assert "replay" in capsys.readouterr().out

    def test_fleet_replay_deterministic_across_workers(self, tmp_path, capsys):
        base = [
            "fleet", "replay", "--cells", "2", "--nodes-per-cell", "16",
            "--apps", "2", "--scenario", "outage", "--outage-cell", "1", "--seed", "3",
        ]
        first = tmp_path / "serial.jsonl"
        second = tmp_path / "sharded.jsonl"
        assert self._run(*base, "--out", str(first)) == 0
        assert self._run(*base, "--workers", "2", "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().startswith('{"metadata"')

    def test_fleet_sweep_table(self, capsys):
        code = self._run(
            "fleet", "sweep", "--cells", "2", "--nodes-per-cell", "12", "--apps", "2",
            "--lost", "0,1", "--policies", "packed,none",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "availability" in out
        assert len([line for line in out.splitlines() if line.strip()]) == 5

    def test_fleet_usage_errors(self, capsys):
        assert self._run("fleet", "sweep", "--cells", "2", "--lost", "oops") == 2
        assert "error:" in capsys.readouterr().err
        assert self._run("fleet", "sweep", "--cells", "2", "--lost", "5") == 2
        assert self._run(
            "fleet", "replay", "--cells", "2", "--scenario", "outage", "--outage-cell", "7"
        ) == 2

    def test_chaos_cell_outage_flag(self, capsys):
        assert self._run(
            "chaos", "--template", "overleaf", "--cell-outage", "--nodes", "8"
        ) == 0
        assert "Cell-outage chaos" in capsys.readouterr().out
