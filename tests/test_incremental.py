"""Incremental reconciliation: dirty tracking, byte-identity and fallbacks.

The centerpiece is the churn fuzz suite: randomized seeded traces (mixed
failures/recoveries, recover-then-refail within one round, storm bursts)
drive three engines — incremental, full-recompute and golden-reference —
in lockstep for hundreds of steps, asserting byte-identical plans, target
assignments, action lists and resulting states at every single step.
"""

from __future__ import annotations

import random

import pytest

import repro.api as api
from repro.adaptlab import build_environment
from repro.apps import build_hotel_reservation, build_overleaf
from repro.chaos import check_equivalence, verify_invariants
from repro.cluster import ClusterState, Node, ReplicaId, Resources
from repro.traces import generators
from repro.traces.replayer import TraceReplayer


def _app_cluster(node_count: int = 24, headroom: float = 1.3) -> ClusterState:
    """Uniform cluster hosting the two multi-replica app templates.

    Sized with modest headroom so larger failures force the packer through
    its migration and delete-lower-ranks prongs, not just best-fit.
    """
    apps = [build_overleaf().application, build_hotel_reservation().application]
    demand_cpu = sum(app.total_demand().cpu for app in apps)
    demand_mem = sum(app.total_demand().memory for app in apps)
    largest = max(
        max(ms.resources.cpu for app in apps for ms in app),
        max(ms.resources.memory for app in apps for ms in app),
    )
    per_node = max(
        demand_cpu * headroom / node_count,
        demand_mem * headroom / node_count,
        largest * 1.1,
    )
    nodes = [Node(f"node-{i}", Resources(per_node, per_node)) for i in range(node_count)]
    return ClusterState(nodes=nodes, applications=apps)


def _report_fingerprint(report):
    """Everything observable about one reconcile round, for equality checks."""
    plan = report.plan
    schedule = report.schedule
    return {
        "triggered": report.triggered,
        "failed": report.failed_nodes,
        "recovered": report.recovered_nodes,
        "ranked": None if plan is None else list(plan.ranked),
        "activated": None if plan is None else list(plan.activated),
        "capacity": None if plan is None else plan.capacity,
        "target": None if schedule is None else dict(schedule.target_assignment),
        "actions": None if schedule is None else list(schedule.actions),
        "unplaced": None if schedule is None else list(schedule.unplaced),
        "executed": report.actions_executed,
    }


def _state_fingerprint(state: ClusterState):
    return {
        "assignments": dict(state.assignments),
        "failed": state.failed_names(),
        "active": state.active_microservices(),
        "running": state.running_replica_counts(),
        "summary": state.summary(),
    }


class TestChurnFuzzEquivalence:
    """incremental == full == reference, byte for byte, over long churn."""

    ENGINES = {
        "inc": lambda: api.engine("revenue"),
        "full": lambda: api.engine("revenue", incremental=False),
        "ref": lambda: api.engine("revenue", implementation="reference"),
    }

    def _run_lockstep(self, states, steps, rng, storm_every=37):
        engines = {name: factory() for name, factory in self.ENGINES.items()}
        for name, engine in engines.items():
            engine.reconcile(states[name], force=True)
        probe = states["inc"]
        for step in range(steps):
            healthy = sorted(n.name for n in probe.healthy_nodes())
            failed = sorted(probe.failed_names())
            ops: list[tuple[str, list[str]]] = []
            roll = rng.random()
            if step and step % storm_every == 0 and len(healthy) > 4:
                # Storm burst: enough nodes at once to cross the dirty-node
                # threshold and exercise the full-recompute fallback.
                ops.append(("fail", rng.sample(healthy, max(2, len(healthy) // 2))))
            elif roll < 0.35 and healthy:
                ops.append(("fail", rng.sample(healthy, min(len(healthy), rng.randint(1, 3)))))
            elif roll < 0.65 and failed:
                ops.append(("recover", rng.sample(failed, min(len(failed), rng.randint(1, 3)))))
            elif roll < 0.75 and healthy and failed:
                # Mixed round: recovery and failure land between two observations.
                ops.append(("recover", rng.sample(failed, 1)))
                ops.append(("fail", rng.sample(healthy, 1)))
            elif roll < 0.85 and healthy:
                # Recover-then-refail (and fail-then-recover) within one round.
                victim = rng.choice(healthy)
                ops.append(("fail", [victim]))
                ops.append(("recover", [victim]))
                ops.append(("fail", [victim]))
            # else: a quiet round — the engine must not trigger.

            force = rng.random() < 0.05
            fingerprints = {}
            for name, engine in engines.items():
                state = states[name]
                for kind, nodes in ops:
                    if kind == "fail":
                        state.fail_nodes(nodes)
                    else:
                        state.recover_nodes(nodes)
                report = engine.reconcile(state, force=force)
                fingerprints[name] = _report_fingerprint(report)
            assert fingerprints["inc"] == fingerprints["full"], f"step {step} (vs full)"
            assert fingerprints["inc"] == fingerprints["ref"], f"step {step} (vs reference)"
            inc_state = _state_fingerprint(states["inc"])
            assert inc_state == _state_fingerprint(states["full"]), f"step {step} state"
            assert inc_state == _state_fingerprint(states["ref"]), f"step {step} state"
            if step % 17 == 0:
                # The invariant oracle: states are not just identical, they
                # are *sound* (no overcommit, indexes/counters consistent).
                verify_invariants(states["inc"])
                for other in ("full", "ref"):
                    violations = check_equivalence(
                        states["inc"], states[other], labels=("inc", other)
                    )
                    assert not violations, f"step {step}: {violations}"
        for state in states.values():
            verify_invariants(state)
        return engines

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multi_replica_churn(self, seed):
        rng = random.Random(seed)
        states = {name: _app_cluster() for name in self.ENGINES}
        engines = self._run_lockstep(states, steps=220, rng=rng)
        incremental = engines["inc"].pipeline.incremental
        assert incremental is not None
        assert incremental.fast_rounds > 50, "fast path barely engaged"
        assert incremental.full_rounds > 3, "fallbacks never exercised"

    @pytest.mark.parametrize("seed", [3, 4])
    def test_overcommitted_churn_refuses_every_round(self, seed):
        """headroom < 1: demand exceeds capacity, so every round refuses entries.

        Gentle churn (one node per round, at most four down) keeps the
        cluster in the crunch instead of emptying it.  The packer's dead-end
        memos are stamped with the persistent node index's epoch; the
        lockstep equality proves the stamp stays honest through every
        ``refresh()`` / ``resync_from`` between rounds.
        """
        rng = random.Random(seed)
        states = {name: _app_cluster(headroom=0.8) for name in self.ENGINES}
        engines = {name: factory() for name, factory in self.ENGINES.items()}
        for name, engine in engines.items():
            engine.reconcile(states[name], force=True)
        incremental = engines["inc"].pipeline.incremental
        epochs = set()
        for step in range(120):
            failed = sorted(states["inc"].failed_names())
            healthy = sorted(n.name for n in states["inc"].healthy_nodes())
            if len(failed) >= 4 or (failed and rng.random() < 0.45):
                kind, node = "recover", rng.choice(failed)
            else:
                kind, node = "fail", rng.choice(healthy)
            reports = {}
            for name, engine in engines.items():
                state = states[name]
                (state.fail_nodes if kind == "fail" else state.recover_nodes)([node])
                reports[name] = _report_fingerprint(engine.reconcile(state))
            assert reports["inc"] == reports["full"], f"step {step} (vs full)"
            assert reports["inc"] == reports["ref"], f"step {step} (vs reference)"
            assert reports["inc"]["unplaced"], f"step {step}: nothing refused, no crunch"
            inc_state = _state_fingerprint(states["inc"])
            assert inc_state == _state_fingerprint(states["full"]), f"step {step} state"
            assert inc_state == _state_fingerprint(states["ref"]), f"step {step} state"
            epochs.add(incremental._index.epoch)
        assert incremental.fast_rounds > 100, "fast path barely engaged"
        assert len(epochs) > 100, "the persistent index's epoch must move every round"
        for state in states.values():
            verify_invariants(state)

    def test_idle_stamp_survives_an_untouched_round(self):
        """Nothing changes between two fast rounds: they share one index epoch.

        The second round therefore starts at the epoch the first one proved
        idle and refuses the whole tail from that proof — and must still
        agree with the reference, which re-proves everything.
        """
        from repro.cluster import Application
        from repro.core.incremental import IncrementalScheduler
        from repro.core.packing import PackingHeuristic
        from repro.core.plan import ActivationPlan, RankedMicroservice
        from repro.core.reference import ReferencePackingHeuristic
        from repro.core.scheduler import diff_actions
        from tests.conftest import make_microservice

        fillers = [make_microservice(f"f{i:02d}", cpu=3.5, memory=1) for i in range(12)]
        bigs = [make_microservice(f"big{i}", cpu=4 + i, memory=1, criticality=5) for i in range(4)]
        app = Application.from_microservices("a", fillers + bigs)
        state = ClusterState(
            nodes=[Node(f"n{i}", Resources(8, 8)) for i in range(6)], applications=[app]
        )
        for i, ms in enumerate(fillers):  # two per node: 1 cpu free everywhere
            state.assign(ReplicaId("a", ms.name, 0), f"n{i // 2}")
        entries = [RankedMicroservice("a", ms.name, ms.resources.cpu) for ms in fillers + bigs]
        plan = ActivationPlan(ranked=entries, activated=list(entries))
        expected = ReferencePackingHeuristic().pack(state.copy(share_nodes=True), plan)
        assert expected.unplaced == [("a", ms.name) for ms in bigs]

        scheduler = IncrementalScheduler(PackingHeuristic(), diff_actions)
        stamps = []
        for _ in range(4):
            schedule = scheduler.schedule(state, plan)
            assert schedule.unplaced == expected.unplaced
            assert list(schedule.target_assignment.items()) == list(expected.assignment.items())
            assert schedule.actions == []
            if scheduler._index is not None:
                stamps.append((scheduler._index.epoch, scheduler._index.idle_epoch))
        assert scheduler.fast_rounds == 2
        assert stamps[-1] == stamps[-2], "no node changed, so the epoch must not move"
        assert stamps[-1][0] == stamps[-1][1], "and it is still the proven-idle one"

    def test_adaptlab_environment_churn(self):
        rng = random.Random(7)
        states = {
            name: build_environment(node_count=60, n_apps=4, seed=11).fresh_state()
            for name in self.ENGINES
        }
        self._run_lockstep(states, steps=120, rng=rng)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_trace_replay_metrics_identical(self, seed):
        """Full replay pipeline: metrics JSONL identical across all engines."""
        env = build_environment(node_count=80, n_apps=4, seed=5)
        trace = generators.poisson_failures(
            80, horizon=2400.0, mtbf=600.0, mttr=200.0, seed=seed
        )

        def replay(**engine_kwargs):
            engine = api.engine("revenue", **engine_kwargs)
            return TraceReplayer(engine, seed=seed).run(env.fresh_state(), trace).to_jsonl()

        incremental = replay()
        assert incremental == replay(incremental=False)
        assert incremental == replay(implementation="reference")

    def test_storm_trace_replay_identical(self):
        env = build_environment(node_count=60, n_apps=4, seed=5)
        trace = generators.failure_storm(
            60, at=120.0, fraction=0.5, recovery_after=600.0, recovery_steps=3, seed=2
        )
        engine_inc = api.engine("revenue")
        engine_full = api.engine("revenue", incremental=False)
        inc = TraceReplayer(engine_inc, seed=1).run(env.fresh_state(), trace)
        full = TraceReplayer(engine_full, seed=1).run(env.fresh_state(), trace)
        assert inc.to_jsonl() == full.to_jsonl()


class TestDirtyTracking:
    def _small(self):
        state = _app_cluster(node_count=8)
        state.drain_dirty()
        return state

    def test_registration_is_structural(self):
        state = ClusterState()
        dirty = state.drain_dirty()
        assert not dirty
        state.add_node(Node("n1", Resources(4, 4)))
        dirty = state.drain_dirty()
        assert dirty.structural and "n1" in dirty.nodes

    def test_assign_marks_node_and_app(self):
        state = self._small()
        replica = ReplicaId("overleaf", "web", 0)
        state.assign(replica, "node-0")
        dirty = state.drain_dirty()
        assert "node-0" in dirty.nodes and "overleaf" in dirty.apps
        assert not dirty.structural

    def test_fail_and_recover_mark_nodes(self):
        state = self._small()
        state.fail_nodes(["node-1"])
        dirty = state.drain_dirty()
        assert "node-1" in dirty.nodes
        state.recover_nodes(["node-1"])
        assert "node-1" in state.drain_dirty().nodes

    def test_drain_resets_and_chains_generations(self):
        state = self._small()
        first = state.drain_dirty()
        state.fail_nodes(["node-2"])
        second = state.drain_dirty()
        assert second.base_generation == first.end_generation
        assert state.drain_dirty().nodes == frozenset()

    def test_generation_monotonic(self):
        state = self._small()
        before = state.generation
        state.fail_nodes(["node-3"])
        state.recover_nodes(["node-3"])
        assert state.generation > before

    def test_copy_starts_clean(self):
        state = self._small()
        state.fail_nodes(["node-4"])
        clone = state.copy()
        assert not clone.peek_dirty()
        assert clone.failed_names() == {"node-4"}

    def test_failed_registry(self):
        state = self._small()
        assert state.failed_count == 0
        state.fail_nodes(["node-5", "node-6"])
        assert state.failed_count == 2
        assert state.failed_names() == {"node-5", "node-6"}
        assert {n.name for n in state.failed_nodes()} == {"node-5", "node-6"}
        state.recover_nodes(["node-5"])
        assert state.failed_names() == {"node-6"}

    def test_active_microservices_matches_counter_definition(self):
        state = _app_cluster()
        rng = random.Random(3)
        api.engine("revenue").reconcile(state, force=True)
        for _ in range(30):
            healthy = sorted(n.name for n in state.healthy_nodes())
            failed = sorted(state.failed_names())
            if rng.random() < 0.5 and healthy:
                state.fail_nodes(rng.sample(healthy, 1))
            elif failed:
                state.recover_nodes(rng.sample(failed, 1))
            derived = state.active_microservices()
            brute = {
                name: {
                    ms.name
                    for ms in app
                    if state.running_replicas(name, ms.name) >= ms.replicas
                }
                for name, app in state.applications.items()
            }
            assert derived == brute


class TestIncrementalFallbacks:
    def _converged(self):
        """An engine warmed past the post-convergence threshold fallback.

        The initial placement dirties every node, so the round right after
        convergence intentionally recomputes fully; one small warm-up round
        later the fast path engages.  Counters restart at zero.
        """
        state = _app_cluster()
        engine = api.engine("revenue")
        engine.reconcile(state, force=True)
        state.fail_nodes(["node-0"])
        engine.reconcile(state)
        state.recover_nodes(["node-0"])
        engine.reconcile(state)
        inc = engine.pipeline.incremental
        inc.fast_rounds = 0
        inc.full_rounds = 0
        return state, engine, inc

    def test_fast_path_engages(self):
        state, engine, inc = self._converged()
        state.fail_nodes(["node-1"])
        engine.reconcile(state)
        assert inc.fast_rounds == 1 and inc.last_mode == "incremental"

    def test_force_reconcile_recomputes_fully(self):
        state, engine, inc = self._converged()
        engine.reconcile(state, force=True)
        assert inc.fast_rounds == 0 and inc.last_mode == "full"
        assert inc.last_full_reason == "invalidated"

    def test_structural_change_falls_back(self):
        state, engine, inc = self._converged()
        state.add_node(Node("late-node", Resources(1, 1)))
        state.fail_nodes(["node-2"])
        engine.reconcile(state)
        assert inc.fast_rounds == 0 and inc.last_mode == "full"
        assert inc.last_full_reason == "structural"
        # The round after a structural fallback is incremental again.
        state.fail_nodes(["node-3"])
        engine.reconcile(state)
        assert inc.fast_rounds == 1

    def test_competing_drain_falls_back(self):
        state, engine, inc = self._converged()
        state.fail_nodes(["node-4"])
        state.drain_dirty()  # another consumer steals the accumulated dirt
        engine.reconcile(state)
        assert inc.fast_rounds == 0 and inc.last_mode == "full"
        assert inc.last_full_reason == "token_mismatch"

    def test_dirty_threshold_falls_back(self):
        state, engine, inc = self._converged()
        healthy = sorted(n.name for n in state.healthy_nodes())
        state.fail_nodes(healthy[: len(healthy) // 2])  # way past 25%
        engine.reconcile(state)
        assert inc.last_mode == "full"
        assert inc.last_full_reason == "dirty_threshold"

    def test_different_state_object_falls_back(self):
        state, engine, inc = self._converged()
        other = _app_cluster()
        engine.reset()
        engine.reconcile(other, force=True)
        assert inc.fast_rounds == 0
        # A state the scheduler has not adopted yet: seen once, then retained.
        other.fail_nodes(["node-0"])
        engine.reconcile(other)
        assert inc.last_full_reason == "new_state"
        other.fail_nodes(["node-1"])
        engine.reconcile(other)
        assert inc.last_mode == "incremental"

    def test_invalidate(self):
        state, engine, inc = self._converged()
        inc.invalidate()
        state.fail_nodes(["node-5"])
        engine.reconcile(state)
        assert inc.fast_rounds == 0 and inc.full_rounds == 1
        assert inc.last_full_reason == "invalidated"

    def test_full_rounds_are_counted_by_reason(self):
        """``engine.incremental.full_rounds{reason=}`` says which fallback fired."""
        from repro import obs

        state, engine, inc = self._converged()
        obs.registry().reset()
        obs.enable()
        try:
            state.add_node(Node("late-node", Resources(1, 1)))
            state.fail_nodes(["node-2"])
            engine.reconcile(state)  # structural
            state.fail_nodes(["node-3"])
            engine.reconcile(state)  # fast
            engine.reconcile(state, force=True)  # invalidated
            reference = api.engine("revenue", implementation="reference")
            reference.reconcile(_app_cluster(), force=True)  # incremental asked, packer not stock
        finally:
            obs.disable()
        registry = obs.registry()
        counted = {
            reason: registry.counter("engine.incremental.full_rounds", reason=reason).value
            for reason in (
                "new_state", "invalidated", "structural",
                "token_mismatch", "dirty_threshold", "non_stock_packer",
            )
        }
        fast = registry.counter("engine.incremental.fast_rounds").value
        obs.registry().reset()
        assert counted == {
            "new_state": 0, "invalidated": 1, "structural": 1,
            "token_mismatch": 0, "dirty_threshold": 0, "non_stock_packer": 1,
        }
        assert fast == 1 and inc.full_rounds == 2

    def test_reference_pipeline_has_no_incremental(self):
        engine = api.engine("revenue", implementation="reference")
        assert engine.pipeline.incremental is None

    def test_incremental_disabled_by_config(self):
        engine = api.engine("revenue", incremental=False)
        assert engine.pipeline.incremental is None


class TestReplayObserverFastPath:
    def _scenario(self):
        env = build_environment(node_count=40, n_apps=3, seed=4)
        trace = generators.failure_storm(
            40, at=60.0, fraction=0.3, recovery_after=300.0, recovery_steps=2, seed=1
        )
        return env, trace

    def test_no_observer_skips_payload_construction(self, monkeypatch):
        from repro.traces import replayer as replayer_module
        from repro.traces.schema import NodeFailure

        env, trace = self._scenario()
        calls = {"event": 0, "step": 0}
        event_to_record = NodeFailure.to_record
        step_to_record = replayer_module.ReplayStep.to_record
        monkeypatch.setattr(
            NodeFailure,
            "to_record",
            lambda self, *a, **k: calls.__setitem__("event", calls["event"] + 1)
            or event_to_record(self, *a, **k),
        )
        monkeypatch.setattr(
            replayer_module.ReplayStep,
            "to_record",
            lambda self, *a, **k: calls.__setitem__("step", calls["step"] + 1)
            or step_to_record(self, *a, **k),
        )
        engine = api.engine("revenue")
        metrics = TraceReplayer(engine, seed=0).run(env.fresh_state(), trace)
        assert len(metrics) > 0
        assert calls == {"event": 0, "step": 0}, "payloads built with no subscribers"

    def test_subscriber_still_sees_hooks(self):
        from repro.api.events import ReplayStepCompleted, TraceEventApplied

        env, trace = self._scenario()
        seen = {"event": 0, "step": 0}
        engine = api.engine("revenue")
        engine.events.subscribe(
            lambda e: seen.__setitem__("event", seen["event"] + 1), TraceEventApplied
        )
        engine.events.subscribe(
            lambda e: seen.__setitem__("step", seen["step"] + 1), ReplayStepCompleted
        )
        metrics = TraceReplayer(engine, seed=0).run(env.fresh_state(), trace)
        assert seen["step"] == len(metrics)
        assert seen["event"] == len(trace.events)
