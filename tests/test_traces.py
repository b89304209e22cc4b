"""Tests for the trace subsystem: schema round-trips, generators, replay."""

from __future__ import annotations

import pytest

import repro.api as api
from repro.adaptlab import (
    DefaultScheme,
    PhoenixCostScheme,
    capacity_failure_trace,
    inject_capacity_failure,
    replay_capacity_trace,
    select_capacity_failure,
)
from repro.adaptlab.failures import set_capacity_fraction
from repro.adaptlab.metrics import requests_served_fraction
from repro.chaos import run_storm_check
from repro.apps import build_overleaf
from repro.traces import (
    CapacityTarget,
    LoadChange,
    NodeFailure,
    NodeRecovery,
    Trace,
    TraceError,
    TraceReplayer,
    alibaba_scenario,
    capacity_schedule,
    correlated_failures,
    diurnal_load,
    failure_storm,
    from_capacity_points,
    merge_traces,
    paper_capacity_trace,
    paper_profile_fractions,
    poisson_failures,
    to_capacity_points,
)

GENERATORS = {
    "poisson": lambda seed: poisson_failures(30, horizon=1800.0, seed=seed),
    "rack": lambda seed: correlated_failures(32, rack_size=4, horizon=1800.0, seed=seed),
    "diurnal": lambda seed: diurnal_load(horizon=7200.0, step_seconds=600.0, seed=seed),
    "storm": lambda seed: failure_storm(40, fraction=0.4, seed=seed),
    "alibaba": lambda seed: paper_capacity_trace(steps=12, seed=seed),
    "scenario": lambda seed: alibaba_scenario(steps=10, seed=seed, apps=("a", "b")),
}


class TestSchemaRoundTrip:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_gen_jsonl_parse_is_lossless(self, name):
        trace = GENERATORS[name](seed=5)
        text = trace.dumps()
        reloaded = Trace.loads(text)
        assert reloaded.events == trace.events
        assert reloaded.metadata == trace.metadata
        assert reloaded.dumps() == text

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_same_seed_is_byte_identical(self, name):
        assert GENERATORS[name](seed=9).dumps() == GENERATORS[name](seed=9).dumps()

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_different_seed_differs(self, name):
        assert GENERATORS[name](seed=1).dumps() != GENERATORS[name](seed=2).dumps()

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generated_traces_validate(self, name):
        trace = GENERATORS[name](seed=3)
        trace.validate()
        assert len(trace) > 0
        assert all(e.time >= 0 for e in trace)

    def test_file_round_trip(self, tmp_path):
        trace = failure_storm(20, seed=4)
        path = tmp_path / "storm.jsonl"
        trace.write(path)
        assert Trace.read(path).dumps() == trace.dumps()

    def test_events_sorted_by_time(self):
        trace = Trace(
            events=[
                NodeRecovery(time=50.0, nodes=("a",)),
                NodeFailure(time=10.0, nodes=("a",)),
            ]
        )
        assert [e.time for e in trace] == [10.0, 50.0]

    def test_steps_group_simultaneous_events(self):
        trace = Trace(
            events=[
                NodeFailure(time=10.0, nodes=("a",)),
                LoadChange(time=10.0, multiplier=2.0),
                NodeRecovery(time=20.0, nodes=("a",)),
            ]
        )
        steps = trace.steps()
        assert [(t, len(evs)) for t, evs in steps] == [(10.0, 2), (20.0, 1)]

    def test_merge_traces_interleaves(self):
        merged = merge_traces(
            [capacity_schedule([1.0, 0.5], step_seconds=60.0), diurnal_load(horizon=90.0, step_seconds=45.0)]
        )
        assert [e.time for e in merged] == sorted(e.time for e in merged)
        assert {"capacity", "load_change"} <= set(merged.kinds())


class TestSchemaValidation:
    def test_rejects_empty_text(self):
        with pytest.raises(TraceError, match="empty trace"):
            Trace.loads("")

    def test_rejects_missing_header(self):
        with pytest.raises(TraceError, match="header"):
            Trace.loads('{"record":"event","kind":"node_failure","time":0,"nodes":["a"]}')

    def test_rejects_unknown_version(self):
        with pytest.raises(TraceError, match="version"):
            Trace.loads('{"record":"trace","version":99,"metadata":{}}')

    def test_rejects_unknown_kind(self):
        text = '{"record":"trace","version":1,"metadata":{}}\n' + (
            '{"record":"event","kind":"meteor_strike","time":1}'
        )
        with pytest.raises(TraceError, match="unknown event kind"):
            Trace.loads(text)

    def test_rejects_non_json(self):
        with pytest.raises(TraceError, match="not valid JSONL"):
            Trace.loads("this is not json")

    def test_rejects_negative_time(self):
        with pytest.raises(TraceError, match="non-negative"):
            NodeFailure(time=-1.0, nodes=("a",)).validate()

    def test_rejects_empty_node_list(self):
        with pytest.raises(TraceError, match="node name"):
            NodeFailure(time=0.0, nodes=()).validate()

    def test_rejects_out_of_range_capacity(self):
        with pytest.raises(TraceError, match="within"):
            CapacityTarget(time=0.0, available_fraction=1.5).validate()

    def test_rejects_negative_load(self):
        with pytest.raises(TraceError, match=">= 0"):
            LoadChange(time=0.0, multiplier=-0.1).validate()


class TestCapacityPoints:
    def test_paper_profile_matches_schema_trace(self):
        fractions = paper_profile_fractions(steps=12, seed=3)
        schema_points = to_capacity_points(paper_capacity_trace(steps=12, seed=3))
        assert len(schema_points) == len(fractions)
        for index, ((time, fraction), exact) in enumerate(zip(schema_points, fractions)):
            assert time == index * 30.0
            assert fraction == pytest.approx(exact, abs=1e-6)

    def test_from_capacity_points_accepts_pairs(self):
        trace = from_capacity_points([(0.0, 1.0), (30.0, 0.5)])
        assert to_capacity_points(trace) == [(0.0, 1.0), (30.0, 0.5)]


class TestFailureTraceProducers:
    def test_capacity_failure_trace_matches_injection(self, small_environment):
        state = small_environment.fresh_state()
        trace = capacity_failure_trace(state, 0.4, seed=11)
        injected = inject_capacity_failure(small_environment.fresh_state(), 0.4, seed=11)
        (event,) = trace.events
        assert isinstance(event, NodeFailure)
        assert list(event.nodes) == injected

    def test_selection_is_pure(self, small_environment):
        state = small_environment.fresh_state()
        select_capacity_failure(state, 0.5, seed=1)
        assert not state.failed_nodes()

    def test_zero_fraction_is_empty_trace(self, small_environment):
        trace = capacity_failure_trace(small_environment.fresh_state(), 0.0)
        assert len(trace) == 0
        trace.validate()


class TestTraceReplayer:
    def test_legacy_replay_matches_manual_loop(self, small_environment):
        trace = paper_capacity_trace(steps=6)
        scheme = PhoenixCostScheme()
        result = replay_capacity_trace(small_environment, [scheme], trace=trace, seed=0)
        series = dict(result.series(scheme.name))

        state = small_environment.fresh_state()
        for time, fraction in to_capacity_points(trace):
            set_capacity_fraction(state, fraction, seed=0)
            state, _ = PhoenixCostScheme().respond(state)
            served = requests_served_fraction(state, small_environment.traced)
            assert series[time] == served

    def test_default_profile_keeps_unrounded_fractions(self, small_environment):
        result = replay_capacity_trace(small_environment, [DefaultScheme()])
        assert [p.available_fraction for p in result.points] == paper_profile_fractions()
        assert [p.time for p in result.points] == [i * 30.0 for i in range(20)]

    def test_respond_mode_for_non_engine_scheme(self, small_environment):
        result = replay_capacity_trace(
            small_environment, [DefaultScheme()], trace=paper_capacity_trace(steps=4)
        )
        assert len(result.points) == 4

    def test_engine_mode_storm_recovers(self, small_environment):
        trace = failure_storm(
            [n.name for n in small_environment.state.nodes.values()],
            fraction=0.4,
            recovery_steps=2,
            seed=2,
        )
        eng = api.engine("revenue")
        metrics = TraceReplayer(eng, seed=2).run(small_environment.fresh_state(), trace)
        assert metrics.final().failed_nodes == 0
        assert metrics.final().availability == 1.0
        assert any(step.triggered for step in metrics)

    def test_engine_mode_is_deterministic(self, small_environment):
        trace = failure_storm(60, fraction=0.3, seed=5)
        outputs = []
        for _ in range(2):
            metrics = TraceReplayer(api.engine("revenue"), seed=5).run(
                small_environment.fresh_state(), trace
            )
            outputs.append(metrics.to_jsonl())
        assert outputs[0] == outputs[1]

    def test_replay_hooks_emitted_on_event_bus(self, small_environment):
        trace = failure_storm(60, fraction=0.3, recovery_steps=2, seed=1)
        applied, steps = [], []
        eng = api.engine("revenue")
        eng.events.subscribe(applied.append, api.TraceEventApplied)
        eng.events.subscribe(steps.append, api.ReplayStepCompleted)
        metrics = TraceReplayer(eng, seed=1).run(small_environment.fresh_state(), trace)
        assert len(applied) == len(trace)
        assert len(steps) == len(metrics)
        assert applied[0].kind == "node_failure"
        assert "availability" in steps[0].payload

    def test_replay_hooks_emitted_in_respond_mode(self, small_environment):
        eng = api.engine("revenue")
        applied, steps = [], []
        eng.events.subscribe(applied.append, api.TraceEventApplied)
        eng.events.subscribe(steps.append, api.ReplayStepCompleted)
        adapter = api.SchemeAdapter(eng, name="hooked")
        trace = capacity_schedule([0.8, 0.6], step_seconds=30.0)
        metrics = TraceReplayer(adapter, seed=0).run(small_environment.fresh_state(), trace)
        assert len(applied) == len(trace)
        assert len(steps) == len(metrics)

    def test_load_change_recorded_in_metrics(self, small_environment):
        trace = merge_traces(
            [
                capacity_schedule([1.0, 0.7], step_seconds=60.0),
                Trace(events=[LoadChange(time=60.0, multiplier=1.5)]),
            ]
        )
        metrics = TraceReplayer(api.engine("revenue")).run(
            small_environment.fresh_state(), trace
        )
        assert metrics.steps[0].load_multiplier == 1.0
        assert metrics.steps[1].load_multiplier == 1.5

    def test_input_state_never_mutated(self, small_environment):
        state = small_environment.fresh_state()
        TraceReplayer(api.engine("revenue")).run(state, failure_storm(60, seed=0))
        assert not state.failed_nodes()

    def test_unknown_nodes_raise_trace_error(self, small_environment):
        trace = Trace(events=[NodeFailure(time=0.0, nodes=("node-enoent",))])
        with pytest.raises(TraceError, match="unknown nodes"):
            TraceReplayer(api.engine("revenue")).run(small_environment.fresh_state(), trace)

    def test_rejects_driver_without_interface(self):
        with pytest.raises(TypeError, match="reconcile"):
            TraceReplayer(object())

    def test_requests_served_requires_traced(self, small_environment):
        trace = capacity_schedule([0.8], step_seconds=30.0)
        bare = TraceReplayer(api.engine("revenue")).run(small_environment.fresh_state(), trace)
        assert bare.steps[0].requests_served is None
        traced = TraceReplayer(
            api.engine("revenue"), traced=small_environment.traced
        ).run(small_environment.fresh_state(), trace)
        assert traced.steps[0].requests_served is not None


class TestReplayerInputRobustness:
    """Malformed trace files must fail loudly at parse time, before the
    replayer ever touches the cluster — and fail with :class:`TraceError`,
    which the CLI maps to a one-line usage error."""

    HEADER = '{"record":"trace","version":1,"metadata":{}}'
    EVENT = '{"record":"event","kind":"node_failure","time":1.0,"nodes":["node-0"]}'

    def test_truncated_trailing_line_is_rejected(self):
        text = self.HEADER + "\n" + self.EVENT + "\n" + self.EVENT[: len(self.EVENT) // 2]
        with pytest.raises(TraceError, match="not valid JSONL"):
            Trace.loads(text)

    def test_garbage_trailing_line_is_rejected(self):
        text = self.HEADER + "\n" + self.EVENT + "\n%%% scribble %%%"
        with pytest.raises(TraceError, match="not valid JSONL"):
            Trace.loads(text)

    def test_non_event_trailing_record_is_rejected(self):
        text = self.HEADER + "\n" + self.EVENT + '\n{"record":"checkpoint"}'
        with pytest.raises(TraceError, match="expected an event record"):
            Trace.loads(text)

    def test_unknown_event_version_is_rejected(self):
        bumped = self.EVENT[:-1] + ',"version":2}'
        with pytest.raises(TraceError, match="unsupported event version"):
            Trace.loads(self.HEADER + "\n" + bumped)

    def test_current_event_version_is_accepted(self):
        tagged = self.EVENT[:-1] + ',"version":1}'
        assert len(Trace.loads(self.HEADER + "\n" + tagged)) == 1

    def test_header_only_trace_replays_to_zero_steps(self, small_environment):
        trace = Trace.loads(self.HEADER)
        metrics = TraceReplayer(api.engine("revenue")).run(
            small_environment.fresh_state(), trace
        )
        assert len(metrics) == 0
        with pytest.raises(ValueError, match="empty replay"):
            metrics.final()

    def test_fully_empty_text_never_reaches_the_replayer(self):
        with pytest.raises(TraceError, match="empty trace"):
            Trace.loads("   \n  \n")


class TestGeneratorShapes:
    def test_poisson_failures_recover_eventually(self):
        trace = poisson_failures(20, horizon=20000.0, mtbf=500.0, mttr=100.0, seed=0)
        kinds = trace.kinds()
        assert kinds["node_failure"] > 0
        assert kinds["node_recovery"] > 0

    def test_rack_failures_fail_whole_racks(self):
        trace = correlated_failures(32, rack_size=4, horizon=20000.0, rack_mtbf=2000.0, seed=0)
        failures = [e for e in trace if isinstance(e, NodeFailure)]
        assert failures and all(len(e.nodes) == 4 for e in failures)

    def test_storm_recovers_every_victim(self):
        trace = failure_storm(50, fraction=0.5, recovery_steps=3, seed=8)
        failed = [n for e in trace if isinstance(e, NodeFailure) for n in e.nodes]
        recovered = [n for e in trace if isinstance(e, NodeRecovery) for n in e.nodes]
        assert sorted(failed) == sorted(recovered)
        assert len(set(failed)) == len(failed) == 25

    def test_storm_recovery_always_follows_failure(self):
        # Regression: tiny recovery_after used to let recovery groups land
        # inside the burst window, leaving nodes permanently failed.
        trace = failure_storm(100, at=300.0, fraction=0.5, recovery_after=1.0, recovery_steps=2, seed=7)
        down: set[str] = set()
        for event in trace:
            if isinstance(event, NodeFailure):
                down.update(event.nodes)
            else:
                assert set(event.nodes) <= down
                down.difference_update(event.nodes)
        assert not down

    def test_diurnal_load_stays_non_negative(self):
        trace = diurnal_load(horizon=86400.0, step_seconds=3600.0, amplitude=1.2, seed=0)
        assert all(e.multiplier >= 0.0 for e in trace)

    def test_generator_argument_validation(self):
        with pytest.raises(ValueError):
            poisson_failures(10, horizon=-1.0)
        with pytest.raises(ValueError):
            failure_storm(10, fraction=0.0)
        with pytest.raises(ValueError):
            correlated_failures(10, rack_size=0)


class TestStormChaosCheck:
    def test_overleaf_survives_storm(self):
        report = run_storm_check(build_overleaf(), seed=3)
        assert report.passed
        assert report.final_availability == 1.0
        assert "OK" in report.to_text()
