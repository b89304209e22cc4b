"""Unit tests for repro.obs: metrics registry, tracer, exposition, EventBus
isolation.

The observation-neutrality (on-vs-off byte-identity) suite lives in
``tests/test_obs_lockstep.py``; this file covers the instruments
themselves — counter/gauge/histogram semantics, the log-bucketed quantile
estimator's error bound, deterministic clocks, Prometheus rendering and
validation, span nesting and IPC primitives, and the EventBus subscriber
isolation regression.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro import obs
from repro.api.events import EventBus, FailureDetected, RecoveryDetected
from repro.obs import (
    MetricsRegistry,
    SpanRecord,
    TickClock,
    Tracer,
    host_block,
    render_prometheus,
    resolve_clock,
    validate_prometheus_text,
)


@pytest.fixture(autouse=True)
def _clean_default_obs():
    """Every test starts and ends with the process-default plane off+empty."""
    obs.disable()
    obs.registry().reset()
    obs.tracer().clear()
    obs.tracer().prefix = ""
    yield
    obs.disable()
    obs.registry().reset()
    obs.tracer().clear()
    obs.tracer().prefix = ""


# -- clocks and host metadata --------------------------------------------------


class TestClocks:
    def test_tick_clock_counts_deterministically(self):
        clock = TickClock(step=0.5)
        assert [clock() for _ in range(3)] == [0.0, 0.5, 1.0]

    def test_resolve_clock_reads_spec(self):
        clock = resolve_clock("tick:0.25")
        assert clock() == 0.0 and clock() == 0.25

    def test_resolve_clock_defaults_to_wall_clock(self):
        import time

        assert resolve_clock("") is time.perf_counter

    def test_host_block_shape(self):
        block = host_block()
        assert block["cpu_count"] >= 1
        assert block["underprovisioned"] is False  # no workers asked for
        huge = host_block(workers=10**6)
        assert huge["underprovisioned"] is True


# -- registry instruments ------------------------------------------------------


class TestRegistry:
    def test_counters_gauges_and_labels(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(7.5)
        registry.counter("shards", shard=1).inc()
        registry.counter("shards", shard=2).inc(3)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 3
        assert snap["gauges"]["g"] == 7.5
        assert snap["counters"]["shards{shard=1}"] == 1
        assert snap["counters"]["shards{shard=2}"] == 3

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 0
        assert snap["gauges"]["g"] == 0.0
        assert snap["histograms"]["h"]["count"] == 0

    def test_force_inc_counts_while_disabled(self):
        registry = MetricsRegistry()
        registry.counter("errors").force_inc()
        assert registry.snapshot()["counters"]["errors"] == 1

    def test_histogram_exact_count_sum_max(self):
        registry = MetricsRegistry()
        registry.enable()
        hist = registry.histogram("h")
        for value in (0.5, 1.5, 4.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["max"] == 4.0

    def test_histogram_quantile_error_bound(self):
        """Log buckets at 4/octave: relative quantile error < ~20%."""
        registry = MetricsRegistry()
        registry.enable()
        hist = registry.histogram("h")
        rng = random.Random(7)
        values = sorted(rng.uniform(0.001, 10.0) for _ in range(2000))
        for value in values:
            hist.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = values[max(0, math.ceil(q * len(values)) - 1)]
            estimate = hist.quantile(q)
            assert abs(estimate - exact) / exact < 0.25, (q, exact, estimate)

    def test_histogram_non_positive_values_bucket_at_zero(self):
        registry = MetricsRegistry()
        registry.enable()
        hist = registry.histogram("h")
        hist.observe(0.0)
        hist.observe(-1.0)
        assert hist.count == 2
        assert hist.quantile(0.5) == 0.0

    def test_snapshot_jsonl_is_sorted_and_parseable(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter("z").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(1.0)
        lines = registry.snapshot_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["metric"] for r in records if r["type"] == "counter"] == ["a", "z"]
        hist_record = next(r for r in records if r["type"] == "histogram")
        assert {"count", "sum", "max", "p50", "p90", "p99"} <= set(hist_record)

    def test_snapshot_without_timing_drops_wall_clock_fields(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.histogram("h").observe(1.0)
        record = json.loads(registry.snapshot_jsonl(include_timing=False))
        assert record == {"metric": "h", "type": "histogram", "count": 1}

    def test_reset_clears_instruments_not_enabled_flag(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter("a").inc()
        registry.reset()
        assert registry.enabled
        assert registry.snapshot()["counters"] == {}


# -- Prometheus exposition -----------------------------------------------------


class TestPrometheus:
    def test_registry_text_validates(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter("engine.rounds").inc(3)
        registry.counter("fleet.shard_restarts", shard=0).inc()
        registry.gauge("serve.queue_depth").set(4)
        registry.histogram("fleet.ship_seconds").observe(0.01)
        text = registry.prometheus_text()
        assert validate_prometheus_text(text) == []
        assert "# TYPE repro_obs_engine_rounds_total counter" in text
        assert 'repro_obs_fleet_shard_restarts_total{shard="0"} 1' in text
        assert 'quantile="0.5"' in text

    def test_render_prometheus_quantile_mapping(self):
        text = render_prometheus(
            summaries={"lat": {"p50": 1.0, "p999": 2.0, "count": 5, "max": 2.0}}
        )
        assert 'lat{quantile="0.5"} 1.0' in text
        assert 'lat{quantile="0.999"} 2.0' in text
        assert "lat_count 5" in text
        assert "# TYPE lat_max gauge" in text

    def test_validator_flags_garbage(self):
        assert validate_prometheus_text("9metric 1\n")
        assert validate_prometheus_text("# TYPE x rocket\nx 1\n")
        assert validate_prometheus_text("ok_metric not_a_number\n")
        assert validate_prometheus_text("# TYPE lonely counter\n")
        assert validate_prometheus_text("") == []


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("x") as span:
            span.set(k=1)
        assert list(tracer.finished) == []

    def test_nesting_records_parent_child(self):
        tracer = Tracer(clock=TickClock())
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner", depth=1):
                pass
        inner, outer = tracer.finished
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == ""
        assert inner.attrs == {"depth": 1}
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_exception_sets_error_attr_and_propagates(self):
        tracer = Tracer(clock=TickClock())
        tracer.enable()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.finished
        assert span.attrs["error"] == "ValueError"
        assert tracer.current_id() == ""  # context restored

    def test_prefix_attach_drain_adopt_merge(self):
        """The worker-side IPC protocol in miniature."""
        parent = Tracer(clock=TickClock())
        parent.enable()
        with parent.span("fleet.ship"):
            parent_id = parent.current_id()
            worker = Tracer(clock=TickClock(), prefix="w0i1.")
            worker.enable()
            with worker.attach(parent_id):
                with worker.span("shard.round"):
                    pass
            shipped = worker.drain()
            parent.adopt(shipped)
        assert not worker.finished  # drained
        spans = {span.span_id: span for span in parent.finished}
        worker_span = next(s for s in spans.values() if s.name == "shard.round")
        assert worker_span.span_id.startswith("w0i1.")
        assert worker_span.parent_id in spans  # one merged tree
        assert spans[worker_span.parent_id].name == "fleet.ship"

    def test_ids_are_deterministic(self):
        first, second = Tracer(clock=TickClock()), Tracer(clock=TickClock())
        for tracer in (first, second):
            tracer.enable()
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
        assert [s.span_id for s in first.finished] == [
            s.span_id for s in second.finished
        ]

    def test_span_limit_bounds_memory(self):
        tracer = Tracer(clock=TickClock(), limit=4)
        tracer.enable()
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.finished) == 4
        assert tracer.finished[-1].name == "s9"

    def test_to_jsonl_is_sorted_compact(self):
        tracer = Tracer(clock=TickClock())
        tracer.enable()
        with tracer.span("x", b=2, a=1):
            pass
        record = json.loads(tracer.to_jsonl())
        assert record["name"] == "x"
        assert list(record["attrs"]) == ["a", "b"]
        bare = json.loads(tracer.to_jsonl(include_timing=False))
        assert "start" not in bare and "end" not in bare

    def test_span_record_round_trips_the_wire_codec(self):
        from repro.fleet.wire import dumps, loads

        span = SpanRecord(
            name="shard.round",
            span_id="w1i2.5",
            parent_id="3",
            start=1.5,
            end=2.25,
            attrs={"steps": 4},
        )
        assert loads(dumps([span])) == [span]


# -- EventBus subscriber isolation ---------------------------------------------


class TestEventBusIsolation:
    def test_raising_subscriber_does_not_stop_delivery(self):
        bus = EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("broken observer")

        bus.subscribe(broken)
        bus.subscribe(seen.append)
        bus.emit(FailureDetected(nodes=("n1",)))
        bus.emit(RecoveryDetected(nodes=("n1",)))
        assert len(seen) == 2  # delivery continued past the raiser

    def test_subscriber_errors_are_counted_even_while_obs_is_off(self):
        assert not obs.enabled()
        bus = EventBus()
        bus.subscribe(lambda event: (_ for _ in ()).throw(ValueError("x")))
        bus.emit(FailureDetected(nodes=("n1",)))
        snap = obs.registry().snapshot()
        assert snap["counters"]["obs.subscriber_errors"] == 1

    def test_strict_mode_reraises_after_counting(self):
        bus = EventBus(strict=True)
        bus.subscribe(lambda event: (_ for _ in ()).throw(ValueError("x")))
        with pytest.raises(ValueError):
            bus.emit(FailureDetected(nodes=("n1",)))
        assert obs.registry().snapshot()["counters"]["obs.subscriber_errors"] == 1


# -- the metric catalogue cannot drift from the code -------------------------------


class TestMetricCatalogue:
    """``tools/check_docs.py``: every registered metric has a catalogue row."""

    @staticmethod
    def _check_docs():
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location("check_docs", root / "tools" / "check_docs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, root

    def test_every_registered_metric_is_catalogued(self):
        check_docs, root = self._check_docs()
        registered = check_docs.registered_metrics(root / "src" / "repro")
        assert "engine.pack.refused" in registered and "fleet.phase.{phase}_seconds" in registered
        assert check_docs.check_metric_catalogue(root) == []

    def test_a_missing_row_is_reported(self, tmp_path):
        check_docs, root = self._check_docs()
        catalogue = (root / check_docs.CATALOGUE).read_text(encoding="utf-8")
        kept = [line for line in catalogue.splitlines() if "`engine.pack.refused`" not in line]
        doc = tmp_path / "observability.md"
        doc.write_text("\n".join(kept), encoding="utf-8")
        errors = check_docs.check_metric_catalogue(root, doc)
        assert len(errors) == 1 and "'engine.pack.refused'" in errors[0]
