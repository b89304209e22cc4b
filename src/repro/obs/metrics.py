"""Process-local metrics registry: counters, gauges, log-bucketed histograms.

The registry is **observation-only by construction**.  Every mutator is
gated on a single attribute check (``registry._enabled``) so the disabled
path costs one branch, and no instrument ever feeds a value back into the
code being measured: enabling or disabling observability must never change
a digest, a trace byte, or a float accumulation (``tests/test_obs_lockstep``
holds the stack to that contract).

Histograms are log-bucketed — four buckets per power of two (~19% relative
resolution) — with exact ``count``/``sum``/``max`` kept alongside, so
quantiles cost O(buckets) and no sample list grows without bound.

Timestamps come from an injectable clock.  ``REPRO_OBS_CLOCK=tick`` (or
``tick:<step>``) swaps in a deterministic counting clock so subprocess
tests can demand byte-identical snapshots.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TickClock",
    "host_block",
    "render_prometheus",
    "resolve_clock",
    "validate_prometheus_text",
]

#: Histogram sub-buckets per power of two.
_BUCKETS_PER_OCTAVE = 4

#: Bucket index reserved for non-positive observations.
_ZERO_BUCKET = -(10**9)

_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


class TickClock:
    """Deterministic clock: each call returns ``n * step`` for n = 0, 1, ...

    Installed via ``REPRO_OBS_CLOCK=tick[:step]`` so CLI subprocess tests
    get byte-identical timing fields across runs.
    """

    __slots__ = ("step", "_ticks")

    def __init__(self, step: float = 0.001) -> None:
        self.step = step
        self._ticks = 0

    def __call__(self) -> float:
        value = self._ticks * self.step
        self._ticks += 1
        return value


def resolve_clock(spec: str | None = None):
    """Pick the registry clock: perf_counter, or a TickClock from env."""
    if spec is None:
        spec = os.environ.get("REPRO_OBS_CLOCK", "")
    if spec.startswith("tick"):
        step = 0.001
        if ":" in spec:
            step = float(spec.split(":", 1)[1])
        return TickClock(step)
    return time.perf_counter


def host_block(workers: int | None = None) -> dict:
    """The shared host-metadata block benchmark records carry.

    ``underprovisioned`` means the run asked for more workers than the
    host has cores, so parallel speedups should not be trusted.
    """
    cores = os.cpu_count() or 1
    return {
        "cpu_count": cores,
        "underprovisioned": workers is not None and cores < workers,
    }


def _bucket_index(value: float) -> int:
    if value <= 0.0:
        return _ZERO_BUCKET
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    sub = int((mantissa - 0.5) * 2 * _BUCKETS_PER_OCTAVE)
    if sub >= _BUCKETS_PER_OCTAVE:  # mantissa == 1.0 edge after rounding
        sub = _BUCKETS_PER_OCTAVE - 1
    return (exponent - 1) * _BUCKETS_PER_OCTAVE + sub


def _bucket_upper(index: int) -> float:
    if index == _ZERO_BUCKET:
        return 0.0
    exponent, sub = divmod(index, _BUCKETS_PER_OCTAVE)
    mantissa = 0.5 + (sub + 1) / (2 * _BUCKETS_PER_OCTAVE)
    return mantissa * (2.0 ** (exponent + 1))


class Counter:
    """Monotonic counter.  ``inc`` is a no-op while the registry is off."""

    __slots__ = ("name", "labels", "_registry", "value")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._registry = registry
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if self._registry._enabled:
            self.value += amount

    def force_inc(self, amount: int = 1) -> None:
        """Count even while the registry is disabled (error signals)."""
        self.value += amount


class Gauge:
    """Point-in-time value.  ``set`` is a no-op while the registry is off."""

    __slots__ = ("name", "labels", "_registry", "value")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._registry = registry
        self.value = 0.0

    def set(self, value: float) -> None:
        if self._registry._enabled:
            self.value = value


class Histogram:
    """Log-bucketed histogram with exact count/sum/max and bucket quantiles."""

    __slots__ = ("name", "labels", "_registry", "buckets", "count", "sum", "max")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._registry = registry
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        if not self._registry._enabled:
            return
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile from bucket upper bounds, clamped to max."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return min(_bucket_upper(index), self.max)
        return self.max

    def summary(self) -> dict:
        out = {"count": self.count, "sum": self.sum, "max": self.max}
        for key, q in _QUANTILES:
            out[key] = self.quantile(q)
        return out


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _flat_name(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Process-local registry of named instruments.

    Instruments are created on first use and survive enable/disable
    flips (values persist; mutation is simply gated).  Creation is
    thread-safe; mutation is intentionally unlocked — counters and
    histogram buckets tolerate benign races, and the hot path must not
    pay for a lock it does not need.
    """

    def __init__(self, clock=None) -> None:
        self._enabled = False
        self.clock = clock if clock is not None else resolve_clock()
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop every instrument (tests; enabled flag is untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def _get(self, table: dict, factory, name: str, labels: dict):
        key = (name, _label_key(labels))
        instrument = table.get(key)
        if instrument is None:
            with self._lock:
                instrument = table.get(key)
                if instrument is None:
                    instrument = factory(self, name, key[1])
                    table[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    def snapshot(self, *, include_timing: bool = True) -> dict:
        """Deterministically ordered view of every instrument.

        ``include_timing=False`` drops histogram sum/max/quantiles (the
        wall-clock-dependent fields), leaving only counts — what the
        determinism tests compare when no fake clock is installed.
        """
        counters = {
            _flat_name(c.name, c.labels): c.value
            for c in self._counters.values()
        }
        gauges = {
            _flat_name(g.name, g.labels): g.value
            for g in self._gauges.values()
        }
        histograms = {}
        for hist in self._histograms.values():
            if include_timing:
                histograms[_flat_name(hist.name, hist.labels)] = hist.summary()
            else:
                histograms[_flat_name(hist.name, hist.labels)] = {
                    "count": hist.count
                }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def snapshot_jsonl(self, *, include_timing: bool = True) -> str:
        """One JSON line per instrument, sorted — the ``--metrics-out`` format."""
        snap = self.snapshot(include_timing=include_timing)
        lines = []
        for kind in ("counters", "gauges", "histograms"):
            for name, value in snap[kind].items():
                record = {"metric": name, "type": kind[:-1]}
                if kind == "histograms":
                    record.update(value)
                else:
                    record["value"] = value
                lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    def prometheus_text(self, *, prefix: str = "repro_obs_") -> str:
        """Prometheus/OpenMetrics exposition of every instrument."""
        snap = self.snapshot()
        return render_prometheus(
            counters={prefix + k: v for k, v in snap["counters"].items()},
            gauges={prefix + k: v for k, v in snap["gauges"].items()},
            summaries={prefix + k: v for k, v in snap["histograms"].items()},
        )


# --- Prometheus text rendering / validation (shared with serve) -----------


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name (labels flattened) to prometheus rules."""
    base, _, labels = name.partition("{")
    out = []
    for ch in base:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    if labels:
        pairs = []
        for item in labels.rstrip("}").split(","):
            key, _, value = item.partition("=")
            value = value.replace("\\", "\\\\").replace('"', '\\"')
            pairs.append(f'{key}="{value}"')
        sanitized += "{" + ",".join(pairs) + "}"
    return sanitized


def _split_labels(prom_name: str) -> tuple[str, str]:
    base, sep, labels = prom_name.partition("{")
    return base, (sep + labels if sep else "")


def _merge_labels(labels: str, extra: str) -> str:
    if not labels:
        return "{" + extra + "}"
    return labels[:-1] + "," + extra + "}"


def _format_value(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(*, counters=None, gauges=None, summaries=None) -> str:
    """Render metric maps as Prometheus text exposition (version 0.0.4).

    ``summaries`` maps name -> histogram summary dict (count/sum/max +
    pNN quantiles); rendered as a summary family plus a ``_max`` gauge.
    """
    lines: list[str] = []
    for name, value in (counters or {}).items():
        base, labels = _split_labels(_prom_name(name))
        lines.append(f"# TYPE {base}_total counter")
        lines.append(f"{base}_total{labels} {_format_value(value)}")
    for name, value in (gauges or {}).items():
        base, labels = _split_labels(_prom_name(name))
        lines.append(f"# TYPE {base} gauge")
        lines.append(f"{base}{labels} {_format_value(value)}")
    for name, summary in (summaries or {}).items():
        base, labels = _split_labels(_prom_name(name))
        lines.append(f"# TYPE {base} summary")
        for key, value in sorted(summary.items()):
            if key.startswith("p") and key[1:].isdigit():
                q = int(key[1:]) / (10 ** (len(key) - 1))
                qlabels = _merge_labels(labels, f'quantile="{q}"')
                lines.append(f"{base}{qlabels} {_format_value(value)}")
        if "count" in summary:
            lines.append(f"{base}_count{labels} {_format_value(summary['count'])}")
        if "sum" in summary:
            lines.append(f"{base}_sum{labels} {_format_value(summary['sum'])}")
        if "max" in summary:
            lines.append(f"# TYPE {base}_max gauge")
            lines.append(f"{base}_max{labels} {_format_value(summary['max'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_prometheus_text(text: str) -> list[str]:
    """Syntax-check a Prometheus exposition; returns a list of problems.

    Not a full parser — enough to catch the drift CI cares about: bad
    metric names, malformed label blocks, non-numeric values, TYPE lines
    naming a family no sample uses.
    """
    problems: list[str] = []
    typed: set[str] = set()
    sampled: set[str] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter",
                    "gauge",
                    "summary",
                    "histogram",
                    "untyped",
                ):
                    problems.append(f"line {number}: malformed TYPE comment")
                else:
                    typed.add(parts[2])
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
            problems.append(f"line {number}: bad metric name {name!r}")
            continue
        if name[0].isdigit():
            problems.append(f"line {number}: metric name starts with a digit")
        if "{" in line:
            if "}" not in line:
                problems.append(f"line {number}: unterminated label block")
                continue
            labels = line[line.index("{") + 1 : line.rindex("}")]
            for item in labels.split(","):
                if item and ('="' not in item or not item.endswith('"')):
                    problems.append(f"line {number}: malformed label {item!r}")
            rest = line[line.rindex("}") + 1 :].strip()
        else:
            rest = line.split(" ", 1)[1].strip() if " " in line else ""
        value = rest.split(" ")[0] if rest else ""
        try:
            float(value)
        except ValueError:
            problems.append(f"line {number}: non-numeric value {value!r}")
        for suffix in ("_total", "_count", "_sum", "_max"):
            if name.endswith(suffix):
                sampled.add(name[: -len(suffix)])
                sampled.add(name)
        sampled.add(name)
    for family in typed:
        if family not in sampled:
            problems.append(f"TYPE declared for {family} but no samples present")
    return problems
