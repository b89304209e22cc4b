"""In-memory spans recorded by the harness around calls into each layer.

The program under test is not instrumented: a span here brackets one call
from the benchmark into a public function of a layer (``engine.plan``,
``evaluate_state``, ...).  Spans are kept in a list while the pass runs and
written as JSONL when it ends.  A layer's *self time* is its span's
duration minus the part of it covered by child spans, so the self times of
one operation add up to the operation's wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanRecorder:
    """Collects ``(name, start, end, parent, op)`` spans on one thread."""

    def __init__(self) -> None:
        #: One list per span: [name, start, end, parent index or -1, op id].
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int = -1):
        """Record the enclosed block; spans of one operation share ``op``."""
        parent = self._stack[-1] if self._stack else -1
        if op < 0 and parent >= 0:
            op = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op: int = -1) -> None:
        """Record a span whose clock readings were taken elsewhere."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, op])

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, summed over every span of that name."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _parent, _op), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals

    def root_seconds(self) -> float:
        """Wall time covered by the top-level spans."""
        return sum(end - start for _n, start, end, parent, _o in self.spans if parent < 0)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent if parent >= 0 else None,
                            "op": op if op >= 0 else None,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
