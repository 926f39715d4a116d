"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name (``layer.call``), a start and an end from
``time.perf_counter``, the span that was open when it began, and a trace
id shared by every span of one request (one document, one set-up).
Spans stay in memory and are written out once, when the run ends.  A
disabled tracer hands out one shared no-op context, so the untraced run
goes through the same ``with`` statements at almost no cost.
"""

from __future__ import annotations

import json
import statistics
import time


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def note(self, **attrs):
        pass


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        record = self.record
        record["parent"] = tracer.open[-1]["id"] if tracer.open else None
        tracer.open.append(record)
        record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        record = self.record
        record["end"] = time.perf_counter()
        self.tracer.open.pop()
        self.tracer.spans.append(record)
        return False

    def note(self, **attrs):
        """Attach counts measured where the work happened."""
        self.record.update(attrs)


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.open = []
        self._next_id = 0

    def span(self, name, trace):
        if not self.enabled:
            return _NO_SPAN
        self._next_id += 1
        return _Span(self, {"id": self._next_id, "trace": trace, "name": name})

    def durations(self, name):
        """Durations in seconds of every closed span with this name."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name):
        return statistics.median(self.durations(name))

    def total(self, name):
        return sum(self.durations(name))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
