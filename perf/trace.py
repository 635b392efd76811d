"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``{id, name, start, end, parent, op}``; spans of one op share
``op``.  ``parent`` defaults to the span open when this one started, and
can be given explicitly for a call that is replayed outside its parent
(the planner's estimator, timed on its own after the plan that used it).
Each thread nests its own spans, so the connections of a serve pass can
record side by side.  Spans stay in memory and are written once, when
the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class Trace:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._thread = threading.local()

    @contextmanager
    def span(self, name: str, *, op: int | None = None, parent: int | None = None):
        stack = self._thread.__dict__.setdefault("open", [])
        if parent is None and stack:
            parent = stack[-1]
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "op": op}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [
            (s["end"] - s["start"]) * 1e3 for s in self.spans if s["name"] == name
        ]

    def median_ms(self, name: str) -> float:
        found = self.durations_ms(name)
        return median(found) if found else 0.0

    def self_ms(self, name: str) -> float:
        """Median over spans called ``name`` of duration minus child spans."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = (
                    children.get(s["parent"], 0.0) + (s["end"] - s["start"]) * 1e3
                )
        own = [
            (s["end"] - s["start"]) * 1e3 - children.get(s["id"], 0.0)
            for s in self.spans if s["name"] == name
        ]
        return median(own) if own else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")
