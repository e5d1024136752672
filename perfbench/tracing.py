"""In-memory span recorder for the traced benchmark run.

A span is recorded around each public library call the benchmark makes:
name, start, end, parent span and op id, plus counters measured at the same
boundary.  Spans stay in memory until the run ends and are then written out
as JSON lines.  A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, keep=lambda op: True) -> dict[str, list[tuple[float, dict]]]:
        """name -> [(self seconds, counters)] for the spans whose op id
        passes `keep`."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(list)
        for s in self.spans:
            if keep(s["op"]):
                out[s["name"]].append((s["end"] - s["start"] - child[s["id"]], s["counts"]))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def span(tracer: Tracer | None, name: str, op: str):
    """A span on `tracer`, or a no-op context (yielding a scratch dict) when
    the run is untraced."""
    if tracer is None:
        return nullcontext({})
    return tracer.span(name, op)
