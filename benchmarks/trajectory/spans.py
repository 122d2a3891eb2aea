"""Coarse spans recorded from the benchmark's own files.

A span is ``(name, start, end, parent, segment)``; spans are kept in
memory and written once when the run ends.  They wrap *per-batch* calls
into the layers' public functions only (``VectorMonitorEngine.ingest`` /
``advance``, the subscriber, ``on_datagram`` bursts) — never a
per-heartbeat call, so the traced run stays within a few percent of the
untraced one (``trace.overhead_frac`` reports how many).

Tracing is switched per segment: a traced run alternates traced and
untraced segments, which is what makes the overhead measurable inside
one run on a noisy machine.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer"]


class Tracer:
    """In-memory span recorder with a per-segment on/off switch."""

    def __init__(self) -> None:
        self.on = False
        self.segment = -1
        self._spans: List[tuple] = []
        self._stack: List[int] = []

    def set_segment(self, segment: int, traced: bool) -> None:
        self.segment = segment
        self.on = traced

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self._spans)
        self._spans.append([name, time.perf_counter(), 0.0, parent, self.segment])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> None:
        """Record a span measured by the caller (``perf_counter`` times)."""
        self._spans.append([name, start, end, parent, self.segment])

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around each call while tracing is on."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def __len__(self) -> int:
        return len(self._spans)

    def self_times(self) -> Dict[str, dict]:
        """Per span name: calls, total time, and self time (duration
        minus the part covered by child spans)."""
        child_time = [0.0] * len(self._spans)
        for name, start, end, parent, _ in self._spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, dict] = {}
        for i, (name, start, end, parent, _) in enumerate(self._spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return out

    def write(self, path: Path, meta: Optional[dict] = None) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": "repro.bench.trajectory.spans/1",
            "meta": meta or {},
            "columns": ["name", "start", "end", "parent", "segment"],
            "spans": self._spans,
            "self_times": self.self_times(),
        }
        path.write_text(json.dumps(doc) + "\n")
        return path
