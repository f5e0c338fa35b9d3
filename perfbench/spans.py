"""In-memory span recorder for the traced benchmark run.

A span is one call from the benchmark into a layer of the program:
name, start, end, parent span and request id.  Spans are recorded only
around calls the benchmark itself makes — nothing inside ``src/`` is
instrumented — and are kept in memory until :meth:`Tracer.write` dumps
them as JSON lines when the run ends.

A layer's self time is its span's duration minus the time covered by
its child spans.  Children of one span never overlap (the benchmark is
a single-threaded closed loop), so the covered time is their sum.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """Records nested spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "request": request, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Per-span self time in seconds, indexed like :attr:`spans`."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - covered[s["id"]]
                for s in self.spans]

    def layer_table(self) -> Dict[str, dict]:
        """Span name -> count, total, self and median durations (ms)."""
        selfs = self.self_times()
        rows: Dict[str, dict] = {}
        for s, own in zip(self.spans, selfs):
            row = rows.setdefault(s["name"], {"durs": [], "self": 0.0})
            row["durs"].append(s["end"] - s["start"])
            row["self"] += own
        return {name: {"count": len(r["durs"]),
                       "total_ms": 1e3 * sum(r["durs"]),
                       "self_ms": 1e3 * r["self"],
                       "p50_ms": 1e3 * statistics.median(r["durs"])}
                for name, r in rows.items()}

    def render_table(self) -> str:
        table = self.layer_table()
        total_self = sum(r["self_ms"] for r in table.values()) or 1.0
        lines = [f"{'span':<24} {'count':>6} {'p50_ms':>10} "
                 f"{'total_ms':>11} {'self_ms':>11} {'self%':>6}"]
        for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
            lines.append(f"{name:<24} {r['count']:>6} {r['p50_ms']:>10.3f} "
                         f"{r['total_ms']:>11.1f} {r['self_ms']:>11.1f} "
                         f"{100 * r['self_ms'] / total_self:>5.1f}%")
        return "\n".join(lines)

    def write(self, path) -> None:
        """Dump every span as one JSON line (times relative to the
        first span's start, in seconds)."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "start": s["start"] - t0,
                                    "end": s["end"] - t0}) + "\n")
