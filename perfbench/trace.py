"""Benchmark-side spans, kept in memory and written when a run ends.

A span is recorded around each call the benchmark makes into a layer's
public functions: name, start, end, the span that caused it, and one
``trace`` identifier shared by the spans of one batch or request.
Counters read at the same boundary (the program's public statistics)
ride along as ``counts``.  Spans inside the program are out of scope:
where a call's inner split matters the program's own stage timers are
read and attached to the enclosing span as counts.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional


class Tracer:
    """An append-only span list."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []

    def begin(self, name: str, start: float, parent: Optional[int] = None,
              trace: Optional[str] = None) -> int:
        """Open a span whose children are recorded before it ends."""
        self.spans.append({"id": len(self.spans) + 1, "name": name,
                           "start": start, "end": start, "parent": parent,
                           "trace": trace})
        return len(self.spans)

    def finish(self, span_id: int, end: float, **counts: Any) -> None:
        """Close a span opened with :meth:`begin`."""
        span = self.spans[span_id - 1]
        span["end"] = end
        if counts:
            span["counts"] = counts

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, trace: Optional[str] = None,
            **counts: Any) -> int:
        """Record one finished span; returns its identifier."""
        span_id = self.begin(name, start, parent, trace)
        self.finish(span_id, end, **counts)
        return span_id

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: each span's duration minus the part of
        its interval that its child spans cover, summed by name."""
        children: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for child in sorted(children[span["id"]],
                                key=lambda item: item["start"]):
                start = max(child["start"], reach)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    reach = end
            totals[span["name"]] += (span["end"] - span["start"]) - covered
        return dict(totals)

    def self_time_shares(self) -> Dict[str, float]:
        """:meth:`self_times` as shares of their sum, by span name."""
        times = self.self_times()
        total = sum(times.values()) or 1.0
        return {name: times[name] / total for name in sorted(times)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n",
                        encoding="utf-8")
