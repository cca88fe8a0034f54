"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import resource
from typing import Any, Mapping, Optional, Sequence

from repro.obs.metrics import Histogram, MetricRegistry
from repro.obs.spans import STAGE_HISTOGRAM

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a sample; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def rss_mb() -> float:
    """Resident set size of this process, now."""
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


def children_peak_rss_mb() -> float:
    """Largest peak RSS among the child processes waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def live(snapshot: Optional[Mapping[str, Any]]) -> MetricRegistry:
    """A ``metrics_snapshot()`` (or the ``metrics`` op's JSON) folded back
    into a registry, so its histograms answer ``sum``, ``count`` and
    ``percentile`` with the program's own code.  Families the snapshot
    lacks come out empty."""
    registry = MetricRegistry()
    if snapshot:
        registry.merge_snapshot(snapshot)
    return registry


def stage(registry: MetricRegistry, name: str) -> Histogram:
    """One ``saql_stage_seconds`` stage of a :func:`live` registry."""
    return registry.histogram(STAGE_HISTOGRAM, stage=name)
