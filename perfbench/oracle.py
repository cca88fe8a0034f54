"""The correctness gate: reference alerts and alert-multiset comparison.

Two references are used.  The *AST interpreter* (``QueryEngine(compiled=
False)`` per query, per event, nothing shared) is independent of every
optimized path and checks a verify slice; the *direct batch* alerts of a
workload's full stream are what sharded, wire-delivered and
interrupted-then-resumed runs must reproduce.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core import QueryEngine
from repro.core.snapshot.codecs import encode_alert
from repro.events.event import Event

#: The interpreter sums a window sequentially where the compiled path
#: merges panes, so aggregates agree to rounding, not bit for bit.
FLOAT_TOLERANCE = 1e-9

Fingerprints = Dict[str, List[Tuple[float, ...]]]


def ast_reference(queries: Sequence[Tuple[str, str]],
                  events: Sequence[Event], finish: bool = True) -> List[Any]:
    """Alerts of the AST-walking interpreter over ``events``."""
    alerts: List[Any] = []
    for name, text in queries:
        engine = QueryEngine(text, name=name, compiled=False)
        for event in events:
            engine.process_event(event)
        if finish:
            engine.finish()
        alerts.extend(engine.alerts)
    return alerts


def _split(value: Any, floats: List[float]) -> Any:
    """``value`` with every float moved into ``floats`` (in walk order)."""
    if isinstance(value, float):
        floats.append(value)
        return "#"
    if isinstance(value, dict):
        return {key: _split(value[key], floats) for key in sorted(value)}
    if isinstance(value, list):
        return [_split(item, floats) for item in value]
    return value


def fingerprints(encoded_alerts: Iterable[Dict[str, Any]]) -> Fingerprints:
    """Canonical multiset of ``encode_alert`` dicts: structure (floats
    blanked) -> sorted float vectors, one per alert with that structure."""
    grouped: Fingerprints = defaultdict(list)
    for encoded in encoded_alerts:
        floats: List[float] = []
        shape = json.dumps(_split(encoded, floats), sort_keys=True)
        grouped[shape].append(tuple(floats))
    for vectors in grouped.values():
        vectors.sort()
    return dict(grouped)


def alert_fingerprints(alerts: Iterable[Any]) -> Fingerprints:
    """:func:`fingerprints` of live ``Alert`` objects."""
    return fingerprints(encode_alert(alert) for alert in alerts)


def _close(left: Tuple[float, ...], right: Tuple[float, ...]) -> bool:
    return len(left) == len(right) and all(
        a == b or math.isclose(a, b, rel_tol=FLOAT_TOLERANCE)
        for a, b in zip(left, right))


def mismatches(expected: Fingerprints, actual: Fingerprints) -> int:
    """Alerts missing from ``actual`` plus alerts it has in excess
    (duplicates included); 0 means the multisets agree."""
    wrong = 0
    for shape in expected.keys() | actual.keys():
        want = expected.get(shape, [])
        got = actual.get(shape, [])
        i = j = 0
        while i < len(want) and j < len(got):
            if _close(want[i], got[j]):
                i += 1
                j += 1
            elif want[i] < got[j]:
                i += 1
                wrong += 1
            else:
                j += 1
                wrong += 1
        wrong += (len(want) - i) + (len(got) - j)
    return wrong


def count(prints: Fingerprints) -> int:
    """Number of alerts in a fingerprint multiset."""
    return sum(len(vectors) for vectors in prints.values())
