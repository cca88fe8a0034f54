"""Batch/per-event equivalence for the batch ingestion path.

``process_events`` is a pure performance artifact: feeding a stream in
batches (with the deferred watermark advance) must produce the same
per-engine alert streams — and, at scheduler level, the same statistics —
as feeding the same events one at a time.  These tests enforce that across
the demo queries, randomized event streams and batch sizes, in the style
of the compiled/interpreted equivalence suite.
"""

from __future__ import annotations

import pytest

from repro.core import ConcurrentQueryScheduler, QueryEngine
from repro.core.engine.multievent_matcher import DEFAULT_HORIZON
from repro.events.entities import FileEntity, ProcessEntity
from repro.events.event import Event, Operation
from repro.events.stream import ListStream, iter_batches
from repro.queries.demo_queries import DEMO_QUERIES

from tests.compile.test_compiled_equivalence import random_events

BATCH_SIZES = (1, 7, 64, 512)


def _alert_fingerprint(alert):
    return (alert.timestamp, alert.data, alert.group_key,
            alert.window_start, alert.window_end, alert.agentid,
            alert.model_kind)


@pytest.fixture(scope="module")
def streams():
    return [random_events(seed) for seed in (5, 23, 71)]


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

def test_iter_batches_preserves_order_and_remainder(streams):
    events = streams[0]
    for size in BATCH_SIZES:
        batches = list(iter_batches(events, size))
        assert [e for batch in batches for e in batch] == events
        assert all(len(batch) == size for batch in batches[:-1])
        assert 1 <= len(batches[-1]) <= size


def test_iter_batches_rejects_non_positive_size(streams):
    with pytest.raises(ValueError):
        list(iter_batches(streams[0], 0))
    with pytest.raises(ValueError):
        list(ListStream([]).batches(-3))


def test_stream_batches_delegates(streams):
    stream = ListStream(streams[0], presorted=True)
    assert [e for b in stream.batches(13) for e in b] == streams[0]


# ---------------------------------------------------------------------------
# Engine-level equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(DEMO_QUERIES))
def test_engine_batches_match_per_event(name, streams):
    text = DEMO_QUERIES[name]
    for events in streams:
        reference_engine = QueryEngine(text)
        reference_engine.execute(ListStream(events, presorted=True))
        reference = [_alert_fingerprint(a) for a in reference_engine.alerts]
        for size in BATCH_SIZES:
            engine = QueryEngine(text)
            for batch in iter_batches(events, size):
                engine.process_events(batch)
            engine.finish()
            assert [_alert_fingerprint(a)
                    for a in engine.alerts] == reference
            assert engine.events_processed == len(events)


# ---------------------------------------------------------------------------
# Out-of-order events inside one batch
# ---------------------------------------------------------------------------

_PROC = ProcessEntity.make("a.exe", pid=1, host="h")
_FILE = FileEntity.make("C:/x.bin", host="h")


def _event(operation, timestamp, obj=_FILE):
    return Event(subject=_PROC, operation=operation, obj=obj,
                 timestamp=timestamp, agentid="h")


#: Query and stream pairs whose last event is older than its predecessor
#: and lands in state that per-event feeding retired at the predecessor.
_OUT_OF_ORDER = {
    # The t=25 write closes [0, 10); the late t=5 write re-opens it, so
    # per-event feeding alerts on [0, 10) twice with n=1, not once with 2.
    "late-window": (
        'proc p write file f as e #time(10 sec)\n'
        'state ss { n := count(e) } group by p\n'
        'alert ss.n > 0\nreturn p, ss.n',
        [_event(Operation.WRITE, 1.0), _event(Operation.WRITE, 25.0),
         _event(Operation.WRITE, 5.0)]),
    # The unmatched start event expires the t=7 partial sequence, so the
    # late read completes nothing.
    "late-sequence": (
        'proc p write file f as e1\nproc p read file f as e2\n'
        'with e1 -> e2\nreturn p, f',
        [_event(Operation.WRITE, 7.0),
         _event(Operation.START, DEFAULT_HORIZON + 10.0,
                obj=ProcessEntity.make("b.exe", pid=2, host="h")),
         _event(Operation.READ, DEFAULT_HORIZON + 5.0)]),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_ORDER))
def test_out_of_order_batch_matches_per_event(case):
    text, events = _OUT_OF_ORDER[case]
    reference = [_alert_fingerprint(alert) for alert
                 in QueryEngine(text, compiled=False).execute(events)]
    engine = QueryEngine(text)
    engine.process_events(events)
    engine.finish()
    assert [_alert_fingerprint(alert) for alert in engine.alerts] == reference
    # Batches of one carry the late state across batch boundaries.
    for size in (1, len(events)):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(text, name=case)
        alerts = scheduler.execute(iter(events), batch_size=size)
        assert [_alert_fingerprint(alert) for alert in alerts] == reference


# ---------------------------------------------------------------------------
# Scheduler-level equivalence, including statistics
# ---------------------------------------------------------------------------

def _scheduler_for(names):
    scheduler = ConcurrentQueryScheduler()
    for name in names:
        scheduler.add_query(DEMO_QUERIES[name], name=name)
    return scheduler


def test_scheduler_batches_match_per_event(streams):
    names = sorted(DEMO_QUERIES)
    for events in streams:
        reference = _scheduler_for(names)
        reference.execute(ListStream(events, presorted=True))
        per_engine = {
            engine.name: [_alert_fingerprint(a) for a in engine.alerts]
            for engine in reference.engines
        }
        for size in BATCH_SIZES:
            scheduler = _scheduler_for(names)
            scheduler.execute(ListStream(events, presorted=True),
                              batch_size=size)
            for engine in scheduler.engines:
                assert [_alert_fingerprint(a)
                        for a in engine.alerts] == per_engine[engine.name]
            # All accounting must be identical, except the shared-buffer
            # peak: the batch path samples it at batch boundaries, so it is
            # a close lower bound of the per-event figure.
            _assert_stats_match(scheduler.stats, reference.stats)


def _assert_stats_match(batch_stats, reference_stats):
    assert batch_stats.events_ingested == reference_stats.events_ingested
    assert batch_stats.queries == reference_stats.queries
    assert batch_stats.groups == reference_stats.groups
    assert batch_stats.alerts == reference_stats.alerts
    assert (batch_stats.pattern_evaluations
            == reference_stats.pattern_evaluations)
    assert (batch_stats.pattern_evaluations_saved
            == reference_stats.pattern_evaluations_saved)
    assert batch_stats.buffered_events == reference_stats.buffered_events
    assert (batch_stats.buffered_events
            <= batch_stats.peak_buffered_events
            <= reference_stats.peak_buffered_events)


def test_scheduler_process_events_equals_loop(streams):
    """process_events on an explicit batch == process_event per event."""
    names = ["rule-c5-data-exfiltration", "timeseries-network-spike"]
    events = streams[0]
    one = _scheduler_for(names)
    batch_alerts = one.process_events(events)
    batch_alerts.extend(one.finish())
    other = _scheduler_for(names)
    loop_alerts = []
    for event in events:
        loop_alerts.extend(other.process_event(event))
    loop_alerts.extend(other.finish())
    assert (sorted(_alert_fingerprint(a) for a in batch_alerts)
            == sorted(_alert_fingerprint(a) for a in loop_alerts))
    _assert_stats_match(one.stats, other.stats)
