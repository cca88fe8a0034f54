"""Parity of the scheduler's two batch shapes with the AST interpreter.

The scheduler runs a batch of fewer than ``DEFAULT_COLUMNAR_MIN_BATCH``
events through the compiled closures and a larger one through the
columnar path (:mod:`repro.core.compile.columnar`: one column block per
batch, each distinct predicate evaluated once).  Both are pure
performance artifacts: for every registered query set and event stream
each must produce the per-engine alert streams of the AST interpreter —
one ``QueryEngine(compiled=False)`` per query, fed event by event — and
the two shapes must agree on the logical scheduler statistics.  These
tests enforce that across batch sizes on both sides of the threshold,
with and without a quarantine budget (the guard sits on every path),
LIKE patterns, numeric coercions, out-of-order batches, sharded
execution and checkpoint/restore.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack import APTScenario
from repro.collection import Enterprise, EnterpriseConfig
from repro.core import ConcurrentQueryScheduler
from repro.core.engine.query_engine import QueryEngine
from repro.core.parallel import ShardedScheduler
from repro.core.scheduler.concurrent import DEFAULT_COLUMNAR_MIN_BATCH
from repro.core.snapshot import resume_events
from repro.events.stream import ListStream
from repro.queries.demo_queries import DEMO_QUERIES
from repro.storage import CheckpointStore

from tests.compile.test_compiled_equivalence import random_events

#: Batch sizes straddling the threshold (16): closure path below it,
#: columnar path at and above it.
BATCH_SIZES = [1, 7, 15, 16, 64, 512]

#: Demo queries as (name, text) pairs in registration order.
DEMO = sorted(DEMO_QUERIES.items())
#: The demo set registered twice, the second copy with every pattern
#: variable and alias renamed: each twin joins its original's group as a
#: dependent and reuses (rebinds) every one of the original's pattern
#: matches.  The demo set alone shares groups but no pattern signatures.
TWINNED = DEMO + [
    (f"{name}/twin", re.sub(r"\b(p\d?|f\d|i\d?|evt\d?)\b", r"\1x", text))
    for name, text in DEMO]

# ---------------------------------------------------------------------------
# Stream generation and references
# ---------------------------------------------------------------------------

#: Amounts mixing zeros, small/large magnitudes and float/int types, so
#: numeric constraint coercion (e.g. ``amount > 500000``) sees both sides.
_AMOUNTS = [0.0, 1, 512.0, 99999, 1e5, 600000, 6e5, 7e6]


def jittered_events(seed: int, count: int = 300, disorder: float = 0.0):
    """A mixed stream; ``disorder > 0`` swaps that fraction of neighbours.

    The swaps produce the mildly out-of-order batches a real collection
    pipeline delivers; every path must degrade like the interpreter.
    """
    rng = random.Random(seed * 31 + 7)
    events = [dataclasses.replace(event, amount=rng.choice(_AMOUNTS))
              for event in random_events(seed, count=count)]
    if disorder:
        rng = random.Random(seed + 1)
        for index in range(len(events) - 1):
            if rng.random() < disorder:
                events[index], events[index + 1] = (events[index + 1],
                                                    events[index])
    return events


def _fingerprints(alerts):
    return [(a.query_name, a.timestamp, a.data, repr(a.group_key),
             a.window_start, a.window_end, a.agentid, a.model_kind)
            for a in alerts]


def _interpreted(queries, events):
    """Per-query alert fingerprints of the AST interpreter, per event."""
    reference = {}
    for name, text in queries:
        engine = QueryEngine(text, name=name, compiled=False)
        for event in events:
            engine.process_event(event)
        engine.finish()
        reference[name] = _fingerprints(engine.alerts)
    return reference


def _run(queries, events, batch_size, **kwargs):
    scheduler = ConcurrentQueryScheduler(**kwargs)
    for name, text in queries:
        scheduler.add_query(text, name=name)
    scheduler.execute(ListStream(events, presorted=True),
                      batch_size=batch_size)
    return scheduler


def _alerts_by_engine(scheduler):
    return {engine.name: _fingerprints(engine.alerts)
            for engine in scheduler.engines}


def _assert_path_ran(stats, batch_size):
    """The batch shape picked the path its size says it should."""
    if batch_size < DEFAULT_COLUMNAR_MIN_BATCH:
        assert stats.column_blocks_built == 0
    else:
        assert stats.column_blocks_built > 0


def _assert_same_logical_stats(stats, reference):
    assert stats.pattern_evaluations == reference.pattern_evaluations
    assert (stats.pattern_evaluations_saved
            == reference.pattern_evaluations_saved)
    assert stats.alerts == reference.alerts
    assert stats.buffered_events == reference.buffered_events


# ---------------------------------------------------------------------------
# Both batch shapes x quarantine on/off against the interpreter
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_references():
    """Per stream: (events, interpreter alerts, per-event stats).

    Eight minutes of enterprise background with the APT injected (every
    demo query but the invariant alerts on it) and an out-of-order random
    stream.
    """
    attack = Enterprise(EnterpriseConfig(seed=7)).event_feed(
        0.0, 480.0, injected=APTScenario(start_time=120.0).events())
    references = []
    for events in (list(attack.events),
                   jittered_events(5, count=300, disorder=0.1)):
        per_event = _run(TWINNED, events, batch_size=1)
        assert per_event.stats.pattern_evaluations_saved > 0
        references.append((events, _interpreted(TWINNED, events),
                           per_event.stats))
    return references


@pytest.mark.parametrize("quarantine_errors", [None, 3])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_shapes_match_interpreter(demo_references, batch_size,
                                        quarantine_errors):
    for events, reference, per_event_stats in demo_references:
        scheduler = _run(TWINNED, events, batch_size,
                         quarantine_errors=quarantine_errors)
        assert _alerts_by_engine(scheduler) == reference
        _assert_same_logical_stats(scheduler.stats, per_event_stats)
        _assert_path_ran(scheduler.stats, batch_size)
        assert scheduler.quarantined == {}


# ---------------------------------------------------------------------------
# Property-based parity: demo queries x random streams x batch sizes
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       batch_size=st.sampled_from(BATCH_SIZES + [257]),
       disorder=st.sampled_from([0.0, 0.15]))
def test_columnar_equals_oracle_across_demo_queries(seed, batch_size,
                                                    disorder):
    events = jittered_events(seed, disorder=disorder)
    scheduler = _run(DEMO, events, batch_size)
    assert _alerts_by_engine(scheduler) == _interpreted(DEMO, events)
    _assert_path_ran(scheduler.stats, batch_size)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_columnar_equals_oracle_per_query(seed):
    """Single-query groups: no cross-query sharing to hide behind."""
    events = jittered_events(seed, count=200)
    for query in DEMO:
        reference = _interpreted([query], events)
        for batch_size in (7, 64):
            scheduler = _run([query], events, batch_size)
            assert _alerts_by_engine(scheduler) == reference


# ---------------------------------------------------------------------------
# LIKE patterns and numeric coercions
# ---------------------------------------------------------------------------

#: Queries stressing the vectorized predicate forms: LIKE with leading /
#: trailing / infix wildcards, ``_`` single-character wildcards, negated
#: wildcard equality, numeric ordering against int and float literals on
#: event and entity attributes, and subject-attribute global constraints.
_PREDICATE_QUERIES = {
    "like-infix": '''
proc p["%sql%"] write file f["%backup%"] as evt #time(2 min)
state ss { n := count(evt) } group by p
alert ss.n > 0
return p, ss.n
''',
    "like-single-char": '''
proc p["osql.ex_"] read || write file f as evt #time(2 min)
state ss { n := count(evt) } group by f
alert ss.n > 0
return f, ss.n
''',
    "negated-wildcard": '''
proc p[exe_name != "%svchost%"] write ip i as evt #time(2 min)
state ss { amt := sum(evt.amount) } group by i.dstip
alert ss.amt > 500000
return i.dstip, ss.amt
''',
    "numeric-int-floor": '''
agentid = "db-server"
proc p read || write ip i[dstport = 443] as evt #time(2 min)
state ss { amt := sum(evt.amount) } group by p
alert ss.amt >= 600000
return p, ss.amt
''',
    "numeric-float-floor": '''
proc p write ip i as evt #time(2 min)
state ss { peak := max(evt.amount) } group by p
alert ss.peak > 512.5
return p, ss.peak
''',
    "string-equality-fold": '''
proc p[exe_name = "EXCEL.EXE"] start proc c as evt #time(5 min)
state ss { kids := set(c.exe_name) } group by p
alert |ss.kids| > 0
return p, ss.kids
''',
}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       batch_size=st.sampled_from([7, 16, 128]))
def test_columnar_like_and_coercion_parity(seed, batch_size):
    events = jittered_events(seed, count=250, disorder=0.1)
    queries = sorted(_PREDICATE_QUERIES.items())
    scheduler = _run(queries, events, batch_size)
    assert _alerts_by_engine(scheduler) == _interpreted(queries, events)


# ---------------------------------------------------------------------------
# Sharded execution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_columnar_parity_under_sharding(backend):
    events = jittered_events(11, count=400)
    reference = _interpreted(TWINNED, events)
    expected = sorted(alert for alerts in reference.values()
                      for alert in alerts)

    def run(batch_size):
        scheduler = ShardedScheduler(shards=3, backend=backend,
                                     batch_size=batch_size)
        for name, text in TWINNED:
            scheduler.add_query(text, name=name)
        alerts = scheduler.execute(ListStream(events, presorted=True))
        assert sorted(_fingerprints(alerts)) == expected
        return scheduler.stats

    # Lane batches never exceed the routing batch size, so 8 keeps every
    # lane on the closure path while 64 pivots column blocks.
    closure_stats = run(8)
    columnar_stats = run(64)
    _assert_same_logical_stats(columnar_stats, closure_stats)
    assert closure_stats.column_blocks_built == 0
    # The merged stats carry the columnar observability across shards.
    assert columnar_stats.column_blocks_built > 0
    assert columnar_stats.distinct_predicates > 0
    assert columnar_stats.predicate_sharing


# ---------------------------------------------------------------------------
# Checkpoint / restore
# ---------------------------------------------------------------------------

def test_columnar_parity_across_checkpoint_restore(tmp_path):
    """Crash-recover a columnar run; alerts match the interpreter."""
    events = jittered_events(23, count=400)
    reference = _interpreted(DEMO, events)

    store = CheckpointStore(tmp_path)
    first = ConcurrentQueryScheduler(checkpoint_store=store,
                                     checkpoint_interval=100)
    for name, text in DEMO:
        first.add_query(text, name=name)
    cut = len(events) // 2
    first.process_events(events[:cut])
    snapshot = store.latest()
    assert snapshot is not None

    recovered = ConcurrentQueryScheduler()
    for name, text in DEMO:
        recovered.add_query(text, name=name)
    recovered.restore_state(snapshot)
    early = _alerts_by_engine(recovered)
    recovered.execute(resume_events(events, recovered.restored_cursor),
                      batch_size=64)
    assert _alerts_by_engine(recovered) == reference
    for name, alerts in early.items():
        # The restored ledger replayed the pre-crash alerts verbatim.
        assert reference[name][:len(alerts)] == alerts
    # Restored predicate counters persist as a reporting baseline and the
    # live index keeps counting on top of them.
    assert recovered.stats.distinct_predicates > 0
    report = recovered.shared_predicate_report()
    assert any(entry["rows_evaluated"] > 0 for entry in report)
