"""Unit tests for the scheduler's columnar fast path.

Covers the pieces the equivalence suite cannot see directly: the
tiny-batch threshold (no column block below
``DEFAULT_COLUMNAR_MIN_BATCH``), the
predicate-sharing observability counters, and dynamic plan invalidation —
the shared index must rebuild incrementally as queries are registered and
removed mid-stream.
"""

import pytest

from repro.core import ConcurrentQueryScheduler
from repro.core.scheduler.concurrent import DEFAULT_COLUMNAR_MIN_BATCH
from repro.events.event import Operation
from repro.events.stream import ListStream
from repro.queries.demo_queries import DEMO_QUERIES
from tests.conftest import make_connection, make_event, make_file, make_process

from tests.compile.test_columnar_equivalence import (_fingerprints,
                                                     jittered_events)

EXFIL_READ = '''
agentid = "db-server"
proc p["%sbblv.exe"] read file f["%backup%"] as e
return p, f
'''

EXFIL_SEND = '''
agentid = "db-server"
proc p["%sbblv.exe"] read file f["%backup%"] as e1
proc p write ip i as e2
with e1 -> e2
return p, f, i
'''

CLIENT_QUERY = '''
agentid = "client-01"
proc p["%excel.exe"] start proc c as e
return p, c
'''


def _db_events(count=6):
    sbblv = make_process("sbblv.exe", 4)
    dump = make_file("D:/backup/backup1.dmp")
    attacker = make_connection("203.0.113.129")
    events = []
    for index in range(count):
        entity = dump if index % 2 == 0 else attacker
        operation = Operation.READ if index % 2 == 0 else Operation.WRITE
        events.append(make_event(sbblv, operation, entity,
                                 10.0 * (index + 1), amount=1e6))
    return events


class TestTinyBatchThreshold:
    def test_default_threshold_skips_small_batches(self):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        small = _db_events(DEFAULT_COLUMNAR_MIN_BATCH - 1)
        alerts = scheduler.process_events(small)
        assert scheduler.stats.column_blocks_built == 0
        assert scheduler.stats.predicate_evaluations == 0
        assert alerts  # the closure fallback still matched

    def test_threshold_boundary_builds_a_block(self):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        scheduler.process_events(_db_events(DEFAULT_COLUMNAR_MIN_BATCH))
        assert scheduler.stats.column_blocks_built == 1
        assert scheduler.stats.predicate_evaluations > 0

    def test_per_event_path_never_builds_blocks(self):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        for event in _db_events(2 * DEFAULT_COLUMNAR_MIN_BATCH):
            scheduler.process_event(event)
        assert scheduler.stats.column_blocks_built == 0

    def test_tiny_batches_agree_with_columnar_batches(self):
        events = jittered_events(3, count=120)
        names = sorted(DEMO_QUERIES)

        def run(batch_size):
            scheduler = ConcurrentQueryScheduler()
            for name in names:
                scheduler.add_query(DEMO_QUERIES[name], name=name)
            scheduler.execute(ListStream(events, presorted=True),
                              batch_size=batch_size)
            return scheduler

        tiny = run(batch_size=2)       # below threshold: closure fallback
        large = run(batch_size=64)     # above threshold: columnar
        assert tiny.stats.column_blocks_built == 0
        assert large.stats.column_blocks_built > 0
        for slow, fast in zip(tiny.engines, large.engines):
            assert _fingerprints(fast.alerts) == _fingerprints(slow.alerts)


class TestObservability:
    def _run(self, batch_size=32):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        scheduler.add_query(EXFIL_SEND, name="send")
        scheduler.add_query(CLIENT_QUERY, name="client")
        scheduler.execute(ListStream(_db_events(64), presorted=True),
                          batch_size=batch_size)
        return scheduler

    def test_distinct_predicates_deduplicate_across_queries(self):
        scheduler = self._run()
        # read/send share the sbblv + backup atoms through one group; the
        # client query contributes its own.  Interning keeps the distinct
        # count below the naive per-pattern total.
        assert 0 < scheduler.stats.distinct_predicates
        assert (scheduler.distinct_predicate_count()
                == scheduler.stats.distinct_predicates)

    def test_sharing_report_shape_and_selectivity(self):
        scheduler = self._run()
        report = scheduler.shared_predicate_report()
        assert len(report) == scheduler.stats.distinct_predicates
        for entry in report:
            assert entry["rows_selected"] <= entry["rows_evaluated"]
            assert 0.0 <= entry["selectivity"] <= 1.0
        # The global constraint 'agentid == db-server' is shared by the
        # read/send pair through their group.
        by_label = {entry["predicate"]: entry for entry in report}
        assert any(entry["subscribers"] >= 1 for entry in by_label.values())

    def test_saved_evaluations_require_sharing(self):
        scheduler = self._run()
        assert scheduler.stats.predicate_evaluations > 0
        isolated = ConcurrentQueryScheduler(enable_sharing=False)
        isolated.add_query(EXFIL_READ, name="read")
        isolated.add_query(EXFIL_SEND, name="send")
        isolated.execute(ListStream(_db_events(64), presorted=True),
                         batch_size=32)
        # Even with group sharing disabled, structurally equal predicates
        # across the isolated groups are interned and evaluated once.
        assert isolated.stats.predicate_evaluations_saved > 0

    def test_closure_batches_report_no_columnar_work(self):
        scheduler = self._run(batch_size=DEFAULT_COLUMNAR_MIN_BATCH - 1)
        assert scheduler.stats.column_blocks_built == 0
        assert scheduler.stats.predicate_evaluations == 0
        assert scheduler.stats.distinct_predicates == 0
        assert scheduler.stats.predicate_sharing == {}


class TestDynamicPlanInvalidation:
    def test_registration_mid_stream_extends_the_index(self):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        scheduler.process_events(_db_events(32))
        before = scheduler.distinct_predicate_count()
        scheduler.add_query(CLIENT_QUERY, name="client")
        after = scheduler.distinct_predicate_count()
        assert after > before
        alerts = scheduler.process_events(_db_events(32))
        assert alerts

    def test_remove_query_by_name_releases_predicates(self):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        scheduler.add_query(CLIENT_QUERY, name="client")
        baseline = scheduler.distinct_predicate_count()
        removed = scheduler.remove_query("client")
        assert removed.name == "client"
        assert scheduler.stats.queries == 1
        assert scheduler.distinct_predicate_count() < baseline
        assert scheduler.process_events(_db_events(32))

    def test_remove_unknown_query_raises(self):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        with pytest.raises(KeyError):
            scheduler.remove_query("nope")

    def test_remove_master_promotes_dependent(self):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        scheduler.add_query(EXFIL_SEND, name="send")
        assert scheduler.stats.groups == 1
        events = _db_events(32)
        scheduler.process_events(events[:16])
        scheduler.remove_query("read")
        assert scheduler.stats.queries == 1
        assert scheduler.stats.groups == 1
        # The promoted group keeps matching (and keeps its shared buffer).
        alerts = scheduler.process_events(events[16:])
        assert any(a.query_name == "send" for a in alerts)

    def test_removal_matches_fresh_scheduler(self):
        """Post-removal behaviour equals never having added the query."""
        events = jittered_events(9, count=200)
        cut = len(events) // 2

        mutated = ConcurrentQueryScheduler()
        mutated.add_query(EXFIL_READ, name="read")
        mutated.add_query(CLIENT_QUERY, name="client")
        mutated.process_events(events[:cut])
        mutated.remove_query("read")
        mutated.process_events(events[cut:])
        mutated.finish()

        fresh = ConcurrentQueryScheduler()
        fresh.add_query(CLIENT_QUERY, name="client")
        fresh.process_events(events[:cut])
        fresh.process_events(events[cut:])
        fresh.finish()

        mutated_client = next(e for e in mutated.engines
                              if e.name == "client")
        fresh_client = next(e for e in fresh.engines if e.name == "client")
        assert (_fingerprints(mutated_client.alerts)
                == _fingerprints(fresh_client.alerts))

    def test_re_adding_after_removal_reuses_interned_atoms(self):
        scheduler = ConcurrentQueryScheduler()
        scheduler.add_query(EXFIL_READ, name="read")
        first = scheduler.distinct_predicate_count()
        scheduler.remove_query("read")
        assert scheduler.distinct_predicate_count() == 0
        scheduler.add_query(EXFIL_READ, name="read-again")
        assert scheduler.distinct_predicate_count() == first
        assert scheduler.process_events(_db_events(32))
