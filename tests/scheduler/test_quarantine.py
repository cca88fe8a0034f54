"""Query fault isolation: the quarantine circuit-breaker.

One repeatedly-raising query must not take the stream down (nor poison
the queries sharing its compatibility group): with ``quarantine_errors``
configured, its fatal errors are charged against a budget and the query
is removed from dispatch once the budget is spent — visible in
``SchedulerStats.quarantined`` and the scheduler's ``quarantined``
detail map — while every other query keeps alerting.  Re-registering
the query re-arms its breaker.  Without a budget the guard re-raises:
the original error aborts the batch, on both batch shapes.
"""

from __future__ import annotations

import pytest

from repro.core import ConcurrentQueryScheduler
from repro.core.engine.error_reporter import ErrorReporter
from repro.core.parallel import ShardedScheduler
from repro.core.scheduler.concurrent import DEFAULT_COLUMNAR_MIN_BATCH
from repro.events.entities import NetworkEntity, ProcessEntity
from repro.events.event import Event, Operation
from repro.testing import FaultPlan, FaultSpec
from repro.testing.faults import InjectedCrash

HOSTS = [f"host-{n}" for n in range(4)]

GOOD = ('proc p send ip i as evt #time(10)\n'
        'state ss { t := sum(evt.amount) } group by evt.agentid\n'
        'alert ss.t > 0\nreturn ss.t')
#: Same shape (and compatibility signature) as GOOD, so both queries
#: share one group — isolation must hold *within* a group.
BROKEN = ('proc p send ip i as evt #time(10)\n'
          'state ss { n := count(evt.amount) } group by evt.agentid\n'
          'alert ss.n > 0\nreturn ss.n')


def _event(host, timestamp):
    return Event(
        subject=ProcessEntity.make("x.exe", pid=1, host=host),
        operation=Operation.SEND,
        obj=NetworkEntity.make("10.0.1.2", "10.0.0.9", srcport=5,
                               dstport=443),
        timestamp=timestamp, agentid=host, amount=50.0)


def make_events(count=600):
    return [_event(HOSTS[position % len(HOSTS)], position * 0.1)
            for position in range(count)]


def _poisoned_scheduler(budget=3, **kwargs):
    scheduler = ConcurrentQueryScheduler(quarantine_errors=budget, **kwargs)
    scheduler.add_query(GOOD, name="good")
    scheduler.add_query(BROKEN, name="broken")
    FaultPlan([FaultSpec("query-error", query="broken")]).install(
        scheduler, position=0)
    return scheduler


def test_raising_query_is_quarantined_and_siblings_keep_alerting():
    scheduler = _poisoned_scheduler(budget=3)
    alerts = []
    for start in range(0, 600, 50):
        alerts.extend(scheduler.process_events(make_events()[start:start + 50]))
    alerts.extend(scheduler.finish())
    # The healthy co-grouped query alerted; the broken one never did.
    assert any(alert.query_name == "good" for alert in alerts)
    assert not any(alert.query_name == "broken" for alert in alerts)
    # Breaker state is visible to operators.
    assert "broken" in scheduler.quarantined
    detail = scheduler.quarantined["broken"]
    assert detail["errors"] >= 3
    assert "injected query-error" in detail["last_error"]
    assert scheduler.stats.quarantined.get("broken", 0) >= 3
    assert scheduler.stats.quarantined_queries == 1
    # The budget bounds the damage: the breaker tripped at ~3 fatal
    # errors instead of charging one per batch forever.
    assert scheduler.error_reporter.fatal_count("broken") <= 4
    assert scheduler.error_reporter.fatal_count("good") == 0


def test_without_budget_the_failure_stays_fatal():
    scheduler = ConcurrentQueryScheduler()
    scheduler.add_query(GOOD, name="good")
    scheduler.add_query(BROKEN, name="broken")
    FaultPlan([FaultSpec("query-error", query="broken")]).install(
        scheduler, position=0)
    with pytest.raises(Exception):
        for start in range(0, 200, 50):
            scheduler.process_events(make_events()[start:start + 50])


#: A query in a group of its own (its window differs from GOOD's) with a
#: subject constraint no other query shares.
LONER = ('proc p["%x.exe"] send ip i as evt #time(20)\n'
         'state ss { n := count(evt.amount) } group by evt.agentid\n'
         'alert ss.n > 0\nreturn ss.n')

#: Where the poisoned query sits: alone in its group, or as the master
#: of GOOD's group (GOOD then reuses its pattern matches, and must fall
#: back to its own compiled pattern when the master's side raises).
PLACEMENTS = {"own-group": LONER, "group-master": BROKEN}

#: (poison, batch size): the closure path runs compiled closures, the
#: columnar path predicate atoms; both run process_match_batch.
SMALL, LARGE = DEFAULT_COLUMNAR_MIN_BATCH // 2, 4 * DEFAULT_COLUMNAR_MIN_BATCH
POISONS = [("closure", SMALL), ("match-batch", SMALL),
           ("predicate", LARGE), ("match-batch", LARGE)]


class PoisonedClosure(RuntimeError):
    """What a poisoned closure or predicate raises."""


def _raise_poisoned(*_args):
    raise PoisonedClosure("poisoned closure")


def _poisoned_master(budget, poison, placement="own-group"):
    """A poisoned query named "broken", registered first, plus GOOD.

    Returns the scheduler and the exception type the poison raises.
    """
    scheduler = ConcurrentQueryScheduler(quarantine_errors=budget)
    engine = scheduler.add_query(PLACEMENTS[placement], name="broken")
    scheduler.add_query(GOOD, name="good")
    if poison == "match-batch":
        FaultPlan([FaultSpec("query-error", query="broken")]).install(
            scheduler, position=0)
        return scheduler, InjectedCrash
    if poison == "closure":
        compiled_set = engine.matcher.pattern_matcher.compiled_patterns
        for compiled in compiled_set.patterns:
            compiled._subject_ok = _raise_poisoned
    else:
        scheduler.distinct_predicate_count()  # builds the columnar plans
        group = next(group for group in scheduler.groups
                     if group.master is engine)
        for pattern_plan in group.columnar_plan.master:
            for atom in pattern_plan.atoms:
                if atom.refcount == 1:  # subscribed by "broken" alone
                    atom.check = _raise_poisoned
    return scheduler, PoisonedClosure


@pytest.mark.parametrize("poison,batch_size", POISONS)
def test_without_budget_the_original_error_propagates(poison, batch_size):
    scheduler, error = _poisoned_master(None, poison)
    with pytest.raises(error):
        scheduler.process_events(make_events()[:batch_size])
    assert scheduler.error_reporter.fatal_count("broken") == 0


@pytest.mark.parametrize("poison", ["closure", "match-batch"])
def test_without_budget_process_event_raises(poison):
    scheduler, error = _poisoned_master(None, poison)
    with pytest.raises(error):
        scheduler.process_event(make_events()[0])


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("poison,batch_size", POISONS)
def test_budget_quarantines_the_poisoned_query(poison, batch_size,
                                               placement):
    scheduler, _ = _poisoned_master(3, poison, placement)
    events = make_events()
    alerts = []
    for start in range(0, len(events), batch_size):
        alerts.extend(scheduler.process_events(
            events[start:start + batch_size]))
    alerts.extend(scheduler.finish())
    assert "broken" in scheduler.quarantined
    assert scheduler.stats.quarantined["broken"] >= 3
    assert not any(alert.query_name == "broken" for alert in alerts)
    # The healthy query's alerts equal a fault-free run of it alone.
    oracle = ConcurrentQueryScheduler()
    oracle.add_query(GOOD, name="good")
    expected = oracle.execute(iter(events), batch_size=batch_size)
    good = [alert for alert in alerts if alert.query_name == "good"]
    assert [(a.timestamp, a.data) for a in good] == \
        [(a.timestamp, a.data) for a in expected]


def test_reregistering_rearms_the_breaker():
    scheduler = _poisoned_scheduler(budget=2)
    scheduler.process_events(make_events()[:100])
    scheduler.process_events(make_events()[100:200])
    assert "broken" in scheduler.quarantined
    # Re-adding the query (a fixed closure, here simply un-poisoned)
    # re-arms its breaker and it alerts again.
    scheduler.add_query(BROKEN, name="broken")
    assert "broken" not in scheduler.quarantined
    assert "broken" not in scheduler.stats.quarantined
    alerts = scheduler.process_events(make_events()[200:400])
    alerts.extend(scheduler.finish())
    assert any(alert.query_name == "broken" for alert in alerts)


def test_error_reporter_per_query_accounting():
    reporter = ErrorReporter(max_records=2)
    for position in range(5):
        reporter.report("q1", RuntimeError(f"boom {position}"),
                        timestamp=float(position), fatal=position % 2 == 0)
    reporter.report("q2", ValueError("bad"), timestamp=1.0)
    # Counters survive record truncation.
    assert len(reporter.records) == 2 and reporter.dropped == 4
    assert reporter.count("q1") == 5
    assert reporter.fatal_count("q1") == 3
    assert reporter.counts() == {"q1": 5, "q2": 1}
    assert reporter.last_error("q1").message == "boom 4"
    rows = reporter.per_query()
    assert [row["query"] for row in rows] == ["q1", "q2"]
    assert rows[0]["errors_per_second"] == pytest.approx(5 / 4.0)
    assert rows[0]["first_timestamp"] == 0.0
    assert rows[0]["last_timestamp"] == 4.0
    reporter.clear_query("q1")
    assert reporter.count("q1") == 0
    assert reporter.count("q2") == 1


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_sharded_run_quarantines_without_affecting_other_queries(backend):
    plan = FaultPlan([FaultSpec("query-error", query="broken")])
    scheduler = ShardedScheduler(shards=2, backend=backend, batch_size=64,
                                 quarantine_errors=2, fault_plan=plan)
    scheduler.add_query(GOOD, name="good")
    scheduler.add_query(BROKEN, name="broken")
    alerts = scheduler.execute(iter(make_events()))
    assert any(alert.query_name == "good" for alert in alerts)
    assert not any(alert.query_name == "broken" for alert in alerts)
    # merge_stats surfaces the worst per-lane quarantine count.
    assert scheduler.stats.quarantined.get("broken", 0) >= 2
    assert scheduler.stats.quarantined_queries == 1

    # A fault-free oracle agrees on the healthy query's alerts.
    oracle = ShardedScheduler(shards=2, backend="serial", batch_size=64)
    oracle.add_query(GOOD, name="good")
    expected = oracle.execute(iter(make_events()))
    good = [alert for alert in alerts if alert.query_name == "good"]
    assert [(a.timestamp, a.data) for a in good] == \
        [(a.timestamp, a.data) for a in expected]
