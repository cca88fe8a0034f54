"""Seeded inputs: the ``S-enterprise`` stream and each workload's query set.

Everything the program under test receives is built here from ``--seed``:
the same seed gives the same events and the same queries.  The program
only ever sees the generated events.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple

from repro.attack import APTScenario
from repro.collection import Enterprise, EnterpriseConfig
from repro.events.entities import FileEntity, ProcessEntity
from repro.events.event import Event, Operation
from repro.queries.demo_queries import (DEMO_QUERIES, invariant_excel_children,
                                        outlier_exfiltration,
                                        rule_c5_data_exfiltration,
                                        timeseries_network_spike)

#: Events the 16-host enterprise emits per second of stream time at its
#: natural rates (measured; only used to size the generated duration).
EVENTS_PER_STREAM_SECOND = 13.0
#: Hosts the pinned query mixes watch (of the 16 in the stream).
WATCHED_HOSTS = 8
#: One event in this many of the service's stream is a canary.
CANARY_EVERY = 16
CANARY_EXE = "perfbench-canary.exe"

Query = Tuple[str, str]


def enterprise_stream(seed: int, count: int) -> Tuple[List[Event], List[str]]:
    """Exactly ``count`` events of ``S-enterprise`` and its host names.

    Sixteen hosts at their natural op mix (~50% read / 49% write / 1.6%
    start, ~2.4:1 host skew) with the five-step APT attack injected at
    the midpoint.  The duration is sized for ``count`` events with head
    room and the tail is cut, so every seed yields the same event count.
    """
    enterprise = Enterprise(EnterpriseConfig(seed=seed, extra_desktops=9,
                                             extra_web_servers=3))
    nominal = count / EVENTS_PER_STREAM_SECOND
    attack = APTScenario(start_time=nominal / 2)
    events = list(enterprise.event_feed(0.0, nominal * 1.1,
                                        injected=attack.events()))
    if len(events) < count:
        raise RuntimeError(f"stream generator produced {len(events)} events, "
                           f"fewer than the {count} requested")
    del events[count:]
    return events, enterprise.hosts


def kind_mix(hosts: Sequence[str], per_kind: int) -> List[Query]:
    """E12's kind mix: equal thirds of rule/time-series/outlier queries
    pinned round-robin over ``hosts`` (selective, structurally repetitive
    predicates, so the shared predicate index does the work)."""
    queries: List[Query] = []
    for index in range(3 * per_kind):
        host = hosts[index % len(hosts)]
        kind = index // per_kind
        if kind == 0:
            text = rule_c5_data_exfiltration(agent=host)
        elif kind == 1:
            text = timeseries_network_spike(floor_bytes=500000 + index,
                                            agent=host)
        else:
            text = outlier_exfiltration(floor_bytes=5000000 + index,
                                        agent=host)
        queries.append((f"q{index:02d}-{host}", text))
    return queries


def many_queries(hosts: Sequence[str]) -> List[Query]:
    """56 queries: the 48-query kind mix plus the 8 demo queries."""
    return (kind_mix(hosts[:WATCHED_HOSTS], 16)
            + [(name, text) for name, text in DEMO_QUERIES.items()])


def window_queries() -> List[Query]:
    """Six unpinned stateful queries in which every event matches and no
    predicate is shared, so the time goes to matching, accumulators, pane
    merges and window close."""
    unpinned_invariant = invariant_excel_children().replace(
        'agentid = "client-01"\n', "")
    return [
        ("w-sliding-stats", '''
proc p read || write file f as evt #time(10 min, 1 min)
state ss {
  total := sum(evt.amount), mean := avg(evt.amount),
  sd := stddev(evt.amount), hi := max(evt.amount)
} group by evt.agentid, p.exe_name
alert ss.total > 0
return evt.agentid, p.exe_name, ss.total, ss.mean, ss.sd, ss.hi'''),
        ("w-sliding-dst", '''
proc p read || write ip i as evt #time(10 min, 1 min)
state ss {
  total := sum(evt.amount), n := count(evt.amount),
  med := median(evt.amount)
} group by i.dstip
alert ss.n > 0
return i.dstip, ss.total, ss.n, ss.med'''),
        ("w-history", '''
proc p write file f as evt #time(5 min)
state[3] ss { mean := avg(evt.amount) } group by p.exe_name
alert ss[0].mean > 0
return p.exe_name, ss[0].mean, ss[1].mean, ss[2].mean'''),
        ("w-tumbling-set", '''
proc p read || write file f as evt #time(1 min)
state ss { files := set(f.name), n := count(evt.amount) } group by evt.agentid
alert ss.n > 0
return evt.agentid, ss.n'''),
        ("w-percentile", '''
proc p read || write file f as evt #time(5 min, 1 min)
state ss { p95 := percentile(evt.amount, 95) } group by evt.agentid
alert ss.p95 > 0
return evt.agentid, ss.p95'''),
        ("w-invariant", unpinned_invariant),
    ]


def wire_queries(hosts: Sequence[str]) -> List[Query]:
    """27 service queries: the 24-query kind mix, the single-event rule
    that alerts on every canary (the supply of rule alerts) and two
    one-second tumbling volume queries (the supply of window alerts)."""
    return kind_mix(hosts[:WATCHED_HOSTS], 8) + [
        ("rule-canary", f'''
proc p["%{CANARY_EXE}"] write file f as evt
return p, f, evt.amount'''),
        ("volume-by-host", '''
proc p read || write ip i as evt #time(1 s)
state ss { total := sum(evt.amount), n := count(evt.amount) } group by evt.agentid
alert ss.n > 0
return evt.agentid, ss.total, ss.n'''),
        ("volume-by-proc", '''
proc p read || write file f as evt #time(1 s)
state ss { total := sum(evt.amount), n := count(evt.amount) } group by p
alert ss.n > 0
return p, ss.total, ss.n'''),
    ]


def with_canaries(events: Sequence[Event]) -> List[Event]:
    """``events`` with a canary after every 15th, cut back to the same
    length: a write by ``perfbench-canary.exe`` on the host of the event
    before it, which ``rule-canary`` alerts on.

    The canaries are evenly spaced, so the alert latency sample reads the
    service's delay at a fixed stride of the send schedule whatever the
    seed.  A rule on the stream's own events alerts in clusters, and the
    99th percentile then moves with how many alerts happen to fall into the
    service's longest stall: over ten plays it spread 18% (quartile
    distance over median) against 11% with canaries.
    """
    mixed: List[Event] = []
    for index, event in enumerate(events, 1):
        mixed.append(event)
        if index % (CANARY_EVERY - 1) == 0:
            host = event.agentid
            mixed.append(Event(
                subject=ProcessEntity.make(CANARY_EXE, 4242, host=host),
                operation=Operation.WRITE,
                obj=FileEntity.make("/var/run/perfbench-canary.beat",
                                    host=host),
                timestamp=event.timestamp, agentid=host, amount=1.0))
    del mixed[len(events):]
    return mixed


#: A query no event of the stream satisfies: the registration probe.
PROBE_QUERY = '''
agentid = "no-such-host"
proc p["%perfbench-probe.exe"] start proc c as evt
return p, c'''


def retime(events: Sequence[Event], rate: float) -> List[Event]:
    """Copies of ``events`` whose event time is a ``rate`` events/second
    send schedule (event ``i`` at ``i / rate``), so a window's end maps to
    the position — and due send time — of the event that closes it."""
    return [replace(event, timestamp=index / rate)
            for index, event in enumerate(events)]
