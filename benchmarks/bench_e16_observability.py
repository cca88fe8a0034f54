"""E16 — observability overhead: the metrics layer must be (nearly) free.

PR 10 threads one :class:`repro.obs.MetricRegistry` through the whole
pipeline — batch timers, per-stage histograms, per-query alert counters,
watermark-lag gauges — and the design bet is that a handful of
``perf_counter`` reads per *batch* (never per event) keeps the cost in
the noise.  This experiment prices that bet on one workload (the E4
query triple deployed host-by-host, 24 queries over a 16-host enterprise
stream, batch 512): the same stream is executed with metrics enabled
(the default) and with a disabled registry (every hook a no-op, clock
reads skipped), interleaved best-of-N per arm so machine drift hits both
arms equally.

Acceptance: the enabled arm keeps >= 95% of the disabled arm's
events/second (<= 5% overhead).  The ratio assertion only fires on
full-sized streams (``SAQL_BENCH_SCALE >= 1``) — CI's smoke run still
validates dispatch, alert parity between the arms, and that the enabled
run actually populated the key metric families.

Rates land in ``benchmarks/BENCH_e16.json`` via the shared conftest
hook, with the overhead percentage under ``"arms"`` so the trajectory
file answers "what does observability cost" by itself.
"""

import time

import pytest

from benchmarks.bench_e8_sharded_scaling import _fingerprints
from benchmarks.conftest import (bench_scale, fresh_stream, print_table,
                                 record_rate)
from repro.collection import Enterprise, EnterpriseConfig
from repro.core import ConcurrentQueryScheduler
from repro.obs import MetricRegistry
from repro.queries.demo_queries import (outlier_exfiltration,
                                        rule_c5_data_exfiltration,
                                        timeseries_network_spike)

#: Query count for both arms (past the predicate-sharing knee).
QUERY_COUNT = 24
#: Events per ingest batch.
BATCH_SIZE = 512
#: Hosts the queries watch, out of the stream's 16.
WATCHED_HOSTS = 8
#: Timed repeats per arm; arms are interleaved and the best rate kept.
REPEATS = 3
#: Full-scale acceptance bar: metrics-on keeps >= 95% of metrics-off.
MAX_OVERHEAD_PCT = 5.0

#: Histogram families the enabled arm must populate on this workload.
EXPECTED_FAMILIES = ("saql_events_total", "saql_batches_total",
                     "saql_batch_seconds", "saql_stage_seconds",
                     "saql_query_batch_seconds")


@pytest.fixture(scope="module")
def wide_enterprise():
    """Sixteen hosts; the arm watches 8, so global filters stay selective."""
    return Enterprise(EnterpriseConfig(seed=7, extra_desktops=9,
                                       extra_web_servers=3))


@pytest.fixture(scope="module")
def wide_events(wide_enterprise):
    """Thirty minutes of background events across all 16 hosts."""
    return wide_enterprise.background_events(0.0, 1800.0 * bench_scale())


def _workload_arm(hosts, count):
    """``count`` queries: equal thirds of the E4 triple over ``hosts``.

    Kind-major assignment (all rule-C5 slots first, then timeseries, then
    outlier) keeps exactly one third of each query kind.
    """
    queries = []
    per_kind = count // 3
    for index in range(count):
        kind = min(index // per_kind, 2)
        host = hosts[index % len(hosts)]
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


def _timed_run(queries, events, enabled):
    """One execution; returns (rate, alerts, snapshot-or-None)."""
    scheduler = ConcurrentQueryScheduler(
        metrics=MetricRegistry(enabled=enabled))
    for name, text in queries:
        scheduler.add_query(text, name=name)
    stream = fresh_stream(events)
    started = time.perf_counter()
    alerts = scheduler.execute(stream, batch_size=BATCH_SIZE)
    elapsed = time.perf_counter() - started
    rate = len(events) / elapsed if elapsed > 0 else float("inf")
    return rate, alerts, scheduler.metrics_snapshot()


def test_e16_observability_overhead(benchmark, wide_events,
                                    wide_enterprise):
    """Events/second with the registry enabled vs disabled."""
    queries = _workload_arm(wide_enterprise.hosts[:WATCHED_HOSTS],
                            QUERY_COUNT)
    full_scale = bench_scale() >= 1.0

    best = {True: 0.0, False: 0.0}
    alerts = {}
    snapshot = None
    # Interleave the arms (off, on, off, on, ...) so clock drift and
    # cache warming hit both arms symmetrically.
    for _ in range(REPEATS):
        for enabled in (False, True):
            rate, run_alerts, run_snapshot = _timed_run(
                queries, wide_events, enabled)
            alerts[enabled] = run_alerts
            if rate > best[enabled]:
                best[enabled] = rate
            if enabled:
                snapshot = run_snapshot

    # Observation must not change behavior: alert-for-alert parity.
    assert _fingerprints(alerts[True]) == _fingerprints(alerts[False])

    # The enabled run really observed the pipeline.
    families = snapshot["families"]
    for name in EXPECTED_FAMILIES:
        assert name in families, name
    assert (families["saql_events_total"]["series"][0]["value"]
            == len(wide_events))
    stages = {entry["labels"]["stage"]
              for entry in families["saql_stage_seconds"]["series"]}
    assert {"columnar_pivot", "predicate_eval", "pattern_match"} <= stages

    overhead_pct = (1.0 - best[True] / best[False]) * 100.0
    record_rate("e16", "metrics-off", best[False],
                queries=QUERY_COUNT, metrics="disabled")
    record_rate("e16", "metrics-on", best[True],
                queries=QUERY_COUNT, metrics="enabled",
                overhead_pct=round(overhead_pct, 2),
                max_overhead_pct=MAX_OVERHEAD_PCT)

    print_table(
        "E16: observability overhead "
        f"({len(wide_events)} events, {QUERY_COUNT} queries, "
        f"batch={BATCH_SIZE})",
        ("arm", "events/s", "overhead"),
        [("metrics off", f"{best[False]:,.0f}", "--"),
         ("metrics on", f"{best[True]:,.0f}", f"{overhead_pct:.1f}%")])

    if full_scale:
        assert overhead_pct <= MAX_OVERHEAD_PCT, (
            f"metrics overhead {overhead_pct:.1f}% exceeds "
            f"{MAX_OVERHEAD_PCT}%")

    benchmark.pedantic(
        lambda: _timed_run(queries, wide_events, True),
        rounds=1, iterations=1)
