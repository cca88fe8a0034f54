"""Names, units and directions of every metric, and the workload list.

``BENCHMARK.json`` at the repository root states the same catalogue for
the driver; ``perfbench/tests/test_smoke.py`` checks the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: workload -> the one-line reason it exists.
WORKLOADS: Dict[str, str] = {
    "many-query-batch":
        "56 selective queries sharing predicates on one feed: time is "
        "core.compile (pivot, shared predicate index) + core.scheduler; "
        "engine state work, storage and service are bypassed",
    "window-heavy-batch":
        "6 unpinned stateful queries where every event matches and nothing "
        "is shared: time is core.engine (accumulators, pane merges, window "
        "close); a columnar/sharing gain must show no change here",
    "sharded-batch":
        "many-query-batch's queries on ShardedScheduler(shards=2, process): "
        "isolates core.parallel routing, per-event pickle transport, shard "
        "skew and alert merge",
    "wire-open-loop":
        "saql serve subprocess fed pipelined ingest_batch lines on a fixed "
        "schedule at 8k (twice) and 32k ev/s: the only workload where decode, "
        "transport, queue, pump and sinks work and queue wait is real",
    "store-replay-resume":
        "EventDatabase append+seal, StreamReplayer scan into a "
        "diff-checkpointing scheduler, then five abandon/recover cycles: "
        "writes beside reads on storage, plus core.snapshot",
}

#: (name, unit, better, bound): every workload reports every one of these
#: from an untraced run.  The bound is the share of the parent's median by
#: which the metric may worsen before a change is rejected.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("alert_latency_p50_ms", "ms", "lower", 0.25),
    ("alert_latency_p99_ms", "ms", "lower", 0.25),
    ("query_register_ms", "ms", "lower", 0.25),
    ("recovery_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better): per-layer metrics of the traced run; the layer is
#: the module name before the first dot.  A workload that bypasses a layer
#: reports 0 for it.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("events.encode_eps", "1/s", "higher"),
    ("events.decode_eps", "1/s", "higher"),
    ("events.bytes_per_event", "B", "lower"),
    ("language.parse_ms", "ms", "lower"),
    ("compile.compile_ms", "ms", "lower"),
    ("compile.pivot_s", "s", "lower"),
    ("compile.predicate_eval_s", "s", "lower"),
    ("compile.predicate_evaluations", "count", "lower"),
    ("compile.predicate_evaluations_saved", "count", "higher"),
    ("compile.sharing_ratio", "ratio", "higher"),
    ("compile.distinct_predicates", "count", "lower"),
    ("engine.pattern_match_s", "s", "lower"),
    ("engine.window_close_s", "s", "lower"),
    ("engine.matches", "count", "lower"),
    ("engine.windows_closed", "count", "lower"),
    ("engine.peak_buffered_matches", "count", "lower"),
    ("engine.alerts", "count", "higher"),
    ("scheduler.process_events_s", "s", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("scheduler.batches", "count", "lower"),
    ("scheduler.batch_ms_p50", "ms", "lower"),
    ("scheduler.batch_ms_p99", "ms", "lower"),
    ("scheduler.add_query_ms", "ms", "lower"),
    ("scheduler.remove_query_ms", "ms", "lower"),
    ("parallel.execute_s", "s", "lower"),
    ("parallel.max_shard_share", "ratio", "lower"),
    ("parallel.single_lane_queries", "count", "lower"),
    ("parallel.pickle_bytes_per_event", "B", "lower"),
    ("parallel.pickle_roundtrip_us_per_event", "us", "lower"),
    ("parallel.finish_merge_s", "s", "lower"),
    ("parallel.speedup_vs_single", "ratio", "higher"),
    ("snapshot.export_state_ms", "ms", "lower"),
    ("snapshot.restore_state_ms", "ms", "lower"),
    ("snapshot.state_bytes", "B", "lower"),
    ("storage.append_eps", "1/s", "higher"),
    ("storage.seal_s", "s", "lower"),
    ("storage.scan_eps", "1/s", "higher"),
    ("storage.seek_rows_read", "count", "lower"),
    ("storage.segments_pruned", "count", "higher"),
    ("storage.segment_bytes_per_event", "B", "lower"),
    ("storage.compact_s", "s", "lower"),
    ("storage.checkpoint_write_ms_p50", "ms", "lower"),
    ("storage.checkpoint_bytes_per_record", "B", "lower"),
    ("storage.checkpoint_delta_fallbacks", "count", "lower"),
    ("transport.ack_ms_p50", "ms", "lower"),
    ("transport.ack_ms_p99", "ms", "lower"),
    ("transport.bytes_in", "B", "lower"),
    ("transport.requests_failed", "count", "lower"),
    ("queue.high_water", "count", "lower"),
    ("queue.blocked_seconds", "s", "lower"),
    ("queue.shed", "count", "lower"),
    ("queue.depth_end", "count", "lower"),
    ("server.pump_batch_s", "s", "lower"),
    ("server.pump_batches", "count", "lower"),
    ("server.batch_fill", "ratio", "higher"),
    ("server.drain_s", "s", "lower"),
    ("server.ready_s", "s", "lower"),
    ("sinks.delivery_ms_p50", "ms", "lower"),
    ("sinks.delivery_ms_p99", "ms", "lower"),
    ("sinks.retries", "count", "lower"),
    ("sinks.dead_letters", "count", "lower"),
    ("sinks.lag_end", "count", "lower"),
    ("obs.scrape_ms", "ms", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("loadgen.late_ms_max", "ms", "lower"),
    ("loadgen.offered_eps", "1/s", "higher"),
    ("loadgen.sustainable_rate_eps", "1/s", "higher"),
]

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
