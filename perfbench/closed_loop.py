"""The four closed-loop workloads: one runner, four configurations.

Closed loop: the runtime pulls its next batch only when it is done with
the previous one, so the load follows the program's speed and the result
is work completed per second at a stated input size.  Each workload
repeats full passes over its seeded stream until ``--seconds`` is used up
and reports the median pass, so a run measures several times the work of
one pass.

All four go through the same public call, ``runtime.execute(stream,
batch_size=512)``.  The stream is a :class:`StampedStream`, which reads
the clock each time the runtime asks for the next 512-event chunk; the
interval between two asks is the time the runtime held a batch (pull +
``process_events``), which is the soonest any alert enabled by an event of
that batch can be back in the caller's hands.
"""

from __future__ import annotations

import gc
import json
import pickle
import shutil
import statistics
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Tuple)

from repro.core import ConcurrentQueryScheduler, parse_query
from repro.core.compile.plan import compile_query
from repro.core.parallel import ShardedScheduler
from repro.core.parallel.sharded import shard_index
from repro.core.snapshot.recovery import recover_and_resume, resume_events
from repro.events.event import Event
from repro.events.serialization import event_from_dict, event_to_dict
from repro.events.stream import EventStream
from repro.storage import CheckpointStore, EventDatabase, StreamReplayer

from perfbench import inputs as gen
from perfbench import oracle
from perfbench.measure import (children_peak_rss_mb, live, percentile,
                               rss_mb, stage)
from perfbench.trace import Tracer

BATCH_SIZE = 512
#: Share of the stream the untimed warm-up pass covers.
WARMUP_SHARE = 0.05
#: Recoveries per run (the median is reported).
RECOVERIES = 5
#: Checkpoints per stream in checkpointed runs.
CHECKPOINTS_PER_STREAM = 4
#: Events the AST interpreter re-executes per run (56 queries cost ~0.17 ms
#: per event there, so this is what fits the driver's run-time cap).
VERIFY_EVENTS = 16000
#: Chunks between resident-set samples.
RSS_SAMPLE_CHUNKS = 16
#: Events sampled for the serialisation and pickle micro-measurements.
CODEC_SAMPLE = 4096


@dataclass
class SpanContext:
    """Where a traced stream records its per-batch spans."""

    tracer: Tracer
    root: int
    label: str
    pull_span: str
    batch_span: str


class StampedStream(EventStream):
    """Feeds ``source`` in ``BATCH_SIZE`` chunks and stamps the clock when
    the runtime asks for a chunk (``asked``) and when it is ready to be
    handed over (``ready``).  With ``limit`` the stream ends once it has fed
    that many events: the run is then thrown away, and all that survives
    it is its last periodic checkpoint, as after a crash
    (an exception would model the crash more literally, but the sharded
    runtime's abort path leaves queue feeder threads that block interpreter
    exit).  With ``spans`` the stream records a span per pull and per batch
    as it goes.
    """

    def __init__(self, source: Iterable[Event], limit: Optional[int] = None,
                 spans: Optional[SpanContext] = None):
        self._source = source
        self._limit = limit
        self._spans = spans
        self.asked: List[float] = []
        self.ready: List[float] = []
        self.fed = 0
        self.peak_rss_mb = 0.0

    def __iter__(self) -> Iterator[Event]:
        return self._feed(iter(self._source))

    def events_from_cursor(self, cursor) -> Iterator[Event]:
        """The seek path of ``resume_events``: delegate to the source (an
        index seek for a replayer, a filter for a list) and keep stamping."""
        return self._feed(iter(resume_events(self._source, cursor)))

    def _feed(self, iterator: Iterator[Event]) -> Iterator[Event]:
        spans = self._spans
        chunks = 0
        while True:
            asked = perf_counter()
            chunk = list(islice(iterator, BATCH_SIZE))
            ready = perf_counter()
            if spans is not None:
                if chunks:
                    spans.tracer.add(
                        spans.batch_span, self.ready[-1], asked,
                        parent=spans.root,
                        trace=f"{spans.label}/batch-{chunks - 1}")
                spans.tracer.add(spans.pull_span, asked, ready,
                                 parent=spans.root,
                                 trace=f"{spans.label}/batch-{chunks}")
            self.asked.append(asked)
            self.ready.append(ready)
            if chunks % RSS_SAMPLE_CHUNKS == 0 or not chunk:
                self.peak_rss_mb = max(self.peak_rss_mb, rss_mb())
            if not chunk or (self._limit is not None
                             and self.fed >= self._limit):
                return
            chunks += 1
            self.fed += len(chunk)
            yield from chunk

    def held(self) -> List[float]:
        """Seconds the runtime held each batch: ask to next ask."""
        return [later - earlier
                for earlier, later in zip(self.asked, self.asked[1:])]

    def inside(self) -> float:
        """Seconds spent inside the runtime between pulls, summed."""
        return sum(asked - ready
                   for ready, asked in zip(self.ready, self.asked[1:]))

    def pulling(self) -> float:
        """Seconds spent producing chunks (scan + decode for a store)."""
        return sum(ready - asked
                   for asked, ready in zip(self.asked, self.ready))


class Journal:
    """Where a pass's events live.  The in-memory journal is the event
    list itself; :class:`StoreJournal` is a segment store on disk."""

    def __init__(self, events: List[Event]):
        self._events = events

    def open(self) -> Iterable[Event]:
        """A fresh view of the events, as a (re)started run opens them."""
        return self._events

    def rows_read(self) -> int:
        """Rows the storage layer has read through this journal's views."""
        return 0

    def segments_pruned(self) -> int:
        return 0

    def close(self) -> None:
        pass


class StoreJournal(Journal):
    """Events persisted in an ``EventDatabase`` directory; every ``open``
    re-opens the store, as a restarted process would."""

    def __init__(self, directory: Path):
        self._directory = directory
        self._databases: List[EventDatabase] = []

    def open(self) -> Iterable[Event]:
        self._databases.append(EventDatabase.open(self._directory))
        return StreamReplayer(self._databases[-1])

    def rows_read(self) -> int:
        return sum(database.store.stats().rows_read
                   for database in self._databases)

    def segments_pruned(self) -> int:
        return sum(database.store.stats().segments_pruned
                   for database in self._databases)

    def close(self) -> None:
        for database in self._databases:
            database.close()


@dataclass
class Inputs:
    """One set-up's product: what a pass feeds the program."""

    events: List[Event]
    queries: List[gen.Query]


@dataclass
class PassResult:
    events: int
    start: float
    end: float
    ingest_s: float
    stream: StampedStream
    #: The runtime of a traced pass, kept for its counters (a bare pass
    #: lets go of it, so finished runtimes do not pile up in memory).
    runtime: Any
    alerts: List[Any]
    traced: bool
    ingest_info: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.ingest_s + (self.end - self.start)

    @property
    def rate(self) -> float:
        return self.events / self.wall_s


@dataclass
class Outcome:
    """What one workload run reports."""

    workload: str
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    notes: Dict[str, Any]


class ClosedLoopWorkload:
    """A closed-loop workload; subclasses choose queries, size, runtime."""

    name = "direct-batch"
    #: Stream length at ``--scale 1``.
    events_at_scale_1 = 0
    #: Whether the timed pass *is* the direct single-process batch run
    #: (otherwise one is run as the reference the pass must reproduce).
    timed_pass_is_direct = False
    #: Whether the timed pass itself writes checkpoints.
    timed_pass_checkpoints = False
    #: Span names of the per-batch and per-pass boundaries.
    pull_span = "stream.pull"
    batch_span = "scheduler.process_events"
    finish_span = "scheduler.finish"

    # -- configuration hooks -------------------------------------------------

    def queries(self, hosts: List[str]) -> List[gen.Query]:
        raise NotImplementedError

    def make_runtime(self, queries: List[gen.Query], **checkpointing: Any):
        runtime = ConcurrentQueryScheduler(**checkpointing)
        for name, text in queries:
            runtime.add_query(text, name=name)
        return runtime

    def ingest(self, events: List[Event], workdir: Path
               ) -> Tuple[Journal, float, Dict[str, Any]]:
        """Make ``events`` available to a pass; returns (journal, timed
        seconds, counters).  In-memory workloads hand the list over."""
        return Journal(events), 0.0, {}

    def checkpointing(self, events: int, workdir: Path,
                      tracer: Optional[Tracer] = None,
                      parent: Optional[int] = None,
                      label: str = "") -> Dict[str, Any]:
        """Checkpoint arguments of a checkpointed run over ``events``: a
        fresh diff-mode store, whose ``save`` a traced run wraps in a span.
        """
        directory = workdir / "checkpoints"
        shutil.rmtree(directory, ignore_errors=True)
        store = CheckpointStore(directory, mode="diff")
        if tracer is not None:
            save = store.save

            def traced_save(snapshot):
                start = perf_counter()
                path = save(snapshot)
                tracer.add("storage.checkpoint_save", start, perf_counter(),
                           parent=parent, trace=label,
                           bytes=store.last_save["bytes"])
                return path

            store.save = traced_save  # type: ignore[method-assign]
        # More than one batch apart, so a recovery that stops after one
        # batch leaves the latest checkpoint where it was.
        return {"checkpoint_store": store,
                "checkpoint_interval": max(2 * BATCH_SIZE,
                                           events // CHECKPOINTS_PER_STREAM)}

    def children_rss(self) -> float:
        """Peak RSS of child processes of the program under test."""
        return 0.0

    def alert_waits(self, result: PassResult) -> List[float]:
        """Per batch of a pass, the soonest an alert enabled by one of its
        events is in the caller's hands: when the runtime is done with the
        batch, since ``process_events`` returns its alerts."""
        return result.stream.held()

    # -- one pass -------------------------------------------------------------

    def run_pass(self, queries: List[gen.Query], events: List[Event],
                 workdir: Path, tracer: Optional[Tracer] = None,
                 label: str = "") -> PassResult:
        spans = root = None
        if tracer is not None:
            root = tracer.begin(f"{self.name}.pass", perf_counter(),
                                trace=label)
            spans = SpanContext(tracer, root, label, self.pull_span,
                                self.batch_span)
        journal, ingest_s, info = self.ingest(events, workdir)
        registering = perf_counter()
        runtime = self.make_runtime(queries, **(
            self.checkpointing(len(events), workdir, tracer, root, label)
            if self.timed_pass_checkpoints else {}))
        stream = StampedStream(journal.open(), spans=spans)
        start = perf_counter()
        alerts = runtime.execute(stream, batch_size=BATCH_SIZE)
        end = perf_counter()
        journal.close()
        result = PassResult(len(events), start, end, ingest_s, stream,
                            runtime if tracer is not None else None, alerts,
                            tracer is not None, info)
        if tracer is not None:
            self.record_ingest(tracer, root, label, result)
            tracer.add("scheduler.add_queries", registering, start,
                       parent=root, trace=label)
            tracer.add(self.finish_span, stream.ready[-1], end, parent=root,
                       trace=label)
            tracer.finish(root, end, events=len(events),
                          **self.pass_counts(result))
        return result

    def record_ingest(self, tracer: Tracer, root: int, label: str,
                      result: PassResult) -> None:
        """Spans of the ingest phase (none for in-memory journals)."""

    # -- query registration ---------------------------------------------------

    def register_probe(self, queries: List[gen.Query]
                       ) -> Tuple[List[float], List[float]]:
        """Milliseconds to register (and to remove) each query into a
        scheduler holding all the others, plans rebuilt."""
        scheduler = self.make_runtime(queries)
        scheduler.distinct_predicate_count()
        added: List[float] = []
        removed: List[float] = []
        rounds = max(5, -(-240 // len(queries)))
        for _ in range(rounds):
            for name, text in queries:
                start = perf_counter()
                scheduler.remove_query(name)
                middle = perf_counter()
                scheduler.add_query(text, name=name)
                scheduler.distinct_predicate_count()
                end = perf_counter()
                removed.append((middle - start) * 1e3)
                added.append((end - middle) * 1e3)
        return added, removed

    # -- recovery -------------------------------------------------------------

    def recovery_chain(self, queries: List[gen.Query], events: List[Event],
                       workdir: Path, tracer: Optional[Tracer]
                       ) -> Tuple[List[float], List[Any], Dict[str, Any]]:
        """Abandon a checkpointed run half way and recover from it.

        The first run stops at the midpoint and is thrown away.  Each
        recovery then builds a fresh runtime, opens the journal again,
        restores the latest checkpoint and resumes through the cursor; all
        but the last stop after one batch (so every recovery restores the
        same state and the median is of like with like), the last finishes
        the stream.  Returns the recovery times (start of rebuilding to the
        first post-cursor batch done), the completed run's alerts and the
        storage counters of the chain.
        """
        journal, _, _ = self.ingest(events, workdir)
        checkpointing = self.checkpointing(len(events), workdir, tracer,
                                           label="recovery-chain")
        store = checkpointing["checkpoint_store"]
        self.make_runtime(queries, **checkpointing).execute(
            StampedStream(journal.open(), limit=len(events) // 2),
            batch_size=BATCH_SIZE)
        recoveries: List[float] = []
        alerts: List[Any] = []
        pre_cursor_rows = 0
        for index in range(RECOVERIES):
            last = index == RECOVERIES - 1
            rows_before = journal.rows_read()
            start = perf_counter()
            runtime = self.make_runtime(queries, **checkpointing)
            stream = StampedStream(journal.open(), limit=None if last else 1)
            alerts = recover_and_resume(runtime, store, stream,
                                        batch_size=BATCH_SIZE)
            if len(stream.asked) < 2:
                raise RuntimeError("a recovery processed no batch")
            recoveries.append(stream.asked[1] - start)
            if not last:
                # Rows read beyond the one batch fed (and the one pulled
                # ahead of the stop) were pre-cursor history.
                pre_cursor_rows += max(0, journal.rows_read() - rows_before
                                       - 2 * BATCH_SIZE)
            if tracer is not None:
                label = f"recovery-{index}"
                root = tracer.add("snapshot.recover", start, stream.asked[1],
                                  trace=label)
                tracer.add("snapshot.restore_and_seek", start,
                           stream.ready[0], parent=root, trace=label)
                tracer.add(self.batch_span, stream.ready[0], stream.asked[1],
                           parent=root, trace=label)
        writes = store.full_writes + store.delta_writes
        counters = {
            "checkpoints": writes,
            "checkpoint_bytes_per_record":
                store.bytes_written / max(1, writes),
            "checkpoint_delta_fallbacks": store.delta_fallbacks,
            "seek_rows_read": pre_cursor_rows / max(1, RECOVERIES - 1),
            "segments_pruned": journal.segments_pruned(),
        }
        journal.close()
        return recoveries, alerts, counters

    # -- the run --------------------------------------------------------------

    def setup(self, seed: int, scale: float) -> Inputs:
        count = max(4 * BATCH_SIZE, int(self.events_at_scale_1 * scale))
        events, hosts = gen.enterprise_stream(seed, count)
        return Inputs(events, self.queries(hosts))

    def run(self, seed: int, seconds: float, scale: float,
            workdir: Path, tracer: Optional[Tracer]) -> Outcome:
        setups: List[float] = []
        for _ in range(3):
            start = perf_counter()
            inputs = self.setup(seed, scale)
            setups.append(perf_counter() - start)
        queries, events = inputs.queries, inputs.events
        freeze_inputs()
        baseline_rss = rss_mb()

        warmup = events[:max(2 * BATCH_SIZE, int(len(events) * WARMUP_SHARE))]
        self.run_pass(queries, warmup, workdir)

        # A traced run records spans on every other pass, so the bare
        # passes beside them price the recording.
        passes: List[PassResult] = []
        least = 1 if tracer is None else 2
        began = perf_counter()
        while len(passes) < least or (
                perf_counter() - began) * (1 + 1 / len(passes)) <= seconds:
            record = tracer if len(passes) % 2 == 0 else None
            passes.append(self.run_pass(queries, events, workdir, record,
                                        f"pass-{len(passes)}"))
        added, removed = self.register_probe(queries)
        recoveries, resumed_alerts, chain = self.recovery_chain(
            queries, events, workdir, tracer)

        # -- correctness: every path against its reference -------------------
        direct = (passes[0] if self.timed_pass_is_direct
                  else direct_batch(queries, events))
        reference = oracle.alert_fingerprints(direct.alerts)
        expected = oracle.count(reference)
        attempted = failed = 0
        for result in passes:
            attempted += result.events + expected
            failed += oracle.mismatches(
                reference, oracle.alert_fingerprints(result.alerts))
        attempted += expected
        failed += oracle.mismatches(
            reference, oracle.alert_fingerprints(resumed_alerts))
        size = max(2 * BATCH_SIZE, int(VERIFY_EVENTS * min(1.0, scale)))
        begin = max(0, len(events) // 2 - size // 16)
        verify = events[begin:begin + size]
        interpreted = oracle.alert_fingerprints(
            oracle.ast_reference(queries, verify))
        own_path = self.run_pass(queries, verify, workdir)
        attempted += len(verify) + oracle.count(interpreted)
        failed += oracle.mismatches(
            interpreted, oracle.alert_fingerprints(own_path.alerts))

        # -- end-to-end metrics ----------------------------------------------
        waits = [self.alert_waits(result) for result in passes]
        peak_rss = max(max(result.stream.peak_rss_mb for result in passes),
                       self.children_rss())
        end_to_end = {
            "setup_s": statistics.median(setups),
            "events_per_s": statistics.median(
                result.rate for result in passes),
            # Per pass, then the median pass: pooled, the tail would be the
            # slowest pass's.
            "alert_latency_p50_ms": statistics.median(
                percentile(held, 0.50) for held in waits) * 1e3,
            "alert_latency_p99_ms": statistics.median(
                percentile(held, 0.99) for held in waits) * 1e3,
            "query_register_ms": statistics.median(added),
            "recovery_s": statistics.median(recoveries),
            "peak_rss_mb": peak_rss,
        }
        notes: Dict[str, Any] = {
            "events": len(events), "queries": len(queries),
            "passes": len(passes), "batch_samples": sum(map(len, waits)),
            "register_samples": len(added),
            "recoveries": len(recoveries),
            "oracle_alerts": expected,
            "verify_events": len(verify),
            "verify_alerts": oracle.count(interpreted),
            "baseline_rss_mb": baseline_rss,
            "pass_events_per_s": [result.rate for result in passes],
        }
        per_layer: Dict[str, float] = {}
        if tracer is not None:
            per_layer = self.layer_metrics(inputs, passes, direct, added,
                                           removed, chain, workdir, tracer,
                                           notes)
        return Outcome(self.name, attempted, failed, end_to_end, per_layer,
                       notes)

    # -- per-layer metrics (traced run) ---------------------------------------

    def layer_metrics(self, inputs: Inputs, passes: List[PassResult],
                      direct: PassResult, added: List[float],
                      removed: List[float], chain: Dict[str, Any],
                      workdir: Path, tracer: Tracer,
                      notes: Dict[str, Any]) -> Dict[str, float]:
        """Every layer this workload exercises; the rest stay 0."""
        traced = [result for result in passes if result.traced]
        bare = [result for result in passes if not result.traced]
        last = traced[-1]
        held = last.stream.held()
        metrics: Dict[str, float] = {
            "obs.trace_overhead_pct": 100.0 * (
                1.0 - statistics.median(result.rate for result in traced)
                / statistics.median(result.rate for result in bare)),
            "scheduler.batches": float(len(held)),
            "scheduler.batch_ms_p50": percentile(held, 0.50) * 1e3,
            "scheduler.batch_ms_p99": percentile(held, 0.99) * 1e3,
            "scheduler.add_query_ms": statistics.median(added),
            "scheduler.remove_query_ms": statistics.median(removed),
            "storage.checkpoint_bytes_per_record":
                chain["checkpoint_bytes_per_record"],
            "storage.checkpoint_delta_fallbacks":
                float(chain["checkpoint_delta_fallbacks"]),
        }
        saves = [span["end"] - span["start"] for span in tracer.spans
                 if span["name"] == "storage.checkpoint_save"]
        metrics["storage.checkpoint_write_ms_p50"] = (
            percentile(saves, 0.50) * 1e3)
        metrics.update(codec_metrics(inputs.events))
        metrics.update(query_metrics(inputs.queries))
        metrics.update(scheduler_counters(last.runtime.metrics_snapshot(),
                                          vars(last.runtime.stats),
                                          last.stream.inside()))
        metrics.update(snapshot_metrics(inputs.queries, inputs.events))
        notes["self_time_share"] = tracer.self_time_shares()
        inside = metrics["scheduler.process_events_s"] or 1.0
        notes["process_events_share"] = {
            "compile": (metrics["compile.pivot_s"]
                        + metrics["compile.predicate_eval_s"]) / inside,
            "engine": (metrics["engine.pattern_match_s"]
                       + metrics["engine.window_close_s"]) / inside,
            "scheduler": metrics["scheduler.self_s"] / inside}
        return metrics

    def pass_counts(self, result: PassResult) -> Dict[str, Any]:
        """The program's own counters for one pass, attached to its span:
        the stage timers split the time inside ``process_events``."""
        timers = live(result.runtime.metrics_snapshot())
        return {
            "columnar_pivot_s": stage(timers, "columnar_pivot").sum,
            "predicate_eval_s": stage(timers, "predicate_eval").sum,
            "pattern_match_s": stage(timers, "pattern_match").sum,
            "window_close_s": stage(timers, "window_close").sum,
            "alerts": result.runtime.stats.alerts,
        }


def scheduler_counters(snapshot: Optional[Dict[str, Any]],
                       stats: Mapping[str, Any],
                       inside: float) -> Dict[str, float]:
    """compile / engine / scheduler busy time and work counts of one run.

    ``inside`` is the time the benchmark saw spent inside the runtime's
    batch calls; the program's stage timers (``snapshot``) split it, and
    its ``SchedulerStats`` (``stats``) count the work.
    """
    timers = live(snapshot)
    pivot = stage(timers, "columnar_pivot").sum
    predicates = stage(timers, "predicate_eval").sum
    match = stage(timers, "pattern_match").sum
    closing = stage(timers, "window_close")
    close, closed = closing.sum, closing.count
    evaluated = stats["predicate_evaluations"]
    saved = stats["predicate_evaluations_saved"]
    return {
        "compile.pivot_s": pivot,
        "compile.predicate_eval_s": predicates,
        "compile.predicate_evaluations": float(evaluated),
        "compile.predicate_evaluations_saved": float(saved),
        "compile.sharing_ratio": saved / max(1, saved + evaluated),
        "compile.distinct_predicates": float(stats["distinct_predicates"]),
        # The pattern_match timer encloses predicate_eval and
        # window_close; what is left is the engine's matching.
        "engine.pattern_match_s": max(0.0, match - predicates - close),
        "engine.window_close_s": close,
        "engine.matches": float(stats["pattern_evaluations"]),
        "engine.windows_closed": float(closed),
        "engine.peak_buffered_matches": float(stats["peak_buffered_matches"]),
        "engine.alerts": float(stats["alerts"]),
        "scheduler.process_events_s": inside,
        "scheduler.self_s": max(0.0, inside - pivot - match),
    }


def freeze_inputs() -> None:
    """Keep the generated inputs out of the program's garbage collector.

    The resident stream is a million-odd objects that belong to the load
    generator; left in the collected generations, every full collection the
    program's allocations trigger walks all of them (a ~140 ms stall per
    pass on the seed, and copy-on-write traffic in forked shard workers).
    """
    gc.collect()
    gc.freeze()


def direct_batch(queries: List[gen.Query],
                 events: List[Event]) -> PassResult:
    """The single-process, in-memory batch run every execution path must
    reproduce (and the single-threaded baseline of the same job)."""
    return ClosedLoopWorkload().run_pass(queries, events, Path())


def codec_metrics(events: List[Event]) -> Dict[str, float]:
    """The ``events`` layer: JSON encode/decode rate and size."""
    sample = events[:CODEC_SAMPLE]
    start = perf_counter()
    lines = [json.dumps(event_to_dict(event)) for event in sample]
    encoded = perf_counter()
    for line in lines:
        event_from_dict(json.loads(line))
    decoded = perf_counter()
    return {"events.encode_eps": len(sample) / (encoded - start),
            "events.decode_eps": len(sample) / (decoded - encoded),
            "events.bytes_per_event": sum(map(len, lines)) / len(sample)}


def query_metrics(queries: List[gen.Query]) -> Dict[str, float]:
    """``core.language`` parse and ``core.compile`` lowering, per query."""
    parse: List[float] = []
    lower: List[float] = []
    for _, text in queries:
        start = perf_counter()
        parsed = parse_query(text)
        middle = perf_counter()
        compile_query(parsed)
        end = perf_counter()
        parse.append((middle - start) * 1e3)
        lower.append((end - middle) * 1e3)
    return {"language.parse_ms": statistics.median(parse),
            "compile.compile_ms": statistics.median(lower)}


def snapshot_metrics(queries: List[gen.Query],
                     events: List[Event]) -> Dict[str, float]:
    """``core.snapshot`` on mid-stream state: export, size, restore."""
    def registered() -> ConcurrentQueryScheduler:
        scheduler = ConcurrentQueryScheduler()
        for name, text in queries:
            scheduler.add_query(text, name=name)
        return scheduler

    scheduler = registered()
    for begin in range(0, len(events) // 2, BATCH_SIZE):
        scheduler.process_events(events[begin:begin + BATCH_SIZE])
    start = perf_counter()
    state = scheduler.export_state()
    exported = perf_counter()
    fresh = registered()
    restore_start = perf_counter()
    fresh.restore_state(state)
    restored = perf_counter()
    return {"snapshot.export_state_ms": (exported - start) * 1e3,
            "snapshot.restore_state_ms": (restored - restore_start) * 1e3,
            "snapshot.state_bytes": float(len(json.dumps(state)))}


class ManyQueryBatch(ClosedLoopWorkload):
    name = "many-query-batch"
    events_at_scale_1 = 150_000
    timed_pass_is_direct = True

    def queries(self, hosts):
        return gen.many_queries(hosts)


class WindowHeavyBatch(ClosedLoopWorkload):
    name = "window-heavy-batch"
    events_at_scale_1 = 75_000
    timed_pass_is_direct = True

    def queries(self, hosts):
        return gen.window_queries()


class ShardedBatch(ClosedLoopWorkload):
    name = "sharded-batch"
    events_at_scale_1 = 150_000
    batch_span = "parallel.feed_batch"
    finish_span = "parallel.finish_merge"
    shards = 2

    def queries(self, hosts):
        return gen.many_queries(hosts)

    def make_runtime(self, queries, **checkpointing):
        runtime = ShardedScheduler(shards=self.shards, backend="process",
                                   batch_size=BATCH_SIZE, **checkpointing)
        for name, text in queries:
            runtime.add_query(text, name=name)
        return runtime

    def register_probe(self, queries):
        """The sharded runtime registers before a run only: time each
        ``add_query`` (parse + shardability analysis) into a scheduler
        holding the queries before it."""
        added: List[float] = []
        for _ in range(3):
            runtime = ShardedScheduler(shards=self.shards, backend="process")
            for name, text in queries:
                start = perf_counter()
                runtime.add_query(text, name=name)
                added.append((perf_counter() - start) * 1e3)
        return added, [0.0]

    def children_rss(self) -> float:
        return children_peak_rss_mb()

    def alert_waits(self, result):
        """The sharded runtime hands every alert back when ``execute``
        returns, so a batch's alerts wait from its hand-over to the end of
        the run.  (The feeder's own per-batch time is bimodal — half the
        batches block on the busy shard's queue — with the median sitting
        on the gap; it is reported per layer as ``scheduler.batch_ms_*``.)
        """
        return [result.end - asked for asked in result.stream.asked[:-1]]

    def pass_counts(self, result):
        counts = super().pass_counts(result)
        counts["shard_events"] = [lane.events_ingested for lane
                                  in result.runtime.per_shard_stats]
        return counts

    def layer_metrics(self, inputs, passes, direct, added, removed, chain,
                      workdir, tracer, notes):
        metrics = super().layer_metrics(inputs, passes, direct, added,
                                        removed, chain, workdir, tracer,
                                        notes)
        last = [result for result in passes if result.traced][-1]
        lanes = [lane.events_ingested for lane in last.runtime.per_shard_stats]
        routed: Dict[int, List[Event]] = {}
        for event in inputs.events[:CODEC_SAMPLE]:
            routed.setdefault(shard_index(event.agentid, self.shards),
                              []).append(event)
        start = perf_counter()
        blobs = [pickle.dumps(batch) for batch in routed.values()]
        for blob in blobs:
            pickle.loads(blob)
        roundtrip = perf_counter() - start
        sample = sum(len(batch) for batch in routed.values())
        notes["single_process_events_per_s"] = direct.rate
        # The stage timers ran in the workers, the spans in the feeder.
        del notes["process_events_share"]
        metrics.update({
            # The stage timers ran inside the workers; the feeder's own
            # time belongs to core.parallel, not to the scheduler.
            "scheduler.process_events_s": 0.0,
            "scheduler.self_s": 0.0,
            "parallel.execute_s": last.end - last.start,
            "parallel.max_shard_share": max(lanes) / max(1, sum(lanes)),
            "parallel.single_lane_queries":
                float(len(last.runtime.single_lane_query_names)),
            "parallel.pickle_bytes_per_event": sum(map(len, blobs)) / sample,
            "parallel.pickle_roundtrip_us_per_event":
                roundtrip / sample * 1e6,
            "parallel.finish_merge_s": last.end - last.stream.ready[-1],
            "parallel.speedup_vs_single": statistics.median(
                result.rate for result in passes) / direct.rate,
        })
        return metrics


class StoreReplayResume(ClosedLoopWorkload):
    name = "store-replay-resume"
    events_at_scale_1 = 30_000
    pull_span = "storage.scan"
    timed_pass_checkpoints = True
    #: Events per ``insert_many`` call of the write phase.
    write_chunk = 4096

    def queries(self, hosts):
        return gen.many_queries(hosts)

    def ingest(self, events, workdir):
        """The write phase: append in chunks, flush, seal the tail."""
        directory = workdir / "store"
        shutil.rmtree(directory, ignore_errors=True)
        start = perf_counter()
        database = EventDatabase.open(directory)
        for begin in range(0, len(events), self.write_chunk):
            database.insert_many(events[begin:begin + self.write_chunk])
        database.flush()
        appended = perf_counter()
        database.store.seal_tail()
        database.close()
        sealed = perf_counter()
        info = {"stamps": (start, appended, sealed),
                "segment_bytes": sum(
                    path.stat().st_size for path in directory.rglob("*")
                    if path.is_file())}
        return StoreJournal(directory), sealed - start, info

    def record_ingest(self, tracer, root, label, result):
        start, appended, sealed = result.ingest_info["stamps"]
        tracer.add("storage.append", start, appended, parent=root,
                   trace=label)
        tracer.add("storage.seal", appended, sealed, parent=root,
                   trace=label)

    def layer_metrics(self, inputs, passes, direct, added, removed, chain,
                      workdir, tracer, notes):
        metrics = super().layer_metrics(inputs, passes, direct, added,
                                        removed, chain, workdir, tracer,
                                        notes)
        last = [result for result in passes if result.traced][-1]
        start, appended, sealed = last.ingest_info["stamps"]
        database = EventDatabase.open(workdir / "store")
        compact_start = perf_counter()
        database.compact()
        compact_s = perf_counter() - compact_start
        database.close()
        notes["store_write_eps"] = last.events / last.ingest_s
        notes["read_phase_events_per_s"] = last.events / (last.end
                                                          - last.start)
        metrics.update({
            "storage.append_eps": last.events / (appended - start),
            "storage.seal_s": sealed - appended,
            "storage.scan_eps": last.events / last.stream.pulling(),
            "storage.seek_rows_read": float(chain["seek_rows_read"]),
            "storage.segments_pruned": float(chain["segments_pruned"]),
            "storage.segment_bytes_per_event":
                last.ingest_info["segment_bytes"] / last.events,
            "storage.compact_s": compact_s,
        })
        return metrics


CLOSED_LOOP = {workload.name: workload for workload in (
    ManyQueryBatch(), WindowHeavyBatch(), ShardedBatch(),
    StoreReplayResume())}
