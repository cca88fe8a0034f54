"""The sharded parallel runtime: one scheduler per worker, split by agentid.

:class:`ShardedScheduler` partitions the enterprise stream by the (stable)
hash of each event's ``agentid`` and runs one full
:class:`~repro.core.scheduler.concurrent.ConcurrentQueryScheduler` per
shard, so many-query workloads scale across cores instead of being capped
by the single-process design.  Queries are routed by the static
shardability analysis (:mod:`repro.core.parallel.shardability`): host-local
queries are registered on every shard (a shard that never sees a query's
host simply never matches it), while queries that aggregate across hosts
fall back to a single-shard lane that observes the full stream.

Three interchangeable backends execute the shards:

* ``serial`` — shards run inline in the calling thread, in shard order.
  Fully deterministic, no threads or processes; the backend equivalence
  tests and Windows-constrained environments use this.
* ``thread`` — one :class:`ThreadShard` per shard, fed through bounded
  queues.  Schedulers share no state, so no locking is needed; the GIL
  limits the speedup, but the feeding/backpressure behaviour matches the
  process backend.
* ``process`` — one worker process per shard (``multiprocessing``).  Each
  worker compiles its own copy of the queries from source (compiled
  closures do not cross process boundaries), consumes event batches from a
  bounded queue, and ships its alerts and stats back at end of stream.

Shards are fed in batches (the batch ingestion path,
``process_events``) to amortize dispatch and serialization overhead.  After
the stream drains, per-shard alerts are merged into a single
deterministically-ordered stream — sorted by timestamp, query name, window
and payload — and per-shard ``SchedulerStats`` are merged into one
aggregate, so callers observe the same interface as the single-process
scheduler.

**Mid-stream work stealing.**  With ``rebalance_interval`` set, the router
runs *rebalance epochs*: every ``interval`` events it collects one
:class:`~repro.core.scheduler.concurrent.ShardLoadReport` per shard over a
per-backend control channel (inline for ``serial``, through the feed queue
for ``thread``/``process``) and asks the
:class:`~repro.core.parallel.stealing.WorkStealingBalancer` whether load
has skewed past the configured ratio.  Migrations run one of two
protocols, chosen statically per query set
(:func:`~repro.core.parallel.shardability.analyze_steal_safety`):

* **aligned** — every unpinned query tolerates a window-aligned cut:
  the victim's events at or past the cut are held in a handoff buffer,
  and only once the donor shard confirms (over the control channel) that
  its open windows — all of which end at or before the cut — have closed
  is the buffer flushed to the thief and the route switched.  Nothing is
  copied.
* **transfer** — at least one query keeps per-host state that spans
  every cut (overlapping sliding windows, fractional hops, ``state[k]``
  histories, multi-event sequences, stateful ``distinct``): both lanes
  pause their intake, the donor *exports* the victim's state slice
  through the snapshot codecs (:mod:`repro.core.snapshot`), the thief
  *imports* it, and the held events are merged with the paused backlog
  in journal order before both lanes resume.

Pinned agentids are never stolen (their queries live only on the pin's
shard), single-shard-lane queries observe the full stream regardless of
routing, and a hard-vetoed unpinned query (count windows, invariants,
clustering) disables stealing for the whole lane, so the merged alert
stream stays identical to single-process execution.

**Checkpointing.**  With a ``checkpoint_store`` configured, the router
additionally takes parent-coordinated checkpoints: at due batch
boundaries it flushes its routing buffers, collects one state snapshot
per shard over the same control channel, and persists them together with
the single-lane state, the route overrides and the global stream cursor;
:meth:`ShardedScheduler.restore_state` resumes a crashed run from the
latest checkpoint with exactly-once alert re-emission.

**Supervision.**  With ``supervision`` enabled, a :class:`_ShardSupervisor`
watches the lanes during the run: liveness probes (``("ping", seq)``
control messages answered in feed order), per-send deadlines and a
per-batch liveness scan detect dead and hung workers, and the supervisor
recovers *in-run* instead of aborting — it rebuilds the lane from the
last per-shard checkpoint slice and replays the event/control backlog it
journals between checkpoints, or, when no checkpoint exists, migrates
the dead shard's agentids to the surviving lanes through the snapshot
transfer codecs and retires the lane.  Either path reproduces the lost
lane's alerts exactly (the restored alert ledger covers everything up to
the checkpoint; the replay regenerates the rest), so the merged stream
matches a fault-free run.  See :class:`SupervisionPolicy` for the knobs.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.core.engine.alerts import Alert, AlertSink
from repro.core.language import ast, parse_query
from repro.core.parallel.shardability import (
    ShardabilityReport,
    analyze_shardability,
)
from repro.core.parallel.stealing import (
    DEFAULT_REBALANCE_RATIO,
    StealEligibility,
    WorkStealingBalancer,
    steal_eligibility,
)
from repro.core.parallel.supervision import (
    DEFAULT_BACKOFF,
    Backoff,
    RecoveryRecord,
    ShardFailure,
    SupervisionPolicy,
)
from repro.core.expr.values import compare_values
from repro.core.scheduler.compatibility import compatibility_signature
from repro.core.scheduler.concurrent import (
    ConcurrentQueryScheduler,
    SchedulerStats,
    ShardLoadReport,
)
from repro.events.event import Event
from repro.events.stream import iter_batches
from repro.obs import MetricRegistry, merge_snapshots

#: Default number of events per feed batch.
DEFAULT_BATCH_SIZE = 256

#: Default replay-prefix length (events) observed by ``shard_map="auto"``
#: before greedily bin-packing agentids onto shards.
DEFAULT_AUTO_PREFIX = 32768

#: Bound on in-flight batches per shard queue (backpressure for the
#: thread/process backends).
_QUEUE_DEPTH = 8

_BACKENDS = ("serial", "thread", "process")


def shard_index(agentid: str, shard_count: int) -> int:
    """Map a host to its shard with a stable, process-independent hash.

    ``zlib.crc32`` is used instead of ``hash()`` because the latter is
    randomized per interpreter (``PYTHONHASHSEED``), which would make shard
    assignment — and therefore per-shard stats — differ between runs.  The
    agentid is case-folded first: SAQL equality is case-insensitive, so a
    host-pinned query matches agentids differing only in case, and those
    events must land on the pin's shard.
    """
    return zlib.crc32(agentid.casefold().encode("utf-8")) % shard_count


def merge_stats(per_shard: Sequence[SchedulerStats],
                single_lane: Optional[SchedulerStats] = None
                ) -> SchedulerStats:
    """Merge per-shard statistics into one aggregate ``SchedulerStats``.

    Work counters (alerts, pattern evaluations, buffered events) are
    summed: they measure work actually performed and memory actually held,
    including the per-shard replicas of each group's shared buffer.
    ``queries`` and ``groups`` count *logical* queries/groups: the maximum
    across shards is taken (an exact figure when every shard registers the
    same query set, an upper bound when pinned queries are routed to their
    owner shard only — :class:`ShardedScheduler` overwrites both with the
    exact registration-time counts after a run) and the single-shard
    lane's are added.  ``events_ingested`` sums per-lane ingestion; the
    sharded scheduler overwrites it with its own once-per-event count
    after a run.

    The per-lane ``peak_buffered_events``/``peak_buffered_matches``
    figures occur at *different stream positions*, so their sum — each
    lane counted exactly once, the single lane included — is only an
    upper bound on the true simultaneous peak.  That sum is recorded in
    the explicitly-named ``peak_buffered_events_bound`` /
    ``peak_buffered_matches_bound`` fields.  ``peak_buffered_events`` /
    ``peak_buffered_matches`` start out equal to the bound (the process
    backend, whose shard buffers live in other processes, can do no
    better); the serial/thread backends overwrite them with a genuine
    concurrent peak sampled across all lanes at batch boundaries.
    """
    merged = SchedulerStats()
    for stats in per_shard:
        merged.events_ingested += stats.events_ingested
        merged.alerts += stats.alerts
        merged.pattern_evaluations += stats.pattern_evaluations
        merged.pattern_evaluations_saved += stats.pattern_evaluations_saved
        merged.buffered_events += stats.buffered_events
        merged.peak_buffered_events += stats.peak_buffered_events
        merged.buffered_matches += stats.buffered_matches
        merged.peak_buffered_matches += stats.peak_buffered_matches
        merged.predicate_evaluations += stats.predicate_evaluations
        merged.predicate_evaluations_saved += (
            stats.predicate_evaluations_saved)
        merged.column_blocks_built += stats.column_blocks_built
        _merge_predicate_sharing(merged.predicate_sharing,
                                 stats.predicate_sharing)
        for name, count in stats.quarantined.items():
            merged.quarantined[name] = max(merged.quarantined.get(name, 0),
                                           count)
    if per_shard:
        merged.queries = max(stats.queries for stats in per_shard)
        merged.groups = max(stats.groups for stats in per_shard)
    if single_lane is not None:
        merged.events_ingested += single_lane.events_ingested
        merged.alerts += single_lane.alerts
        merged.pattern_evaluations += single_lane.pattern_evaluations
        merged.pattern_evaluations_saved += (
            single_lane.pattern_evaluations_saved)
        merged.buffered_events += single_lane.buffered_events
        merged.peak_buffered_events += single_lane.peak_buffered_events
        merged.buffered_matches += single_lane.buffered_matches
        merged.peak_buffered_matches += single_lane.peak_buffered_matches
        merged.predicate_evaluations += single_lane.predicate_evaluations
        merged.predicate_evaluations_saved += (
            single_lane.predicate_evaluations_saved)
        merged.column_blocks_built += single_lane.column_blocks_built
        _merge_predicate_sharing(merged.predicate_sharing,
                                 single_lane.predicate_sharing)
        for name, count in single_lane.quarantined.items():
            merged.quarantined[name] = max(merged.quarantined.get(name, 0),
                                           count)
        merged.queries += single_lane.queries
        merged.groups += single_lane.groups
    merged.distinct_predicates = len(merged.predicate_sharing)
    merged.peak_buffered_events_bound = merged.peak_buffered_events
    merged.peak_buffered_matches_bound = merged.peak_buffered_matches
    # One coherent metrics view across every lane: counters summed,
    # gauges maxed/lasted (per-shard-labeled series keep their own
    # identity), histogram buckets added — the fixed boundaries make the
    # merge exact (see repro.obs).  None when every lane ran disabled.
    contributions = [stats.metrics_snapshot for stats in per_shard
                     if stats.metrics_snapshot is not None]
    if single_lane is not None and single_lane.metrics_snapshot is not None:
        contributions.append(single_lane.metrics_snapshot)
    merged.metrics_snapshot = (merge_snapshots(contributions)
                               if contributions else None)
    return merged


def _merge_predicate_sharing(into: Dict[str, Dict[str, int]],
                             contribution: Dict[str, Dict[str, int]]) -> None:
    """Fold one lane's predicate-sharing report into the aggregate.

    Row counters sum across lanes (each lane scanned its own column
    cells); ``subscribers`` counts the *logical* query slots behind one
    canonical predicate, so the maximum across lanes is taken — pinned
    routing gives each shard a subset of the subscribing queries, making
    the per-lane figures subsets of the registration-time count.
    """
    for label, entry in contribution.items():
        merged = into.setdefault(label, {"subscribers": 0,
                                         "rows_evaluated": 0,
                                         "rows_selected": 0})
        merged["subscribers"] = max(merged["subscribers"],
                                    entry["subscribers"])
        merged["rows_evaluated"] += entry["rows_evaluated"]
        merged["rows_selected"] += entry["rows_selected"]


def _alert_sort_key(alert: Alert) -> Tuple:
    """Total order over alerts that does not depend on shard interleaving."""
    return (
        alert.timestamp,
        alert.query_name,
        alert.window_start if alert.window_start is not None else -1.0,
        repr(alert.group_key),
        repr(alert.data),
        alert.agentid,
    )


def _build_scheduler(queries: Sequence[Tuple[str, Union[str, ast.Query]]],
                     enable_sharing: bool,
                     track_agent_load: bool = False,
                     quarantine_errors: Optional[int] = None,
                     metrics: bool = True,
                     shard_id: int = 0) -> ConcurrentQueryScheduler:
    # Each lane owns its registry (no cross-lane locking; registries are
    # not picklable, so process workers build theirs worker-side from the
    # ``metrics`` bool).  The shard id labels the per-shard series
    # (watermark lag); everything else merges across lanes by name.
    scheduler = ConcurrentQueryScheduler(enable_sharing=enable_sharing,
                                         track_agent_load=track_agent_load,
                                         quarantine_errors=quarantine_errors,
                                         metrics=MetricRegistry(
                                             enabled=metrics),
                                         shard_id=shard_id)
    for name, source in queries:
        scheduler.add_query(source, name=name)
    return scheduler


def _answer_control(scheduler: ConcurrentQueryScheduler,
                    message: Tuple) -> Tuple:
    """Answer one control message against a shard scheduler.

    Shared by all three backends so the protocol cannot drift:

    * ``("load", epoch)`` returns that epoch's :class:`ShardLoadReport`;
    * ``("drain", agentid, cut)`` reports whether the shard's open
      windows have drained through the cut (aligned-mode stealing, see
      :meth:`ConcurrentQueryScheduler.drained_through`);
    * ``("export", agentid_key, cut)`` extracts and returns the victim's
      state slice (transfer-mode stealing); because control messages are
      processed in feed order, every previously routed victim event is
      already folded in when the export runs;
    * ``("import", agentid_key, payload)`` merges a donor's exported
      slice (thief side) and acknowledges;
    * ``("snapshot", sequence)`` returns the scheduler's full state
      snapshot (parent-coordinated checkpointing);
    * ``("metrics", sequence)`` returns the scheduler's live metrics
      registry snapshot (mid-run scrape piggybacked on the control
      round — answered at a batch boundary, in feed order, like every
      other control message);
    * ``("ping", sequence)`` echoes the sequence — a liveness probe that,
      because control messages are processed in feed order, also bounds
      how far the shard lags behind its queue (the supervisor's hang
      detector keys on unanswered probes).
    """
    kind = message[0]
    if kind == "ping":
        return ("ping", message[1])
    if kind == "load":
        return ("load", message[1], scheduler.take_load_report())
    if kind == "drain":
        cut = message[2]
        # Both halves of the safe point: the shard must have *seen* the
        # stream past the cut (otherwise a later pre-cut match could
        # still open a window here) and hold no open window ending by
        # it.  See ConcurrentQueryScheduler.drained_through.
        drained = (scheduler.load_watermark >= cut
                   and scheduler.drained_through(cut))
        return ("drain", message[1], cut, drained)
    if kind == "export":
        return ("export", message[1], message[2],
                scheduler.extract_agent_state(message[1]))
    if kind == "import":
        scheduler.import_agent_state(message[2])
        return ("import", message[1], True)
    if kind == "snapshot":
        return ("snapshot", message[1], scheduler.export_state())
    if kind == "metrics":
        return ("metrics", message[1], scheduler.metrics_snapshot())
    raise ValueError(f"unknown shard control message {message!r}")


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class SerialShard:
    """In-process shard executed inline (deterministic test backend)."""

    def __init__(self, queries, enable_sharing: bool,
                 track_agent_load: bool = False, index: int = 0,
                 restore=None, quarantine_errors: Optional[int] = None,
                 fault_plan=None, metrics: bool = True):
        self.index = index
        self._scheduler = _build_scheduler(queries, enable_sharing,
                                           track_agent_load,
                                           quarantine_errors,
                                           metrics=metrics, shard_id=index)
        self._alerts: List[Alert] = []
        if restore is not None:
            # Seed the output with the restored alert ledger so the
            # merged result equals the uninterrupted run's alerts.
            self._scheduler.restore_state(restore)
            self._alerts.extend(self._scheduler.emitted_alerts())
        if fault_plan is not None:
            fault_plan.install(self._scheduler, index, in_worker=False)
        self._responses: List[Tuple] = []

    def feed(self, batch: List[Event],
             timeout: Optional[float] = None) -> None:
        self._alerts.extend(self._scheduler.process_events(batch))

    def request_control(self, message: Tuple,
                        timeout: Optional[float] = None) -> None:
        """Answer a control message (inline, so immediately)."""
        self._responses.append(_answer_control(self._scheduler, message))

    def is_alive(self) -> bool:
        """Inline execution cannot die silently; failures raise in feed."""
        return True

    def poll_control(self) -> List[Tuple]:
        """Return (and clear) the pending control responses."""
        responses, self._responses = self._responses, []
        return responses

    def buffer_sample(self) -> Tuple[int, int]:
        """Current (buffered events, buffered matches) retention snapshot."""
        stats = self._scheduler.stats
        return stats.buffered_events, stats.buffered_matches

    def finish(self, timeout: Optional[float] = None
               ) -> Tuple[List[Alert], SchedulerStats]:
        self._alerts.extend(self._scheduler.finish())
        return self._alerts, self._scheduler.stats

    def close(self) -> None:
        """Nothing to release: the shard runs inline."""

    def __enter__(self) -> "SerialShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ThreadShard:
    """In-process shard executed on its own thread.

    Each shard owns its scheduler outright, so no locking is required; the
    bounded queue provides the same backpressure as the process backend.
    Queue items are batches (lists), control messages (tuples, answered
    onto a response queue) or the ``None`` stop sentinel.
    """

    def __init__(self, queries, enable_sharing: bool,
                 track_agent_load: bool = False, index: int = 0,
                 restore=None, quarantine_errors: Optional[int] = None,
                 fault_plan=None, metrics: bool = True):
        self.index = index
        self._scheduler = _build_scheduler(queries, enable_sharing,
                                           track_agent_load,
                                           quarantine_errors,
                                           metrics=metrics, shard_id=index)
        self._alerts: List[Alert] = []
        if restore is not None:
            # Restored before the worker thread starts consuming.
            self._scheduler.restore_state(restore)
            self._alerts.extend(self._scheduler.emitted_alerts())
        if fault_plan is not None:
            fault_plan.install(self._scheduler, index, in_worker=False)
        self._queue: "queue.Queue[Optional[Union[List[Event], Tuple]]]" = (
            queue.Queue(maxsize=_QUEUE_DEPTH))
        self._responses: "queue.Queue[Tuple]" = queue.Queue()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"saql-shard-{index}")
        self._thread.start()

    def _run(self) -> None:
        try:
            while True:
                item = self._queue.get()
                if item is None:
                    return
                if isinstance(item, tuple):
                    self._responses.put(
                        _answer_control(self._scheduler, item))
                    continue
                self._alerts.extend(self._scheduler.process_events(item))
        except BaseException as error:  # surfaced by feed()/finish()
            self._error = error

    def _put(self, item: Optional[Union[List[Event], Tuple]],
             timeout: Optional[float] = None) -> None:
        # A blocking put against a dead consumer would hang the stream
        # loop forever once the bounded queue fills, so surface the
        # thread's failure instead of waiting on it.  With a timeout a
        # *live but unresponsive* worker (blocked mid-batch) is reported
        # as hung instead of stalling the parent indefinitely.
        waiter = DEFAULT_BACKOFF.waiter(timeout, seed=self.index)
        while True:
            try:
                self._queue.put(item, timeout=waiter.interval())
                return
            except queue.Full:
                if self._error is not None:
                    raise self._error
                if not self._thread.is_alive():
                    raise ShardFailure(self.index, "dead",
                                       "shard thread exited mid-stream")
                if waiter.expired:
                    raise ShardFailure(
                        self.index, "hung",
                        f"shard {self.index} thread stopped consuming its "
                        f"queue (blocked for over {timeout:.1f}s)")

    def feed(self, batch: List[Event],
             timeout: Optional[float] = None) -> None:
        if self._error is not None:
            raise self._error
        self._put(batch, timeout)

    def request_control(self, message: Tuple,
                        timeout: Optional[float] = None) -> None:
        """Enqueue a control message; answered in feed order."""
        self._put(message, timeout)

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def poll_control(self) -> List[Tuple]:
        """Return the control responses posted so far (non-blocking)."""
        responses: List[Tuple] = []
        while True:
            try:
                responses.append(self._responses.get_nowait())
            except queue.Empty:
                return responses

    def buffer_sample(self) -> Tuple[int, int]:
        """Current (buffered events, buffered matches) retention snapshot.

        Read across threads without locking: both counters are plain ints
        maintained by the worker, so this is a benign racy sample of the
        shard's simultaneous retention.
        """
        stats = self._scheduler.stats
        return stats.buffered_events, stats.buffered_matches

    def finish(self, timeout: Optional[float] = None
               ) -> Tuple[List[Alert], SchedulerStats]:
        if self._thread.is_alive():
            self._put(None, timeout)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ShardFailure(
                self.index, "hung",
                f"shard {self.index} thread did not finish its stream "
                f"within {timeout:.1f}s")
        if self._error is not None:
            raise self._error
        self._alerts.extend(self._scheduler.finish())
        return self._alerts, self._scheduler.stats

    def abandon(self) -> None:
        """Drop a hung worker without waiting for it (supervised teardown).

        The daemon thread may be blocked mid-batch; joining it would
        stall the supervisor for the length of the hang, so the sentinel
        is posted best-effort and the thread is simply abandoned — its
        scheduler and alert list die with this object's references.
        """
        try:
            self._queue.put_nowait(None)
        except queue.Full:
            pass

    def close(self) -> None:
        """Stop the worker thread without requiring a clean finish.

        Safe after errors (the worker may be dead or mid-batch) and
        idempotent after :meth:`finish`; never raises, so cleanup in a
        ``finally`` cannot mask the original failure.
        """
        while self._thread.is_alive():
            try:
                self._queue.put(None, timeout=0.1)
                break
            except queue.Full:
                continue  # a live worker is draining; a dead one exits the loop
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ThreadShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _process_shard_main(index: int,
                        queries: Sequence[Tuple[str, Union[str, ast.Query]]],
                        enable_sharing: bool,
                        track_agent_load: bool,
                        in_queue: "multiprocessing.Queue",
                        out_queue: "multiprocessing.Queue",
                        restore=None, generation: int = 0,
                        quarantine_errors: Optional[int] = None,
                        fault_plan=None, metrics: bool = True) -> None:
    """Worker entry point: compile the queries, drain batches, report back.

    The out queue carries tagged tuples: ``("ctrl", index, generation,
    response)`` for control-message answers mid-stream, ``("done", index,
    generation, alerts, stats, error)`` exactly once at the end.  The
    ``generation`` stamp lets a supervised parent discard late output
    from a worker it already replaced.  ``restore`` is an optional
    scheduler snapshot (plain JSON-friendly dicts, so it crosses the
    process boundary without pickling engine objects) applied before any
    batch is consumed.
    """
    try:
        scheduler = _build_scheduler(queries, enable_sharing,
                                     track_agent_load, quarantine_errors,
                                     metrics=metrics, shard_id=index)
        alerts: List[Alert] = []
        if restore is not None:
            scheduler.restore_state(restore)
            alerts.extend(scheduler.emitted_alerts())
        if fault_plan is not None:
            fault_plan.install(scheduler, index, in_worker=True)
        while True:
            item = in_queue.get()
            if item is None:
                break
            if isinstance(item, tuple):
                out_queue.put(("ctrl", index, generation,
                               _answer_control(scheduler, item)))
                continue
            alerts.extend(scheduler.process_events(item))
        alerts.extend(scheduler.finish())
        out_queue.put(("done", index, generation, alerts, scheduler.stats,
                       None))
    except BaseException as error:
        out_queue.put(("done", index, generation, [], None,
                       f"{type(error).__name__}: {error}"))


class ProcessShard:
    """Shard executed in a worker process, fed through a bounded queue."""

    def __init__(self, index: int, queries, enable_sharing: bool,
                 context, out_queue, track_agent_load: bool = False,
                 restore=None, generation: int = 0,
                 quarantine_errors: Optional[int] = None, fault_plan=None,
                 metrics: bool = True):
        self.index = index
        self.generation = generation
        self._in_queue = context.Queue(maxsize=_QUEUE_DEPTH)
        self._out_queue = out_queue
        self._process = context.Process(
            target=_process_shard_main,
            args=(index, list(queries), enable_sharing, track_agent_load,
                  self._in_queue, out_queue, restore, generation,
                  quarantine_errors, fault_plan, metrics),
            daemon=True,
            name=f"saql-shard-{index}")
        self._process.start()

    def _put(self, item, timeout: Optional[float] = None) -> None:
        # Same liveness rule as ThreadShard: a worker that died mid-stream
        # (its error tuple sits on the out queue) must not deadlock the
        # parent's feed loop once the bounded in-queue fills; a *live*
        # worker that stopped consuming (SIGSTOP, a wedged batch) is
        # reported as hung once the supervised timeout passes.
        waiter = DEFAULT_BACKOFF.waiter(timeout, seed=self.index)
        while True:
            try:
                self._in_queue.put(item, timeout=waiter.interval())
                return
            except queue.Full:
                if not self._process.is_alive():
                    raise ShardFailure(
                        self.index, "dead",
                        f"shard {self.index} worker exited mid-stream")
                if waiter.expired:
                    raise ShardFailure(
                        self.index, "hung",
                        f"shard {self.index} worker stopped consuming its "
                        f"queue (blocked for over {timeout:.1f}s)")

    def feed(self, batch: List[Event],
             timeout: Optional[float] = None) -> None:
        self._put(batch, timeout)

    def request_control(self, message: Tuple,
                        timeout: Optional[float] = None) -> None:
        """Enqueue a control message; the answer arrives on the out queue."""
        self._put(message, timeout)

    def close(self) -> None:
        # The sentinel must actually arrive: silently dropping it on a
        # transiently full queue would leave the worker blocked on get()
        # and the parent blocked on the result collection, forever.
        while self._process.is_alive():
            try:
                self._in_queue.put(None, timeout=0.1)
                return
            except queue.Full:
                continue

    def shutdown(self) -> None:
        """Force the worker down (abort path: its result will not be read).

        A worker that already finished its stream blocks on putting its
        result tuple until the parent reads it; when an error aborts the
        run before collection, that put would otherwise pin the process
        until interpreter exit.  Termination is safe here precisely
        because the result is abandoned.
        """
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=5.0)

    def kill(self) -> None:
        """Hard-kill the worker (supervised teardown of a dead/hung shard).

        SIGKILL, not SIGTERM: a SIGSTOPped worker leaves SIGTERM pending
        (delivered only on SIGCONT, i.e. never), while SIGKILL takes a
        stopped process down immediately.
        """
        if self._process.is_alive():
            self._process.kill()
        self._process.join(timeout=5.0)
        # The in-queue's feeder thread may be blocked writing into a pipe
        # nobody will ever read again; without cancel_join_thread the
        # queue's exit-time finalizer would join that thread forever.
        self._in_queue.cancel_join_thread()
        self._in_queue.close()

    def is_alive(self) -> bool:
        return self._process.is_alive()

    def join(self) -> None:
        self._process.join()

    def __enter__(self) -> "ProcessShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ---------------------------------------------------------------------------
# Mid-stream rebalancing (work stealing)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MigrationRecord:
    """One completed agentid migration, for stats and benchmarks."""

    agentid: str
    source: int
    target: int
    cut: float
    #: Events held in the handoff buffer until the donor drained.
    events_held: int
    #: False when the drain never confirmed mid-stream and the buffer was
    #: flushed at end of stream instead (same alerts, later handoff).
    completed_mid_stream: bool
    #: True when the migration moved the victim's state slice through the
    #: snapshot codecs (transfer-mode lanes: sliding windows, state
    #: histories, sequences, ``distinct``) instead of draining.
    transferred: bool = False


class _ActiveMigration:
    """One in-flight steal: routing state between decision and handoff."""

    __slots__ = ("agentid", "key", "source", "target", "cut", "buffer",
                 "drain_pending", "transfer", "exported")

    def __init__(self, agentid: str, key: str, source: int, target: int,
                 cut: float, transfer: bool = False):
        self.agentid = agentid
        self.key = key                      # casefolded routing key
        self.source = source
        self.target = target
        self.cut = cut
        self.buffer: List[Event] = []       # the handoff buffer
        self.drain_pending = False          # a drain/export request in flight
        self.transfer = transfer            # state-transfer protocol?
        self.exported = False               # transfer: import already sent?


class _StealingCoordinator:
    """Drives rebalance epochs and migrations for one ``execute`` run.

    The feeding loop calls :meth:`maybe_hold` per event (capturing a
    migrating victim's events into its handoff buffer) and
    :meth:`after_batch` per batch (epoch accounting, control-channel I/O,
    balancer planning, handoff confirmation and flushing).  Backend
    differences are abstracted behind callables: ``send(position,
    message)`` posts a control message to a shard, ``poll()`` returns the
    responses that have arrived, ``flush(position, events)`` delivers a
    handoff buffer to the thief *after* the thief's pending normal events
    (so the thief's own groups never see a watermark jump ahead of their
    earlier events), and ``flush_pending(position)`` pushes the parent's
    routing buffer for one shard down its feed channel.

    Two migration protocols, selected by the lane's
    :class:`~repro.core.parallel.stealing.StealEligibility`:

    * **aligned** — the cut is window-aligned; only the victim's events
      at or past the cut are held, and the handoff completes once the
      donor confirms (drain messages) that its open windows drained
      through the cut.  No state moves.
    * **transfer** — every victim event is held from the moment the
      migration is planned, and *both* lanes of the migration pause their
      intake (events keep accumulating in the parent's routing buffers),
      freezing the donor's and the thief's watermarks at the planning
      point so nothing closes a window mid-handoff.  The donor is asked
      to *export* the victim's state slice (processed, like all control
      messages, after every previously routed victim event), the slice
      is sent to the thief as an *import*, and once every migration of
      the group has exported, the held events — merged across victims in
      journal order — flow to the thief ahead of the paused backlog.
      Sliding windows, state histories, partial sequences and distinct
      seen-sets migrate intact, and no held event can land behind the
      thief's frontier.
    """

    def __init__(self, shard_count: int, interval: int,
                 balancer: WorkStealingBalancer,
                 eligibility: StealEligibility,
                 stealable, send, poll, flush,
                 resolve_route, purge_route,
                 route_overrides: Dict[str, int],
                 flush_pending=None, feed_events=None,
                 drain_pending=None):
        self._shard_count = shard_count
        self._interval = interval
        self._balancer = balancer
        self._eligibility = eligibility
        self._transfer = eligibility.mode == "transfer"
        self._stealable = stealable
        self._send = send
        self._poll = poll
        self._flush = flush
        self._flush_pending = flush_pending
        self._feed_events = feed_events
        self._drain_pending = drain_pending
        self._resolve_route = resolve_route
        self._purge_route = purge_route
        self._overrides = route_overrides
        self._events_since_epoch = 0
        self._watermark = float("-inf")
        self._epoch = 0
        self._awaiting_reports: set = set()
        self._reports: Dict[int, ShardLoadReport] = {}
        self._migrating: Dict[str, _ActiveMigration] = {}
        #: position -> pause refcount (transfer mode: a migration pauses
        #: both its lanes; the parent buffers their events meanwhile).
        self._paused: Counter = Counter()
        #: End-of-stream flag: no new migrations are planned during
        #: finalize (their exports could never be requested in time).
        self._closing = False
        self.records: List[MigrationRecord] = []

    # -- feeding-loop hooks -------------------------------------------------

    def maybe_hold(self, event: Event) -> bool:
        """Capture a migrating victim's event; True when held.

        Aligned mode holds only events at or past the cut (pre-cut
        stragglers keep flowing to the donor, whose windows cover
        everything below the cut).  Transfer mode holds *everything*: the
        export must be the last word on the victim's state, so no victim
        event may reach the donor after the export request is enqueued.
        """
        migrating = self._migrating
        if not migrating:
            return False
        migration = migrating.get(event.agentid.casefold())
        if migration is None:
            return False
        if not migration.transfer and event.timestamp < migration.cut:
            return False
        migration.buffer.append(event)
        return True

    def after_batch(self, batch: Sequence[Event]) -> None:
        """Advance epoch accounting and pump the control channel."""
        if batch:
            self._events_since_epoch += len(batch)
            tail = batch[-1].timestamp
            if tail > self._watermark:
                self._watermark = tail
        self.pump()
        self._request_handoffs()
        if (self._events_since_epoch >= self._interval
                and not self._awaiting_reports):
            self._events_since_epoch = 0
            self._epoch += 1
            self._awaiting_reports = set(range(self._shard_count))
            self._reports = {}
            for position in range(self._shard_count):
                self._send(position, ("load", self._epoch))

    def pump(self) -> None:
        """Deliver every control response that has arrived."""
        for position, response in self._poll():
            self._deliver(position, response)

    def is_paused(self, position: int) -> bool:
        """True while a transfer migration has frozen this lane's intake."""
        return self._paused.get(position, 0) > 0

    def finalize(self, deadline: float = 30.0, liveness=None) -> None:
        """Settle every in-flight migration at end of stream.

        Planning freezes first (a migration planned now could never
        complete its handshake).  Aligned migrations flush their
        unconfirmed handoff buffers — the donor's windows close during
        its own ``finish`` and the cut still partitions the victim's
        events, so parity holds; only the handoff happened later than a
        mid-stream drain would have.  Transfer migrations must still
        complete for real: the export requests are already in the donors'
        FIFOs, so their answers are pumped out before the shards finish.

        ``liveness(pending, stalled)`` — supplied by the shard supervisor
        — may raise :class:`ShardFailure` when a donor the wait depends
        on is found dead or silent, turning a full-deadline stall into a
        prompt recovery.
        """
        self._closing = True
        self._request_handoffs()
        waiter = DEFAULT_BACKOFF.waiter(deadline)
        while any(migration.transfer
                  for migration in self._migrating.values()):
            before = len(self._migrating)
            self.pump()
            if not any(migration.transfer
                       for migration in self._migrating.values()):
                break
            if len(self._migrating) != before:
                waiter.reset()
                continue
            if liveness is not None:
                liveness({migration.source
                          for migration in self._migrating.values()
                          if migration.transfer}, waiter.elapsed)
            if not waiter.wait():
                raise RuntimeError(
                    "state-transfer migration did not complete: donor "
                    "shard never answered the export request")
        for migration in self._migrating.values():
            self._complete_aligned(migration, mid_stream=False)
        self._migrating.clear()

    # -- supervisor hooks ----------------------------------------------------

    def disable_planning(self) -> None:
        """Permanently stop planning migrations (a lane was retired).

        A retired lane reports near-zero load, so the balancer would
        happily pick it as a thief — and events fed to it would vanish.
        After a migrate recovery the remaining lanes keep their routes
        for the rest of the run.
        """
        self._closing = True

    def on_recovery(self, position: int) -> None:
        """Reset control-channel expectations after a shard was rebuilt.

        The dead worker's un-answered messages fall into two classes:
        state-bearing requests (export/import) are journaled by the
        supervisor and re-answered during replay, while ephemeral ones
        must be re-asked — pending aligned drains are re-armed here, and
        an epoch stuck waiting on the dead shard's load report is
        abandoned (the next interval starts a fresh one; late answers
        carry a stale epoch and are ignored).
        """
        if self._awaiting_reports:
            self._awaiting_reports.clear()
            self._reports = {}
            self._events_since_epoch = 0
        for migration in self._migrating.values():
            if (migration.source == position and not migration.transfer
                    and migration.drain_pending):
                migration.drain_pending = False

    # -- control-channel handling -------------------------------------------

    def _request_handoffs(self) -> None:
        for migration in self._migrating.values():
            if migration.drain_pending:
                continue
            migration.drain_pending = True
            if migration.transfer:
                self._send(migration.source,
                           ("export", migration.key, migration.cut))
            else:
                self._send(migration.source,
                           ("drain", migration.agentid, migration.cut))

    def _deliver(self, position: int, response: Tuple) -> None:
        kind = response[0]
        if kind == "load":
            _, epoch, report = response
            if epoch == self._epoch and position in self._awaiting_reports:
                self._awaiting_reports.discard(position)
                self._reports[position] = report
                if not self._awaiting_reports:
                    self._plan_epoch()
        elif kind == "drain":
            _, agentid, cut, drained = response
            migration = self._migrating.get(agentid.casefold())
            if (migration is None or migration.source != position
                    or migration.cut != cut):
                return  # stale answer from a superseded migration
            if drained:
                self._complete_aligned(migration, mid_stream=True)
                del self._migrating[migration.key]
            else:
                # Not drained yet: re-ask on the next batch boundary.
                migration.drain_pending = False
        elif kind == "export":
            _, key, cut, payload = response
            migration = self._migrating.get(key)
            if (migration is None or migration.source != position
                    or migration.cut != cut or not migration.transfer
                    or migration.exported):
                return  # stale answer from a superseded migration
            # Both lanes are paused, so importing now is safe: the state
            # merges into a frozen thief whose frontier cannot advance
            # past it.  The held events wait until the whole group has
            # exported, then flow in one journal-ordered merge.
            self._send(migration.target,
                       ("import", migration.key, payload))
            migration.exported = True
            if all(m.exported for m in self._migrating.values()
                   if m.transfer):
                self._flush_transfer_group()
        # "import" acknowledgements need no action: ordering is FIFO.

    def _flush_transfer_group(self) -> None:
        """Complete every exported transfer migration in one group.

        The held buffers of all victims and the thief's paused backlog
        cover the same stretch of the stream, so they are merged in
        journal order before feeding — delivering them buffer-by-buffer
        would let one buffer's newer events advance the thief's watermark
        past another's older events, closing windows early and splitting
        their alerts.  Then the routes switch and both lanes resume.
        """
        group = [migration for migration in self._migrating.values()
                 if migration.transfer and migration.exported]
        held: Dict[int, List[Event]] = {}
        for migration in group:
            held.setdefault(migration.target, []).extend(migration.buffer)
        for target, events in held.items():
            if self._drain_pending is not None:
                events.extend(self._drain_pending(target))
            events.sort(key=lambda event: (event.timestamp, event.event_id))
            if self._feed_events is not None:
                self._feed_events(target, events)
        for migration in group:
            self._overrides[migration.key] = migration.target
            self._purge_route(migration.key)
            self.records.append(MigrationRecord(
                agentid=migration.agentid,
                source=migration.source,
                target=migration.target,
                cut=migration.cut,
                events_held=len(migration.buffer),
                completed_mid_stream=not self._closing,
                transferred=True))
            migration.buffer = []
            del self._migrating[migration.key]
            self._paused[migration.source] -= 1
            self._paused[migration.target] -= 1
        if self._flush_pending is not None:
            for position in sorted({m.source for m in group}
                                   | {m.target for m in group}):
                if not self.is_paused(position):
                    self._flush_pending(position)

    def _plan_epoch(self) -> None:
        if self._closing:
            return
        if self._transfer and self._migrating:
            # One transfer group at a time: its lanes are paused, and a
            # second group could overlap them inconsistently.  Sustained
            # skew resolves over the following epochs.
            return
        loads = [dict(self._reports[position].events_by_agentid)
                 for position in range(self._shard_count)]

        def stealable(agentid: str) -> bool:
            return (agentid.casefold() not in self._migrating
                    and self._stealable(agentid))

        planned: List[_ActiveMigration] = []
        for decision in self._balancer.plan(loads, stealable=stealable):
            # The reports describe the closing epoch; only act when the
            # victim still routes to the reported donor (a migration that
            # completed mid-epoch splits its counts across two reports).
            if self._resolve_route(decision.agentid) != decision.source:
                continue
            cut = self._eligibility.cut_after(self._watermark)
            migration = _ActiveMigration(
                agentid=decision.agentid,
                key=decision.agentid.casefold(),
                source=decision.source,
                target=decision.target,
                cut=cut,
                transfer=self._transfer)
            self._migrating[migration.key] = migration
            planned.append(migration)
        if self._transfer:
            for migration in planned:
                # Freeze both lanes at the planning watermark: push the
                # parent's pending buffers down (the export must see
                # every already-routed victim event; the thief must not
                # advance past the events about to be held), then stop
                # feeding until the group completes.
                if self._flush_pending is not None:
                    self._flush_pending(migration.source)
                    self._flush_pending(migration.target)
                self._paused[migration.source] += 1
                self._paused[migration.target] += 1

    @property
    def migrations_in_flight(self) -> int:
        """How many migrations are currently between decision and handoff."""
        return len(self._migrating)

    def _complete_aligned(self, migration: _ActiveMigration,
                          mid_stream: bool) -> None:
        self._flush(migration.target, migration.buffer)
        self._overrides[migration.key] = migration.target
        self._purge_route(migration.key)
        self.records.append(MigrationRecord(
            agentid=migration.agentid,
            source=migration.source,
            target=migration.target,
            cut=migration.cut,
            events_held=len(migration.buffer),
            completed_mid_stream=mid_stream,
            transferred=migration.transfer))
        migration.buffer = []


class _ShardCheckpointer:
    """Parent-coordinated checkpointing for one sharded ``execute`` run.

    At batch boundaries where a checkpoint is due (every ``interval``
    routed events) and no migration is in flight, the parent flushes its
    routing buffers, posts a ``("snapshot", seq)`` control message to
    every shard, and blocks until all answers arrive — control messages
    are processed in feed order, so each shard's snapshot reflects
    exactly the events routed to it so far, and together with the
    parent's stream cursor they form one consistent global checkpoint.
    Responses for other subsystems that surface while waiting (load
    reports, drain/export answers) are forwarded to the stealing
    coordinator instead of being dropped.
    """

    def __init__(self, store, interval: int, shard_count: int,
                 send, poll, flush_all, single_lane,
                 overrides: Dict[str, int], resolved_map,
                 resume_cursor=None, steal_coordinator=None,
                 liveness=None, on_checkpoint=None):
        self._store = store
        self._liveness = liveness
        self._on_checkpoint = on_checkpoint
        self._interval = interval
        self._shard_count = shard_count
        self._send = send
        self._poll = poll
        self._flush_all = flush_all
        self._single_lane = single_lane
        self._overrides = overrides
        self._resolved_map = resolved_map
        self._coordinator = steal_coordinator
        self._sequence = 0
        self._events_since = 0
        # A resumed run continues the crashed run's cursor — in
        # particular the frontier ids at the watermark.  Starting from
        # scratch instead would let a checkpoint written right after a
        # resume carry only the post-resume ids of a tied timestamp, and
        # a second recovery would re-deliver the pre-crash ties whose
        # effects are already in the restored state.
        self._events_total = (resume_cursor.events_ingested
                              if resume_cursor is not None else 0)
        self._watermark = (resume_cursor.watermark
                           if resume_cursor is not None else float("-inf"))
        self._last_event_id = (resume_cursor.last_event_id
                               if resume_cursor is not None else 0)
        self._frontier: set = (set(resume_cursor.frontier_ids)
                               if resume_cursor is not None else set())
        #: Checkpoints written during this run (for observability/tests).
        self.checkpoints_written = 0

    def observe_batch(self, batch: Sequence[Event]) -> None:
        """Advance the global stream cursor over one routed batch."""
        for event in batch:
            timestamp = event.timestamp
            if timestamp > self._watermark:
                self._watermark = timestamp
                self._frontier = {event.event_id}
            elif timestamp == self._watermark:
                self._frontier.add(event.event_id)
            self._last_event_id = event.event_id
        self._events_since += len(batch)
        self._events_total += len(batch)

    def maybe_checkpoint(self) -> None:
        """Checkpoint when due; deferred while a migration is in flight.

        A migration between decision and handoff keeps victim events in a
        parent-side buffer no shard snapshot can see; waiting for the
        handoff (at most a few batches) keeps the checkpoint a pure
        function of the shards plus the cursor.
        """
        if self._events_since < self._interval:
            return
        if (self._coordinator is not None
                and self._coordinator.migrations_in_flight):
            return
        self.checkpoint()

    def checkpoint(self, deadline: float = 30.0) -> None:
        """Collect one consistent snapshot from every lane and persist it."""
        from repro.core.snapshot.codecs import SNAPSHOT_VERSION, encode_float
        self._flush_all()
        self._sequence += 1
        for position in range(self._shard_count):
            self._send(position, ("snapshot", self._sequence))
        collected: Dict[int, Any] = {}
        waiter = DEFAULT_BACKOFF.waiter(deadline)
        while len(collected) < self._shard_count:
            progressed = False
            for position, response in self._poll():
                if response[0] == "snapshot":
                    _, sequence, state = response
                    if sequence == self._sequence:
                        collected[position] = state
                        progressed = True
                elif self._coordinator is not None:
                    self._coordinator._deliver(position, response)
            if len(collected) >= self._shard_count:
                break
            if progressed:
                waiter.reset()
                continue
            if self._liveness is not None:
                # The supervisor raises ShardFailure for a dead or silent
                # lane; this checkpoint attempt aborts (its sequence is
                # burned, late answers are filtered) and the next due
                # batch retries against the recovered lane.
                self._liveness(
                    set(range(self._shard_count)) - set(collected),
                    waiter.elapsed)
            if not waiter.wait():
                raise RuntimeError(
                    "checkpoint timed out: a shard never answered the "
                    "snapshot request")
        snapshot = {
            "version": SNAPSHOT_VERSION,
            "kind": "sharded",
            "shard_count": self._shard_count,
            "shards": [collected[position]
                       for position in range(self._shard_count)],
            "single_lane": (self._single_lane.export_state()
                            if self._single_lane is not None else None),
            "overrides": dict(self._overrides),
            "resolved_map": (dict(self._resolved_map)
                             if self._resolved_map is not None else None),
            "cursor": {
                "watermark": encode_float(self._watermark),
                "last_event_id": self._last_event_id,
                "frontier_ids": sorted(self._frontier),
                "events_ingested": self._events_total,
            },
        }
        self._store.save(snapshot)
        self.checkpoints_written += 1
        self._events_since = 0
        if self._on_checkpoint is not None:
            # The supervisor adopts the snapshot as the new recovery base
            # and drops its event/control backlog (everything journaled
            # so far is contained in the snapshot: the buffers were
            # flushed above and control messages run in feed order).
            self._on_checkpoint(snapshot)



def _lane_feeders(lanes, buffers: List[List["Event"]],
                  active: Sequence[bool], feed=None, send=None):
    """Build the parent-side routing-buffer plumbing for one backend.

    All three lane classes expose ``feed``/``request_control``, so the
    serial/thread and process execute paths share these closures instead
    of maintaining drifting copies: ``flush_pending`` pushes one lane's
    buffered events down its feed channel, ``flush_all_pending`` does so
    for every lane (checkpoint barrier), ``drain_pending`` pops and
    returns a lane's buffer (transfer-group journal merge),
    ``feed_events`` delivers an explicit event list to an active lane,
    and ``send`` posts a control message.

    ``feed(position, batch)`` / ``send(position, message)`` default to
    direct lane calls; a supervised run passes the supervisor's wrappers
    so every delivery is journaled and failure-recovered.  The routing
    buffer is detached *before* feeding: a supervised feed may recover
    the lane mid-call (replaying the journaled batch), and the buffer
    re-flushing afterwards would deliver it twice.
    """
    if feed is None:
        def feed(position: int, batch: List[Event]) -> None:
            lanes[position].feed(batch)
    if send is None:
        def send(position: int, message: Tuple) -> None:
            lanes[position].request_control(message)

    def flush_pending(position: int) -> None:
        if buffers[position]:
            batch = buffers[position]
            buffers[position] = []
            feed(position, batch)

    def flush_all_pending() -> None:
        for position in range(len(buffers)):
            flush_pending(position)

    def drain_pending(position: int) -> List[Event]:
        drained = buffers[position]
        buffers[position] = []
        return drained

    def feed_events(position: int, events: Sequence[Event]) -> None:
        if events and active[position]:
            feed(position, list(events))

    return flush_pending, flush_all_pending, drain_pending, feed_events, send


# ---------------------------------------------------------------------------
# Shard supervision (in-run crash/hang recovery)
# ---------------------------------------------------------------------------

class _RetiredLane:
    """Placeholder for a shard whose state migrated to the survivors.

    After a migrate recovery the position's traffic is re-routed at the
    source (overrides for known agentids, :meth:`_ShardSupervisor.reroute`
    for fresh ones), but the control protocol still addresses every
    position — checkpoints snapshot all lanes, epochs collect all load
    reports — so the retired slot answers control messages inline against
    the drained salvage scheduler and contributes its salvaged alerts at
    finish.  It reports itself alive (there is no worker to die) and
    refuses event feeds loudly: any feed reaching it is a routing bug.
    """

    def __init__(self, index: int, scheduler: ConcurrentQueryScheduler,
                 alerts: List[Alert]):
        self.index = index
        self.generation = -1
        self._scheduler = scheduler
        self._alerts = alerts
        self._responses: List[Tuple] = []

    def feed(self, batch: List[Event],
             timeout: Optional[float] = None) -> None:
        raise ShardFailure(
            self.index, "retired",
            f"shard {self.index} was retired after state migration; its "
            "events must re-route to the survivors")

    def request_control(self, message: Tuple,
                        timeout: Optional[float] = None) -> None:
        self._responses.append(_answer_control(self._scheduler, message))

    def poll_control(self) -> List[Tuple]:
        responses, self._responses = self._responses, []
        return responses

    def buffer_sample(self) -> Tuple[int, int]:
        return (0, 0)

    def is_alive(self) -> bool:
        return True

    def finish(self, timeout: Optional[float] = None
               ) -> Tuple[List[Alert], SchedulerStats]:
        # The salvage scheduler replayed the dead lane's backlog, so its
        # registry carries that work; snapshot directly (its finish() is
        # never called — the migrated state flushes on the survivors).
        if self._scheduler.metrics.enabled:
            self._scheduler.stats.metrics_snapshot = (
                self._scheduler.metrics.snapshot())
        return self._alerts, self._scheduler.stats

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        pass

    def join(self) -> None:
        pass


class _ShardSupervisor:
    """Detects dead/hung shard lanes and recovers them without aborting.

    One supervisor lives for one ``execute`` run.  It interposes on every
    delivery to the lanes (the supervised ``feed``/``send`` closures of
    :func:`_lane_feeders`), journaling a per-shard backlog of event
    batches and state-bearing control messages (export/import) since the
    last completed checkpoint.  Failures surface three ways: a delivery
    raises :class:`ShardFailure` (dead worker, enqueue deadline passed),
    the per-batch liveness scan finds a worker gone, or a ``("ping",
    seq)`` probe ages past ``probe_timeout``.  Recovery then either

    * **restarts** the lane — rebuild it from the last checkpoint slice
      (None at run start) and replay the journaled backlog; the restored
      alert ledger reproduces pre-checkpoint alerts and the replay
      regenerates the rest, so the merged stream matches a fault-free
      run (a crashed worker never shipped its partial output: process
      lanes report alerts only at end of stream, in-process lanes' alert
      lists die with the replaced object); or
    * **migrates** — when no checkpoint exists, the backlog (which then
      spans the whole run) is replayed into a parent-side salvage
      scheduler, every agentid observed is exported through the snapshot
      codecs and imported into a surviving lane (journaled there, so a
      survivor crash replays it too), routes are overridden, and the
      position is retired.  Requires a state-transfer-eligible lane
      (same analysis as stealing), no pinned queries homed to the
      position, at least one survivor, and no migration in flight; any
      miss falls back to restart (with no checkpoint the backlog covers
      the run from its start, so a from-scratch replay is always
      available).  Stat counters for replayed work are counted by the
      replaying lane, so merged work counters may exceed a fault-free
      run's — the alert stream is what is guaranteed identical.

    ``max_recoveries`` bounds recoveries per shard: a deterministic
    poison batch would otherwise crash-replay-crash forever.
    """

    _JOURNALED_CONTROL = ("export", "import")

    def __init__(self, policy: SupervisionPolicy, backend: str,
                 lanes: List[Any], active: List[bool], rebuild,
                 restored: Optional[Dict[str, Any]],
                 overrides: Dict[str, int],
                 route_cache: Dict[str, int],
                 build_spare=None, allow_migrate: bool = False,
                 pinned_positions: frozenset = frozenset()):
        self._policy = policy
        self._backend = backend
        self._lanes = lanes            # mutated in place on recovery
        self._active = active          # mutated in place on retirement
        self._rebuild = rebuild
        self._snapshot = restored      # latest sharded snapshot (or None)
        self._overrides = overrides
        self._route_cache = route_cache
        self._build_spare = build_spare
        self._allow_migrate = allow_migrate
        self._pinned_positions = pinned_positions
        self._backlogs: List[List[Tuple[str, Any]]] = [[] for _ in lanes]
        self._generations: List[int] = [0] * len(lanes)
        self._recovery_counts: Counter = Counter()
        self._retired: set = set()
        self._survivors: Dict[int, Tuple[int, ...]] = {}
        self._pings: Dict[int, Tuple[int, float]] = {}
        self._ping_seq = 0
        self._events_since_probe = 0
        self._closing = False
        self._poll = None
        self._coordinator = None
        self._drain_parent = None
        self._requeue = None
        self._standalone_pump = True
        #: Completed recoveries, in order (observability, benchmarks).
        self.records: List[RecoveryRecord] = []

    def bind(self, coordinator=None, drain_parent=None,
             requeue=None) -> None:
        """Late-bind run plumbing built after the supervisor."""
        self._coordinator = coordinator
        self._drain_parent = drain_parent
        self._requeue = requeue
        # With a stealing coordinator, its per-batch pump drains the
        # control channel (and our poll wrapper skims the pongs); without
        # one the supervisor pumps itself or probes would never age out.
        self._standalone_pump = coordinator is None

    # -- supervised delivery -------------------------------------------------

    def generation(self, position: int) -> int:
        return self._generations[position]

    def feed(self, position: int, batch: List[Event]) -> None:
        """Deliver one event batch, journaling it first."""
        if position in self._retired:
            if self._requeue is not None:
                self._requeue(batch)
            return
        if not self._active[position]:
            return
        self._backlogs[position].append(("events", batch))
        self._operate(
            position,
            lambda lane: lane.feed(batch,
                                   timeout=self._policy.feed_timeout),
            journaled=True)

    def send(self, position: int, message: Tuple) -> None:
        """Deliver one control message (journaled when state-bearing)."""
        journaled = message[0] in self._JOURNALED_CONTROL
        if journaled and position not in self._retired:
            self._backlogs[position].append(("ctrl", message))
        self._operate(
            position,
            lambda lane: lane.request_control(
                message, timeout=self._policy.feed_timeout),
            journaled=journaled)

    def _operate(self, position: int, operation, journaled: bool) -> None:
        """Run one delivery, recovering the lane on failure.

        A journaled delivery is not retried after recovery — the backlog
        replay already carried it into the replacement.  A non-journaled
        one (ping, snapshot, load, drain) is retried so the request
        actually reaches the rebuilt lane.
        """
        while True:
            try:
                operation(self._lanes[position])
                return
            except ShardFailure as failure:
                if failure.reason == "retired":
                    return
                self.recover(position, failure.reason, str(failure))
            except Exception as error:
                self.recover(position, "error",
                             f"{type(error).__name__}: {error}")
            if journaled or position in self._retired:
                return

    # -- detection -----------------------------------------------------------

    def wrap_poll(self, poll):
        """Wrap a backend's control poll: skim pongs, drain retired lanes.

        The process backend's poll reads the shared out-queue only, so a
        retired slot's inline answers (snapshots, load reports) are
        collected here; the in-process backends iterate the lane list
        and pick them up natively.
        """
        drain_retired = self._backend == "process"

        def supervised_poll() -> List[Tuple[int, Tuple]]:
            responses: List[Tuple[int, Tuple]] = []
            for position, response in poll():
                if response and response[0] == "ping":
                    self._pings.pop(position, None)
                else:
                    responses.append((position, response))
            if drain_retired:
                for position in sorted(self._retired):
                    for response in self._lanes[position].poll_control():
                        if response and response[0] == "ping":
                            continue
                        responses.append((position, response))
            return responses

        self._poll = supervised_poll
        return supervised_poll

    def after_batch(self, routed_events: int) -> None:
        """Per-batch supervision: liveness scan, probe aging, new probes."""
        if self._standalone_pump and self._poll is not None:
            # Nobody else drains the control channel this run; skim the
            # pongs and drop anything else (it can only be a stale answer
            # from an aborted checkpoint attempt).
            self._poll()
        now = time.monotonic()
        for position, lane in enumerate(self._lanes):
            if position in self._retired or not self._active[position]:
                continue
            alive = getattr(lane, "is_alive", None)
            if alive is not None and not alive():
                self.recover(position, "dead",
                             f"shard {position} worker found dead by the "
                             "liveness scan")
                continue
            pending = self._pings.get(position)
            if (pending is not None
                    and now - pending[1] > self._policy.probe_timeout):
                del self._pings[position]
                self.recover(position, "hung",
                             f"shard {position} did not answer liveness "
                             f"probe {pending[0]} within "
                             f"{self._policy.probe_timeout:.1f}s")
        self._events_since_probe += routed_events
        if self._events_since_probe < self._policy.probe_interval:
            return
        self._events_since_probe = 0
        self._ping_seq += 1
        for position in range(len(self._lanes)):
            if (position in self._retired or not self._active[position]
                    or position in self._pings):
                continue
            self._pings[position] = (self._ping_seq, now)
            self._operate(
                position,
                lambda lane, seq=self._ping_seq: lane.request_control(
                    ("ping", seq), timeout=self._policy.feed_timeout),
                journaled=False)

    def liveness(self, pending, stalled: float) -> None:
        """Raise for a dead/silent lane the parent is waiting on.

        Passed to the checkpointer's collection loop and the stealing
        coordinator's finalize so a mid-handshake crash surfaces as a
        recoverable :class:`ShardFailure` instead of a deadline timeout.
        """
        for position in sorted(pending):
            if position in self._retired or not self._active[position]:
                continue
            lane = self._lanes[position]
            alive = getattr(lane, "is_alive", None)
            if alive is not None and not alive():
                raise ShardFailure(
                    position, "dead",
                    f"shard {position} worker died while the parent "
                    "awaited its control answer")
        if stalled > self._policy.probe_timeout:
            for position in sorted(pending):
                if (position not in self._retired
                        and self._active[position]):
                    raise ShardFailure(
                        position, "hung",
                        f"shard {position} went silent for "
                        f"{stalled:.1f}s during a control round")

    def attempt(self, operation) -> bool:
        """Run a parent-side control round; False when it was cut short
        by a shard failure (the lane is recovered, the caller retries)."""
        try:
            operation()
            return True
        except ShardFailure as failure:
            if failure.reason == "retired":
                return True
            self.recover(failure.position, failure.reason, str(failure))
            return False

    # -- recovery ------------------------------------------------------------

    def recover(self, position: int, reason: str, detail: str) -> None:
        """Recover one failed lane (restart or migrate); raises once the
        shard exhausts its recovery budget."""
        start = time.monotonic()
        self._pings.pop(position, None)
        self._teardown(self._lanes[position])
        self._recovery_counts[position] += 1
        if self._recovery_counts[position] > self._policy.max_recoveries:
            raise ShardFailure(
                position, reason,
                f"shard {position} exceeded its recovery budget "
                f"({self._policy.max_recoveries}) — last failure: {detail}")
        slice_ = self._snapshot_slice(position)
        mode = self._policy.recovery
        if mode == "auto":
            mode = "restart" if slice_ is not None else "migrate"
        if mode == "migrate" and (slice_ is not None
                                  or not self._can_migrate(position)):
            # With a checkpoint, hosts absent from the backlog have state
            # only the slice knows about; they cannot be re-homed, so
            # restart is the sound path.
            mode = "restart"
        if mode == "migrate":
            self.records.append(self._migrate(position, reason, start))
        else:
            # _restart appends its own record *before* recursing on a
            # replay failure, so completed recoveries stay recorded even
            # when a later nested one exhausts the budget and raises.
            self._restart(position, reason, slice_, start)
        if self._coordinator is not None:
            self._coordinator.on_recovery(position)

    def _teardown(self, lane) -> None:
        """Release a failed lane's worker without waiting on it."""
        for method in ("kill", "abandon", "close"):
            teardown = getattr(lane, method, None)
            if teardown is not None:
                try:
                    teardown()
                except Exception:
                    pass
                return

    def _snapshot_slice(self, position: int) -> Optional[Dict[str, Any]]:
        if self._snapshot is None:
            return None
        return self._snapshot["shards"][position]

    def _restart(self, position: int, reason: str,
                 slice_: Optional[Dict[str, Any]],
                 start: float) -> None:
        generation = self._generations[position] + 1
        self._generations[position] = generation
        lane = self._rebuild(position, generation, slice_)
        self._lanes[position] = lane
        replayed = 0
        timeout = self._policy.feed_timeout
        replay_failure: Optional[Tuple[str, str]] = None
        for kind, payload in list(self._backlogs[position]):
            try:
                if kind == "events":
                    replayed += len(payload)
                    lane.feed(payload, timeout=timeout)
                else:
                    lane.request_control(payload, timeout=timeout)
            except ShardFailure as failure:
                replay_failure = (failure.reason, str(failure))
                break
            except Exception as error:
                replay_failure = ("error",
                                  f"{type(error).__name__}: {error}")
                break
        self.records.append(RecoveryRecord(
            position=position, reason=reason, mode="restart",
            events_replayed=replayed,
            latency=time.monotonic() - start,
            backend=self._backend,
            restored_checkpoint=slice_ is not None))
        if replay_failure is not None:
            # The replacement failed too (the backlog holds a poison
            # batch, or the fault plan re-armed): recurse — the nested
            # recovery replays the whole backlog itself, and the budget
            # bounds the recursion.
            self.recover(position, replay_failure[0], replay_failure[1])

    def _can_migrate(self, position: int) -> bool:
        if not self._allow_migrate or self._closing:
            return False
        if position in self._pinned_positions or self._build_spare is None:
            return False
        if (self._coordinator is not None
                and self._coordinator.migrations_in_flight):
            return False
        return any(p != position and self._active[p]
                   and p not in self._retired
                   for p in range(len(self._lanes)))

    def _migrate(self, position: int, reason: str,
                 start: float) -> RecoveryRecord:
        # No checkpoint exists (checked by the caller), so the backlog
        # spans the run from its start: replaying it into a fresh salvage
        # scheduler reproduces the dead lane's full state and every alert
        # it emitted but never shipped.
        salvage = self._build_spare(position)
        salvaged: List[Alert] = []
        replayed = 0
        keys: List[str] = []
        seen: set = set()
        for kind, payload in self._backlogs[position]:
            if kind == "events":
                replayed += len(payload)
                salvaged.extend(salvage.process_events(payload))
                for event in payload:
                    key = event.agentid.casefold()
                    if key not in seen:
                        seen.add(key)
                        keys.append(key)
            else:
                # Re-run journaled exports/imports so the salvage state
                # matches the dead lane's exactly: a replayed export
                # removes state a completed steal moved away, a replayed
                # import restores state stolen *to* this lane (and its
                # agentid then migrates onward with the rest).
                _answer_control(salvage, payload)
                if payload[0] == "import" and payload[1] not in seen:
                    seen.add(payload[1])
                    keys.append(payload[1])
        survivors = tuple(p for p in range(len(self._lanes))
                          if p != position and self._active[p]
                          and p not in self._retired)
        moved: List[str] = []
        for key in keys:
            payload = salvage.extract_agent_state(key)
            target = survivors[zlib.crc32(key.encode("utf-8"))
                               % len(survivors)]
            self.send(target, ("import", key, payload))
            self._overrides[key] = target
            self._purge_route(key)
            moved.append(key)
        salvaged.extend(salvage.finish())
        self._lanes[position] = _RetiredLane(position, salvage, salvaged)
        self._retired.add(position)
        self._active[position] = False
        self._survivors[position] = survivors
        self._backlogs[position] = []
        if self._coordinator is not None:
            self._coordinator.disable_planning()
        if self._drain_parent is not None and self._requeue is not None:
            # The parent's routing buffer for the dead lane re-routes to
            # the survivors (through the overrides just installed).
            self._requeue(self._drain_parent(position))
        return RecoveryRecord(
            position=position, reason=reason, mode="migrate",
            events_replayed=replayed,
            latency=time.monotonic() - start,
            backend=self._backend,
            restored_checkpoint=False,
            migrated_agentids=tuple(moved))

    def _purge_route(self, key: str) -> None:
        for cached in [spelling for spelling in self._route_cache
                       if spelling.casefold() == key]:
            del self._route_cache[cached]

    # -- routing and lifecycle ----------------------------------------------

    def reroute(self, agentid: str, position: int) -> int:
        """Redirect traffic for retired positions to their survivors.

        Known agentids were redirected through the overrides during the
        migration; an agentid first seen afterwards still hashes to the
        retired slot and is re-homed here — deterministically, and the
        override is installed so checkpoints persist the route.
        """
        if position not in self._retired:
            return position
        key = agentid.casefold()
        target = self._overrides.get(key)
        if target is None or target in self._retired:
            survivors = self._survivors[position]
            target = survivors[zlib.crc32(key.encode("utf-8"))
                               % len(survivors)]
            self._overrides[key] = target
            self._purge_route(key)
        return target

    def note_checkpoint(self, snapshot: Dict[str, Any]) -> None:
        """Adopt a completed checkpoint as the recovery base."""
        self._snapshot = snapshot
        self._backlogs = [[] for _ in self._lanes]

    def set_closing(self) -> None:
        """Enter the result-collection phase: migrate recoveries are off
        (the survivors' feed channels already carry their stop sentinel,
        so an import could never reach them)."""
        self._closing = True

    def finish_lane(self, position: int
                    ) -> Tuple[List[Alert], SchedulerStats]:
        """Finish one in-process lane, recovering (and re-finishing) on
        failure; the replacement's replayed state finishes in its place."""
        while True:
            lane = self._lanes[position]
            try:
                return lane.finish(timeout=self._policy.probe_timeout)
            except ShardFailure as failure:
                if failure.reason == "retired":
                    return lane.finish()
                self.recover(position, failure.reason, str(failure))
            except Exception as error:
                self.recover(position, "error",
                             f"{type(error).__name__}: {error}")


# ---------------------------------------------------------------------------
# The sharded scheduler
# ---------------------------------------------------------------------------

class ShardedScheduler:
    """Executes many SAQL queries over one stream, sharded by ``agentid``.

    The public surface mirrors :class:`ConcurrentQueryScheduler`:
    ``add_query``/``add_queries`` to register, ``execute`` to run over a
    finite stream, ``alerts``/``stats`` afterwards.  Differences:

    * ``add_query`` returns the :class:`ShardabilityReport` for the query
      (also kept in :attr:`reports`) instead of a live engine — with the
      process backend the engines live in the workers.
    * ``execute`` returns the merged alert stream in a deterministic order
      (by timestamp, query, window, payload) that is independent of the
      backend and of shard interleaving.
    * :attr:`stats` is the merged aggregate; :attr:`per_shard_stats` and
      :attr:`single_lane_stats` expose the per-lane figures.
    """

    def __init__(self, shards: int = 4, backend: str = "serial",
                 sink: Optional[AlertSink] = None,
                 enable_sharing: bool = True,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 shard_map: Optional[Union[str, Mapping[str, int]]] = None,
                 auto_prefix: int = DEFAULT_AUTO_PREFIX,
                 rebalance_interval: Optional[int] = None,
                 rebalance_ratio: float = DEFAULT_REBALANCE_RATIO,
                 checkpoint_store=None,
                 checkpoint_interval: Optional[int] = None,
                 supervision: Union[bool, SupervisionPolicy, None] = None,
                 quarantine_errors: Optional[int] = None,
                 fault_plan=None, metrics: bool = True):
        if shards < 1:
            raise ValueError("shard count must be at least 1")
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {_BACKENDS}")
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if quarantine_errors is not None and quarantine_errors < 1:
            raise ValueError("quarantine budget must be at least 1 error")
        if auto_prefix < 1:
            raise ValueError("auto-map prefix must be at least 1 event")
        if rebalance_interval is not None and rebalance_interval < 1:
            raise ValueError("rebalance interval must be at least 1 event")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be at least 1 event")
        if checkpoint_store is not None and checkpoint_interval is None:
            raise ValueError("a checkpoint store needs checkpoint_interval "
                             "(events between checkpoints)")
        self.shards = shards
        self.backend = backend
        self._sink = sink
        self._enable_sharing = enable_sharing
        self._batch_size = batch_size
        # Mid-stream work stealing: None disables it; otherwise the number
        # of routed events between load-report epochs.  The balancer is
        # built per run so each execute() starts from clean epochs.
        self._rebalance_interval = rebalance_interval
        self._rebalance_ratio = rebalance_ratio
        if rebalance_interval is not None:
            # Validate the ratio eagerly (the balancer owns the rule).
            WorkStealingBalancer(ratio=rebalance_ratio)
        # Load-aware assignment: None/"hash" = stable crc32 of the agentid;
        # "auto" = bin-pack by the event counts of a stream prefix at
        # execute() time; a mapping = explicit agentid -> shard overrides.
        if isinstance(shard_map, str) and shard_map not in ("auto", "hash"):
            raise ValueError(f"unknown shard map mode {shard_map!r}; "
                             "expected 'auto', 'hash' or an explicit "
                             "agentid -> shard mapping")
        self._shard_map: Optional[Union[str, Dict[str, int]]] = (
            None if shard_map == "hash" else
            shard_map if isinstance(shard_map, str) or shard_map is None
            else self._validated_map(shard_map))
        self._auto_prefix = auto_prefix
        #: The agentid -> shard overrides routing the current/last run
        #: (casefolded keys; None when pure hash routing is in effect).
        self.resolved_shard_map: Optional[Dict[str, int]] = (
            dict(self._shard_map)
            if isinstance(self._shard_map, dict) else None)
        #: (name, source, pinned agentid or None, compatibility signature)
        #: for queries routed to the sharded lane.
        self._sharded_queries: List[Tuple[str, Union[str, ast.Query],
                                          Optional[str], Any]] = []
        #: (name, source) pairs that must observe the full stream.
        self._single_lane_queries: List[Tuple[str, Union[str, ast.Query]]] = []
        #: query name -> shardability report, in registration order.
        self.reports: Dict[str, ShardabilityReport] = {}
        self._alerts: List[Alert] = []
        self._merged_stats = SchedulerStats()
        self.per_shard_stats: List[SchedulerStats] = []
        self.single_lane_stats: Optional[SchedulerStats] = None
        #: Migrations the last run completed, in completion order.
        self.migrations: List[MigrationRecord] = []
        #: Whether (and why) the last run could steal at all; None until
        #: a run with rebalancing enabled resolves it.
        self.last_steal_eligibility: Optional[StealEligibility] = None
        # Durable checkpointing: the parent coordinates — it flushes its
        # routing buffers, asks every shard for a state snapshot over the
        # control channel, and persists the combined snapshot with the
        # global stream cursor (see repro.core.snapshot).
        self._checkpoint_store = checkpoint_store
        self._checkpoint_interval = checkpoint_interval
        #: Checkpoints the last run persisted.
        self.checkpoints_written = 0
        # Shard supervision: None/False runs fail-fast (historical
        # behaviour), True enables the default policy, or pass a tuned
        # SupervisionPolicy.
        if supervision is True:
            supervision = SupervisionPolicy()
        elif supervision is False:
            supervision = None
        if (supervision is not None
                and not isinstance(supervision, SupervisionPolicy)):
            raise ValueError("supervision must be True/False/None or a "
                             "SupervisionPolicy")
        self._supervision: Optional[SupervisionPolicy] = supervision
        #: Whether every lane runs with a live metrics registry; the
        #: merged snapshot lands on ``stats.metrics_snapshot`` (and
        #: :meth:`metrics_snapshot`) after a run.
        self._metrics_enabled = metrics
        #: Per-query fatal-error budget forwarded to every lane's
        #: scheduler (query quarantine circuit-breaker); None disables it.
        self._quarantine_errors = quarantine_errors
        #: Fault-injection plan (repro.testing.faults) installed into
        #: every lane's scheduler; None outside tests/benchmarks.
        self._fault_plan = fault_plan
        #: In-run shard recoveries the last supervised run performed.
        self.recoveries: List[RecoveryRecord] = []
        #: Snapshot installed by :meth:`restore_state`, consumed by the
        #: next :meth:`execute` (shards restore before feeding starts).
        self._restored: Optional[Dict[str, Any]] = None
        #: Cursor restored by :meth:`restore_state` (None otherwise).
        self.restored_cursor = None

    # -- registration ------------------------------------------------------

    def add_query(self, query: Union[str, ast.Query],
                  name: Optional[str] = None) -> ShardabilityReport:
        """Register one query; returns its shardability report."""
        parsed = parse_query(query) if isinstance(query, str) else query
        if name is None:
            # Workers run their own engine counters, so auto-names must be
            # assigned here to be identical on every shard.
            name = parsed.name or f"query-{len(self.reports) + 1}"
        if name in self.reports:
            raise ValueError(f"duplicate query name {name!r}")
        report = analyze_shardability(parsed)
        self.reports[name] = report
        source: Union[str, ast.Query] = (query if isinstance(query, str)
                                         else parsed)
        if report.shardable:
            self._sharded_queries.append(
                (name, source, report.pinned_agentid,
                 compatibility_signature(parsed)))
        else:
            self._single_lane_queries.append((name, source))
        return report

    def add_queries(self, queries: Iterable[Union[str, ast.Query]]) -> None:
        """Register several queries at once."""
        for query in queries:
            self.add_query(query)

    @property
    def sharded_query_names(self) -> List[str]:
        """Names of the queries running partitioned across the shards."""
        return [entry[0] for entry in self._sharded_queries]

    # -- load-aware shard assignment ---------------------------------------

    def _validated_map(self, mapping: Mapping[str, int]) -> Dict[str, int]:
        """Casefold and range-check an explicit agentid -> shard mapping."""
        validated: Dict[str, int] = {}
        for agentid, position in mapping.items():
            if not 0 <= int(position) < self.shards:
                raise ValueError(
                    f"shard map sends {agentid!r} to shard {position}, "
                    f"outside 0..{self.shards - 1}")
            key = str(agentid).casefold()
            known = validated.get(key)
            if known is not None and known != int(position):
                raise ValueError(
                    f"shard map entries for {agentid!r} collide after "
                    "casefolding (SAQL equality is case-insensitive) with "
                    "conflicting shard targets")
            validated[key] = int(position)
        return validated

    def set_shard_map(self, mapping: Mapping[str, int]) -> None:
        """Install an explicit agentid -> shard map for subsequent runs.

        Use with :meth:`plan_shard_map` when per-host event counts are
        known up front (e.g. from a replay's database statistics) instead
        of observing a stream prefix via ``shard_map="auto"``.
        """
        self._shard_map = self._validated_map(mapping)
        self.resolved_shard_map = dict(self._shard_map)

    def plan_shard_map(self, counts: Mapping[str, int]) -> Dict[str, int]:
        """Greedily bin-pack agentids onto shards by observed event count.

        Longest-processing-time packing: agentids are placed heaviest
        first onto the currently least-loaded shard, so one hot host (the
        ROADMAP's db-server example) no longer saturates the shard crc32
        happens to pick while others idle.  Agentids that satisfy a
        registered query's host pin under SAQL equality are clustered with
        that pin (they must share a shard for the pinned query to observe
        them); pins satisfied by a common agentid collapse into one
        cluster.  The result maps casefolded agentids — including the pin
        literals — to shard positions and is deterministic for equal
        counts (ties break by name, then shard position).
        """
        pins = sorted({pinned for _, _, pinned, _ in self._sharded_queries
                       if pinned is not None})
        # Union-find over pins: an agentid satisfying several pins welds
        # them into one cluster.
        leader = {pin: pin for pin in pins}

        def find(pin: str) -> str:
            while leader[pin] != pin:
                leader[pin] = leader[leader[pin]]
                pin = leader[pin]
            return pin

        cluster_members: Dict[str, List[str]] = {pin: [pin] for pin in pins}
        cluster_weight: Dict[str, int] = {pin: 0 for pin in pins}
        loose: List[Tuple[int, str]] = []
        for agentid in sorted(counts):
            weight = int(counts[agentid])
            matched = [pin for pin in pins
                       if compare_values("==", agentid, pin)]
            if not matched:
                loose.append((weight, agentid))
                continue
            root = find(matched[0])
            for pin in matched[1:]:
                other = find(pin)
                if other != root:
                    leader[other] = root
                    cluster_members[root].extend(cluster_members.pop(other))
                    cluster_weight[root] += cluster_weight.pop(other)
            cluster_members[root].append(agentid)
            cluster_weight[root] += weight
        items: List[Tuple[int, str, Tuple[str, ...]]] = [
            (cluster_weight[root], root, tuple(cluster_members[root]))
            for root in cluster_members
        ]
        items.extend((weight, agentid, (agentid,))
                     for weight, agentid in loose)
        # Heaviest first; name breaks ties so the plan is reproducible.
        items.sort(key=lambda item: (-item[0], item[1]))
        loads = [0] * self.shards
        plan: Dict[str, int] = {}
        for weight, _, members in items:
            if weight <= 0:
                # Pins whose hosts never appeared in the observed counts
                # carry no load signal; leaving them out of the plan keeps
                # the stable-hash routing, which spreads them, instead of
                # LPT piling every zero-weight cluster onto one shard.
                continue
            position = min(range(self.shards), key=lambda i: (loads[i], i))
            loads[position] += weight
            for member in members:
                plan[member.casefold()] = position
        return plan

    def _home_shard(self, agentid: str) -> int:
        """Return the shard routing ``agentid``: map override, else hash."""
        resolved = self.resolved_shard_map
        if resolved is not None:
            position = resolved.get(agentid.casefold())
            if position is not None:
                return position
        return shard_index(agentid, self.shards)

    def _resolve_auto_map(self,
                          stream: Iterable[Event]) -> Iterable[Event]:
        """Materialize the ``auto`` shard map from a stream prefix.

        Consumes up to ``auto_prefix`` events to count per-host load,
        plans the map, and hands back the prefix chained with the rest of
        the stream; re-planned on every run so the map tracks the stream
        actually being executed.
        """
        if self._shard_map == "auto":
            if self._restored is not None:
                # A restored run keeps the crashed run's resolved map —
                # the shard states were partitioned under it, and the
                # resumed stream's prefix is not the original prefix.
                return stream
            iterator = iter(stream)
            prefix = list(itertools.islice(iterator, self._auto_prefix))
            counts = Counter(event.agentid for event in prefix)
            self.resolved_shard_map = self.plan_shard_map(counts)
            return itertools.chain(prefix, iterator)
        return stream

    def _queries_for_shard(self, position: int) -> List[Tuple[str,
                                                              Union[str,
                                                                    ast.Query]]]:
        """Return the queries shard ``position`` must register.

        Host-pinned queries only ever match events of their pin's shard
        (the shard map decides which one that is), so they are routed
        there exclusively — other shards skip their groups (and the
        per-event constraint checks) entirely.  Unpinned host-local
        queries observe every host and register everywhere.
        """
        return [(name, source)
                for name, source, pinned, _ in self._sharded_queries
                if pinned is None
                or self._home_shard(pinned) == position]

    def _make_router(self, overrides: Optional[Dict[str, int]] = None,
                     cache: Optional[Dict[str, int]] = None
                     ) -> Callable[[str], int]:
        """Build the agentid -> shard routing function for one run.

        The default route is the stable hash (:func:`shard_index`), but a
        host-pinned query lives only on its pin's shard, and SAQL equality
        is looser than string identity: it case-folds, coerces numeric
        strings (``"7" == "7.0"``) and treats ``%``/``_`` on *either* side
        as LIKE wildcards.  An event whose agentid satisfies a pin under
        those semantics but hashes elsewhere would silently never reach the
        pinned query, so the router checks each distinct agentid against
        the pins with the engine's own equality and routes it to the
        satisfied pin's shard.  That stays host-consistent for the
        unpinned queries too (every event of one agentid takes one route).
        An agentid satisfying pins on *different* shards cannot be
        partitioned at all and fails loudly.  Distinct agentids are few,
        so the equality checks amortize through a cache.

        The default (non-pin) route consults the work-stealing
        ``overrides`` (casefolded agentid -> shard, installed when a
        migration's handoff completes; pins outrank them, but the balancer
        never steals a pin-satisfying agentid), then the resolved shard
        map (load-aware or explicit assignment), then the stable hash.
        ``cache`` may be passed in so the stealing coordinator can purge
        a migrated agentid's stale entries.  Every backend builds exactly
        ``self.shards`` lanes, which is what the home-shard helper routes
        over.
        """
        pins = sorted({(pinned, self._home_shard(pinned))
                       for _, _, pinned, _ in self._sharded_queries
                       if pinned is not None})
        if cache is None:
            cache = {}

        def route(agentid: str) -> int:
            position = cache.get(agentid)
            if position is None:
                targets = {shard for pin, shard in pins
                           if compare_values("==", agentid, pin)}
                if len(targets) > 1:
                    raise RuntimeError(
                        f"agentid {agentid!r} satisfies host pins on "
                        "different shards under SAQL equality; this stream "
                        "cannot be partitioned — run with shards=1 or "
                        "disambiguate the host identifiers")
                if targets:
                    position = targets.pop()
                elif overrides:
                    position = overrides.get(agentid.casefold())
                    if position is None:
                        position = self._home_shard(agentid)
                else:
                    position = self._home_shard(agentid)
                cache[agentid] = position
            return position

        return route

    def _logical_group_count(self) -> int:
        """Logical compatibility groups across the sharded lane's queries.

        Matches what one full scheduler would form over the same queries:
        one group per distinct compatibility signature under sharing, one
        per query without.
        """
        if not self._enable_sharing:
            return len(self._sharded_queries)
        return len({signature
                    for _, _, _, signature in self._sharded_queries})

    @property
    def single_lane_query_names(self) -> List[str]:
        """Names of the queries running on the full-stream fallback lane."""
        return [name for name, _ in self._single_lane_queries]

    # -- checkpoint restore ------------------------------------------------

    def restore_state(self, snapshot: Dict[str, Any]) -> None:
        """Install a checkpoint for the next :meth:`execute` to resume from.

        The scheduler must be configured identically to the crashed run
        (same shard count, same queries in the same order); the per-shard
        engine states are restored inside the shard workers before any
        event is fed.  :attr:`restored_cursor` then names the journal
        position to resume the stream from (see
        :func:`repro.core.snapshot.recovery.resume_events`).
        """
        from repro.core.snapshot.codecs import check_version
        from repro.core.snapshot.recovery import ResumeCursor
        from repro.events.serialization import decode_float
        check_version(snapshot, "sharded scheduler")
        if snapshot.get("kind") != "sharded":
            raise ValueError("not a sharded-scheduler snapshot; restore "
                             "single-process checkpoints through "
                             "ConcurrentQueryScheduler.restore_state")
        if snapshot["shard_count"] != self.shards:
            raise ValueError(
                f"snapshot was taken with {snapshot['shard_count']} shards "
                f"but this scheduler runs {self.shards}; shard state "
                "cannot be re-partitioned on restore")
        self._restored = snapshot
        resolved = snapshot["resolved_map"]
        self.resolved_shard_map = (dict(resolved) if resolved is not None
                                   else None)
        cursor = snapshot["cursor"]
        self.restored_cursor = ResumeCursor(
            watermark=decode_float(cursor["watermark"]),
            last_event_id=int(cursor["last_event_id"]),
            frontier_ids=frozenset(cursor["frontier_ids"]),
            events_ingested=int(cursor["events_ingested"]),
        )

    # -- results -----------------------------------------------------------

    @property
    def alerts(self) -> List[Alert]:
        """Return the merged, deterministically-ordered alerts."""
        return list(self._alerts)

    @property
    def stats(self) -> SchedulerStats:
        """Return the merged aggregate statistics of the last run."""
        return self._merged_stats

    def metrics_snapshot(self) -> Optional[Dict[str, Any]]:
        """The merged cross-lane metrics snapshot of the last run.

        Counters summed, gauges maxed/lasted, histogram buckets added
        across every shard lane and the full-stream lane (see
        ``repro.obs``); ``None`` before the first run or when the
        scheduler was built with ``metrics=False``.
        """
        return self._merged_stats.metrics_snapshot

    # -- execution ---------------------------------------------------------

    def execute(self, stream: Iterable[Event],
                batch_size: Optional[int] = None) -> List[Alert]:
        """Run all registered queries over a finite stream."""
        size = batch_size if batch_size is not None else self._batch_size
        if size < 1:
            raise ValueError("batch size must be at least 1")
        self.migrations = []
        self.recoveries = []
        # Resolve the auto map before shards are built: pinned-query
        # registration depends on where the map homes each pin.
        stream = self._resolve_auto_map(stream)
        if self.backend == "process" and self._sharded_queries:
            alerts = self._execute_process(stream, size)
        else:
            alerts = self._execute_in_process(stream, size)
        alerts.sort(key=_alert_sort_key)
        self._alerts = alerts
        if self._sink is not None:
            for alert in alerts:
                self._sink.emit(alert)
        return list(alerts)

    # -- work-stealing setup ------------------------------------------------

    def _resolve_steal_eligibility(self) -> Optional[StealEligibility]:
        """Return the lane eligibility when this run should rebalance.

        None when rebalancing is off, pointless (one shard, nothing
        sharded) or vetoed by a steal-unsafe query; the veto verdict is
        still published on :attr:`last_steal_eligibility`.
        """
        if (self._rebalance_interval is None or self.shards < 2
                or not self._sharded_queries):
            return None
        eligibility = steal_eligibility(self.reports)
        self.last_steal_eligibility = eligibility
        return eligibility if eligibility.eligible else None

    def _stealable_predicate(self) -> Callable[[str], bool]:
        """Build the victim filter: pin-satisfying agentids stay put."""
        pins = sorted({pinned for _, _, pinned, _ in self._sharded_queries
                       if pinned is not None})

        def stealable(agentid: str) -> bool:
            return not any(compare_values("==", agentid, pin)
                           for pin in pins)

        return stealable

    def _make_coordinator(self, eligibility: StealEligibility,
                          lane_count: int, send, poll, flush,
                          resolve_route, route_cache: Dict[str, int],
                          overrides: Dict[str, int],
                          flush_pending=None,
                          feed_events=None,
                          drain_pending=None) -> _StealingCoordinator:
        def purge_route(key: str) -> None:
            # Drop every cached spelling of the migrated agentid so the
            # next lookup consults the fresh override.
            for cached in [spelling for spelling in route_cache
                           if spelling.casefold() == key]:
                del route_cache[cached]

        assert self._rebalance_interval is not None
        return _StealingCoordinator(
            shard_count=lane_count,
            interval=self._rebalance_interval,
            balancer=WorkStealingBalancer(ratio=self._rebalance_ratio),
            eligibility=eligibility,
            stealable=self._stealable_predicate(),
            send=send, poll=poll, flush=flush,
            resolve_route=resolve_route,
            purge_route=purge_route,
            route_overrides=overrides,
            flush_pending=flush_pending,
            feed_events=feed_events,
            drain_pending=drain_pending)

    def _make_checkpointer(self, lane_count: int, send, poll, flush_all,
                           single_lane, overrides: Dict[str, int],
                           restored, coordinator, supervisor=None
                           ) -> Optional[_ShardCheckpointer]:
        if self._checkpoint_store is None:
            return None
        assert self._checkpoint_interval is not None
        return _ShardCheckpointer(
            store=self._checkpoint_store,
            interval=self._checkpoint_interval,
            shard_count=lane_count,
            send=send, poll=poll, flush_all=flush_all,
            single_lane=single_lane,
            overrides=overrides,
            resolved_map=self.resolved_shard_map,
            resume_cursor=(self.restored_cursor
                           if restored is not None else None),
            steal_coordinator=coordinator,
            liveness=(supervisor.liveness if supervisor is not None
                      else None),
            on_checkpoint=(supervisor.note_checkpoint
                           if supervisor is not None else None))

    def _make_supervisor(self, lanes: List[Any], active: List[bool],
                         rebuild, restored, overrides: Dict[str, int],
                         route_cache: Dict[str, int],
                         track_load: bool) -> Optional[_ShardSupervisor]:
        if self._supervision is None or not lanes:
            return None
        pinned = {self._home_shard(pin)
                  for _, _, pin, _ in self._sharded_queries
                  if pin is not None}
        eligibility = (steal_eligibility(self.reports)
                       if self._sharded_queries else None)
        allow_migrate = (self.shards > 1 and eligibility is not None
                         and eligibility.eligible)

        def build_spare(position: int) -> ConcurrentQueryScheduler:
            return _build_scheduler(
                self._queries_for_shard(position), self._enable_sharing,
                track_load, self._quarantine_errors,
                metrics=self._metrics_enabled, shard_id=position)

        return _ShardSupervisor(
            self._supervision, self.backend, lanes, active, rebuild,
            restored, overrides, route_cache,
            build_spare=build_spare, allow_migrate=allow_migrate,
            pinned_positions=frozenset(pinned))

    def _single_lane_scheduler(self) -> Optional[ConcurrentQueryScheduler]:
        if not self._single_lane_queries:
            return None
        # The full-stream lane labels its watermark series after the last
        # shard position so it never collides with a sharded lane's.
        return _build_scheduler(self._single_lane_queries,
                                self._enable_sharing,
                                quarantine_errors=self._quarantine_errors,
                                metrics=self._metrics_enabled,
                                shard_id=self.shards)

    def _finalize(self, shard_results: Sequence[Tuple[List[Alert],
                                                      SchedulerStats]],
                  single_lane: Optional[ConcurrentQueryScheduler],
                  single_alerts: List[Alert],
                  events_ingested: int,
                  sampled_peaks: Optional[Tuple[int, int]] = None
                  ) -> List[Alert]:
        alerts: List[Alert] = []
        self.per_shard_stats = []
        for shard_alerts, shard_stats in shard_results:
            alerts.extend(shard_alerts)
            self.per_shard_stats.append(shard_stats)
        self.single_lane_stats = None
        if single_lane is not None:
            single_alerts.extend(single_lane.finish())
            alerts.extend(single_alerts)
            self.single_lane_stats = single_lane.stats
        self._merged_stats = merge_stats(self.per_shard_stats,
                                         self.single_lane_stats)
        if sampled_peaks is not None:
            # In-process backends sample a genuine concurrent peak across
            # all lanes at batch boundaries; the summed per-lane figure
            # stays available as peak_buffered_*_bound (merge_stats set
            # it).  The process backend cannot sample across processes and
            # keeps the peak equal to the bound.
            self._merged_stats.peak_buffered_events = sampled_peaks[0]
            self._merged_stats.peak_buffered_matches = sampled_peaks[1]
        # Each stream event is ingested once by the sharded runtime, even
        # when the single-shard lane observed it as well; queries and
        # groups are the exact logical counts (pinned-query routing makes
        # the per-shard figures subsets).
        self._merged_stats.events_ingested = events_ingested
        single_queries = (self.single_lane_stats.queries
                          if self.single_lane_stats is not None else 0)
        single_groups = (self.single_lane_stats.groups
                         if self.single_lane_stats is not None else 0)
        self._merged_stats.queries = (len(self._sharded_queries)
                                      + single_queries)
        self._merged_stats.groups = (self._logical_group_count()
                                     + single_groups)
        return alerts

    def _execute_in_process(self, stream: Iterable[Event],
                            size: int) -> List[Alert]:
        """Run with the serial or thread backend (shards live in-process)."""
        shard_cls = ThreadShard if self.backend == "thread" else SerialShard
        eligibility = self._resolve_steal_eligibility()
        restored = self._restored
        self._restored = None
        track_load = eligibility is not None
        shards: List[Any] = []
        active: List[bool] = []
        per_shard: List[List[Tuple[str, Union[str, ast.Query]]]] = []
        if self._sharded_queries:
            per_shard = [self._queries_for_shard(position)
                         for position in range(self.shards)]
            shards = [shard_cls(queries, self._enable_sharing,
                                track_load, position,
                                restore=(restored["shards"][position]
                                         if restored is not None else None),
                                quarantine_errors=self._quarantine_errors,
                                fault_plan=self._fault_plan,
                                metrics=self._metrics_enabled)
                      for position, queries in enumerate(per_shard)]
            active = [bool(queries) for queries in per_shard]
        single_lane = self._single_lane_scheduler()
        single_alerts: List[Alert] = []
        if single_lane is not None and restored is not None:
            single_lane.restore_state(restored["single_lane"])
            single_alerts.extend(single_lane.emitted_alerts())
        buffers: List[List[Event]] = [[] for _ in range(len(shards))]
        overrides: Dict[str, int] = (dict(restored["overrides"])
                                     if restored is not None else {})
        route_cache: Dict[str, int] = {}
        route = (self._make_router(overrides, route_cache)
                 if shards else None)

        def rebuild(position: int, generation: int, restore):
            plan = self._fault_plan
            rearm = plan if getattr(plan, "rearm_on_restart", False) else None
            return shard_cls(per_shard[position], self._enable_sharing,
                             track_load, position, restore=restore,
                             quarantine_errors=self._quarantine_errors,
                             fault_plan=rearm,
                             metrics=self._metrics_enabled)

        supervisor = self._make_supervisor(shards, active, rebuild,
                                           restored, overrides, route_cache,
                                           track_load)

        (flush_pending, flush_all_pending, drain_pending, feed_events,
         send) = _lane_feeders(
             shards, buffers, active,
             feed=supervisor.feed if supervisor is not None else None,
             send=supervisor.send if supervisor is not None else None)

        def poll() -> List[Tuple[int, Tuple]]:
            responses: List[Tuple[int, Tuple]] = []
            for position, shard in enumerate(shards):
                for response in shard.poll_control():
                    responses.append((position, response))
            return responses

        if supervisor is not None:
            poll = supervisor.wrap_poll(poll)

        coordinator: Optional[_StealingCoordinator] = None
        if eligibility is not None and shards:

            def flush_held(target: int, events: Sequence[Event]) -> None:
                # The thief's pending normal events precede the handoff
                # buffer, so its engines' watermarks never jump ahead of
                # events still waiting in the routing buffer.
                flush_pending(target)
                feed_events(target, events)

            coordinator = self._make_coordinator(
                eligibility, len(shards), send, poll, flush_held,
                route, route_cache, overrides, flush_pending, feed_events,
                drain_pending)
        if supervisor is not None:

            def requeue(events: Sequence[Event]) -> None:
                for event in events:
                    position = supervisor.reroute(event.agentid,
                                                  route(event.agentid))
                    if active[position]:
                        buffers[position].append(event)

            supervisor.bind(coordinator=coordinator,
                            drain_parent=drain_pending, requeue=requeue)
        checkpointer = self._make_checkpointer(
            len(shards), send, poll, flush_all_pending, single_lane,
            overrides, restored, coordinator, supervisor)
        events_ingested = 0
        sampled_peak_events = 0
        sampled_peak_matches = 0
        try:
            for batch in iter_batches(stream, size):
                events_ingested += len(batch)
                if single_lane is not None:
                    single_alerts.extend(single_lane.process_events(batch))
                if shards:
                    for event in batch:
                        if (coordinator is not None
                                and coordinator.maybe_hold(event)):
                            continue
                        position = route(event.agentid)
                        if supervisor is not None:
                            position = supervisor.reroute(event.agentid,
                                                          position)
                        # A shard every query was routed away from has
                        # nothing to do with its slice of the stream.
                        if active[position]:
                            buffers[position].append(event)
                    for position, buffer in enumerate(buffers):
                        if (len(buffer) >= size
                                and not (coordinator is not None
                                         and coordinator.is_paused(position))):
                            flush_pending(position)
                    if coordinator is not None:
                        coordinator.after_batch(batch)
                    if supervisor is not None:
                        supervisor.after_batch(len(batch))
                if checkpointer is not None:
                    checkpointer.observe_batch(batch)
                    if supervisor is not None:
                        # A shard failure mid-collection aborts this
                        # attempt (recovered; retried at the next due
                        # batch) instead of failing the run.
                        supervisor.attempt(checkpointer.maybe_checkpoint)
                    else:
                        checkpointer.maybe_checkpoint()
                # Genuine concurrent retention sample across every lane at
                # this batch boundary (exact for serial, a benign racy
                # snapshot for threads); its running maximum replaces the
                # summed per-lane peak bound in the merged stats.
                sample_events = 0
                sample_matches = 0
                for shard in shards:
                    buffered_events, buffered_matches = shard.buffer_sample()
                    sample_events += buffered_events
                    sample_matches += buffered_matches
                if single_lane is not None:
                    sample_events += single_lane.stats.buffered_events
                    sample_matches += single_lane.stats.buffered_matches
                if sample_events > sampled_peak_events:
                    sampled_peak_events = sample_events
                if sample_matches > sampled_peak_matches:
                    sampled_peak_matches = sample_matches
            # Migrations settle first: a paused lane's buffered backlog
            # must reach its shard only after the held events it waits on.
            if coordinator is not None:
                if supervisor is not None:
                    while not supervisor.attempt(
                            lambda: coordinator.finalize(
                                liveness=supervisor.liveness)):
                        pass
                else:
                    coordinator.finalize()
                self.migrations = coordinator.records
            for position in range(len(buffers)):
                flush_pending(position)
            self.checkpoints_written = (checkpointer.checkpoints_written
                                        if checkpointer is not None else 0)
            if supervisor is not None:
                supervisor.set_closing()
                results = [supervisor.finish_lane(position)
                           for position in range(len(shards))]
            else:
                results = [shard.finish() for shard in shards]
        finally:
            # A failure anywhere above (a poisoned batch, a dead worker, a
            # raising stream iterator) must not leak live shard threads
            # until interpreter exit; close() is idempotent after a clean
            # finish and never raises.
            for shard in shards:
                shard.close()
            if supervisor is not None:
                self.recoveries = supervisor.records
        if restored is not None:
            # Restored engines already carry the pre-crash ingestion in
            # their stats; the parent-side once-per-event figure resumes
            # from the checkpoint cursor.
            events_ingested += restored["cursor"]["events_ingested"]
        return self._finalize(results, single_lane, single_alerts,
                              events_ingested,
                              sampled_peaks=(sampled_peak_events,
                                             sampled_peak_matches))

    def _execute_process(self, stream: Iterable[Event],
                         size: int) -> List[Alert]:
        """Run with the multiprocessing backend (one worker per shard)."""
        context = multiprocessing.get_context()
        out_queue = context.Queue()
        eligibility = self._resolve_steal_eligibility()
        restored = self._restored
        self._restored = None
        per_shard = [self._queries_for_shard(position)
                     for position in range(self.shards)]
        workers = [ProcessShard(position, queries, self._enable_sharing,
                                context, out_queue,
                                track_agent_load=eligibility is not None,
                                restore=(restored["shards"][position]
                                         if restored is not None else None),
                                quarantine_errors=self._quarantine_errors,
                                fault_plan=self._fault_plan,
                                metrics=self._metrics_enabled)
                   for position, queries in enumerate(per_shard)]
        active = [bool(queries) for queries in per_shard]
        single_lane = self._single_lane_scheduler()
        single_alerts: List[Alert] = []
        if single_lane is not None and restored is not None:
            single_lane.restore_state(restored["single_lane"])
            single_alerts.extend(single_lane.emitted_alerts())
        buffers: List[List[Event]] = [[] for _ in workers]
        overrides: Dict[str, int] = (dict(restored["overrides"])
                                     if restored is not None else {})
        route_cache: Dict[str, int] = {}
        route = self._make_router(overrides, route_cache)
        events_ingested = 0
        #: "done" tuples a worker posted before the collection phase (a
        #: crash mid-stream) — replayed into the collection loop.
        early_done: List[Tuple] = []

        def rebuild(position: int, generation: int, restore):
            plan = self._fault_plan
            rearm = plan if getattr(plan, "rearm_on_restart", False) else None
            return ProcessShard(position, per_shard[position],
                                self._enable_sharing, context, out_queue,
                                track_agent_load=eligibility is not None,
                                restore=restore, generation=generation,
                                quarantine_errors=self._quarantine_errors,
                                fault_plan=rearm,
                                metrics=self._metrics_enabled)

        supervisor = self._make_supervisor(workers, active, rebuild,
                                           restored, overrides, route_cache,
                                           eligibility is not None)

        (flush_pending, flush_all_pending, drain_pending, feed_events,
         send) = _lane_feeders(
             workers, buffers, active,
             feed=supervisor.feed if supervisor is not None else None,
             send=supervisor.send if supervisor is not None else None)

        def poll() -> List[Tuple[int, Tuple]]:
            responses: List[Tuple[int, Tuple]] = []
            while True:
                try:
                    item = out_queue.get_nowait()
                except queue.Empty:
                    return responses
                if item[0] == "ctrl":
                    _, index, generation, response = item
                    # A replaced worker's late answers carry its old
                    # generation and are dropped.
                    if generation == getattr(workers[index],
                                             "generation", 0):
                        responses.append((index, response))
                else:
                    early_done.append(item)

        if supervisor is not None:
            poll = supervisor.wrap_poll(poll)

        coordinator: Optional[_StealingCoordinator] = None
        if eligibility is not None:

            def flush_held(target: int, events: Sequence[Event]) -> None:
                flush_pending(target)
                feed_events(target, events)

            coordinator = self._make_coordinator(
                eligibility, len(workers), send, poll, flush_held,
                route, route_cache, overrides, flush_pending, feed_events,
                drain_pending)
        if supervisor is not None:

            def requeue(events: Sequence[Event]) -> None:
                for event in events:
                    position = supervisor.reroute(event.agentid,
                                                  route(event.agentid))
                    if active[position]:
                        buffers[position].append(event)

            supervisor.bind(coordinator=coordinator,
                            drain_parent=drain_pending, requeue=requeue)
        checkpointer = self._make_checkpointer(
            len(workers), send, poll, flush_all_pending, single_lane,
            overrides, restored, coordinator, supervisor)
        try:
            try:
                for batch in iter_batches(stream, size):
                    events_ingested += len(batch)
                    if single_lane is not None:
                        single_alerts.extend(
                            single_lane.process_events(batch))
                    for event in batch:
                        if (coordinator is not None
                                and coordinator.maybe_hold(event)):
                            continue
                        position = route(event.agentid)
                        if supervisor is not None:
                            position = supervisor.reroute(event.agentid,
                                                          position)
                        if active[position]:
                            buffers[position].append(event)
                    for position, buffer in enumerate(buffers):
                        if (len(buffer) >= size
                                and not (coordinator is not None
                                         and coordinator.is_paused(
                                             position))):
                            flush_pending(position)
                    if coordinator is not None:
                        coordinator.after_batch(batch)
                    if supervisor is not None:
                        supervisor.after_batch(len(batch))
                    if checkpointer is not None:
                        checkpointer.observe_batch(batch)
                        if supervisor is not None:
                            supervisor.attempt(
                                checkpointer.maybe_checkpoint)
                        else:
                            checkpointer.maybe_checkpoint()
                if coordinator is not None:
                    if supervisor is not None:
                        while not supervisor.attempt(
                                lambda: coordinator.finalize(
                                    liveness=supervisor.liveness)):
                            pass
                    else:
                        coordinator.finalize()
                    self.migrations = coordinator.records
                for position in range(len(buffers)):
                    flush_pending(position)
                self.checkpoints_written = (
                    checkpointer.checkpoints_written
                    if checkpointer is not None else 0)
            finally:
                if supervisor is not None:
                    # Result collection starts: migrate recoveries are
                    # off (the stop sentinel below races any import).
                    supervisor.set_closing()
                for worker in workers:
                    worker.close()
            # Collect results before joining: a worker blocks on its
            # result put until the parent reads it.  The get is timed and
            # paired with a liveness check so a worker that died without
            # posting (OOM-kill, unpicklable result) fails the run instead
            # of hanging it.
            collected: Dict[int, Tuple[List[Alert], SchedulerStats]] = {}
            failures: List[str] = []
            remaining = set(range(len(workers)))
            if supervisor is not None:
                # Retired positions have no worker; their salvaged
                # alerts live parent-side.
                for position in list(remaining):
                    if isinstance(workers[position], _RetiredLane):
                        collected[position] = workers[position].finish()
                        remaining.discard(position)
            policy = self._supervision
            grace_budget = (policy.result_grace if policy is not None
                            else 5.0)
            waiter = DEFAULT_BACKOFF.waiter()
            grace: Optional[Backoff] = None
            while remaining:
                if early_done:
                    item = early_done.pop(0)
                else:
                    try:
                        item = out_queue.get(timeout=waiter.interval())
                    except queue.Empty:
                        dead = [position for position in remaining
                                if not workers[position].is_alive()]
                        if not dead:
                            if (supervisor is not None
                                    and waiter.elapsed
                                    > policy.probe_timeout + grace_budget):
                                # Alive but silent past every deadline: a
                                # wedged worker at end of stream.
                                for position in sorted(remaining):
                                    supervisor.recover(
                                        position, "hung",
                                        f"shard {position} did not post "
                                        "its result within "
                                        f"{waiter.elapsed:.1f}s")
                                    workers[position].close()
                                waiter.reset()
                            continue
                        # A dead worker's result may still sit in the
                        # pipe buffer; grant it a bounded grace to
                        # surface before declaring the shard lost.
                        if grace is None:
                            grace = DEFAULT_BACKOFF.waiter(grace_budget)
                        if not grace.expired:
                            continue
                        grace = None
                        for position in dead:
                            if supervisor is not None:
                                supervisor.recover(
                                    position, "dead",
                                    f"shard {position} worker exited "
                                    "before posting its result")
                                workers[position].close()
                            else:
                                failures.append(
                                    f"shard {position}: worker exited "
                                    "without posting a result")
                                remaining.discard(position)
                        waiter.reset()
                        continue
                if item[0] == "ctrl":
                    continue  # late answer from an already-settled drain
                _, index, generation, alerts, stats, error = item
                if (index not in remaining
                        or generation != getattr(workers[index],
                                                 "generation", 0)):
                    continue  # stale result from a replaced worker
                waiter.reset()
                grace = None
                if error is not None:
                    if supervisor is not None:
                        supervisor.recover(index, "error", error)
                        workers[index].close()
                        continue
                    failures.append(f"shard {index}: {error}")
                    remaining.discard(index)
                else:
                    remaining.discard(index)
                    collected[index] = (alerts, stats)
            for worker in workers:
                if worker.index in collected or not worker.is_alive():
                    worker.join()
            if failures:
                raise RuntimeError("sharded execution failed: "
                                   + "; ".join(sorted(failures)))
        except BaseException:
            # Abandon the run without leaking children: a worker blocked
            # on its unread result put — or still draining its in-queue —
            # would otherwise survive until interpreter exit.
            for worker in workers:
                worker.shutdown()
            raise
        finally:
            if supervisor is not None:
                self.recoveries = supervisor.records
        results = [collected[position] for position in range(len(workers))]
        if restored is not None:
            events_ingested += restored["cursor"]["events_ingested"]
        return self._finalize(results, single_lane, single_alerts,
                              events_ingested)
