"""The always-on SAQL service core: ingestion, control plane, drain/resume.

:class:`SAQLService` turns the batch scheduler into a long-running
process.  It owns:

* a bounded :class:`~repro.service.queue.IngestionQueue` (the
  backpressure front door) drained by one *pump* thread that feeds the
  scheduler in batches;
* a :class:`~repro.core.scheduler.concurrent.ConcurrentQueryScheduler`
  with runtime query registration/removal, per-query quarantine and
  periodic checkpointing;
* a :class:`~repro.service.tenants.TenantRegistry` scoping queries per
  tenant with quotas, persisted as a restart manifest;
* a :class:`~repro.service.sinks.SinkDispatcher` delivering alerts to
  the configured sinks with retry/backoff, a dead-letter ledger and the
  delivery ledger that makes delivery exactly-once across restarts.

**Graceful drain** (SIGTERM/SIGINT, or the ``drain`` control op) runs
checkpoint-then-drain: admissions stop, the pump finishes the queued
backlog, the scheduler state is checkpointed (open windows intact —
a restarted service resumes them), pending alerts are flushed to the
sinks and the delivery ledger is synced.  **Resume** inverts it: the
manifest re-registers every tenant query in order, the latest checkpoint
restores the engines, the checkpointed alert ledgers replay through the
delivery ledger (delivering exactly the undelivered remainder), and the
resume cursor drops re-sent events the pre-restart run already
processed.

The transport layer (:mod:`repro.service.transport`) and the CLI
(``saql serve``) are thin shells over this class, so tests can drive the
whole lifecycle in-process.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core import SAQLError
from repro.core.engine.alerts import Alert, AlertSink, CallbackSink
from repro.core.retry import RetryPolicy
from repro.core.scheduler.concurrent import ConcurrentQueryScheduler
from repro.events.event import Event
from repro.events.serialization import event_from_dict
from repro.obs import MetricRegistry, StageTimers
from repro.service.queue import IngestionQueue, QueueClosed
from repro.service.sinks import DeliveryLedger, SinkDispatcher
from repro.service.tenants import (TenantQuota, TenantRegistry, scoped_name,
                                   split_scoped)
from repro.storage.checkpoints import CheckpointStore
from repro.storage.segments import SegmentStore

#: Service lifecycle states (monotonic).
SERVICE_STATES = ("created", "serving", "draining", "stopped")


class ServiceError(RuntimeError):
    """A control-plane operation failed."""


class ServiceClosed(ServiceError):
    """The service is draining or stopped; no new work is accepted."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`SAQLService` instance."""

    #: Bounded ingestion queue capacity (events).
    queue_capacity: int = 4096
    #: Admission policy on a full queue: "block" or "shed".
    queue_policy: str = "block"
    #: Cap on how long a blocked producer waits before the event sheds
    #: (None = wait indefinitely; a dead pump then relies on drain).
    block_timeout: Optional[float] = None
    #: Seconds the queue may sit full before the pump counts as slow.
    slow_consumer_after: float = 1.0
    #: Events per scheduler batch (the pump's amortization unit).
    batch_size: int = 256
    #: Seconds the pump waits for the first event of a batch.
    max_batch_delay: float = 0.05
    #: Per-query fatal-error budget before quarantine (None = fail fast).
    quarantine_errors: Optional[int] = 3
    #: Events between checkpoints (with a state directory).
    checkpoint_interval: int = 10000
    #: Checkpoint record format: "full" dumps every time, "diff" writes
    #: deltas against a periodic full base (cost tracks state churn).
    checkpoint_mode: str = "full"
    #: Deltas between full-base rebases in diff mode.
    checkpoint_rebase: int = 8
    #: Sink delivery retry policy (attempts, timeout, backoff).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Default per-tenant quota.
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: Seconds drain waits for the pump and then the sink flush.
    drain_timeout: float = 30.0
    #: Metrics collection (PR 10): one shared registry spans scheduler,
    #: queue, sinks and the pump; off hands out no-op metrics.
    metrics: bool = True
    #: Journal ingested events into a :class:`SegmentStore` (under
    #: ``state_dir/events``, or in memory without a state directory),
    #: surfacing the store's :class:`StoreStats` in ``stats()``.
    journal_events: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.max_batch_delay <= 0:
            raise ValueError("max batch delay must be positive")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be at least 1")
        if self.checkpoint_mode not in ("full", "diff"):
            raise ValueError("checkpoint mode must be 'full' or 'diff'")
        if self.checkpoint_rebase < 1:
            raise ValueError("checkpoint rebase interval must be at least 1")
        if self.drain_timeout <= 0:
            raise ValueError("drain timeout must be positive")


@dataclass(frozen=True)
class DrainReport:
    """What one graceful drain did (also the CLI's exit summary)."""

    reason: str
    finished_stream: bool
    duration_seconds: float
    events_drained: int
    checkpointed: bool
    delivered: int
    dead_lettered: int
    undelivered: int


class SAQLService:
    """A long-running, drainable SAQL query service over one scheduler."""

    def __init__(self, state_dir: Optional[Union[str, Path]] = None,
                 sinks: Sequence[AlertSink] = (),
                 config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._store: Optional[CheckpointStore] = None
        ledger_path = dead_letter_path = None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._store = CheckpointStore(
                self.state_dir / "checkpoints",
                mode=self.config.checkpoint_mode,
                rebase_interval=self.config.checkpoint_rebase)
            ledger_path = self.state_dir / "delivery-ledger.jsonl"
            dead_letter_path = self.state_dir / "dead-letters.jsonl"
        self._registry = TenantRegistry(
            default_quota=self.config.default_quota)
        # One registry spans every service component, so the `metrics`
        # transport op exposes scheduler stages, queue waits, sink
        # delivery and pump batches as one coherent snapshot.
        self.metrics = MetricRegistry(enabled=self.config.metrics)
        self._stage_timers = StageTimers(self.metrics)
        self._event_store: Optional[SegmentStore] = None
        if self.config.journal_events:
            store_dir = (self.state_dir / "events"
                         if self.state_dir is not None else None)
            self._event_store = SegmentStore(store_dir,
                                             metrics=self.metrics)
        self._dispatcher = SinkDispatcher(
            sinks, ledger=DeliveryLedger(ledger_path),
            retry=self.config.retry, dead_letter_path=dead_letter_path,
            metrics=self.metrics)
        self._queue = IngestionQueue(
            capacity=self.config.queue_capacity,
            policy=self.config.queue_policy,
            block_timeout=self.config.block_timeout,
            slow_consumer_after=self.config.slow_consumer_after,
            metrics=self.metrics)
        self._scheduler = ConcurrentQueryScheduler(
            sink=CallbackSink(self._dispatcher.submit),
            checkpoint_store=self._store,
            checkpoint_interval=(self.config.checkpoint_interval
                                 if self._store is not None else None),
            quarantine_errors=self.config.quarantine_errors,
            metrics=self.metrics)
        #: Guards every scheduler access (the pump holds it per batch, so
        #: control-plane changes land exactly at batch boundaries).
        self._scheduler_lock = threading.RLock()
        self._state = "created"
        self._state_lock = threading.Lock()
        self._pump_thread: Optional[threading.Thread] = None
        self._drain_requested = threading.Event()
        self._drain_finish_stream = False
        self._started_at: Optional[float] = None
        self._resume_cursor = None
        self._resumed_alerts = 0
        # Service-level ingestion accounting (pre-queue).
        self._submitted = 0
        self._duplicates_dropped = 0
        self._rejected_closed = 0
        self._count_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def scheduler(self) -> ConcurrentQueryScheduler:
        return self._scheduler

    @property
    def registry(self) -> TenantRegistry:
        return self._registry

    @property
    def dispatcher(self) -> SinkDispatcher:
        return self._dispatcher

    def _manifest_path(self) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / "manifest.json"

    def start(self, resume: bool = False) -> "SAQLService":
        """Start serving; with ``resume`` restore the previous run first.

        Resume order matters: manifest registrations (same queries, same
        order) → checkpoint restore → alert-ledger replay through the
        delivery ledger → pump start.  Without a state directory
        ``resume`` is an error; without a checkpoint it degrades to a
        fresh start (manifest queries still register).
        """
        if self._state != "created":
            raise ServiceError(f"service already {self._state}")
        if resume:
            self._resume_previous_run()
        self._dispatcher.start()
        self._pump_thread = threading.Thread(target=self._pump,
                                             name="saql-service-pump",
                                             daemon=True)
        self._state = "serving"
        self._started_at = time.monotonic()
        self._pump_thread.start()
        return self

    def _resume_previous_run(self) -> None:
        if self.state_dir is None:
            raise ServiceError("resume requires a state directory")
        manifest = self._manifest_path()
        if manifest is not None and manifest.exists():
            restored = TenantRegistry.load_manifest(
                manifest, default_quota=self.config.default_quota)
            for entry in restored.entries():
                self._registry.register(entry.tenant, entry.name,
                                        entry.query)
                self._scheduler.add_query(entry.query, name=entry.scoped)
        snapshot = self._store.latest() if self._store is not None else None
        if snapshot is None:
            return
        try:
            self._scheduler.restore_state(snapshot)
        except ValueError as error:
            raise ServiceError(f"cannot resume: {error}") from error
        self._resume_cursor = self._scheduler.restored_cursor
        # Exactly-once delivery: replay the checkpointed alert ledgers;
        # the delivery ledger filters what the previous run delivered.
        self._resumed_alerts = self._dispatcher.resubmit(
            self._scheduler.emitted_alerts())

    # -- control plane --------------------------------------------------------

    def register_query(self, tenant: str, name: str, query: str) -> str:
        """Register one tenant query at runtime; returns its scoped name."""
        if self._state in ("draining", "stopped"):
            raise ServiceClosed("service is draining; no new queries")
        with self._scheduler_lock:
            entry = self._registry.register(tenant, name, query)
            try:
                self._scheduler.add_query(query, name=entry.scoped)
            except SAQLError:
                self._registry.remove(tenant, name)
                raise
            self._persist_manifest()
        return entry.scoped

    def remove_query(self, tenant: str, name: str,
                     flush: bool = True) -> List[Alert]:
        """Remove one tenant query at runtime.

        With ``flush`` the removed engine's open windows close now and
        their alerts deliver (through the normal sink path); without it
        they are abandoned.  Returns the flush alerts.
        """
        with self._scheduler_lock:
            self._registry.remove(tenant, name)
            engine = self._scheduler.remove_query(scoped_name(tenant, name))
            alerts = engine.finish() if flush else []
            self._persist_manifest()
        return alerts

    def _persist_manifest(self) -> None:
        path = self._manifest_path()
        if path is not None:
            self._registry.save_manifest(path)

    # -- ingestion ------------------------------------------------------------

    def submit_event(self, event: Union[Event, Dict[str, Any]]) -> str:
        """Offer one event; returns the admission outcome.

        ``"accepted"`` — queued; ``"shed"`` — rejected by the
        backpressure policy (counted); ``"duplicate"`` — dropped because
        the resume cursor shows the pre-restart run already processed it.
        Raises :class:`ServiceClosed` while draining/stopped.
        """
        if isinstance(event, dict):
            try:
                event = event_from_dict(event)
            except (KeyError, ValueError, TypeError) as error:
                raise ServiceError(f"malformed event: {error}") from error
        with self._count_lock:
            self._submitted += 1
        cursor = self._resume_cursor
        if cursor is not None and cursor.covers(event):
            with self._count_lock:
                self._duplicates_dropped += 1
            return "duplicate"
        try:
            accepted = self._queue.put(event)
        except QueueClosed:
            with self._count_lock:
                self._rejected_closed += 1
            raise ServiceClosed("service is draining; ingestion closed")
        return "accepted" if accepted else "shed"

    def submit_events(self, events) -> Dict[str, int]:
        """Offer many events; returns admission counts per outcome."""
        counts = {"accepted": 0, "shed": 0, "duplicate": 0}
        for event in events:
            counts[self.submit_event(event)] += 1
        return counts

    # -- the pump -------------------------------------------------------------

    def _pump(self) -> None:
        batch_size = self.config.batch_size
        delay = self.config.max_batch_delay
        metrics_on = self.metrics.enabled
        while True:
            batch = self._queue.get_batch(batch_size, timeout=delay)
            if batch:
                pump_started = perf_counter() if metrics_on else 0.0
                # The engines expect timestamp order within a batch;
                # network arrival is only roughly ordered.  Cross-batch
                # disorder remains and takes the late-event path.
                batch.sort(key=lambda event: (event.timestamp,
                                              event.event_id))
                if self._event_store is not None:
                    self._event_store.append_many(batch)
                with self._scheduler_lock:
                    self._scheduler.process_events(batch)
                if metrics_on:
                    self._stage_timers.observe(
                        "pump_batch", perf_counter() - pump_started)
            elif self._queue.closed and not len(self._queue):
                return

    # -- drain / shutdown -----------------------------------------------------

    def request_drain(self, finish_stream: bool = False) -> None:
        """Ask for a graceful drain (signal-handler safe, idempotent)."""
        self._drain_finish_stream = (self._drain_finish_stream
                                     or finish_stream)
        self._drain_requested.set()

    @property
    def drain_requested(self) -> bool:
        return self._drain_requested.is_set()

    def wait_for_drain_request(self, timeout: Optional[float]
                               = None) -> bool:
        """Block until someone asks for a drain (the serve loop's wait)."""
        return self._drain_requested.wait(timeout=timeout)

    def drain(self, finish_stream: Optional[bool] = None,
              reason: str = "drain") -> DrainReport:
        """Gracefully stop: drain the queue, checkpoint, flush delivery.

        With ``finish_stream`` the scheduler also flushes still-open
        windows (end-of-stream semantics: their close alerts deliver
        now); without it open windows are checkpointed as-is so a
        restarted service resumes them — the restart-safe default.
        """
        with self._state_lock:
            if self._state == "stopped":
                return self._last_drain  # type: ignore[attr-defined]
            if self._state not in ("serving",):
                raise ServiceError(f"cannot drain a {self._state} service")
            self._state = "draining"
        if finish_stream is None:
            finish_stream = self._drain_finish_stream
        self._drain_requested.set()
        started = time.monotonic()
        backlog = len(self._queue)
        self._queue.close()
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=self.config.drain_timeout)
        checkpointed = False
        with self._scheduler_lock:
            if finish_stream:
                self._scheduler.finish()
            if self._store is not None:
                self._scheduler.checkpoint_now()
                checkpointed = True
            self._persist_manifest()
        if self._event_store is not None:
            # Seal so a restart replays segments, not a long journal.
            self._event_store.seal_tail()
            self._event_store.close()
        self._dispatcher.flush(timeout=self.config.drain_timeout)
        self._dispatcher.stop()
        self._dispatcher.ledger.sync()
        metrics = self._dispatcher.metrics()
        self._state = "stopped"
        report = DrainReport(
            reason=reason,
            finished_stream=finish_stream,
            duration_seconds=time.monotonic() - started,
            events_drained=backlog,
            checkpointed=checkpointed,
            delivered=metrics["delivered"],
            dead_lettered=metrics["dead_lettered"],
            undelivered=metrics["lag"],
        )
        self._last_drain = report
        return report

    # -- observability --------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The cheap liveness answer."""
        payload = {
            "ok": self._state in ("serving", "draining"),
            "state": self._state,
            "uptime_seconds": (time.monotonic() - self._started_at
                               if self._started_at is not None else 0.0),
            "dead_letter_depth": self._dispatcher.dead_letter_depth(),
        }
        if self._event_store is not None:
            store = self._event_store.stats()
            payload["event_store"] = {
                "total_events": store.total_events,
                "sealed_segments": store.sealed_segments,
            }
        return payload

    def metrics_snapshot(self) -> Optional[Dict[str, Any]]:
        """The shared registry's snapshot, or None when metrics are off."""
        if not self.metrics.enabled:
            return None
        return self.metrics.snapshot()

    def stats(self) -> Dict[str, Any]:
        """The full health/stats payload (JSON-safe).

        Exposes the scheduler's :class:`SchedulerStats`, queue depth and
        backpressure counters, sink lag and delivery counters, and the
        recovery/quarantine state — everything the ISSUE's health
        endpoint names — plus per-tenant rollups.
        """
        with self._scheduler_lock:
            scheduler_stats = asdict(self._scheduler.stats)
            # Metric snapshots have their own exposition op; keep the
            # stats payload lean.
            scheduler_stats.pop("metrics_snapshot", None)
            quarantined = dict(self._scheduler.quarantined)
            error_rows = self._scheduler.error_reporter.per_query()
            slow_queries = self._scheduler.slow_queries()
        tenants: Dict[str, Dict[str, Any]] = {}
        for entry in self._registry.entries():
            info = tenants.setdefault(entry.tenant,
                                      {"queries": 0, "quarantined": []})
            info["queries"] += 1
        for scoped in quarantined:
            tenant, name = split_scoped(scoped)
            info = tenants.setdefault(tenant,
                                      {"queries": 0, "quarantined": []})
            info["quarantined"].append(name)
        with self._count_lock:
            ingestion = {
                "submitted": self._submitted,
                "duplicates_dropped": self._duplicates_dropped,
                "rejected_while_draining": self._rejected_closed,
            }
        return {
            "health": self.health(),
            "ingestion": ingestion,
            "queue": self._queue.metrics(),
            "sinks": self._dispatcher.metrics(),
            "scheduler": scheduler_stats,
            "slow_queries": slow_queries,
            "event_store": (asdict(self._event_store.stats())
                            if self._event_store is not None else None),
            "quarantined": {name: detail.get("errors", 0)
                            for name, detail in quarantined.items()},
            "query_errors": error_rows,
            "tenants": tenants,
            "resumed": {
                "from_checkpoint": self._resume_cursor is not None,
                "replayed_ledger_alerts": self._resumed_alerts,
            },
        }
