"""The concurrent query scheduler (master-dependent-query scheme).

The scheduler owns a set of :class:`~repro.core.engine.query_engine.QueryEngine`
instances and executes them over one event stream.  Queries are grouped by
their :func:`~repro.core.scheduler.compatibility.compatibility_signature`;
each group keeps a single shared buffer of the stream slice it observes
("a single copy of the stream data"), the group's *master* query matches
events against its patterns, and every *dependent* query reuses the
master's match results for the patterns they share.

The scheduler also keeps the accounting the paper's efficiency argument is
about: how many per-query copies of stream data exist (one per group under
sharing versus one per query without), and how many pattern-match
evaluations were saved by reuse.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import (Any, Deque, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from repro.core.compile.columnar import (
    BatchPredicateContext,
    ColumnBlock,
    SharedPredicateIndex,
    build_group_plan,
)
from repro.core.engine.alerts import Alert, AlertSink
from repro.core.engine.error_reporter import ErrorReporter
from repro.core.engine.matching import PatternMatch
from repro.core.engine.query_engine import QueryEngine
from repro.core.language import ast, parse_query
from repro.core.scheduler.compatibility import (
    CompatibilitySignature,
    compatibility_signature,
    pattern_signature,
)
from repro.events.event import Event
from repro.events.stream import iter_batches
from repro.obs import MetricRegistry, StageTimers

#: Default retention (seconds) of the per-group shared event buffer when the
#: group's queries declare no window.
DEFAULT_BUFFER_SECONDS = 600.0

#: Smallest batch the scheduler pivots into a
#: :class:`~repro.core.compile.columnar.ColumnBlock`; smaller batches run
#: the compiled closures.  Measured with perfbench's 56-query set on its
#: 16-host enterprise stream (2-core machine, events/s, columnar vs
#: closure): 6.2k vs 15.1k at batch 1, 21.3k vs 34.4k at 16, 44.8k vs
#: 49.4k at 64, ~89k vs ~62k at 512.  The crossover therefore lies
#: between 64 and 512 events on that workload, above this threshold;
#: moving the threshold is a separate, measured change.
DEFAULT_COLUMNAR_MIN_BATCH = 16

#: Per-group batch times at or above this (seconds) enter the ring-buffered
#: slow-query log (``slow_queries()``; the service surfaces it in
#: ``stats()``).  Pass ``slow_query_threshold=None`` to disable the log.
DEFAULT_SLOW_QUERY_THRESHOLD = 0.25

#: Entries the slow-query ring buffer retains (oldest evicted first).
SLOW_QUERY_LOG_DEPTH = 64


@dataclass
class SchedulerStats:
    """Aggregate accounting for one scheduler run."""

    events_ingested: int = 0
    queries: int = 0
    groups: int = 0
    alerts: int = 0
    #: Pattern-match evaluations actually performed.
    pattern_evaluations: int = 0
    #: Pattern-match evaluations avoided by master-result reuse.
    pattern_evaluations_saved: int = 0
    #: Events currently retained across all shared group buffers.
    buffered_events: int = 0
    #: Peak of :attr:`buffered_events` over the run.
    peak_buffered_events: int = 0
    #: Matches currently retained for window state across all engines
    #: (buffered aggregation stores each match once per containing window;
    #: incremental aggregation keeps one representative per open bucket
    #: group).  Sampled at batch boundaries and at finish.
    buffered_matches: int = 0
    #: Sum of the per-engine peaks of retained state matches — an upper
    #: bound on the true simultaneous peak.
    peak_buffered_matches: int = 0
    #: Only populated on merged sharded stats: sum of the per-lane
    #: ``peak_buffered_events`` figures.  The per-lane peaks occur at
    #: different stream positions, so this is an explicit *upper bound* on
    #: the true simultaneous peak; the serial/thread backends additionally
    #: sample the genuine concurrent figure into
    #: :attr:`peak_buffered_events`, while the process backend (whose
    #: shard buffers live in other processes) leaves the peak equal to
    #: this bound.
    peak_buffered_events_bound: int = 0
    #: Only populated on merged sharded stats: sum of the per-lane
    #: ``peak_buffered_matches`` figures (see
    #: :attr:`peak_buffered_events_bound` for the bound-vs-sampled split).
    peak_buffered_matches_bound: int = 0
    #: Distinct predicates in the shared predicate index: structurally
    #: equal predicates across all registered queries canonicalize to one
    #: entry each.  0 until the columnar plans build (first batch of at
    #: least DEFAULT_COLUMNAR_MIN_BATCH events).
    distinct_predicates: int = 0
    #: Column cells actually evaluated by the shared predicate kernels.
    predicate_evaluations: int = 0
    #: Column cells *not* evaluated because the predicate's selection
    #: vector is shared: an atom with k subscribing query slots is
    #: evaluated once per batch, saving (k-1) evaluations per cell.
    predicate_evaluations_saved: int = 0
    #: Column blocks built (one per columnar-processed batch; tiny batches
    #: below the columnar threshold fall back to the closure path and
    #: build none).
    column_blocks_built: int = 0
    #: Per-predicate sharing/selectivity detail, refreshed at batch
    #: boundaries and finish: label -> {subscribers, rows_evaluated,
    #: rows_selected}.  Merged across shards by summing rows (subscribers:
    #: max across shards, summed with the single lane's).
    predicate_sharing: Dict[str, Dict[str, int]] = field(
        default_factory=dict)
    #: Queries quarantined by the fault-isolation circuit-breaker:
    #: query name -> fatal error count when the breaker tripped.  Empty
    #: unless the scheduler was built with ``quarantine_errors``; merged
    #: across shards by union (max count on collision).
    quarantined: Dict[str, int] = field(default_factory=dict)
    #: Registry snapshot (``repro.obs``) piggybacked on the existing stats
    #: rounds: set by :meth:`ConcurrentQueryScheduler.finish` (shard
    #: lanes' ``finish()``/"done" messages already ship their stats, so
    #: the metrics ride along) and merged across lanes by
    #: :func:`repro.core.parallel.sharded.merge_stats`.  ``None`` when
    #: metrics are disabled; deliberately stripped from durable
    #: checkpoints (timing histograms are nondeterministic and would
    #: break snapshot round-trip determinism).
    metrics_snapshot: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False)

    @property
    def quarantined_queries(self) -> int:
        """How many queries the circuit-breaker has quarantined."""
        return len(self.quarantined)

    @property
    def data_copies(self) -> int:
        """Stream copies kept under the master-dependent scheme (one per group)."""
        return self.groups

    @property
    def data_copies_without_sharing(self) -> int:
        """Stream copies a copy-per-query execution would keep."""
        return self.queries


@dataclass(frozen=True)
class ShardLoadReport:
    """One scheduler's ingest load since the previous report (one epoch).

    The sharded runtime's work-stealing balancer collects one report per
    shard at each rebalance epoch: ``events_by_agentid`` names the hosts
    whose events this scheduler ingested and how many each contributed,
    ``total_events`` is their sum, and ``watermark`` is the largest event
    timestamp seen over the scheduler's whole run (not just the epoch).
    Produced by :meth:`ConcurrentQueryScheduler.take_load_report`, which
    resets the per-epoch counters.
    """

    events_by_agentid: Mapping[str, int]
    total_events: int
    watermark: float


class QueryGroup:
    """One compatibility group: a master query plus its dependent queries.

    Pattern signatures and per-pattern operation sets are computed once, at
    registration time; the dispatch loops only walk pre-built plans (the
    seed recomputed :func:`pattern_signature` for every pattern
    of every query on every event).
    """

    def __init__(self, signature: CompatibilitySignature,
                 master: QueryEngine):
        self.signature = signature
        self.master = master
        self.dependents: List[QueryEngine] = []
        # Per-pattern plan entries: (pattern, signature, operation set,
        # compiled pattern).  The compiled reference avoids
        # re-hashing the AST declaration per event in the dispatch loop.
        self._master_plan: Tuple[Tuple[ast.EventPatternDeclaration, Tuple,
                                       frozenset, Any], ...] = tuple(
            (pattern, pattern_signature(pattern),
             frozenset(pattern.operations),
             _compiled_pattern_for(master, pattern))
            for pattern in master.query.patterns)
        self._master_signatures = {
            entry[1]: entry[0] for entry in self._master_plan
        }
        # Dependent plans, parallel to self.dependents: per pattern either
        # the master signature to reuse (shared) or None (evaluate).
        self._dependent_plans: List[Tuple[Tuple[
            ast.EventPatternDeclaration, Optional[Tuple], frozenset,
            Any], ...]] = []
        #: Union of every operation any pattern of the group can accept.
        self.operations: frozenset = frozenset(
            operation for entry in self._master_plan for operation in entry[2])
        buffer_seconds = DEFAULT_BUFFER_SECONDS
        if signature.window is not None:
            buffer_seconds = max(signature.window[1], signature.window[2])
        self._buffer_seconds = buffer_seconds
        #: The group's single shared copy of the (filtered) stream data.
        self.shared_buffer: Deque[Event] = deque()
        #: Columnar execution plan, built lazily against the scheduler's
        #: shared predicate index and invalidated (released) by the
        #: scheduler whenever the group's membership changes.
        self.columnar_plan = None

    @property
    def engines(self) -> List[QueryEngine]:
        """Return the master followed by the dependent engines."""
        return [self.master] + self.dependents

    def add(self, engine: QueryEngine) -> None:
        """Add a dependent query to the group."""
        self.dependents.append(engine)
        plan = []
        operations = set(self.operations)
        for pattern in engine.query.patterns:
            signature = pattern_signature(pattern)
            shared = signature if signature in self._master_signatures else None
            pattern_operations = frozenset(pattern.operations)
            operations.update(pattern_operations)
            plan.append((pattern, shared, pattern_operations,
                         _compiled_pattern_for(engine, pattern)))
        self._dependent_plans.append(tuple(plan))
        self.operations = frozenset(operations)

    def remove_dependent(self, engine: QueryEngine) -> None:
        """Drop one dependent query (and its plan) from the group."""
        position = next(index for index, dependent
                        in enumerate(self.dependents)
                        if dependent is engine)
        del self.dependents[position]
        del self._dependent_plans[position]
        operations = set(
            operation for entry in self._master_plan
            for operation in entry[2])
        for plan in self._dependent_plans:
            for entry in plan:
                operations.update(entry[2])
        self.operations = frozenset(operations)

    # -- execution ------------------------------------------------------------
    #
    # Two batch shapes, one contract.  Both methods produce the same
    # alerts, per-engine alert order, retention and logical
    # ``pattern_evaluations``/``_saved`` accounting for the same events;
    # the scheduler picks one by batch length (DEFAULT_COLUMNAR_MIN_BATCH).
    # Every failure is handed to the quarantine guard, attributed to the
    # engine that owns the work: without an error budget the guard
    # re-raises (fail fast), with one it charges the engine and the batch
    # carries on for every other engine of the group.  A master failure
    # on a shared pattern signature reroutes the dependents sharing it to
    # their own compiled pattern for the rest of the batch; that reroute
    # set is only built once something has failed.

    def process_events(self, events: Sequence[Event], stats: SchedulerStats,
                       guard: "_QuarantineGuard") -> List[Alert]:
        """Process a small timestamp-ordered batch (compiled-closure path).

        Constraints, retention and pattern matching run per event through
        the compiled closures; each engine is then invoked once per batch
        through
        :meth:`~repro.core.engine.query_engine.QueryEngine.process_match_batch`.
        """
        master = self.master
        passes = master.matcher.pattern_matcher.passes_global_constraints
        operations = self.operations
        # Per accepted event: (event, master matches, matches by signature).
        # The signature dict is None when the event's operation is accepted
        # by no pattern of the group — dependents then skip their plan scan
        # and the engines only advance their watermarks.
        accepted: List[Tuple[Event, List[PatternMatch],
                             Optional[Dict[Tuple, PatternMatch]]]] = []
        failed: Optional[Set[Tuple]] = None
        evaluations = 0
        for event in events:
            try:
                if not passes(event):
                    continue
            except Exception as error:
                guard.record(master, error, event.timestamp)
                continue
            stats.buffered_events += self._retain(event)
            operation = event.operation.value
            if operation not in operations:
                accepted.append((event, [], None))
                continue
            master_matches: List[PatternMatch] = []
            matched_by_signature: Dict[Tuple, PatternMatch] = {}
            for _, signature, pattern_operations, compiled in (
                    self._master_plan):
                if operation not in pattern_operations:
                    continue
                evaluations += 1
                try:
                    match = compiled.match_accepted_operation(event)
                except Exception as error:
                    guard.record(master, error, event.timestamp)
                    failed = (failed or set()) | {signature}
                    continue
                if match is not None:
                    master_matches.append(match)
                    matched_by_signature[signature] = match
            accepted.append((event, master_matches, matched_by_signature))
        stats.pattern_evaluations += evaluations
        if not accepted:
            return []

        tail_timestamp = accepted[-1][0].timestamp
        alerts = _process_match_batch(
            master, [(event, matches) for event, matches, _ in accepted],
            guard, tail_timestamp)
        for engine, plan in zip(self.dependents, self._dependent_plans):
            pairs: List[Tuple[Event, List[PatternMatch]]] = []
            saved = 0
            evaluations = 0
            for event, _, matched_by_signature in accepted:
                dependent_matches: List[PatternMatch] = []
                if matched_by_signature is not None:
                    operation = event.operation.value
                    for pattern, shared, pattern_operations, compiled in plan:
                        if operation not in pattern_operations:
                            continue
                        if shared is not None and (
                                failed is None or shared not in failed):
                            saved += 1
                            match = matched_by_signature.get(shared)
                            if match is not None:
                                dependent_matches.append(
                                    _rebind(match, pattern))
                            continue
                        evaluations += 1
                        try:
                            match = compiled.match_accepted_operation(event)
                        except Exception as error:
                            guard.record(engine, error, event.timestamp)
                            continue
                        if match is not None:
                            dependent_matches.append(match)
                pairs.append((event, dependent_matches))
            stats.pattern_evaluations_saved += saved
            stats.pattern_evaluations += evaluations
            alerts.extend(_process_match_batch(engine, pairs, guard,
                                               tail_timestamp))
        return alerts

    def process_events_columnar(self, block: ColumnBlock,
                                context: BatchPredicateContext,
                                stats: SchedulerStats,
                                guard: "_QuarantineGuard") -> List[Alert]:
        """Process one column block through the group (columnar path).

        Predicates are evaluated through the batch context's shared
        selection vectors: each distinct predicate once per batch, across
        every query of every group.  The logical ``pattern_evaluations``
        counters keep their per-pattern meaning; the physical work is
        tracked by the ``predicate_*`` counters.  The group's global
        filter is shared work attributed to the master: when it raises,
        the whole group skips the batch.
        """
        plan = self.columnar_plan
        events = block.events
        master = self.master
        tail_timestamp = events[-1].timestamp
        try:
            global_bitmap = context.global_filter(plan)
        except Exception as error:
            guard.record(master, error, tail_timestamp)
            return []
        operations = self.operations
        # Same skeleton as the closure path, plus the row -> accepted
        # position map the shared selection vectors are read through.
        accepted: List[Tuple[Event, List[PatternMatch],
                             Optional[Dict[Tuple, PatternMatch]]]] = []
        entry_for_row: List[Optional[int]] = [None] * block.size
        retained = 0
        operation_values = block.operation_values
        for row in context.selected_rows(plan, global_bitmap):
            event = events[row]
            retained += self._retain(event)
            if operation_values[row] in operations:
                entry_for_row[row] = len(accepted)
                accepted.append((event, [], {}))
            else:
                accepted.append((event, [], None))
        stats.buffered_events += retained
        if not accepted:
            return []

        failed: Optional[Set[Tuple]] = None
        evaluations = 0
        for pattern_plan in plan.master:
            signature = pattern_plan.signature
            try:
                candidates = context.candidate_rows(
                    pattern_plan.operations, plan, global_bitmap)
                rows = context.pattern_rows(pattern_plan, plan,
                                            global_bitmap)
            except Exception as error:
                guard.record(master, error, tail_timestamp)
                failed = (failed or set()) | {signature}
                continue
            evaluations += len(candidates)
            alias = pattern_plan.alias
            subject_var = pattern_plan.subject_var
            object_var = pattern_plan.object_var
            for row in rows:
                event = events[row]
                match = PatternMatch(
                    alias=alias, event=event,
                    bindings={subject_var: event.subject,
                              object_var: event.obj})
                entry = accepted[entry_for_row[row]]
                entry[1].append(match)
                entry[2][signature] = match
        stats.pattern_evaluations += evaluations

        alerts = _process_match_batch(
            master, [(event, matches) for event, matches, _ in accepted],
            guard, tail_timestamp)
        for engine, dependent_plan in zip(self.dependents, plan.dependents):
            pairs: List[Tuple[Event, List[PatternMatch]]] = [
                (event, []) for event, _, _ in accepted]
            saved = 0
            evaluations = 0
            for pattern_plan in dependent_plan:
                shared = pattern_plan.shared
                pattern = pattern_plan.pattern
                try:
                    candidates = context.candidate_rows(
                        pattern_plan.operations, plan, global_bitmap)
                    if shared is None:
                        rows = context.pattern_rows(pattern_plan, plan,
                                                    global_bitmap)
                except Exception as error:
                    guard.record(engine, error, tail_timestamp)
                    continue
                if shared is None:
                    evaluations += len(candidates)
                    alias = pattern_plan.alias
                    subject_var = pattern_plan.subject_var
                    object_var = pattern_plan.object_var
                    for row in rows:
                        event = events[row]
                        pairs[entry_for_row[row]][1].append(PatternMatch(
                            alias=alias, event=event,
                            bindings={subject_var: event.subject,
                                      object_var: event.obj}))
                elif failed is None or shared not in failed:
                    saved += len(candidates)
                    for row in candidates:
                        position = entry_for_row[row]
                        match = accepted[position][2].get(shared)
                        if match is not None:
                            pairs[position][1].append(
                                _rebind(match, pattern))
                else:
                    # The master's side of this signature failed: run the
                    # dependent's own compiled pattern over the rows.
                    compiled = _compiled_pattern_for(engine, pattern)
                    evaluations += len(candidates)
                    for row in candidates:
                        event = events[row]
                        try:
                            match = compiled.match_accepted_operation(event)
                        except Exception as error:
                            guard.record(engine, error, event.timestamp)
                            continue
                        if match is not None:
                            pairs[entry_for_row[row]][1].append(match)
            stats.pattern_evaluations_saved += saved
            stats.pattern_evaluations += evaluations
            alerts.extend(_process_match_batch(engine, pairs, guard,
                                               tail_timestamp))
        return alerts

    def finish(self, guard: "_QuarantineGuard") -> List[Alert]:
        """Flush every engine of the group at end of stream."""
        alerts: List[Alert] = []
        for engine in self.engines:
            try:
                alerts.extend(engine.finish())
            except Exception as error:
                guard.record(engine, error, None)
        return alerts

    def _retain(self, event: Event) -> int:
        """Buffer one event; return the net change in buffered-event count.

        The delta lets the scheduler keep its ``buffered_events`` total
        incrementally instead of re-summing every group's buffer length on
        every event.
        """
        self.shared_buffer.append(event)
        evicted = 0
        cutoff = event.timestamp - self._buffer_seconds
        while self.shared_buffer and self.shared_buffer[0].timestamp < cutoff:
            self.shared_buffer.popleft()
            evicted += 1
        return 1 - evicted

    @property
    def buffered_events(self) -> int:
        """Return how many events the group's shared buffer currently holds."""
        return len(self.shared_buffer)


def _compiled_pattern_for(engine: QueryEngine,
                          pattern: ast.EventPatternDeclaration):
    """Resolve a pattern's compiled form (at plan build, and on a reroute).

    Scheduler engines are always compiled (``add_query`` builds them that
    way), so the dispatch loops call the closure without a fallback.
    """
    compiled_set = engine.matcher.pattern_matcher.compiled_patterns
    assert compiled_set is not None, "scheduler engines are compiled"
    return compiled_set.compiled_for(pattern)


def _process_match_batch(engine: QueryEngine,
                         pairs: List[Tuple[Event, List[PatternMatch]]],
                         guard: "_QuarantineGuard",
                         timestamp: float) -> List[Alert]:
    """Run one engine over a batch's matches; failures go to the guard."""
    try:
        return engine.process_match_batch(pairs)
    except Exception as error:
        guard.record(engine, error, timestamp)
        return []


def _rebind(match: PatternMatch,
            pattern: ast.EventPatternDeclaration) -> PatternMatch:
    """Rebind a master's match to a dependent pattern's variable names."""
    return PatternMatch(
        alias=pattern.alias,
        event=match.event,
        bindings={
            pattern.subject.variable: match.event.subject,
            pattern.object.variable: match.event.obj,
        },
    )


class _QuarantineGuard:
    """Error-budget circuit-breaker for query fault isolation.

    Every non-SAQL exception the dispatch paths catch is recorded here
    as a *fatal* error against the owning engine (SAQL evaluation errors
    never reach the guard — the engines catch and report those
    themselves, non-fatally).  Once an engine's fatal count reaches the
    budget the breaker trips; the scheduler removes the engine from
    dispatch at the next :meth:`take_tripped` (batch boundary), so one
    broken query stops burning its group's batches while every other
    query keeps alerting.  Re-registering the query (``add_query``)
    re-arms the breaker with a fresh budget.  Without a budget
    (``None``) quarantine is off and :meth:`record` re-raises: the first
    failure aborts the batch.
    """

    def __init__(self, reporter: ErrorReporter, budget: Optional[int]):
        self._reporter = reporter
        self._budget = budget
        self._tripped: Set[str] = set()
        self._pending: List[QueryEngine] = []

    def record(self, engine: QueryEngine, error: Exception,
               timestamp: Optional[float] = None) -> None:
        """Charge one fatal error against an engine's budget."""
        if self._budget is None:
            raise error
        name = engine.name
        self._reporter.report(name, error, timestamp=timestamp, fatal=True)
        if (name not in self._tripped
                and self._reporter.fatal_count(name) >= self._budget):
            self._tripped.add(name)
            self._pending.append(engine)

    def sweep(self, engines: Iterable[QueryEngine]) -> None:
        """Trip breakers for budget-exhausted engines the guard never saw.

        Engines report some fatal errors internally (a raising alert
        sink, for one) instead of raising through the guarded dispatch
        paths; those land in the shared reporter without a
        :meth:`record` call.  Sweeping at batch boundaries folds them
        into the same budget, so a persistently failing sink quarantines
        its query exactly like a crashing closure would.
        """
        if self._budget is None:
            return
        for engine in engines:
            name = engine.name
            if (name not in self._tripped
                    and self._reporter.fatal_count(name) >= self._budget):
                self._tripped.add(name)
                self._pending.append(engine)

    def tripped(self, name: str) -> bool:
        """True when the named query's breaker has tripped."""
        return name in self._tripped

    def take_tripped(self) -> List[QueryEngine]:
        """Drain the engines that tripped since the last call."""
        pending, self._pending = self._pending, []
        return pending

    def rearm(self, name: str) -> None:
        """Reset one query's breaker (its error counters reset too)."""
        self._tripped.discard(name)
        self._reporter.clear_query(name)


class ConcurrentQueryScheduler:
    """Executes many SAQL queries over one stream with result sharing."""

    def __init__(self, sink: Optional[AlertSink] = None,
                 error_reporter: Optional[ErrorReporter] = None,
                 enable_sharing: bool = True,
                 track_agent_load: bool = False,
                 checkpoint_store=None,
                 checkpoint_interval: Optional[int] = None,
                 checkpoint_watermark_interval: Optional[float] = None,
                 quarantine_errors: Optional[int] = None,
                 metrics: Optional[MetricRegistry] = None,
                 shard_id: int = 0,
                 slow_query_threshold: Optional[float] =
                 DEFAULT_SLOW_QUERY_THRESHOLD):
        self._sink = sink
        self._error_reporter = error_reporter or ErrorReporter()
        self._enable_sharing = enable_sharing
        self._groups: Dict[Any, QueryGroup] = {}
        self._engines: List[QueryEngine] = []
        # Columnar batch execution: batches of at least
        # DEFAULT_COLUMNAR_MIN_BATCH events are pivoted into a ColumnBlock
        # and filtered through the shared predicate index; smaller batches
        # use the compiled closures.
        self._predicate_index = SharedPredicateIndex()
        # Per-predicate row counters restored from a checkpoint (the live
        # index restarts from zero after a restore; reports add these).
        self._predicate_baseline: Dict[str, Dict[str, int]] = {}
        # True when the predicate index changed since the last stats
        # sample (columnar batch processed, plan built or released), so
        # closure-path batches skip the per-atom report rebuild.
        self._predicate_stats_dirty = False
        # Monotonic key counter for sharing-disabled groups (never reused,
        # so removal cannot alias a later registration onto a dead key).
        self._isolated_serial = 0
        self.stats = SchedulerStats()
        # Per-agentid ingest accounting for the work-stealing balancer.
        # Off by default so the per-event hot path pays nothing; the
        # sharded runtime switches it on when rebalancing is requested.
        self._track_agent_load = track_agent_load
        self._agent_loads: Counter = Counter()
        self._load_watermark = float("-inf")
        # Durable checkpointing (see repro.core.snapshot): with a store
        # configured, the scheduler snapshots its full state every
        # ``checkpoint_interval`` ingested events and/or every
        # ``checkpoint_watermark_interval`` seconds of event-time
        # watermark advance, and tracks the resume cursor (last processed
        # journal position) the recovery path replays from.
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be at least 1 event")
        if (checkpoint_store is not None and checkpoint_interval is None
                and checkpoint_watermark_interval is None):
            raise ValueError("a checkpoint store needs an interval: pass "
                             "checkpoint_interval (events) and/or "
                             "checkpoint_watermark_interval (seconds)")
        self._checkpoint_store = checkpoint_store
        self._checkpoint_interval = checkpoint_interval
        self._checkpoint_watermark_interval = checkpoint_watermark_interval
        self._events_since_checkpoint = 0
        self._watermark_at_checkpoint = float("-inf")
        # The resume cursor: watermark (last processed event timestamp),
        # the last processed event id, and the ids of every processed
        # event *at* the watermark (so journal ties at the watermark are
        # not re-delivered on resume).  Maintained whenever a checkpoint
        # store is configured.
        self._cursor_watermark = float("-inf")
        self._cursor_last_id = 0
        self._cursor_frontier: Set[int] = set()
        #: Cursor restored by :meth:`restore_state` (None otherwise).
        self.restored_cursor = None
        # Query fault isolation: with a budget configured, non-SAQL
        # exceptions from one query's compiled closures / columnar plan /
        # engine are caught, charged against that query, and the query is
        # quarantined (removed from dispatch) once the budget is spent.
        # Without one (the default) the guard re-raises: fail fast.
        if quarantine_errors is not None and quarantine_errors < 1:
            raise ValueError("quarantine error budget must be at least 1")
        self._quarantine = _QuarantineGuard(self._error_reporter,
                                            quarantine_errors)
        #: Quarantined queries: name -> {"errors", "last_error",
        #: "timestamp"} detail for operators (stats carry the counts).
        self.quarantined: Dict[str, Dict[str, Any]] = {}
        # Unified observability (repro.obs): one registry per scheduler.
        # Sharded lanes receive their own registries (watermark lag keeps
        # a per-shard series via the shard label) and the parent merges
        # the snapshots; a disabled registry turns every hook into a
        # no-op and the batch path skips its clock reads entirely.
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._stage_timers = StageTimers(self.metrics)
        registry = self.metrics
        self._metric_events = registry.counter(
            "saql_events_total", "Events ingested by the scheduler.")
        self._metric_batches = registry.counter(
            "saql_batches_total", "Ingest batches processed.")
        self._metric_batch_seconds = registry.histogram(
            "saql_batch_seconds",
            "Whole-batch processing latency (excludes checkpoint writes, "
            "which time under saql_stage_seconds{stage=checkpoint_write}).")
        self._metric_watermark_lag = registry.gauge(
            "saql_watermark_lag_seconds",
            "Processing-time minus event-time at the last batch tail "
            "(meaningful when event timestamps are wall-clock epochs).",
            shard=str(shard_id))
        self._metric_alert_e2e = registry.histogram(
            "saql_alert_e2e_seconds",
            "Event timestamp to alert-milestone latency; point=emit is "
            "recorded here, point=sink_ack by the service's dispatcher.",
            point="emit")
        # Per-query children resolved once and cached (label lookups stay
        # off the batch path).
        self._metric_alert_counters: Dict[str, Any] = {}
        self._metric_alert_spans: Dict[str, Any] = {}
        self._group_timers: Dict[str, Any] = {}
        self._close_timer = (self._observe_window_close
                             if self.metrics.enabled else None)
        if slow_query_threshold is not None and slow_query_threshold <= 0:
            raise ValueError("slow-query threshold must be positive "
                             "(or None to disable the log)")
        self._slow_query_threshold = slow_query_threshold
        self._slow_queries: Deque[Dict[str, Any]] = deque(
            maxlen=SLOW_QUERY_LOG_DEPTH)

    # -- registration ------------------------------------------------------------

    def add_query(self, query: Union[str, ast.Query],
                  name: Optional[str] = None) -> QueryEngine:
        """Register one query; returns the engine created for it."""
        if isinstance(query, str):
            query = parse_query(query)
        engine = QueryEngine(query, name=name, sink=self._sink,
                             error_reporter=self._error_reporter,
                             close_timer=self._close_timer)
        self._engines.append(engine)

        # Re-registering a quarantined query re-arms its circuit-breaker
        # with a fresh error budget (and a clean error-rate slate).
        if engine.name in self.quarantined:
            del self.quarantined[engine.name]
            self.stats.quarantined.pop(engine.name, None)
            self._quarantine.rearm(engine.name)

        if self._enable_sharing:
            group_key: Any = compatibility_signature(query)
        else:
            # Without sharing every query is its own group (the baseline
            # behaviour of general-purpose stream engines in Section I).
            self._isolated_serial += 1
            group_key = ("isolated", self._isolated_serial)

        group = self._groups.get(group_key)
        if group is None:
            signature = (group_key if isinstance(group_key,
                                                 CompatibilitySignature)
                         else compatibility_signature(query))
            self._groups[group_key] = QueryGroup(signature, engine)
        else:
            group.add(engine)
            # Membership changed: the columnar plan (and its predicate
            # subscriptions) must rebuild for the next columnar batch.
            self._invalidate_group_plan(group)

        self.stats.queries = len(self._engines)
        self.stats.groups = len(self._groups)
        return engine

    def remove_query(self, query: Union[str, QueryEngine]) -> QueryEngine:
        """Unregister one query at runtime; returns its (live) engine.

        ``query`` is an engine previously returned by :meth:`add_query`
        or a unique engine name.  The engine keeps its state (open
        windows are abandoned, not flushed — call ``engine.finish()`` on
        the returned engine to drain them); the scheduler's dispatch
        plans, compatibility groups and the shared predicate index update
        incrementally: a removed dependent leaves its group, a removed
        master promotes its first dependent (the group's shared buffer
        carries over), and the last member dissolves the group.  Every
        subsequent batch runs against the rebuilt plans, so registration
        and removal are safe between any two batches of a live stream.
        """
        if isinstance(query, QueryEngine):
            engine = query
            if engine not in self._engines:
                raise KeyError(f"engine {engine.name!r} is not registered")
        else:
            named = [candidate for candidate in self._engines
                     if candidate.name == query]
            if not named:
                raise KeyError(f"no registered query named {query!r}")
            if len(named) > 1:
                raise KeyError(f"query name {query!r} is ambiguous "
                               f"({len(named)} engines); pass the engine")
            engine = named[0]
        group_key, group = next(
            (key, candidate) for key, candidate in self._groups.items()
            if engine is candidate.master or engine in candidate.dependents)
        self._engines.remove(engine)
        self._invalidate_group_plan(group)
        if engine is group.master:
            if not group.dependents:
                del self._groups[group_key]
                self.stats.buffered_events -= len(group.shared_buffer)
            else:
                promoted = QueryGroup(group.signature, group.dependents[0])
                # The shared stream copy survives the master hand-off.
                promoted.shared_buffer = group.shared_buffer
                for dependent in group.dependents[1:]:
                    promoted.add(dependent)
                self._groups[group_key] = promoted
        else:
            group.remove_dependent(engine)
        self.stats.queries = len(self._engines)
        self.stats.groups = len(self._groups)
        self._refresh_match_stats()
        return engine

    def _invalidate_group_plan(self, group: QueryGroup) -> None:
        """Release a group's columnar plan (it rebuilds on the next batch)."""
        plan = group.columnar_plan
        if plan is not None:
            plan.release(self._predicate_index)
            group.columnar_plan = None
            self._predicate_stats_dirty = True

    def add_queries(self, queries: Iterable[Union[str, ast.Query]]) -> None:
        """Register several queries at once."""
        for query in queries:
            self.add_query(query)

    @property
    def engines(self) -> List[QueryEngine]:
        """Return all registered query engines."""
        return list(self._engines)

    @property
    def groups(self) -> List[QueryGroup]:
        """Return the compatibility groups formed so far."""
        return list(self._groups.values())

    @property
    def error_reporter(self) -> ErrorReporter:
        """Return the shared error reporter."""
        return self._error_reporter

    # -- execution ----------------------------------------------------------------

    def process_event(self, event: Event) -> List[Alert]:
        """Feed one event: a batch of one through :meth:`process_events`."""
        return self.process_events([event])

    def process_events(self, events: Sequence[Event]) -> List[Alert]:
        """Feed a timestamp-ordered batch of events (the ingestion path).

        Batches of at least :data:`DEFAULT_COLUMNAR_MIN_BATCH` events are
        pivoted into one :class:`ColumnBlock` and every distinct predicate
        is evaluated once for all groups; smaller batches run the compiled
        closures.  Both shapes give identical alerts, per-engine alert
        order and statistics.  ``peak_buffered_events`` is sampled at
        batch boundaries, so it is a close lower bound of the per-event
        figure.
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        stats = self.stats
        stats.events_ingested += len(events)
        metrics_on = self.metrics.enabled
        batch_started = perf_counter() if metrics_on else 0.0
        if self._track_agent_load and events:
            self._agent_loads.update(event.agentid for event in events)
            # Batches are timestamp-ordered, so the tail carries the max.
            if events[-1].timestamp > self._load_watermark:
                self._load_watermark = events[-1].timestamp
        alerts: List[Alert] = []
        guard = self._quarantine
        groups = list(self._groups.values())
        columnar = bool(groups) and len(events) >= DEFAULT_COLUMNAR_MIN_BATCH
        if columnar:
            # Pivot the batch once, evaluate each distinct predicate once,
            # then run the per-match engine path only for surviving rows.
            pivot_started = perf_counter() if metrics_on else 0.0
            block = ColumnBlock(events)
            stats.column_blocks_built += 1
            context = BatchPredicateContext(block, timed=metrics_on)
            # Every group plan must exist before any bitmap is evaluated:
            # plan construction is what subscribes each group's operations
            # to the shared atoms, and an atom's selection vector is only
            # computed over its subscribers' operation rows.  Interleaving
            # build with evaluation would freeze an atom's operation set at
            # whatever the first subscriber declared.
            self._ensure_columnar_plans()
        dispatch_started = perf_counter() if metrics_on else 0.0
        if columnar and metrics_on:
            # Pivot covers block + context construction and any lazy plan
            # (re)builds; steady state is block construction.
            self._stage_timers.observe("columnar_pivot",
                                       dispatch_started - pivot_started)
        for group in groups:
            group_started = perf_counter() if metrics_on else 0.0
            if columnar:
                alerts.extend(group.process_events_columnar(
                    block, context, stats, guard))
            else:
                alerts.extend(group.process_events(events, stats, guard))
            if metrics_on:
                self._observe_group(group, perf_counter() - group_started,
                                    len(events))
        if columnar:
            stats.predicate_evaluations += context.rows_evaluated
            stats.predicate_evaluations_saved += context.rows_saved
            self._predicate_stats_dirty = True
            if metrics_on:
                # predicate_eval and window_close are nested inside the
                # pattern_match dispatch span (see OBSERVABILITY.md).
                self._stage_timers.observe("predicate_eval",
                                           context.eval_seconds)
        if metrics_on:
            self._stage_timers.observe("pattern_match",
                                       perf_counter() - dispatch_started)
        self._apply_quarantine()
        if stats.buffered_events > stats.peak_buffered_events:
            stats.peak_buffered_events = stats.buffered_events
        stats.alerts += len(alerts)
        self._refresh_match_stats()
        if metrics_on:
            self._note_alerts(alerts)
            self._metric_events.inc(len(events))
            self._metric_batches.inc()
            self._metric_batch_seconds.observe(perf_counter() - batch_started)
            if events:
                self._metric_watermark_lag.set(
                    time.time() - events[-1].timestamp)
        if self._checkpoint_store is not None:
            for event in events:
                self._advance_cursor(event)
            self._maybe_checkpoint()
        return alerts

    def _observe_window_close(self, seconds: float) -> None:
        """Engine hook: window-close time inside the batch dispatch."""
        self._stage_timers.observe("window_close", seconds)

    def _observe_group(self, group: QueryGroup, seconds: float,
                       batch_events: int) -> None:
        """Per-group batch timing: per-query histogram + slow-query log.

        The compatibility group is the dispatch unit, so its time is
        attributed to the *master* query's name (dependents ride the
        master's matching; a promoted dependent inherits the series).
        """
        name = group.master.name
        histogram = self._group_timers.get(name)
        if histogram is None:
            histogram = self.metrics.histogram(
                "saql_query_batch_seconds",
                "Per-query (group master) batch execution latency.",
                query=name)
            self._group_timers[name] = histogram
        histogram.observe(seconds)
        threshold = self._slow_query_threshold
        if threshold is not None and seconds >= threshold:
            self._slow_queries.append({
                "query": name,
                "seconds": seconds,
                "events": batch_events,
                "p99_seconds": histogram.percentile(0.99),
            })

    def _note_alerts(self, alerts: List[Alert]) -> None:
        """Per-alert metrics: counters, window span, emit-point latency."""
        if not alerts:
            return
        now = time.time()
        for alert in alerts:
            name = alert.query_name
            counter = self._metric_alert_counters.get(name)
            if counter is None:
                counter = self.metrics.counter(
                    "saql_alerts_total", "Alerts emitted.", query=name)
                self._metric_alert_counters[name] = counter
            counter.inc()
            span = self._metric_alert_spans.get(name)
            if span is None:
                span = self.metrics.histogram(
                    "saql_alert_window_span_seconds",
                    "Alert timestamp minus window start, in event time "
                    "(deterministic: identical across backends).",
                    query=name)
                self._metric_alert_spans[name] = span
            start = alert.window_start
            span.observe(alert.timestamp - start
                         if start is not None else 0.0)
            # Event-time to emission in wall clock; meaningful when event
            # timestamps are wall-clock epochs (the always-on service),
            # clamped at zero for synthetic/replayed streams.
            self._metric_alert_e2e.observe(max(0.0, now - alert.timestamp))

    def slow_queries(self) -> List[Dict[str, Any]]:
        """The ring-buffered slow-query log, oldest first (bounded)."""
        return list(self._slow_queries)

    def metrics_snapshot(self) -> Optional[Dict[str, Any]]:
        """Snapshot the live registry (``None`` with metrics disabled)."""
        return self.metrics.snapshot() if self.metrics.enabled else None

    def _refresh_match_stats(self) -> None:
        """Sample the engines' state-match retention into the stats.

        Sampling at batch boundaries (and finish) keeps the accounting off
        the per-event hot path; the peak is the sum of per-engine peaks,
        an upper bound on the true simultaneous figure.
        """
        buffered = 0
        peak = 0
        for engine in self._engines:
            buffered += engine.state_buffered_matches
            peak += engine.state_peak_buffered_matches
        self.stats.buffered_matches = buffered
        self.stats.peak_buffered_matches = peak
        if self._predicate_stats_dirty:
            self._refresh_predicate_stats()

    def _refresh_predicate_stats(self) -> None:
        """Sample the shared predicate index into the stats.

        Like the match-retention figures, sampled at batch boundaries and
        finish.  Counters restored from a checkpoint are kept as a
        baseline (the live index restarts from zero after a restore).
        """
        report: Dict[str, Dict[str, int]] = {
            label: dict(entry)
            for label, entry in self._predicate_baseline.items()
        }
        atoms = self._predicate_index.atoms()
        for atom in atoms:
            entry = report.setdefault(
                atom.label, {"subscribers": 0, "rows_evaluated": 0,
                             "rows_selected": 0})
            entry["subscribers"] = atom.refcount
            entry["rows_evaluated"] += atom.rows_evaluated
            entry["rows_selected"] += atom.rows_selected
        self.stats.predicate_sharing = report
        self.stats.distinct_predicates = len(atoms)
        self._predicate_stats_dirty = False

    def _ensure_columnar_plans(self) -> None:
        """Build every group's columnar plan that is missing or stale."""
        for group in self._groups.values():
            if group.columnar_plan is None:
                group.columnar_plan = build_group_plan(
                    group, self._predicate_index)
                self._predicate_stats_dirty = True

    def distinct_predicate_count(self) -> int:
        """Distinct predicates across all registered queries.

        Forces the lazy columnar plans to build, so the figure is
        available before the first batch (benchmarks report it per arm).
        """
        self._ensure_columnar_plans()
        return self._predicate_index.distinct_count

    def shared_predicate_report(self) -> List[Dict[str, Any]]:
        """Per-predicate sharing and selectivity, heaviest scanners first.

        Each row names one canonical predicate, how many query slots
        subscribe to it, how many column cells it actually scanned and
        selected over the run, and the resulting selectivity.
        """
        self._refresh_predicate_stats()
        rows = []
        for label, entry in self.stats.predicate_sharing.items():
            evaluated = entry["rows_evaluated"]
            rows.append({
                "predicate": label,
                "subscribers": entry["subscribers"],
                "rows_evaluated": evaluated,
                "rows_selected": entry["rows_selected"],
                "selectivity": (entry["rows_selected"] / evaluated
                                if evaluated else 0.0),
            })
        rows.sort(key=lambda row: (-row["rows_evaluated"],
                                   row["predicate"]))
        return rows

    def finish(self) -> List[Alert]:
        """Flush every group at end of stream."""
        alerts: List[Alert] = []
        for group in list(self._groups.values()):
            alerts.extend(group.finish(self._quarantine))
        self._apply_quarantine()
        self.stats.alerts += len(alerts)
        self._refresh_match_stats()
        if self.metrics.enabled:
            self._note_alerts(alerts)
            # End of stream is the stats round every backend already
            # ships to the sharded parent; the registry snapshot rides it.
            self.stats.metrics_snapshot = self.metrics.snapshot()
        return alerts

    def _apply_quarantine(self) -> None:
        """Remove engines whose circuit-breaker tripped this batch.

        Runs at batch boundaries (dispatch plans only change between
        batches).  The quarantined engine leaves dispatch through
        :meth:`remove_query` — co-grouped queries keep running, a
        removed master promotes its first dependent — and the trip is
        recorded in :attr:`quarantined` and ``stats.quarantined``.
        """
        guard = self._quarantine
        guard.sweep(self._engines)
        for engine in guard.take_tripped():
            try:
                self.remove_query(engine)
            except KeyError:
                continue
            name = engine.name
            record = self._error_reporter.last_error(name)
            count = self._error_reporter.fatal_count(name)
            self.quarantined[name] = {
                "errors": count,
                "last_error": record.message if record is not None else "",
                "timestamp": (record.timestamp if record is not None
                              else None),
            }
            self.stats.quarantined[name] = count

    # -- snapshots / checkpointing / recovery --------------------------------

    def _advance_cursor(self, event: Event) -> None:
        timestamp = event.timestamp
        if timestamp > self._cursor_watermark:
            self._cursor_watermark = timestamp
            self._cursor_frontier = {event.event_id}
        elif timestamp == self._cursor_watermark:
            self._cursor_frontier.add(event.event_id)
        self._cursor_last_id = event.event_id
        self._events_since_checkpoint += 1

    def _maybe_checkpoint(self) -> None:
        interval = self._checkpoint_interval
        due = (interval is not None
               and self._events_since_checkpoint >= interval)
        if not due and self._checkpoint_watermark_interval is not None:
            due = (self._cursor_watermark - self._watermark_at_checkpoint
                   >= self._checkpoint_watermark_interval)
        if due:
            self.checkpoint_now()

    def checkpoint_now(self):
        """Write one checkpoint through the configured store; returns it."""
        if self._checkpoint_store is None:
            raise RuntimeError("no checkpoint store configured")
        with self._stage_timers.time("checkpoint_write"):
            snapshot = self.export_state()
            self._checkpoint_store.save(snapshot)
        self._events_since_checkpoint = 0
        self._watermark_at_checkpoint = self._cursor_watermark
        return snapshot

    def emitted_alerts(self) -> List[Alert]:
        """Every alert emitted over the scheduler's lifetime, per engine.

        After a restore this includes the checkpointed alert ledgers, so
        a recovered run's collected output is the uninterrupted run's
        alert set (grouped by engine, in per-engine emission order).
        """
        alerts: List[Alert] = []
        for engine in self._engines:
            alerts.extend(engine.alerts)
        return alerts

    def export_state(self) -> Dict[str, Any]:
        """Snapshot the scheduler in the versioned, JSON-friendly form.

        Covers every engine's state (through
        :meth:`QueryEngine.export_state`), the statistics, the
        work-stealing load counters and the resume cursor.  The groups'
        shared event buffers are deliberately *not* serialized: they are
        pure retention bookkeeping (nothing re-reads the buffered events
        — matching happens on arrival), and at tens of seconds of raw
        stream they would dominate the checkpoint cost.  A restored
        scheduler starts with empty buffers and rebuilds the
        ``buffered_events`` figure as the resumed stream refills them.
        The result round-trips through strict JSON.
        """
        from repro.core.snapshot.codecs import SNAPSHOT_VERSION, encode_float
        stats = asdict(self.stats)
        # Live metrics piggyback on stats *rounds*, never on durable
        # checkpoints: timing histograms are nondeterministic across runs
        # and would break snapshot round-trip/diff determinism.
        stats.pop("metrics_snapshot", None)
        return {
            "version": SNAPSHOT_VERSION,
            "kind": "scheduler",
            "queries": [engine.name for engine in self._engines],
            "engines": {engine.name: engine.export_state()
                        for engine in self._engines},
            "stats": stats,
            "load": {
                "agent_loads": dict(self._agent_loads),
                "watermark": encode_float(self._load_watermark),
            },
            "cursor": {
                "watermark": encode_float(self._cursor_watermark),
                "last_event_id": self._cursor_last_id,
                "frontier_ids": sorted(self._cursor_frontier),
                "events_ingested": self.stats.events_ingested,
            },
        }

    def restore_state(self, snapshot: Dict[str, Any]) -> None:
        """Restore :meth:`export_state` output into this scheduler.

        The same queries must have been registered (same names, same
        order) on a scheduler that has processed nothing yet.  After the
        restore, :attr:`restored_cursor` holds the journal position to
        resume from (see :func:`repro.core.snapshot.recovery.resume_events`).
        """
        from repro.core.snapshot.codecs import check_version
        from repro.core.snapshot.recovery import ResumeCursor
        from repro.events.serialization import decode_float
        check_version(snapshot, "scheduler")
        if snapshot.get("kind") != "scheduler":
            raise ValueError(
                f"not a single-scheduler snapshot (kind="
                f"{snapshot.get('kind')!r}); sharded checkpoints restore "
                "through ShardedScheduler.restore_state with the same "
                "shard count")
        names = [engine.name for engine in self._engines]
        if snapshot["queries"] != names:
            raise ValueError(
                f"snapshot was taken with queries {snapshot['queries']!r} "
                f"but this scheduler registered {names!r}; register the "
                "same queries in the same order before restoring")
        restore_started = perf_counter()
        for engine in self._engines:
            engine.restore_state(snapshot["engines"][engine.name])
        self.stats = SchedulerStats(**snapshot["stats"])
        # The live predicate index restarts from zero (plans rebuild on
        # the next columnar batch); keep the checkpointed per-predicate
        # row counters as the reporting baseline.
        self._predicate_baseline = {
            label: {key: int(value) for key, value in entry.items()}
            for label, entry in self.stats.predicate_sharing.items()
        }
        self._predicate_stats_dirty = True
        # Shared buffers are not checkpointed (see export_state): they
        # start empty and the retention figure rebuilds from zero as the
        # resumed stream refills them; the historical peak survives.
        for group in self._groups.values():
            group.shared_buffer = deque()
        self.stats.buffered_events = 0
        load = snapshot["load"]
        self._agent_loads = Counter(load["agent_loads"])
        self._load_watermark = decode_float(load["watermark"])
        cursor = snapshot["cursor"]
        self._cursor_watermark = decode_float(cursor["watermark"])
        self._cursor_last_id = int(cursor["last_event_id"])
        self._cursor_frontier = set(cursor["frontier_ids"])
        self._watermark_at_checkpoint = self._cursor_watermark
        self._events_since_checkpoint = 0
        self.restored_cursor = ResumeCursor(
            watermark=self._cursor_watermark,
            last_event_id=self._cursor_last_id,
            frontier_ids=frozenset(self._cursor_frontier),
            events_ingested=int(cursor["events_ingested"]),
        )
        self._stage_timers.observe("checkpoint_restore",
                                   perf_counter() - restore_started)

    # -- per-host state transfer (work-stealing support) ---------------------

    def extract_agent_state(self, agentid_key: str) -> Dict[str, Any]:
        """Remove and return one host's slice of every engine's state.

        ``agentid_key`` is the casefolded agentid.  Used by the sharded
        runtime's state-transfer steals: the donor shard extracts the
        victim's partial sequences, window buckets, pane partials, state
        histories and distinct entries, and the thief merges them via
        :meth:`import_agent_state` before receiving the victim's held
        events.
        """
        from repro.core.snapshot.codecs import SNAPSHOT_VERSION
        return {
            "version": SNAPSHOT_VERSION,
            "kind": "agent-state",
            "engines": {engine.name: engine.extract_agent_state(agentid_key)
                        for engine in self._engines},
        }

    def import_agent_state(self, payload: Dict[str, Any]) -> None:
        """Merge a donor scheduler's :meth:`extract_agent_state` slice.

        Engines the donor ran but this scheduler does not (host-pinned
        queries routed elsewhere) contribute empty slices by construction
        — the balancer never steals a pin-satisfying agentid — and are
        skipped.
        """
        from repro.core.snapshot.codecs import check_version
        check_version(payload, "agent-state")
        by_name = {engine.name: engine for engine in self._engines}
        for name, data in payload["engines"].items():
            engine = by_name.get(name)
            if engine is not None:
                engine.import_agent_state(data)
        self._refresh_match_stats()

    # -- load reporting / drain signal (work-stealing support) --------------

    def take_load_report(self) -> ShardLoadReport:
        """Return the per-agentid ingest counts since the last report.

        Requires ``track_agent_load=True`` at construction (the counters
        are otherwise never filled).  Taking a report starts a new epoch:
        the counters reset, the watermark (largest event timestamp seen)
        does not.
        """
        if not self._track_agent_load:
            raise RuntimeError(
                "per-agentid load tracking is disabled; construct the "
                "scheduler with track_agent_load=True")
        report = ShardLoadReport(
            events_by_agentid=dict(self._agent_loads),
            total_events=sum(self._agent_loads.values()),
            watermark=self._load_watermark,
        )
        self._agent_loads.clear()
        return report

    @property
    def load_watermark(self) -> float:
        """The largest event timestamp this scheduler has ingested.

        ``-inf`` before any event.  Only maintained under
        ``track_agent_load=True`` (the sharded runtime enables it whenever
        rebalancing is on); it is the second half of the drain safe-point
        — see :meth:`drained_through`.
        """
        return self._load_watermark

    def open_window_deadline(self) -> Optional[float]:
        """Return the earliest end time of any engine's open windows."""
        deadline: Optional[float] = None
        for engine in self._engines:
            candidate = engine.open_window_deadline()
            if candidate is not None and (deadline is None
                                          or candidate < deadline):
                deadline = candidate
        return deadline

    def drained_through(self, cut: float) -> bool:
        """Return True when no open window ends at or before ``cut``.

        This is half of the sharded runtime's safe-point signal for
        migrating an agentid away from this scheduler: the victim's
        pre-cut events can only land in windows ending at or before the
        cut, so once those windows have closed (and alerted), the shard
        holds no on-time state for the victim.  It is *not* sufficient on
        its own — "no open window ends by the cut" is also true while the
        shard simply has not seen the stream reach the cut yet (a quiet
        spell, or an exempt pinned query's long window spanning it), and
        a victim match arriving after this answer would then open a
        pre-cut window here while later pre-cut events route to the
        thief, splitting one window's aggregate across two shards.  The
        runtime therefore also requires :attr:`load_watermark` ``>= cut``
        (see ``_answer_control`` in the sharded module): past that point
        any further pre-cut event is a *late* event on either shard,
        handled by the same re-opened-bucket semantics as the
        single-process oracle.
        """
        deadline = self.open_window_deadline()
        return deadline is None or deadline > cut

    def execute(self, stream: Iterable[Event],
                batch_size: Optional[int] = None) -> List[Alert]:
        """Run all registered queries over a finite stream.

        With ``batch_size`` the stream is consumed in batches of that
        size; without it every event is its own batch.
        """
        alerts: List[Alert] = []
        if batch_size is not None:
            for batch in iter_batches(stream, batch_size):
                alerts.extend(self.process_events(batch))
        else:
            for event in stream:
                alerts.extend(self.process_event(event))
        alerts.extend(self.finish())
        return alerts
