"""The per-query executor.

:class:`QueryEngine` ties together the engine stages for one SAQL query:
multievent matching, sliding-window state maintenance, invariant training,
clustering, alert evaluation and return projection.  It supports both batch
execution over a finite stream (:meth:`execute`) and incremental, per-event
execution (:meth:`process_event` / :meth:`finish`) as used by the CLI and
the concurrent query scheduler.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.compile.expressions import CompiledExpr, compile_scalar
from repro.core.engine.alerts import Alert, AlertSink
from repro.core.engine.clustering import ClusterEvaluator
from repro.core.engine.context import ClusterView, GroupContext
from repro.core.engine.error_reporter import ErrorReporter
from repro.core.engine.invariant import InvariantMaintainer
from repro.core.engine.matching import PatternMatch
from repro.core.engine.multievent_matcher import MultieventMatcher, SequenceMatch
from repro.core.engine.state import StateMaintainer, WindowState
from repro.core.engine.windows import WindowAssigner, WindowKey
from repro.core.errors import SAQLError, SAQLExecutionError
from repro.core.expr import values
from repro.core.expr.evaluator import ExpressionEvaluator
from repro.core.language import ast, format_query, parse_query
from repro.core.language.formatter import format_expression
from repro.events.entities import Entity
from repro.events.event import Event

_ENGINE_COUNTER = itertools.count(1)


class QueryEngine:
    """Executes one SAQL query over a stream of system events."""

    def __init__(self, query: Union[str, ast.Query],
                 name: Optional[str] = None,
                 sink: Optional[AlertSink] = None,
                 error_reporter: Optional[ErrorReporter] = None,
                 sequence_horizon: Optional[float] = None,
                 compiled: bool = True,
                 incremental: Optional[bool] = None,
                 close_timer: Optional[Callable[[float], None]] = None):
        if isinstance(query, str):
            query = parse_query(query)
        self._query = query
        self.name = name or query.name or f"query-{next(_ENGINE_COUNTER)}"
        self._sink = sink
        self._error_reporter = error_reporter
        self._compiled = compiled

        # The query is lowered to closures once, here; the per-event path
        # below only runs pre-built artifacts (see repro.core.compile).
        # With compiled=False every stage falls back to the AST-walking
        # interpreter, kept as the reference for equivalence testing.
        self._compiled_alert: Optional[CompiledExpr] = None
        self._compiled_returns: Optional[
            Tuple[Tuple[str, CompiledExpr], ...]] = None
        if compiled:
            if query.alert is not None:
                self._compiled_alert = compile_scalar(query.alert.condition)
            if query.returns is not None:
                self._compiled_returns = tuple(
                    (item.alias or format_expression(item.expr),
                     compile_scalar(item.expr))
                    for item in query.returns.items)

        self._matcher = MultieventMatcher(query, horizon=sequence_horizon,
                                          compiled=compiled)
        self._window_assigner = WindowAssigner(query.window)
        # ``incremental=None`` auto-selects: state blocks that lower to an
        # accumulator plan run incrementally (streaming accumulators, pane
        # sharing, match-buffer elision); the rest — and compiled=False —
        # use the buffered-recompute oracle.
        self._state_maintainer: Optional[StateMaintainer] = (
            StateMaintainer(query, compiled=compiled, incremental=incremental)
            if query.state is not None else None)
        self._invariant: Optional[InvariantMaintainer] = None
        if query.invariant is not None and query.state is not None:
            self._invariant = InvariantMaintainer(query.invariant,
                                                  query.state.name,
                                                  compiled=compiled)
        self._cluster: Optional[ClusterEvaluator] = None
        if query.cluster is not None and query.state is not None:
            self._cluster = ClusterEvaluator(query.cluster, query.state.name)

        # Optional stage-timing hook (seconds spent closing windows);
        # None keeps the batch tail clock-free.  Only the batch paths
        # time closes — the per-event path stays untouched.
        self._close_timer = close_timer

        self._seen_distinct: set = set()
        self.events_processed = 0
        self.alerts_emitted = 0
        self._collected: List[Alert] = []

    # -- public API ----------------------------------------------------------

    @property
    def query(self) -> ast.Query:
        """Return the (parsed, analyzed) query this engine executes."""
        return self._query

    @property
    def matcher(self) -> MultieventMatcher:
        """Return the multievent matcher (exposed for the scheduler)."""
        return self._matcher

    @property
    def alerts(self) -> List[Alert]:
        """Return all alerts emitted so far."""
        return list(self._collected)

    @property
    def state_buffered_matches(self) -> int:
        """Matches currently retained for window state (0 for rule queries).

        Under buffered aggregation this counts every stored copy (an
        overlapping window stores each match once per containing window);
        under incremental aggregation it counts the single representative
        match kept per open (bucket, group).
        """
        if self._state_maintainer is None:
            return 0
        return self._state_maintainer.buffered_matches

    @property
    def state_peak_buffered_matches(self) -> int:
        """Peak of :attr:`state_buffered_matches` over the run."""
        if self._state_maintainer is None:
            return 0
        return self._state_maintainer.peak_buffered_matches

    def open_window_deadline(self) -> Optional[float]:
        """Return the earliest end time of this engine's open windows.

        None for rule-based queries (no window state) and for stateful
        queries with nothing open.  The sharded runtime's drain-and-handoff
        protocol polls this through the owning scheduler: migrating an
        agentid is safe once every window that could hold its matches —
        all of which end at or before the migration's cut time — has
        closed.
        """
        if self._state_maintainer is None:
            return None
        return self._state_maintainer.earliest_open_deadline()

    def execute(self, stream: Iterable[Event]) -> List[Alert]:
        """Run the query over a finite stream and return all alerts."""
        for event in stream:
            self.process_event(event)
        self.finish()
        return self.alerts

    def process_event(self, event: Event) -> List[Alert]:
        """Feed one event; return the alerts it triggered (may be empty)."""
        matches = self._matcher.pattern_matcher.match_event(event)
        return self.process_matches(event, matches)

    def process_events(self, events: Sequence[Event]) -> List[Alert]:
        """Feed a timestamp-ordered batch of events; return the new alerts.

        Equivalent to calling :meth:`process_event` per event, but routed
        through :meth:`process_match_batch` so per-event dispatch overhead
        is amortized across the batch.
        """
        matcher = self._matcher.pattern_matcher
        return self.process_match_batch(
            [(event, matcher.match_event(event)) for event in events])

    def process_match_batch(
            self, pairs: Sequence[Tuple[Event, Sequence[PatternMatch]]]
    ) -> List[Alert]:
        """Feed a batch of events with externally computed pattern matches.

        This is the batch counterpart of :meth:`process_matches` (and what
        the concurrent scheduler's ingestion path calls): matches are
        folded in per event, but the per-event engine call chain collapses
        to one call per batch, with the same alerts as per-event feeding.
        For stateful queries the window-closing watermark advances at the
        batch tail, and also before any event older than its predecessor:
        within a run of non-decreasing timestamps matches never join
        windows that are already due, so deferring the close to the end of
        the run closes the same windows with the same contents in the same
        order, while an out-of-order event may belong to a window per-event
        feeding would already have closed.  For rule queries, events
        without matches are skipped: they can neither extend nor complete a
        sequence, and only the latest of their timestamps matters for
        partial-sequence expiry, which is applied before the next matched
        event (and at the batch tail) whenever it reaches further.
        """
        self.events_processed += len(pairs)
        if self._state_maintainer is None:
            return self._process_rule_batch(pairs)
        alerts: List[Alert] = []
        previous: Optional[Event] = None
        latest = float("-inf")  # previous.timestamp
        for event, matches in pairs:
            timestamp = event.timestamp
            if timestamp < latest:
                alerts.extend(self._close_windows_after(previous))
            if matches:
                try:
                    self._accumulate_matches(matches)
                except SAQLError as error:
                    if self._error_reporter is None:
                        raise
                    self._error_reporter.report(self.name, error,
                                                timestamp=timestamp)
            previous = event
            latest = timestamp
        if previous is not None:
            alerts.extend(self._close_windows_after(previous))
        return alerts

    def _process_rule_batch(
            self, pairs: Sequence[Tuple[Event, Sequence[PatternMatch]]]
    ) -> List[Alert]:
        alerts: List[Alert] = []
        matcher = self._matcher
        # Skipped events only matter while partial sequences exist (they
        # expire them); only matched events create partials.
        tracking = matcher.pending_sequences > 0
        skipped: Optional[float] = None  # their latest timestamp
        for event, matches in pairs:
            if not matches:
                if tracking and (skipped is None
                                 or event.timestamp > skipped):
                    skipped = event.timestamp
                continue
            if skipped is not None and skipped > event.timestamp:
                matcher.expire(skipped)
            skipped = None
            try:
                alerts.extend(self._process_rule(event, matches))
            except SAQLError as error:
                if self._error_reporter is None:
                    raise
                self._error_reporter.report(self.name, error,
                                            timestamp=event.timestamp)
            tracking = matcher.pending_sequences > 0
        if skipped is not None:
            matcher.expire(skipped)
        return alerts

    def _close_windows_after(self, event: Event) -> List[Alert]:
        """Close the windows due at the watermark ``event`` leaves behind."""
        try:
            watermark = self._current_watermark(event)
            if self._close_timer is None:
                return self._close_windows(watermark)
            started = perf_counter()
            alerts = self._close_windows(watermark)
            self._close_timer(perf_counter() - started)
            return alerts
        except SAQLError as error:
            if self._error_reporter is None:
                raise
            self._error_reporter.report(self.name, error,
                                        timestamp=event.timestamp)
            return []

    def process_matches(self, event: Event,
                        matches: Sequence[PatternMatch]) -> List[Alert]:
        """Feed one event whose pattern matches were computed externally.

        The concurrent query scheduler uses this entry point so dependent
        queries can reuse the pattern matches of their master query.
        """
        self.events_processed += 1
        try:
            if self._state_maintainer is not None:
                return self._process_stateful(event, matches)
            return self._process_rule(event, matches)
        except SAQLError as error:
            if self._error_reporter is None:
                raise
            self._error_reporter.report(self.name, error,
                                        timestamp=event.timestamp)
            return []

    def finish(self) -> List[Alert]:
        """Flush all still-open windows (end of stream) and return new alerts."""
        if self._state_maintainer is None:
            return []
        try:
            if self._close_timer is None:
                return self._close_windows(watermark=float("inf"))
            started = perf_counter()
            alerts = self._close_windows(watermark=float("inf"))
            self._close_timer(perf_counter() - started)
            return alerts
        except SAQLError as error:
            if self._error_reporter is None:
                raise
            self._error_reporter.report(self.name, error)
            return []

    # -- snapshots / state transfer --------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """Snapshot this engine's live state in the versioned wire form.

        Covers the window assigner's count ordinal, the multievent
        matcher's partial sequences, the state maintainer's buckets,
        panes and histories, invariant training, the ``distinct``
        seen-set, the counters, and the alert ledger (every alert emitted
        so far) for exactly-once re-emission after recovery.
        """
        from repro.core.snapshot.codecs import encode_alert, encode_value
        data: Dict[str, Any] = {
            "name": self.name,
            "events_processed": self.events_processed,
            "alerts_emitted": self.alerts_emitted,
            "assigner": self._window_assigner.export_state(),
            "matcher": self._matcher.export_state(),
            "seen_distinct": [encode_value(entry)
                              for entry in self._seen_distinct],
            "alerts": [encode_alert(alert) for alert in self._collected],
        }
        if self._state_maintainer is not None:
            data["state"] = self._state_maintainer.export_state()
        if self._invariant is not None:
            data["invariant"] = self._invariant.export_state()
        return data

    def restore_state(self, data: Dict[str, Any]) -> None:
        """Restore :meth:`export_state` output into this (fresh) engine.

        The engine must have been built for the same query under the same
        execution configuration.  The restored alert ledger repopulates
        :attr:`alerts`, so a recovered run's collected output is the
        uninterrupted run's alerts — already-emitted alerts are not
        re-derived (the resume cursor skips their events) and not lost.
        """
        from repro.core.snapshot.codecs import decode_alert, decode_value
        if data["name"] != self.name:
            raise ValueError(
                f"snapshot belongs to query {data['name']!r}, not "
                f"{self.name!r}; register the same queries before restoring")
        self.events_processed = int(data["events_processed"])
        self.alerts_emitted = int(data["alerts_emitted"])
        self._window_assigner.restore_state(data["assigner"])
        self._matcher.restore_state(data["matcher"])
        self._seen_distinct = {decode_value(entry)
                               for entry in data["seen_distinct"]}
        self._collected = [decode_alert(alert) for alert in data["alerts"]]
        if self._state_maintainer is not None:
            self._state_maintainer.restore_state(data["state"])
        if self._invariant is not None:
            self._invariant.restore_state(data["invariant"])

    def extract_agent_state(self, agentid_key: str) -> Dict[str, Any]:
        """Remove and return one host's slice of this engine's state.

        ``agentid_key`` is the casefolded agentid (the sharded router's
        migration key).  The ``distinct`` seen-set is *copied*, not
        removed: entries of other hosts can never collide with alerts the
        importing shard emits (group keys are host-local on stealable
        lanes), and the victim's entries must survive on both sides in
        case of a later reverse migration.
        """
        from repro.core.snapshot.codecs import encode_value

        def owns(event: Event) -> bool:
            return event.agentid.casefold() == agentid_key

        payload: Dict[str, Any] = {
            "matcher": self._matcher.extract_partials(owns),
        }
        if self._state_maintainer is not None:
            payload["state"] = self._state_maintainer.extract_agent_state(
                lambda match: owns(match.event))
        if self._query.returns is not None and self._query.returns.distinct:
            payload["distinct"] = [encode_value(entry)
                                   for entry in self._seen_distinct]
        return payload

    def import_agent_state(self, payload: Dict[str, Any]) -> None:
        """Merge a donor engine's :meth:`extract_agent_state` slice."""
        from repro.core.snapshot.codecs import decode_value
        self._matcher.absorb_partials(payload["matcher"])
        if "state" in payload and self._state_maintainer is not None:
            self._state_maintainer.merge_agent_state(payload["state"])
        if "distinct" in payload:
            self._seen_distinct.update(decode_value(entry)
                                       for entry in payload["distinct"])

    # -- rule-based path -------------------------------------------------------

    def _process_rule(self, event: Event,
                      matches: Sequence[PatternMatch]) -> List[Alert]:
        alerts: List[Alert] = []
        sequences = self._matcher.process_matches(event, matches)
        for sequence in sequences:
            alert = self._emit_rule_alert(sequence)
            if alert is not None:
                alerts.append(alert)
        return alerts

    def _emit_rule_alert(self, sequence: SequenceMatch) -> Optional[Alert]:
        context = GroupContext(bindings=sequence.bindings,
                               events=sequence.events)
        if not self._alert_condition_holds(context):
            return None
        last_event = max(sequence.matches, key=lambda m: m.timestamp).event
        return self._emit_alert(
            context=context,
            timestamp=sequence.timestamp,
            group_key=None,
            window=None,
            agentid=last_event.agentid,
        )

    # -- stateful path -----------------------------------------------------------

    def _process_stateful(self, event: Event,
                          matches: Sequence[PatternMatch]) -> List[Alert]:
        assert self._state_maintainer is not None
        self._accumulate_matches(matches)
        watermark = self._current_watermark(event)
        return self._close_windows(watermark)

    def _accumulate_matches(self, matches: Sequence[PatternMatch]) -> None:
        maintainer = self._state_maintainer
        assert maintainer is not None
        if maintainer.shares_panes:
            # Overlapping sliding windows: one pane update per match
            # instead of one bucket append per containing window.
            add_sliding = maintainer.add_match_sliding
            for match in matches:
                add_sliding(match)
            return
        assign = self._window_assigner.assign
        add = maintainer.add_match
        for match in matches:
            for window in assign(match.timestamp):
                add(window, match)

    def _current_watermark(self, event: Event) -> float:
        return self._window_assigner.watermark(event.timestamp)

    def _close_windows(self, watermark: float) -> List[Alert]:
        assert self._state_maintainer is not None
        if not self._state_maintainer.has_due_windows(watermark):
            return []
        alerts: List[Alert] = []
        # Pop one window at a time: if processing a window raises, the
        # later due windows keep their deadlines and close on the next
        # watermark advance, as they did under the scan-based closing.
        while True:
            window = self._state_maintainer.pop_next_due_window(watermark)
            if window is None:
                break
            alerts.extend(self._process_closed_window(window))
        return alerts

    def _process_closed_window(self, window: WindowKey) -> List[Alert]:
        assert self._state_maintainer is not None
        states = self._state_maintainer.close_window(window)
        if not states:
            return []
        histories = {
            state.group_key: self._state_maintainer.history_for(state.group_key)
            for state in states
        }
        cluster_result = None
        if self._cluster is not None:
            cluster_result = self._cluster.evaluate_window(states, histories)

        alerts: List[Alert] = []
        for state in states:
            alert = self._evaluate_group(window, state, histories,
                                         cluster_result)
            if alert is not None:
                alerts.append(alert)
        return alerts

    def _evaluate_group(self, window: WindowKey, state: WindowState,
                        histories: Dict[Any, Any],
                        cluster_result) -> Optional[Alert]:
        assert self._state_maintainer is not None
        history = histories[state.group_key]

        in_training = False
        invariant_values: Dict[str, Any] = {}
        if self._invariant is not None:
            invariant_values = self._invariant.values_for(state.group_key)
            in_training = self._invariant.is_training(state.group_key)

        bindings: Dict[str, Entity] = {}
        events: Dict[str, Event] = {}
        agentid = ""
        if state.representative is not None:
            bindings = dict(state.representative.bindings)
            events = {state.representative.alias: state.representative.event}
            agentid = state.representative.event.agentid

        context = GroupContext(
            state_name=self._state_maintainer.state_name,
            history=history,
            invariant_values=invariant_values,
            cluster_view=ClusterView(cluster_result, state.group_key),
            bindings=bindings,
            events=events,
        )

        fire = True
        if in_training:
            fire = False
        else:
            fire = self._alert_condition_holds(context)

        alert: Optional[Alert] = None
        if fire:
            alert = self._emit_alert(
                context=context,
                timestamp=window.end,
                group_key=state.group_key,
                window=window,
                agentid=agentid,
            )

        # The invariant absorbs this window only after detection, so a
        # deviation is reported before it becomes part of the invariant.
        if self._invariant is not None:
            self._invariant.observe_window(state.group_key, history)
        return alert

    # -- alert construction -------------------------------------------------------

    def _alert_condition_holds(self, context: GroupContext) -> bool:
        if self._query.alert is None:
            return True
        if self._compiled_alert is not None:
            return values.is_truthy(self._compiled_alert(context))
        evaluator = ExpressionEvaluator(context)
        return evaluator.evaluate_truthy(self._query.alert.condition)

    def _emit_alert(self, context: GroupContext, timestamp: float,
                    group_key: Any, window: Optional[WindowKey],
                    agentid: str) -> Optional[Alert]:
        data = self._project_returns(context)
        if self._query.returns is not None and self._query.returns.distinct:
            key = (group_key, data)
            if key in self._seen_distinct:
                return None
            self._seen_distinct.add(key)
        alert = Alert(
            query_name=self.name,
            timestamp=timestamp,
            data=data,
            model_kind=self._query.model_kind,
            group_key=group_key,
            window_start=window.start if window is not None else None,
            window_end=window.end if window is not None else None,
            agentid=agentid,
        )
        self.alerts_emitted += 1
        self._collected.append(alert)
        if self._sink is not None:
            # A broken sink must not take the stream down: the alert is
            # already in the ledger (checkpointed, re-deliverable), so a
            # raising sink is reported against this query — feeding the
            # quarantine circuit-breaker's counters — and the run goes
            # on.  Without a reporter there is no error path to route
            # through, so the failure propagates as before.
            try:
                self._sink.emit(alert)
            except Exception as error:
                if self._error_reporter is None:
                    raise
                self._error_reporter.report(self.name, error,
                                            timestamp=timestamp, fatal=True)
        return alert

    def _project_returns(self, context: GroupContext
                         ) -> Tuple[Tuple[str, Any], ...]:
        returns = self._query.returns
        if returns is None:
            return ()
        if self._compiled_returns is not None:
            return tuple((label, _projectable(item_fn(context)))
                         for label, item_fn in self._compiled_returns)
        evaluator = ExpressionEvaluator(context)
        projected: List[Tuple[str, Any]] = []
        for item in returns.items:
            label = item.alias or format_expression(item.expr)
            value = evaluator.evaluate(item.expr)
            projected.append((label, _projectable(value)))
        return tuple(projected)


def _projectable(value: Any) -> Any:
    """Convert engine runtime values to alert-friendly plain values.

    Entities project to their default attribute (the paper's context-aware
    shortcut: ``p1`` returns ``p1.exe_name``); events project to their id;
    sets become sorted tuples so alerts are hashable and stable.
    """
    if isinstance(value, Entity):
        return value.default_value()
    if isinstance(value, Event):
        return value.event_id
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(str(item) for item in value))
    if isinstance(value, float) and value.is_integer():
        # Aggregations over integral byte counts produce floats like
        # 500000.0; normalize them so alert payloads are stable regardless
        # of whether a value went through float arithmetic.
        return int(value)
    return value
