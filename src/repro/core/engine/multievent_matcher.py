"""The multievent matcher: temporal sequences over pattern matches.

Rule-based queries (Query 1 of the paper) declare several event patterns,
an optional temporal order (``with evt1 -> evt2 -> evt3``), and implicit
attribute relationships through shared entity variables (the same ``f1``
appearing in two patterns forces both matched events to involve the same
file).  The multievent matcher maintains *partial sequences* of pattern
matches and emits a :class:`SequenceMatch` once every pattern of the query
has been matched consistently.

Partial sequences expire after ``horizon`` seconds so that memory stays
bounded on an unbounded stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine.matching import PatternMatch, PatternMatcher
from repro.core.language import ast
from repro.events.entities import Entity
from repro.events.event import Event

#: Default partial-sequence lifetime (seconds) when the query has no window.
DEFAULT_HORIZON = 3600.0


@dataclass(frozen=True)
class SequenceMatch:
    """A complete multievent match: one event per pattern alias."""

    matches: Tuple[PatternMatch, ...]

    @property
    def bindings(self) -> Dict[str, Entity]:
        """Return the merged entity bindings of the sequence."""
        merged: Dict[str, Entity] = {}
        for match in self.matches:
            merged.update(match.bindings)
        return merged

    @property
    def events(self) -> Dict[str, Event]:
        """Return the matched event for each alias."""
        return {match.alias: match.event for match in self.matches}

    @property
    def timestamp(self) -> float:
        """Return the timestamp of the last event in the sequence."""
        return max(match.timestamp for match in self.matches)


@dataclass
class _PartialSequence:
    """Internal: an in-progress sequence of compatible pattern matches."""

    matches: Dict[str, PatternMatch] = field(default_factory=dict)
    started_at: float = 0.0

    def bindings(self) -> Dict[str, Entity]:
        merged: Dict[str, Entity] = {}
        for match in self.matches.values():
            merged.update(match.bindings)
        return merged

    def is_compatible(self, match: PatternMatch) -> bool:
        """Shared entity variables must bind to the same entity."""
        existing = self.bindings()
        for variable, entity in match.bindings.items():
            bound = existing.get(variable)
            if bound is not None and bound.entity_id != entity.entity_id:
                return False
        return True

    def extended(self, match: PatternMatch) -> "_PartialSequence":
        matches = dict(self.matches)
        matches[match.alias] = match
        return _PartialSequence(matches=matches, started_at=self.started_at)


class MultieventMatcher:
    """Maintains partial sequences and emits complete multievent matches."""

    def __init__(self, query: ast.Query,
                 horizon: Optional[float] = None,
                 max_partial_sequences: int = 10000,
                 compiled: bool = True):
        self._query = query
        self._pattern_matcher = PatternMatcher(query, compiled=compiled)
        self._aliases = [pattern.alias for pattern in query.patterns]
        self._order: Optional[Tuple[str, ...]] = (
            query.temporal_order.aliases
            if query.temporal_order is not None else None)
        window = query.window
        if horizon is not None:
            self._horizon = horizon
        elif window is not None and window.kind == "time":
            self._horizon = window.length
        else:
            self._horizon = DEFAULT_HORIZON
        self._max_partial = max_partial_sequences
        self._partials: List[_PartialSequence] = []

    @property
    def pattern_matcher(self) -> PatternMatcher:
        """Return the underlying single-pattern matcher."""
        return self._pattern_matcher

    def process_event(self, event: Event) -> List[SequenceMatch]:
        """Feed one event; return any sequences completed by it."""
        matches = self._pattern_matcher.match_event(event)
        return self.process_matches(event, matches)

    def process_matches(self, event: Event,
                        matches: Sequence[PatternMatch]
                        ) -> List[SequenceMatch]:
        """Feed pre-computed pattern matches for one event.

        Used by the concurrent scheduler, where a dependent query reuses the
        pattern matches computed by its master query.
        """
        self.expire(event.timestamp)
        if not matches:
            return []
        if len(self._aliases) == 1:
            return [SequenceMatch(matches=(match,)) for match in matches]
        completed: List[SequenceMatch] = []
        for match in matches:
            completed.extend(self._advance(match))
        return completed

    # -- sequence bookkeeping ------------------------------------------------

    def expire(self, now: float) -> None:
        """Drop partial sequences started more than the horizon before now."""
        if not self._partials:
            return
        cutoff = now - self._horizon
        self._partials = [partial for partial in self._partials
                          if partial.started_at >= cutoff]

    def _next_expected(self, partial: _PartialSequence) -> Optional[str]:
        """Return the next alias a partial sequence accepts (ordered mode)."""
        assert self._order is not None
        for alias in self._order:
            if alias not in partial.matches:
                return alias
        return None

    def _advance(self, match: PatternMatch) -> List[SequenceMatch]:
        completed: List[SequenceMatch] = []
        new_partials: List[_PartialSequence] = []

        for partial in self._partials:
            if match.alias in partial.matches:
                continue
            if self._order is not None:
                expected = self._next_expected(partial)
                if expected != match.alias:
                    continue
            if not partial.is_compatible(match):
                continue
            extended = partial.extended(match)
            if len(extended.matches) == len(self._aliases):
                completed.append(self._to_sequence(extended))
            else:
                new_partials.append(extended)

        # A match may also start a new partial sequence (if it is allowed to
        # be the first element).
        if self._can_start(match.alias):
            seed = _PartialSequence(matches={match.alias: match},
                                    started_at=match.timestamp)
            if len(self._aliases) == 1:
                completed.append(self._to_sequence(seed))
            else:
                new_partials.append(seed)

        self._partials.extend(new_partials)
        if len(self._partials) > self._max_partial:
            # Keep the most recent partial sequences; older ones are least
            # likely to complete within the horizon.
            self._partials = self._partials[-self._max_partial:]
        return completed

    def _can_start(self, alias: str) -> bool:
        if self._order is None:
            return True
        return alias == self._order[0]

    def _to_sequence(self, partial: _PartialSequence) -> SequenceMatch:
        ordered_aliases = self._order if self._order else tuple(self._aliases)
        matches = tuple(partial.matches[alias] for alias in ordered_aliases
                        if alias in partial.matches)
        return SequenceMatch(matches=matches)

    @property
    def pending_sequences(self) -> int:
        """Return the number of in-progress partial sequences."""
        return len(self._partials)

    # -- snapshots / state transfer ------------------------------------------

    @staticmethod
    def _encode_partial(partial: _PartialSequence):
        from repro.core.snapshot.codecs import encode_float, encode_match
        return {
            "matches": [[alias, encode_match(match)]
                        for alias, match in partial.matches.items()],
            "started_at": encode_float(partial.started_at),
        }

    @staticmethod
    def _decode_partial(data) -> _PartialSequence:
        from repro.core.snapshot.codecs import decode_float, decode_match
        return _PartialSequence(
            matches={alias: decode_match(match)
                     for alias, match in data["matches"]},
            started_at=decode_float(data["started_at"]),
        )

    def export_state(self):
        """Snapshot the in-flight partial sequences (wire form)."""
        return {"partials": [self._encode_partial(partial)
                             for partial in self._partials]}

    def restore_state(self, state) -> None:
        """Restore :meth:`export_state` output into this matcher."""
        self._partials = [self._decode_partial(data)
                          for data in state["partials"]]

    def extract_partials(self, event_predicate):
        """Remove and return (wire form) the partials of matching hosts.

        ``event_predicate`` receives each partial's first matched event.
        Host-connected queries (the only multi-pattern shape the sharded
        runtime routes to shards) bind every pattern of a partial to one
        host, so any match of the partial attributes it.
        """
        kept: List[_PartialSequence] = []
        extracted: List[_PartialSequence] = []
        for partial in self._partials:
            first = next(iter(partial.matches.values()), None)
            if first is not None and event_predicate(first.event):
                extracted.append(partial)
            else:
                kept.append(partial)
        self._partials = kept
        return {"partials": [self._encode_partial(partial)
                             for partial in extracted]}

    def absorb_partials(self, state) -> None:
        """Merge partials exported by :meth:`extract_partials` (thief side)."""
        self._partials.extend(self._decode_partial(data)
                              for data in state["partials"])
        if len(self._partials) > self._max_partial:
            self._partials = self._partials[-self._max_partial:]
