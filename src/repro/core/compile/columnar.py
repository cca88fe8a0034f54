"""Columnar batch execution: column blocks and a shared predicate index.

The batch ingestion path (PR 2) amortized *dispatch* overhead, but every
event was still evaluated against every query's compiled closures: with Q
concurrent queries a batch of N events cost N×Q global-constraint calls
plus per-pattern entity checks, so doubling the query count halved
throughput (``BENCH_e8.json``).  This module restructures the batch work
around the data instead of the queries:

* :class:`ColumnBlock` is a struct-of-arrays view of one ingest batch —
  the event list plus per-operation row index sub-blocks and lazily built
  attribute columns (timestamp / agentid / subject / object attributes),
  so a predicate only ever scans the rows of the operations it can accept
  and each attribute is fetched once per batch, not once per query;

* :class:`PredicateAtom` is one *canonicalized* atomic predicate — an
  ``<entity-or-event attribute> <op> <constant>`` check or an entity type
  test — lowered to the same value-check closures as the per-event path
  (:mod:`repro.core.compile.predicates`), applied column-at-a-time to
  produce a selection bitmap;

* :class:`SharedPredicateIndex` interns atoms by structural key across
  *all* registered queries, so twenty queries constraining
  ``agentid = "db-server"`` cost one column scan per batch, not twenty.
  The index is refcounted: query registration subscribes atoms
  incrementally, query removal releases them, and plans rebuild lazily
  (the scheduler's dynamic plan invalidation);

* :class:`BatchPredicateContext` caches per-batch artifacts — atom
  bitmaps, global-constraint row selections and whole-pattern conjunction
  row vectors — so structurally equal predicates (and whole patterns)
  are evaluated once per batch and their selection vectors shared by
  every subscribing query, across compatibility groups.

Bitmaps are ``bytearray`` masks of 0/1 bytes; conjunctions combine them
with big-integer bitwise AND (``int.from_bytes``), which processes the
whole batch per machine word instead of per Python-level element.  The
kernels are deliberately pure Python: column values are heterogeneous
Python objects (strings with LIKE wildcards, numeric strings under SAQL
coercion), so the win is evaluating each distinct predicate *once*, not
SIMD.  Batches below the scheduler's ``DEFAULT_COLUMNAR_MIN_BATCH`` run
the per-event compiled closures instead;
``tests/compile/test_columnar_equivalence.py`` holds both batch shapes
alert-for-alert to the AST interpreter.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.core.compile.predicates import (
    _compile_value_check,
    compile_type_check,
)
from repro.core.language import ast
from repro.events.event import Event

#: Column targets an atom can read from.
SUBJECT = "subject"
OBJECT = "object"
#: Event-level target with the global-constraint fallback (event attribute,
#: then subject attribute), mirroring
#: :func:`repro.core.compile.predicates.compile_global_constraints`.
EVENT = "event"

#: Sentinel attribute tokens (cannot collide with SAQL attribute names,
#: which never start with an underscore).
_DEFAULT_ATTR = "__default__"
_ENTITY_ATTR = "__entity__"

#: Immutable plain types whose cells group by ``(type, value)`` in
#: :meth:`ColumnBlock.value_groups`; everything else (entity objects)
#: groups by identity, which is always sound for pure checks.
_MEMO_TYPES = frozenset((str, int, float, bool, bytes, type(None)))


# ---------------------------------------------------------------------------
# The struct-of-arrays batch representation
# ---------------------------------------------------------------------------

class ColumnBlock:
    """One ingest batch pivoted into columns.

    Built once per batch by the scheduler and shared by every group and
    query.  Rows are batch positions (``0..size-1``) in arrival order;
    the event objects themselves stay the row anchors (the surviving rows
    re-enter the per-match engine path, which consumes events).
    """

    __slots__ = ("events", "size", "rows_by_operation", "operation_values",
                 "_columns", "_operation_unions", "_value_groups")

    def __init__(self, events: Sequence[Event]):
        self.events: Sequence[Event] = events
        self.size = len(events)
        #: Per-operation sub-blocks: operation keyword -> ascending row
        #: indices.  A pattern only ever scans the sub-blocks of the
        #: operations its alternation accepts.
        rows_by_operation: Dict[str, List[int]] = {}
        #: The operation keyword per row, so group drivers test membership
        #: against a plain string instead of an enum descriptor access.
        operation_values: List[str] = []
        for row, event in enumerate(events):
            operation = event.operation.value
            operation_values.append(operation)
            rows_by_operation.setdefault(operation, []).append(row)
        self.rows_by_operation = rows_by_operation
        self.operation_values = operation_values
        self._columns: Dict[Tuple[str, str], list] = {}
        self._operation_unions: Dict[frozenset, List[int]] = {}
        self._value_groups: Dict[Tuple[str, str],
                                 Dict[Any, Tuple[Any, List[int]]]] = {}

    def rows_for_operations(self, operations: frozenset) -> List[int]:
        """Ascending row indices whose operation is in ``operations``."""
        cached = self._operation_unions.get(operations)
        if cached is not None:
            return cached
        buckets = [self.rows_by_operation[operation]
                   for operation in operations
                   if operation in self.rows_by_operation]
        if not buckets:
            rows: List[int] = []
        elif len(buckets) == 1:
            rows = buckets[0]
        else:
            rows = sorted(row for bucket in buckets for row in bucket)
        self._operation_unions[operations] = rows
        return rows

    def column(self, target: str, attr: str) -> list:
        """Return (building lazily) the value column for one atom source.

        ``target`` selects the row object (subject entity, object entity,
        or the event with the global-constraint subject fallback); ``attr``
        is the attribute name or one of the sentinel tokens
        (``__default__`` = the entity's context-aware default attribute,
        ``__entity__`` = the entity object itself, for type checks).
        Columns are cached, so every atom over the same ``(target, attr)``
        pays the attribute fetch once per batch.
        """
        key = (target, attr)
        cached = self._columns.get(key)
        if cached is not None:
            return cached
        events = self.events
        if target == SUBJECT:
            entities: list = [event.subject for event in events]
            values = self._entity_column(entities, attr)
        elif target == OBJECT:
            entities = [event.obj for event in events]
            values = self._entity_column(entities, attr)
        elif target == EVENT:
            if attr == "agentid":
                values = [event.agentid for event in events]
            elif attr == "amount":
                values = [event.amount for event in events]
            elif attr in ("timestamp", "time", "starttime"):
                values = [event.timestamp for event in events]
            else:
                values = []
                for event in events:
                    value = event.get_attr(attr)
                    if value is None:
                        # Global constraints may also target subject
                        # attributes (compile_global_constraints).
                        value = event.subject.get_attr(attr)
                    values.append(value)
        else:
            raise ValueError(f"unknown column target {target!r}")
        self._columns[key] = values
        return values

    @staticmethod
    def _entity_column(entities: list, attr: str) -> list:
        if attr == _ENTITY_ATTR:
            return entities
        if attr == _DEFAULT_ATTR:
            return [entity.get_attr(entity.default_attribute)
                    for entity in entities]
        return [entity.get_attr(attr) for entity in entities]

    def value_groups(self, target: str,
                     attr: str) -> Dict[Any, Tuple[Any, List[int]]]:
        """The column's rows grouped by distinct cell value.

        Keys are ``(type, value)`` for plain immutable cells and ``id``
        for entity objects (see :data:`_MEMO_TYPES`); each entry maps to
        ``(value, ascending rows)``.  Built once per batch per column and
        shared by every full-column atom, which then runs its check once
        per *distinct* value instead of once per row.
        """
        key = (target, attr)
        cached = self._value_groups.get(key)
        if cached is not None:
            return cached
        groups: Dict[Any, Tuple[Any, List[int]]] = {}
        memo_types = _MEMO_TYPES
        for row, value in enumerate(self.column(target, attr)):
            value_type = type(value)
            group_key = ((value_type, value) if value_type in memo_types
                         else id(value))
            entry = groups.get(group_key)
            if entry is None:
                groups[group_key] = (value, [row])
            else:
                entry[1].append(row)
        self._value_groups[key] = groups
        return groups


# ---------------------------------------------------------------------------
# Canonicalized predicate atoms and the cross-query index
# ---------------------------------------------------------------------------

class PredicateAtom:
    """One distinct atomic predicate, shared by every subscribing query.

    ``check`` is the same compiled value-check closure the per-event path
    uses (so semantics cannot drift); the columnar kernel applies it down
    a column.  ``operations()`` is the union of the operation alternations
    of every subscribing pattern (None = evaluate over all rows, used by
    global constraints, which also gate watermark advance), so the atom
    is never evaluated on rows no subscriber could consume.
    """

    __slots__ = ("key", "label", "target", "attr", "check", "refcount",
                 "rows_evaluated", "rows_selected", "_ops_counter")

    def __init__(self, key: Tuple, label: str, target: str, attr: str,
                 check: Callable[[Any], bool]):
        self.key = key
        self.label = label
        self.target = target
        self.attr = attr
        self.check = check
        self.refcount = 0
        #: Cumulative rows this atom was actually evaluated on / selected,
        #: across the scheduler's lifetime (per-predicate selectivity).
        self.rows_evaluated = 0
        self.rows_selected = 0
        # Subscribed operation sets (frozenset, or None for all-rows),
        # counted so releases can retract exactly what they subscribed.
        self._ops_counter: Counter = Counter()

    def subscribe(self, operations: Optional[frozenset]) -> None:
        self.refcount += 1
        self._ops_counter[operations] += 1

    def release(self, operations: Optional[frozenset]) -> None:
        self.refcount -= 1
        self._ops_counter[operations] -= 1
        if self._ops_counter[operations] <= 0:
            del self._ops_counter[operations]

    def operations(self) -> Optional[frozenset]:
        """Rows to evaluate on: union of subscriber ops, None = all rows."""
        if None in self._ops_counter:
            return None
        union: set = set()
        for operations in self._ops_counter:
            union.update(operations)
        return frozenset(union)


class SharedPredicateIndex:
    """Interns structurally-equal predicates across all registered queries.

    Owned by one scheduler; group plans subscribe atoms at build time and
    release them when the plan is invalidated (query added to the group,
    query removed, group dissolved), keeping the distinct-predicate set
    exact under dynamic registration.
    """

    def __init__(self) -> None:
        self._atoms: Dict[Tuple, PredicateAtom] = {}

    def subscribe(self, key: Tuple, label: str, target: str, attr: str,
                  check_factory: Callable[[], Callable[[Any], bool]],
                  operations: Optional[frozenset]) -> PredicateAtom:
        """Return the canonical atom for ``key``, creating it on first use."""
        atom = self._atoms.get(key)
        if atom is None:
            atom = PredicateAtom(key, label, target, attr, check_factory())
            self._atoms[key] = atom
        atom.subscribe(operations)
        return atom

    def release(self, atom: PredicateAtom,
                operations: Optional[frozenset]) -> None:
        """Drop one subscription; the atom dies with its last subscriber."""
        atom.release(operations)
        if atom.refcount <= 0:
            self._atoms.pop(atom.key, None)

    @property
    def distinct_count(self) -> int:
        """How many distinct predicates the registered queries share."""
        return len(self._atoms)

    def atoms(self) -> List[PredicateAtom]:
        """The live atoms (stable order: by human-readable label)."""
        return sorted(self._atoms.values(), key=lambda atom: atom.label)


def _value_key(value: Any) -> Tuple:
    """Hashable, type-discriminating canonical form of a constant.

    Stricter than the pattern signature's ``str(value)`` normalization:
    two constants only share an atom when their compiled closures are
    guaranteed identical (same type, same value).
    """
    try:
        hash(value)
    except TypeError:
        return (type(value).__name__, repr(value))
    return (type(value).__name__, value)


def _atom_label(target: str, attr: str, op: str, value: Any) -> str:
    attr_text = {"__default__": "<default>", "__entity__": "<type>"}.get(
        attr, attr)
    return f"{target}.{attr_text} {op} {value!r}"


def entity_atoms(decl: ast.EntityDeclaration, target: str,
                 operations: frozenset,
                 index: SharedPredicateIndex) -> Tuple[PredicateAtom, ...]:
    """Subscribe the atoms of one entity declaration (type + constraints).

    Decomposes :func:`repro.core.compile.predicates.compile_entity_predicate`
    into independently shareable conjuncts; the conjunction of the returned
    atoms accepts exactly the entities the fused closure accepts (the
    closure short-circuits, but every conjunct is pure, so order is
    irrelevant).
    """
    atoms = [index.subscribe(
        (target, _ENTITY_ATTR, "type", decl.entity_type),
        _atom_label(target, _ENTITY_ATTR, "is", decl.entity_type),
        target, _ENTITY_ATTR,
        lambda entity_type=decl.entity_type: compile_type_check(entity_type),
        operations)]
    for constraint in decl.constraints:
        attr = constraint.attr if constraint.attr is not None else (
            _DEFAULT_ATTR)
        key = (target, attr, constraint.op, _value_key(constraint.value))
        atoms.append(index.subscribe(
            key, _atom_label(target, attr, constraint.op, constraint.value),
            target, attr,
            lambda op=constraint.op, value=constraint.value: (
                _compile_value_check(op, value)),
            operations))
    return tuple(atoms)


def global_atoms(constraints: Sequence[ast.GlobalConstraint],
                 index: SharedPredicateIndex) -> Tuple[PredicateAtom, ...]:
    """Subscribe the atoms of a query's global constraints (all-rows scope)."""
    atoms = []
    for constraint in constraints:
        key = (EVENT, constraint.attr, constraint.op,
               _value_key(constraint.value))
        atoms.append(index.subscribe(
            key,
            _atom_label(EVENT, constraint.attr, constraint.op,
                        constraint.value),
            EVENT, constraint.attr,
            lambda op=constraint.op, value=constraint.value: (
                _compile_value_check(op, value)),
            None))
    return tuple(atoms)


# ---------------------------------------------------------------------------
# Columnar plans (per compatibility group)
# ---------------------------------------------------------------------------

class ColumnarPatternPlan:
    """One pattern lowered to atoms, or marked to reuse a master result."""

    __slots__ = ("pattern", "signature", "shared", "operations", "atoms",
                 "alias", "subject_var", "object_var")

    def __init__(self, pattern: ast.EventPatternDeclaration,
                 operations: frozenset,
                 signature: Optional[Tuple] = None,
                 shared: Optional[Tuple] = None,
                 atoms: Tuple[PredicateAtom, ...] = ()):
        self.pattern = pattern
        #: Master-side pattern signature (masters only; dependents reuse
        #: the master's match through ``shared`` instead).
        self.signature = signature
        #: The master signature whose match this dependent pattern rebinds
        #: (None: the pattern evaluates its own atoms).
        self.shared = shared
        self.operations = operations
        self.atoms = atoms
        self.alias = pattern.alias
        self.subject_var = pattern.subject.variable
        self.object_var = pattern.object.variable


class GroupColumnarPlan:
    """A compatibility group's columnar execution plan.

    Built lazily from the group's registration-time dispatch plans and the
    scheduler's shared predicate index; invalidated (released) whenever
    the group's membership changes, so the index's refcounts — and the
    distinct-predicate accounting — stay exact under dynamic query
    registration and removal.
    """

    __slots__ = ("global_atoms", "global_key", "master", "dependents",
                 "_subscriptions")

    def __init__(self, global_atoms_: Tuple[PredicateAtom, ...],
                 master: Tuple[ColumnarPatternPlan, ...],
                 dependents: List[Tuple[ColumnarPatternPlan, ...]],
                 subscriptions: List[Tuple[PredicateAtom,
                                           Optional[frozenset]]]):
        self.global_atoms = global_atoms_
        #: Cache key for the group's global filter, shared across groups
        #: with structurally equal global constraints.
        self.global_key = tuple(sorted(atom.key for atom in global_atoms_))
        self.master = master
        self.dependents = dependents
        self._subscriptions = subscriptions

    def release(self, index: SharedPredicateIndex) -> None:
        """Retract every atom subscription this plan holds."""
        for atom, operations in self._subscriptions:
            index.release(atom, operations)
        self._subscriptions = []


def build_group_plan(group, index: SharedPredicateIndex) -> GroupColumnarPlan:
    """Lower one :class:`~repro.core.scheduler.concurrent.QueryGroup`.

    Uses the group's existing registration-time plans (master pattern
    signatures, dependent shared-signature markers), so master-dependent
    match reuse is preserved exactly; only the predicate evaluation moves
    from closures to shared column kernels.
    """
    subscriptions: List[Tuple[PredicateAtom, Optional[frozenset]]] = []

    def track(atoms: Tuple[PredicateAtom, ...],
              operations: Optional[frozenset]) -> Tuple[PredicateAtom, ...]:
        subscriptions.extend((atom, operations) for atom in atoms)
        return atoms

    globals_ = track(global_atoms(group.master.query.global_constraints,
                                  index), None)
    master_plans = []
    for pattern, signature, operations, _compiled in group._master_plan:
        atoms = (track(entity_atoms(pattern.subject, SUBJECT, operations,
                                    index), operations)
                 + track(entity_atoms(pattern.object, OBJECT, operations,
                                      index), operations))
        master_plans.append(ColumnarPatternPlan(
            pattern, operations, signature=signature, atoms=atoms))
    dependent_plans: List[Tuple[ColumnarPatternPlan, ...]] = []
    for plan in group._dependent_plans:
        entries = []
        for pattern, shared, operations, _compiled in plan:
            if shared is not None:
                entries.append(ColumnarPatternPlan(pattern, operations,
                                                   shared=shared))
                continue
            atoms = (track(entity_atoms(pattern.subject, SUBJECT,
                                        operations, index), operations)
                     + track(entity_atoms(pattern.object, OBJECT,
                                          operations, index), operations))
            entries.append(ColumnarPatternPlan(pattern, operations,
                                               atoms=atoms))
        dependent_plans.append(tuple(entries))
    return GroupColumnarPlan(globals_, tuple(master_plans), dependent_plans,
                             subscriptions)


# ---------------------------------------------------------------------------
# Per-batch evaluation
# ---------------------------------------------------------------------------

def _and_bitmaps(bitmaps: List[bytearray], size: int) -> bytearray:
    """Bitwise AND of selection bitmaps via big-integer word operations.

    Each byte is 0 or 1, so byte-wise integer AND is exactly element-wise
    boolean AND — one CPython big-int operation instead of a Python-level
    loop per row.
    """
    if len(bitmaps) == 1:
        return bitmaps[0]
    combined = int.from_bytes(bitmaps[0], "little")
    for bitmap in bitmaps[1:]:
        combined &= int.from_bytes(bitmap, "little")
    return bytearray(combined.to_bytes(size, "little"))


class BatchPredicateContext:
    """Per-batch cache of shared selection vectors.

    One context spans every group of a scheduler for one batch; it is the
    object that turns "each query evaluates its predicates" into "each
    *distinct* predicate is evaluated once and its selection shared".
    """

    __slots__ = ("block", "_bitmaps", "_atom_rows", "_global_filters",
                 "_selected_rows", "_candidates", "_conjunctions",
                 "rows_evaluated", "rows_saved", "timed", "eval_seconds")

    def __init__(self, block: ColumnBlock, timed: bool = False):
        self.block = block
        self._bitmaps: Dict[int, bytearray] = {}
        self._atom_rows: Dict[int, List[int]] = {}
        self._global_filters: Dict[Tuple, Optional[bytearray]] = {}
        self._selected_rows: Dict[Tuple, List[int]] = {}
        self._candidates: Dict[Tuple, List[int]] = {}
        self._conjunctions: Dict[Tuple, List[int]] = {}
        #: Column cells actually evaluated this batch (across atoms).
        self.rows_evaluated = 0
        #: Cells *not* evaluated because the atom's selection is shared:
        #: with k subscribers, k-1 of them ride the one evaluation.
        self.rows_saved = 0
        #: When ``timed``, wall seconds spent in first-time atom
        #: evaluations accumulate in ``eval_seconds`` (cache hits pay
        #: nothing) — the scheduler's metrics observe the figure once per
        #: batch as the ``predicate_eval`` stage.
        self.timed = timed
        self.eval_seconds = 0.0

    def bitmap(self, atom: PredicateAtom) -> bytearray:
        """The atom's selection bitmap, evaluated at most once per batch."""
        cached = self._bitmaps.get(id(atom))
        if cached is not None:
            return cached
        started = perf_counter() if self.timed else 0.0
        block = self.block
        operations = atom.operations()
        check = atom.check
        bitmap = bytearray(block.size)
        selected = 0
        # Columns are low-cardinality in practice — a handful of hosts,
        # executables and (heavily reused) entity instances per batch —
        # so run the check once per *distinct* cell via the per-column
        # value groups (built once per batch, shared by every atom
        # reading the column), then only touch the matching rows.
        groups = block.value_groups(atom.target, atom.attr)
        if operations is None:
            # Full-column atom (global constraints).  Its ascending
            # selected-row list doubles as the group's post-filter row
            # set when it is the only global atom (selected_rows).
            matched: List[List[int]] = []
            for value, group_rows in groups.values():
                if check(value):
                    for row in group_rows:
                        bitmap[row] = 1
                    selected += len(group_rows)
                    matched.append(group_rows)
            evaluated = block.size
            if len(matched) == 1:
                selected_rows = matched[0]
            else:
                selected_rows = sorted(row for group in matched
                                       for row in group)
            self._atom_rows[id(atom)] = selected_rows
        else:
            # Operation-restricted atom: matching rows outside the
            # subscribed operations stay 0, exactly as if the check had
            # only run down the operation sub-blocks.
            evaluated = len(block.rows_for_operations(operations))
            operation_values = block.operation_values
            for value, group_rows in groups.values():
                if check(value):
                    for row in group_rows:
                        if operation_values[row] in operations:
                            bitmap[row] = 1
                            selected += 1
        atom.rows_evaluated += evaluated
        atom.rows_selected += selected
        self.rows_evaluated += evaluated
        if atom.refcount > 1:
            self.rows_saved += evaluated * (atom.refcount - 1)
        self._bitmaps[id(atom)] = bitmap
        if self.timed:
            self.eval_seconds += perf_counter() - started
        return bitmap

    def global_filter(self, plan: GroupColumnarPlan) -> Optional[bytearray]:
        """The group's fused global-constraint bitmap (None: no constraints)."""
        key = plan.global_key
        if not key:
            return None
        cached = self._global_filters.get(key)
        if cached is None:
            cached = _and_bitmaps([self.bitmap(atom)
                                   for atom in plan.global_atoms],
                                  self.block.size)
            self._global_filters[key] = cached
        return cached

    def selected_rows(self, group_plan: GroupColumnarPlan,
                      global_bitmap: Optional[bytearray]
                      ) -> Union[range, List[int]]:
        """Ascending rows passing the global filter (all rows when None)."""
        if global_bitmap is None:
            return range(self.block.size)
        global_key = group_plan.global_key
        cached = self._selected_rows.get(global_key)
        if cached is None:
            atoms = group_plan.global_atoms
            if len(atoms) == 1:
                # The fused filter IS the single atom's selection, whose
                # ascending row list the bitmap evaluation already built.
                self.bitmap(atoms[0])
                cached = self._atom_rows[id(atoms[0])]
            else:
                cached = [row for row in range(self.block.size)
                          if global_bitmap[row]]
            self._selected_rows[global_key] = cached
        return cached

    def candidate_rows(self, operations: frozenset,
                       group_plan: GroupColumnarPlan,
                       global_bitmap: Optional[bytearray]) -> List[int]:
        """Rows a pattern must consider: its operations ∩ the global filter.

        This is also the *logical* per-pattern evaluation count — exactly
        the events the per-event closure path would have tested the
        pattern against — which keeps the scheduler's
        ``pattern_evaluations`` accounting identical across modes.
        """
        if global_bitmap is None:
            return self.block.rows_for_operations(operations)
        key = (operations, group_plan.global_key)
        cached = self._candidates.get(key)
        if cached is not None:
            return cached
        # Intersect from the cheaper side: selective global filters leave
        # far fewer rows than the operation sub-blocks.
        selected = self.selected_rows(group_plan, global_bitmap)
        rows = self.block.rows_for_operations(operations)
        if len(selected) <= len(rows):
            operation_values = self.block.operation_values
            rows = [row for row in selected
                    if operation_values[row] in operations]
        else:
            rows = [row for row in rows if global_bitmap[row]]
        self._candidates[key] = rows
        return rows

    def pattern_rows(self, plan: ColumnarPatternPlan,
                     group_plan: GroupColumnarPlan,
                     global_bitmap: Optional[bytearray]) -> List[int]:
        """Rows the whole pattern accepts (conjunction of its atoms).

        Cached by (operations, atom keys, global key): structurally equal
        patterns across different groups share the final selection vector,
        not just the per-atom bitmaps.
        """
        key = (plan.operations, tuple(atom.key for atom in plan.atoms),
               group_plan.global_key)
        cached = self._conjunctions.get(key)
        if cached is not None:
            return cached
        candidates = self.candidate_rows(plan.operations, group_plan,
                                         global_bitmap)
        if not plan.atoms or not candidates:
            rows = candidates
        else:
            combined = _and_bitmaps([self.bitmap(atom)
                                     for atom in plan.atoms],
                                    self.block.size)
            rows = [row for row in candidates if combined[row]]
        self._conjunctions[key] = rows
        return rows
