"""The upward interpretation of the event rules (Section 4.1).

Given a transaction ``T`` of base event facts, the upward interpretation of
``ιP(x)`` / ``δP(x)`` is the set of derived event facts induced by ``T``:
each old database literal in an event-rule body is a query against the
current state, base event literals are queries against the transaction, and
derived event literals recurse into their own event rules.

Two executable strategies are provided (the paper: "a particular
implementation of these interpretations could be based either on a top-down
or on a bottom-up query evaluation procedure"):

``flat``
    evaluate the compiled transition program bottom-up over (old facts +
    transaction events) and read off the ``ins$P`` / ``del$P`` extensions.
    Faithful and simple, but it materialises every ``new$P`` extension and
    requires the flat program to be stratifiable (derived predicates must
    not be recursive).

``hybrid`` (default)
    walk the derived predicates in dependency (SCC) order.  Non-recursive
    predicates get genuinely *incremental* treatment -- insertion events
    come from the transition disjuncts containing a positive event literal
    ([Oli91] simplification) and deletion events from destroyed-derivation
    candidates followed by a goal-directed re-derivability check -- so the
    per-transaction cost scales with the size of the change, not the
    database.  Recursive components fall back to recompute-and-diff on just
    that component.

Both strategies agree with the semantic oracle
(:func:`repro.interpretations.naive.naive_changes`) -- a property-tested
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

from repro.datalog.database import DeductiveDatabase
from repro.datalog.evaluation import BottomUpEvaluator, EvaluationStats
from repro.datalog.rules import Atom, Literal
from repro.datalog.stratify import dependency_graph
from repro.datalog.terms import Constant, Term
from repro.datalog.unification import match_tuple, resolve
from repro.events.event_rules import EventCompiler, TransitionProgram
from repro.events.events import Event, Transaction
from repro.events.naming import (
    DEL_PREFIX,
    INS_PREFIX,
    EventKind,
    del_name,
    ins_name,
)
from repro.events.transition import disjunct_has_positive_event
from repro.obs import tracer as obs


def _delta_first(literals) -> list:
    """Order a conjunction so tiny event relations drive the join.

    Positive event literals (ins$/del$) come first -- their extensions are
    transaction-sized -- then the other positive literals (indexed lookups
    against the old state), then negatives (pure tests once ground).
    """
    def rank(literal: Literal) -> int:
        if literal.positive and (literal.predicate.startswith(INS_PREFIX)
                                 or literal.predicate.startswith(DEL_PREFIX)):
            return 0
        if literal.positive:
            return 1
        return 2

    return sorted(literals, key=rank)

Row = tuple[Constant, ...]


@dataclass
class UpwardOptions:
    """Tuning knobs of the upward interpreter."""

    #: "hybrid" (incremental, default) or "flat" (transition-program bottom-up).
    strategy: str = "hybrid"
    #: Drop no-op events from the transaction first (definitions (1)/(2)).
    normalize: bool = True
    #: Semi-naive evaluation inside bottom-up fixpoints.
    semi_naive: bool = True
    #: Evaluation engine for those fixpoints: "compiled"/"interpreted",
    #: or None for the evaluator default (see docs/EVALUATION.md).
    engine: str | None = None


@dataclass
class UpwardResult:
    """Induced derived events: the result of the upward interpretation."""

    insertions: dict[str, frozenset[Row]] = field(default_factory=dict)
    deletions: dict[str, frozenset[Row]] = field(default_factory=dict)
    #: The (normalised) transaction the result was computed for.
    transaction: Transaction = field(default_factory=Transaction)
    stats: EvaluationStats = field(default_factory=EvaluationStats)
    #: The derived predicates this result has deltas for.  ``None`` means
    #: "unknown" (hand-built or wire-decoded results); :meth:`interpret`
    #: always records the exact coverage, so consumers that patch cached
    #: state (:meth:`UpwardInterpreter.advance`) can refuse partial results
    #: instead of silently dropping deltas for uncovered predicates.
    covered: frozenset[str] | None = None

    def insertions_of(self, predicate: str) -> frozenset[Row]:
        """Induced ``ιpredicate`` rows."""
        return self.insertions.get(predicate, frozenset())

    def deletions_of(self, predicate: str) -> frozenset[Row]:
        """Induced ``δpredicate`` rows."""
        return self.deletions.get(predicate, frozenset())

    def induced(self, kind: EventKind, predicate: str) -> frozenset[Row]:
        """Induced rows of one event predicate."""
        if kind is EventKind.INSERTION:
            return self.insertions_of(predicate)
        return self.deletions_of(predicate)

    def events(self) -> frozenset[Event]:
        """All induced events as :class:`Event` objects."""
        collected: set[Event] = set()
        for predicate, rows in self.insertions.items():
            collected.update(Event(EventKind.INSERTION, predicate, row) for row in rows)
        for predicate, rows in self.deletions.items():
            collected.update(Event(EventKind.DELETION, predicate, row) for row in rows)
        return frozenset(collected)

    def is_empty(self) -> bool:
        """True when the transaction induces no derived change."""
        return not any(self.insertions.values()) and not any(self.deletions.values())

    def restricted_to(self, predicates: Iterable[str]) -> "UpwardResult":
        """Project the result onto a set of derived predicates."""
        wanted = frozenset(predicates)
        covered = wanted if self.covered is None else wanted & self.covered
        return UpwardResult(
            {p: rows for p, rows in self.insertions.items() if p in wanted},
            {p: rows for p, rows in self.deletions.items() if p in wanted},
            self.transaction,
            self.stats,
            covered,
        )

    def to_dict(self) -> dict:
        """A JSON-ready representation."""
        from repro.serde import rows_to_lists

        return {
            "transaction": self.transaction.to_dict(),
            "insertions": rows_to_lists(self.insertions),
            "deletions": rows_to_lists(self.deletions),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "UpwardResult":
        """Inverse of :meth:`to_dict` (stats are not carried on the wire)."""
        from repro.serde import rows_from_lists

        return cls(
            insertions=rows_from_lists(payload.get("insertions", {})),
            deletions=rows_from_lists(payload.get("deletions", {})),
            transaction=Transaction.from_dict(payload.get("transaction", [])),
        )

    def __str__(self) -> str:
        rendered = sorted(str(e) for e in self.events())
        return "{" + ", ".join(rendered) + "}"


# ---------------------------------------------------------------------------
# Fact-source views used to evaluate rule bodies against composite states.
# ---------------------------------------------------------------------------


def _filter_rows(rows: Iterable[Row], pattern: Sequence[Term]) -> Iterator[Row]:
    for row in rows:
        if all(not isinstance(t, Constant) or t == v for t, v in zip(pattern, row)):
            yield row


class OldStateView:
    """Old state: base facts from the database, derived from a materialisation."""

    def __init__(self, db: DeductiveDatabase, derived: Mapping[str, frozenset[Row]]):
        self._db = db
        self._derived = derived

    def facts_of(self, predicate: str) -> frozenset[Row]:
        if predicate in self._derived:
            return self._derived[predicate]
        return self._db.facts_of(predicate)

    def lookup(self, predicate: str, pattern: Sequence[Term]) -> Iterator[Row]:
        if predicate in self._derived:
            return _filter_rows(self._derived[predicate], pattern)
        return self._db.lookup(predicate, pattern)


class TransitionView:
    """Resolves event names to event sets and plain names to the old state."""

    def __init__(self, old_state: OldStateView, events: Mapping[str, set[Row]]):
        self._old_state = old_state
        self._events = events

    def facts_of(self, predicate: str) -> frozenset[Row]:
        if predicate.startswith(INS_PREFIX) or predicate.startswith(DEL_PREFIX):
            return frozenset(self._events.get(predicate, ()))
        return self._old_state.facts_of(predicate)

    def lookup(self, predicate: str, pattern: Sequence[Term]) -> Iterator[Row]:
        if predicate.startswith(INS_PREFIX) or predicate.startswith(DEL_PREFIX):
            return _filter_rows(self._events.get(predicate, ()), pattern)
        return self._old_state.lookup(predicate, pattern)


class NewStateView:
    """New state: base facts adjusted by the transaction, derived predicates
    from the extensions computed so far."""

    def __init__(self, db: DeductiveDatabase, events: Mapping[str, set[Row]],
                 new_derived: Mapping[str, frozenset[Row]]):
        self._db = db
        self._events = events
        self._new_derived = new_derived

    def facts_of(self, predicate: str) -> frozenset[Row]:
        if predicate in self._new_derived:
            return self._new_derived[predicate]
        base = set(self._db.facts_of(predicate))
        base |= self._events.get(ins_name(predicate), set())
        base -= self._events.get(del_name(predicate), set())
        return frozenset(base)

    def lookup(self, predicate: str, pattern: Sequence[Term]) -> Iterator[Row]:
        return _filter_rows(self.facts_of(predicate), pattern)


class _DatabaseWithEvents:
    """The database plus transaction events, for the flat strategy."""

    def __init__(self, db: DeductiveDatabase, events: Mapping[str, set[Row]]):
        self._db = db
        self._events = events

    def facts_of(self, predicate: str) -> frozenset[Row]:
        if predicate.startswith(INS_PREFIX) or predicate.startswith(DEL_PREFIX):
            return frozenset(self._events.get(predicate, ()))
        return self._db.facts_of(predicate)

    def lookup(self, predicate: str, pattern: Sequence[Term]) -> Iterator[Row]:
        if predicate.startswith(INS_PREFIX) or predicate.startswith(DEL_PREFIX):
            return _filter_rows(self._events.get(predicate, ()), pattern)
        return self._db.lookup(predicate, pattern)


def _event_rows(transaction: Transaction) -> dict[str, set[Row]]:
    """Group a transaction's events by prefixed event-predicate name."""
    grouped: dict[str, set[Row]] = {}
    for event in transaction:
        name = ins_name(event.predicate) if event.is_insertion \
            else del_name(event.predicate)
        grouped.setdefault(name, set()).add(event.args)
    return grouped


class UpwardInterpreter:
    """Computes the upward interpretation for transactions on one database.

    The interpreter materialises the old state once at construction and
    reuses it across :meth:`interpret` calls, which is what makes the hybrid
    strategy incremental.  If the database is mutated afterwards, build a
    new interpreter (or call :meth:`refresh`).
    """

    def __init__(self, db: DeductiveDatabase,
                 program: TransitionProgram | None = None,
                 options: UpwardOptions | None = None,
                 simplify: bool = True,
                 on_materialize: Callable[[], None] | None = None):
        self._db = db
        self._options = options or UpwardOptions()
        self._program = program or EventCompiler(simplify=simplify).compile(db)
        self._old_evaluator: BottomUpEvaluator | None = None
        self._old_view: OldStateView | None = None
        self._scc_order: list[frozenset[str]] | None = None
        #: Invoked each time the old state is materialised from scratch
        #: (the expensive ``upward.old_state`` span); lets owners count
        #: cache rematerialisations.
        self.on_materialize = on_materialize

    @property
    def program(self) -> TransitionProgram:
        """The compiled transition program in use."""
        return self._program

    def refresh(self) -> None:
        """Forget cached state after the underlying database changed."""
        self._old_evaluator = None
        self._old_view = None
        self._scc_order = None
        self._program = EventCompiler(
            simplify=self._program.simplified
        ).compile(self._db)

    # -- public API -------------------------------------------------------------

    def interpret(self, transaction: Transaction,
                  predicates: Iterable[str] | None = None) -> UpwardResult:
        """Induced derived events of *transaction*.

        ``predicates`` optionally restricts the computation to the given
        derived predicates (and everything they depend on) -- integrity
        checking only needs ``Ic``, for example.
        """
        transaction.check_base_only(self._db)
        if self._options.normalize:
            transaction = transaction.normalized(self._db)
        with obs.span("upward.interpret") as span:
            if obs.enabled():
                span.set(strategy=self._options.strategy)
                span.add("transaction_events", len(transaction))
            if self._options.strategy == "flat":
                result = self._interpret_flat(transaction)
                if predicates is not None:
                    result = result.restricted_to(predicates)
            elif self._options.strategy == "hybrid":
                result = self._interpret_hybrid(transaction, predicates)
            else:
                raise ValueError(
                    f"unknown upward strategy: {self._options.strategy!r}")
            if obs.enabled():
                result.stats.record_to(span)
                span.add("induced_events", len(result.events()))
        return result

    def holds_after(self, predicate: str, row: Row,
                    transaction: Transaction) -> bool:
        """Whether ``predicate(row)`` holds in the new state ``D ⊕ T``."""
        result = self.interpret(transaction, predicates=[predicate])
        held = row in self.old_extension(predicate)
        if held:
            return row not in result.deletions_of(predicate)
        return row in result.insertions_of(predicate)

    def advance(self, result: UpwardResult) -> None:
        """Advance the cached old state across an applied transaction.

        Call *after* ``result.transaction`` has been applied to the
        database.  The cached derived extensions are patched with the
        induced events, so the next interpretation starts from the new
        state without re-materialising.

        ``result`` must cover every derived predicate of the program, i.e.
        come from an unfiltered :meth:`interpret`; a partial (filtered or
        hand-built) result raises :class:`ValueError` instead of silently
        corrupting the uncovered extensions.  When no old state is cached
        yet the call is a no-op: the next interpretation materialises the
        (already advanced) database directly.
        """
        if result.covered is None:
            raise ValueError(
                "cannot advance from an UpwardResult of unknown coverage "
                "(hand-built or wire-decoded); recompute with an "
                "unfiltered interpret()")
        missing = self._program.derived - result.covered
        if missing:
            raise ValueError(
                "cannot advance from a partial UpwardResult: advancing "
                "needs deltas for every derived predicate, but this one "
                "misses {}; recompute with an unfiltered "
                "interpret()".format(", ".join(sorted(missing))))
        if self._old_evaluator is None:
            # Nothing cached: materialising now would read the *new* state
            # and then double-apply the deltas.  Stay cold instead.
            return
        for predicate in self._program.derived:
            inserted = result.insertions_of(predicate)
            deleted = result.deletions_of(predicate)
            if inserted or deleted:
                self._old_evaluator.apply_delta(predicate, inserted, deleted)

    @property
    def has_cached_state(self) -> bool:
        """Whether an old-state materialisation is currently cached."""
        return self._old_evaluator is not None

    def old_extension(self, predicate: str) -> frozenset[Row]:
        """The old-state extension of any predicate."""
        self._ensure_old_state()
        assert self._old_evaluator is not None
        return self._old_evaluator.extension(predicate)

    def live_extension(self, predicate: str) -> AbstractSet[Row]:
        """The cached old-state extent of a derived predicate, uncopied.

        The set :meth:`advance` patches in place -- treat it as read-only.
        This is what lets a warm state serve reads without a per-call
        ``frozenset`` snapshot of the whole extent.
        """
        self._ensure_old_state()
        assert self._old_evaluator is not None
        return self._old_evaluator.live_extensions().get(predicate,
                                                         frozenset())

    def old_state_view(self) -> OldStateView:
        """A fact-source over the whole old state (base + derived)."""
        self._ensure_old_state()
        assert self._old_view is not None
        return self._old_view

    # -- old state ---------------------------------------------------------------

    def _ensure_old_state(self) -> None:
        if self._old_evaluator is not None:
            return
        with obs.span("upward.old_state") as span:
            evaluator = BottomUpEvaluator(
                self._db, self._program.source_rules,
                semi_naive=self._options.semi_naive,
                engine=self._options.engine,
            )
            extensions = evaluator.live_extensions()
            if obs.enabled():
                span.add("derived_rows", sum(
                    len(rows) for rows in extensions.values()))
        # The view must read the evaluator's *live* extensions, not a
        # frozen snapshot: advance() patches the evaluator in place and
        # transition rules that mention derived predicates in their
        # old-state literals must see the patched rows.
        self._old_view = OldStateView(self._db, extensions)
        # Published last: lock-free readers take ``has_cached_state`` to
        # mean "fully materialised" (see live_extension).
        self._old_evaluator = evaluator
        if self.on_materialize is not None:
            self.on_materialize()

    # -- flat strategy -------------------------------------------------------------

    def _interpret_flat(self, transaction: Transaction) -> UpwardResult:
        stratification = self._program.require_flat_program()
        source = _DatabaseWithEvents(self._db, _event_rows(transaction))
        evaluator = BottomUpEvaluator(
            source, list(self._program.upward_rules),
            semi_naive=self._options.semi_naive,
            stratification=stratification,
            engine=self._options.engine,
        )
        insertions: dict[str, frozenset[Row]] = {}
        deletions: dict[str, frozenset[Row]] = {}
        for predicate in self._program.derived:
            ins_rows = evaluator.extension(ins_name(predicate))
            del_rows = evaluator.extension(del_name(predicate))
            if ins_rows:
                insertions[predicate] = ins_rows
            if del_rows:
                deletions[predicate] = del_rows
        return UpwardResult(insertions, deletions, transaction, evaluator.stats,
                            frozenset(self._program.derived))

    # -- hybrid strategy --------------------------------------------------------------

    def _derived_sccs(self) -> list[frozenset[str]]:
        """SCCs of derived predicates, dependencies first."""
        if self._scc_order is None:
            graph = dependency_graph(self._program.source_rules)
            components = graph.strongly_connected_components()
            derived = self._program.derived
            order = [frozenset(c & derived) for c in reversed(components)]
            self._scc_order = [c for c in order if c]
        return self._scc_order

    def _relevant_predicates(self, predicates: Iterable[str] | None) -> set[str] | None:
        """Derived predicates a requested set depends on (None = all)."""
        if predicates is None:
            return None
        graph = dependency_graph(self._program.source_rules)
        relevant = graph.reversed().reachable_from(list(predicates))
        return {p for p in relevant if p in self._program.derived} | set(predicates)

    def _interpret_hybrid(self, transaction: Transaction,
                          predicates: Iterable[str] | None) -> UpwardResult:
        self._ensure_old_state()
        assert self._old_evaluator is not None and self._old_view is not None
        stats = EvaluationStats()
        events = _event_rows(transaction)
        new_derived: dict[str, frozenset[Row]] = {}
        insertions: dict[str, frozenset[Row]] = {}
        deletions: dict[str, frozenset[Row]] = {}
        relevant = self._relevant_predicates(predicates)
        computed: set[str] = set()
        transition_view = TransitionView(self._old_view, events)
        new_view = NewStateView(self._db, events, new_derived)
        recursive = {
            p for scc in self._derived_sccs() if len(scc) > 1 for p in scc
        }
        for r in self._program.source_rules:
            if any(lit.predicate == r.head.predicate for lit in r.body):
                recursive.add(r.head.predicate)

        for scc in self._derived_sccs():
            if relevant is not None and not (scc & relevant):
                continue
            computed |= scc
            with obs.span("upward.scc") as scc_span:
                if scc & recursive:
                    scc_ins, scc_del = self._recompute_scc(scc, new_view, stats)
                    mode = "recompute"
                else:
                    scc_ins, scc_del = self._incremental_scc(
                        scc, transition_view, new_view, stats
                    )
                    mode = "incremental"
                if obs.enabled():
                    scc_span.set(mode=mode, predicates=sorted(scc))
                    scc_span.add("insertions", sum(
                        len(rows) for rows in scc_ins.values()))
                    scc_span.add("deletions", sum(
                        len(rows) for rows in scc_del.values()))
            for predicate in scc:
                old_rows = self._old_evaluator.extension(predicate)
                ins_rows = frozenset(scc_ins.get(predicate, frozenset()))
                del_rows = frozenset(scc_del.get(predicate, frozenset()))
                if ins_rows:
                    insertions[predicate] = ins_rows
                    events[ins_name(predicate)] = set(ins_rows)
                if del_rows:
                    deletions[predicate] = del_rows
                    events[del_name(predicate)] = set(del_rows)
                new_derived[predicate] = (old_rows | ins_rows) - del_rows
        result = UpwardResult(insertions, deletions, transaction, stats,
                              frozenset(computed))
        if predicates is not None:
            result = result.restricted_to(predicates)
        return result

    def _incremental_scc(self, scc: frozenset[str],
                         transition_view: TransitionView,
                         new_view: NewStateView,
                         stats: EvaluationStats) -> tuple[dict, dict]:
        """Delta evaluation of one non-recursive derived predicate."""
        assert self._old_evaluator is not None
        joiner_old = BottomUpEvaluator(transition_view, [])
        joiner_new = BottomUpEvaluator(new_view, [])
        scc_ins: dict[str, set[Row]] = {}
        scc_del: dict[str, set[Row]] = {}
        for predicate in scc:
            old_rows = self._old_evaluator.extension(predicate)
            inserted: set[Row] = set()
            delete_candidates: set[Row] = set()
            for transition in self._program.transition_rules_of(predicate):
                head_args = transition.head.args
                # Insertion candidates: event-bearing transition disjuncts.
                for disjunct in transition.disjuncts:
                    if not disjunct_has_positive_event(disjunct):
                        continue
                    for bindings in joiner_old.solve(_delta_first(disjunct)):
                        row = tuple(resolve(t, bindings) for t in head_args)
                        if row not in old_rows:
                            inserted.add(row)  # type: ignore[arg-type]
                # Deletion candidates: destroyed derivations of the old body.
                source = transition.source
                for index, literal in enumerate(source.body):
                    destroyer_name = del_name(literal.predicate) if literal.positive \
                        else ins_name(literal.predicate)
                    destroyer = Literal(Atom(destroyer_name, literal.args), True)
                    conjunction = [destroyer] + _delta_first(source.body)
                    for bindings in joiner_old.solve(conjunction):
                        row = tuple(resolve(t, bindings) for t in head_args)
                        if row in old_rows:
                            delete_candidates.add(row)  # type: ignore[arg-type]
            deleted = {
                row for row in delete_candidates
                if not self._rederivable(predicate, row, joiner_new)
            }
            stats.rule_firings += joiner_old.stats.rule_firings
            if inserted:
                scc_ins[predicate] = inserted
            if deleted:
                scc_del[predicate] = deleted
        stats.literals_matched += joiner_old.stats.literals_matched
        stats.literals_matched += joiner_new.stats.literals_matched
        return scc_ins, scc_del

    def _rederivable(self, predicate: str, row: Row,
                     joiner_new: BottomUpEvaluator) -> bool:
        """Does some rule of *predicate* still derive *row* in the new state?"""
        for transition in self._program.transition_rules_of(predicate):
            source = transition.source
            bindings = match_tuple(tuple(source.head.args), row, {})
            if bindings is None:
                continue
            if next(iter(joiner_new.solve(list(source.body), bindings)), None) is not None:
                return True
        return False

    def _recompute_scc(self, scc: frozenset[str], new_view: NewStateView,
                       stats: EvaluationStats) -> tuple[dict, dict]:
        """Recompute a recursive component in the new state and diff."""
        assert self._old_evaluator is not None
        scc_rules = [r for r in self._program.source_rules
                     if r.head.predicate in scc]
        evaluator = BottomUpEvaluator(
            new_view, scc_rules, semi_naive=self._options.semi_naive,
            engine=self._options.engine,
        )
        scc_ins: dict[str, set[Row]] = {}
        scc_del: dict[str, set[Row]] = {}
        for predicate in scc:
            new_rows = evaluator.extension(predicate)
            old_rows = self._old_evaluator.extension(predicate)
            gained = set(new_rows - old_rows)
            lost = set(old_rows - new_rows)
            if gained:
                scc_ins[predicate] = gained
            if lost:
                scc_del[predicate] = lost
        merged = stats.merged_with(evaluator.stats)
        stats.iterations = merged.iterations
        stats.rule_firings = merged.rule_firings
        stats.facts_derived = merged.facts_derived
        stats.literals_matched = merged.literals_matched
        return scc_ins, scc_del
