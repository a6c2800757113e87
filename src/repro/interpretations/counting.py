"""Counting-based change computation (the [GMS93] method the paper cites).

A third executable strategy for the upward interpretation, applicable to
non-recursive views: store, per derived tuple, the **number of
derivations** supporting it.  A transaction contributes a *signed* delta of
derivation counts per rule; induced events are exactly the zero-crossings
(count 0 → positive: ``ιP``; positive → 0: ``δP``).  Deletions therefore
need no re-derivability query, at the price of keeping the counts across
transactions -- the classic space/time trade-off against the DRed-style
hybrid strategy, measured by the SYN8 benchmark.

Each stratified rule ``P(t) ← L1 ∧ ... ∧ Ln`` is compiled **once, at
schema time**, into one :class:`DeltaRule` per non-builtin body position
``i``, carrying the standard telescoping decomposition

    Δ(L1...Ln) = Σ_i  L1^new ... L_{i-1}^new · ΔL_i · L_{i+1}^old ... L_n^old

where ``ΔL_i`` is +1 on rows the event set adds to ``L_i``'s satisfaction
and -1 on rows it removes (polarities flip for negative literals), and the
prefix/suffix literals are evaluated in the new/old state respectively.
The delta rules are indexed by the event predicates (``ιP``/``δP``) their
delta literal consumes, so a transaction only enters the rules it
triggers, and maintenance cost is proportional to |delta|, not |EDB|.

Only the ground *probes* of an evaluation read the state: a base fact, a
derived tuple's membership in its extension, a built-in test, and the
zero-crossing class (gained / lost / none) of each touched count.  So
:meth:`CountingEngine.delta` keeps each normalised transaction's shape as a
template in the program's :class:`~repro.events.shapes.Shapes` store (see
:mod:`repro.events.shapes`), whose leaf holds the induced events and the
staged count change over the slots.  Rederivations and raising evaluations
are never templated.

Stratified negation is supported exactly: a negative literal contributes
set-semantics satisfaction changes with flipped polarity, which is the
[GMS93] semantics for non-recursive programs.  Should a derivation count
ever go negative -- the counting invariant is breached, e.g. because the
underlying database was mutated behind the engine's back -- predicates
whose rules negate *derived* predicates (the negation boundary) are healed
with a DRed-style full rederivation (:attr:`CountingEngine.rederive_count`
observes this); elsewhere the breach raises :class:`SafetyError`.
Recursive programs raise the typed :class:`CountingUnsupportedError`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from dataclasses import dataclass, field
from itertools import chain
from typing import (AbstractSet, Callable, Iterable, Iterator, Mapping,
                    NamedTuple, Sequence)

from repro.datalog.builtins import evaluate_builtin, is_builtin
from repro.datalog.compile_plan import order_body
from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import SafetyError, StratificationError
from repro.datalog.rules import Literal, Rule
from repro.datalog.stratify import dependency_graph
from repro.datalog.terms import Constant
from repro.datalog.unification import Substitution, match_tuple, resolve
from repro.events.event_rules import EventCompiler, TransitionProgram
from repro.events.events import Transaction
from repro.events.naming import del_name, ins_name
from repro.events.shapes import Probes
from repro.interpretations.upward import UpwardResult, _event_rows

Row = tuple[Constant, ...]

#: Staged-change kinds (see :meth:`CountingEngine.delta`).
_DELTA = "delta"
_REPLACE = "replace"

#: predicate -> (kind, counter): either a signed count delta to add, or a
#: full replacement counter from a rederivation.
StagedCounts = dict[str, tuple[str, Counter]]

#: Zero-crossing classes of a count change: the outcomes of a count probe.
_GAINED = "gained"
_LOST = "lost"
_NONE = "none"
_BREACH = "breach"  # the count would go negative: never templated


def _crossing(before: int, change: int) -> str:
    """How a derivation count of *before* crosses zero under *change*."""
    after = before + change
    if after < 0:
        return _BREACH
    if before == 0 and after > 0:
        return _GAINED
    if before > 0 and after == 0:
        return _LOST
    return _NONE


@dataclass
class CountedResult(UpwardResult):
    """An upward interpretation read off derivation counts.

    Carries the count changes that produced it, so whoever later applies
    the transaction hands the result itself back to be folded in -- no
    slot shared between the check and the apply, hence any number of
    hypothetical deltas may be computed side by side.
    """

    staged: StagedCounts = field(default_factory=dict, repr=False,
                                 compare=False)
    #: ``template`` (a known branch answered), ``delta`` (the delta rules
    #: ran and a new branch was recorded) or ``untemplated`` (they ran
    #: and nothing was recorded, or only an untemplated mark).
    path: str = field(default="delta", repr=False, compare=False)


class CountingUnsupportedError(StratificationError):
    """The program is outside counting's scope (recursive views).

    Counting-based maintenance is defined for non-recursive stratified
    programs; recursive views need the DRed delete-rederive algorithm
    proper.  Subclasses :class:`StratificationError` so existing callers
    (and the wire error mapping) keep treating it as a stratification
    problem.
    """


@dataclass(frozen=True)
class DeltaRule:
    """One telescoping term of one source rule, compiled at schema time.

    ``literal`` is the delta position; ``prefix`` literals are evaluated
    in the **new** state, ``suffix`` literals in the **old** state.
    ``order`` is the static join order over the concatenated
    prefix+suffix, chosen once by the shared planner
    (:func:`repro.datalog.compile_plan.order_body`) with the delta
    literal's variables as the bound seed -- execution follows it instead
    of re-scoring every pending literal at every join step.
    """

    head: Literal
    literal: Literal
    prefix: tuple[Literal, ...]
    suffix: tuple[Literal, ...]
    order: tuple[int, ...] = field(default=(), compare=False)


class ExtentView(Set):
    """A read-only window on a maintained extent -- no copy, always current.

    Maintainers hand these out instead of snapshotting the whole extent
    into a ``frozenset`` per call.  The view is *live*: it changes when
    the maintainer advances, so hold it only under the lock that guards
    the maintained state and copy (``frozenset(view)``) what must outlive
    that lock.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: AbstractSet[Row]):
        self._rows = rows

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtentView):
            other = other._rows
        return self._rows == other

    __hash__ = None  # type: ignore[assignment]  # live, hence unhashable

    def difference(self, other: Iterable[Row]) -> AbstractSet[Row]:
        """Rows here but not in *other*, as a fresh set (at set speed)."""
        return self._rows.difference(other)

    @classmethod
    def _from_iterable(cls, rows: Iterable[Row]) -> frozenset[Row]:
        return frozenset(rows)

    def __repr__(self) -> str:
        return f"ExtentView({set(self._rows)!r})"


class _Leaf(NamedTuple):
    """A template leaf: a result over slot rows (see
    :mod:`repro.events.shapes`)."""

    insertions: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    deletions: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    staged: tuple[tuple[str, tuple[tuple[tuple[int, ...], int], ...]], ...]


def _leaf(result: "CountedResult", numbers: dict[Constant, int]) -> _Leaf:
    """*result* over slot rows, *numbers* giving each constant's slot."""

    def over_slots(row: Row) -> tuple[int, ...]:
        return tuple(map(numbers.__getitem__, row))

    return _Leaf(
        tuple((predicate, tuple(map(over_slots, rows)))
              for predicate, rows in result.insertions.items()),
        tuple((predicate, tuple(map(over_slots, rows)))
              for predicate, rows in result.deletions.items()),
        tuple((predicate, tuple((over_slots(row), change)
                                for row, change in counter.items()))
              for predicate, (_, counter) in result.staged.items()))


class _StateView:
    """Old or new state of base facts and (set-semantics) derived tuples.

    Base predicates resolve through the database's column indexes and
    derived ones through the maintained extensions; the new state lays the
    transaction's events over the former and each settled predicate's
    ``(gained, lost)`` rows over the latter.  Nothing is copied per call.
    With *probes* given, every ground read of the state is recorded there
    as a probe and every scan as an enumeration
    (:class:`~repro.events.shapes.Probes`).
    """

    __slots__ = ("_db", "_extensions", "_events", "_changes", "_probes")

    def __init__(self, db: DeductiveDatabase,
                 extensions: Mapping[str, set[Row]],
                 events: Mapping[str, set[Row]] | None = None,
                 changes: Mapping[str, tuple[set[Row], set[Row]]]
                 | None = None,
                 probes: Probes | None = None):
        self._db = db
        self._extensions = extensions
        self._events = events  # None = old state; events applied = new state
        self._changes = changes
        self._probes = probes

    def _read(self, kind: str, predicate: str, row: Row, held: bool) -> bool:
        if self._probes is not None:
            self._probes.setdefault((kind, predicate, row), held)
        return held

    def holds(self, predicate: str, row: Row) -> bool:
        extension = self._extensions.get(predicate)
        if extension is not None:
            if self._changes is not None:
                gained, lost = self._changes[predicate]
                if row in gained:
                    return True
                if row in lost:
                    return False
            return self._read("member", predicate, row, row in extension)
        if self._events is not None:
            if row in self._events.get(del_name(predicate), ()):
                return False
            if row in self._events.get(ins_name(predicate), ()):
                return True
        return self._read("fact", predicate, row,
                          self._db.has_fact(predicate, *row))

    def builtin(self, predicate: str, row: Row) -> bool:
        """A ground built-in literal (rigid: the same in both states)."""
        return self._read("builtin", predicate, row,
                          evaluate_builtin(predicate, row))

    def lookup(self, predicate: str, pattern: Sequence) -> Iterator[Row]:
        if self._probes is not None:
            self._probes.enumerate()
        bound = [(i, t) for i, t in enumerate(pattern)
                 if isinstance(t, Constant)]
        extension = self._extensions.get(predicate)
        if extension is not None:
            gained, lost = self._changes[predicate] \
                if self._changes is not None else ((), ())
            for row in chain(extension, gained):
                if row not in lost and all(row[i] == t for i, t in bound):
                    yield row
            return
        if self._events is None:
            yield from self._db.lookup(predicate, pattern)
            return
        del_rows = self._events.get(del_name(predicate), ())
        for row in self._db.lookup(predicate, pattern):
            if row not in del_rows:
                yield row
        # Normalised transactions only insert absent rows, so no dedup.
        for row in self._events.get(ins_name(predicate), ()):
            if all(row[i] == t for i, t in bound):
                yield row


class CountingEngine:
    """Stateful counting-based maintenance over one database.

    The engine owns derivation counts for every derived predicate.  The
    one-shot :meth:`apply` computes the induced events of a transaction,
    applies it to the database and advances the counts in a single call.
    The two-phase form separates those steps: :meth:`delta` computes the
    induced events and a staged count change *without* touching any
    state, then -- after the caller has applied the base events to the
    database -- :meth:`advance` folds the staged change into the counts.
    That split is what lets a serving engine run the integrity check on
    the delta, decide, and only then commit facts and counts together.

    Recursive programs are rejected with the typed
    :class:`CountingUnsupportedError` (counting is defined for
    non-recursive views).
    """

    def __init__(self, db: DeductiveDatabase,
                 program: TransitionProgram | None = None,
                 on_rederive: Callable[[str], None] | None = None):
        self._db = db
        self._program = program or EventCompiler(simplify=True).compile(db)
        self._order = self._topological_derived()
        self._rules_of: dict[str, list[Rule]] = {}
        for rule in self._program.source_rules:
            self._rules_of.setdefault(rule.head.predicate, []).append(rule)
        self._counts: dict[str, Counter] = {}
        self._extensions: dict[str, set[Row]] = {}
        self._body_orders: dict[Rule, tuple[int, ...]] = {}
        self._delta_rules = self._compile_delta_rules()
        self._covered = frozenset(self._order)
        self._templates = self._program.upward_templates
        self._negation_boundary = frozenset(
            rule.head.predicate
            for rule in self._program.source_rules
            for literal in rule.body
            if not literal.positive
            and literal.predicate in self._program.derived)
        #: Number of DRed-style full rederivations performed so far.
        self.rederive_count = 0
        self.on_rederive = on_rederive
        self._initialize_counts()

    # -- setup -----------------------------------------------------------------

    def _topological_derived(self) -> list[str]:
        graph = dependency_graph(self._program.source_rules)
        components = graph.strongly_connected_components()
        order: list[str] = []
        for component in reversed(components):
            for predicate in component:
                if predicate not in self._program.derived:
                    continue
                recursive = len(component) > 1 or graph.has_edge(predicate,
                                                                 predicate)
                if recursive:
                    raise CountingUnsupportedError(
                        f"counting-based maintenance requires non-recursive "
                        f"views; {predicate} is recursive"
                    )
                order.append(predicate)
        return order

    def _compile_delta_rules(self) \
            -> dict[str, list[tuple[str, str, list[DeltaRule]]]]:
        """Per head predicate: ``(ιP name, δP name, delta rules)`` for each
        predicate ``P`` whose events the rules' delta literal consumes."""
        compiled: dict[str, dict[str, list[DeltaRule]]] = {}
        for rule in self._program.source_rules:
            body = list(rule.body)
            for index, literal in enumerate(body):
                if is_builtin(literal.predicate):
                    continue  # rigid: never a delta position
                prefix = tuple(body[:index])
                suffix = tuple(body[index + 1:])
                compiled.setdefault(rule.head.predicate, {}).setdefault(
                    literal.predicate, []).append(DeltaRule(
                        head=rule.head,
                        literal=literal,
                        prefix=prefix,
                        suffix=suffix,
                        order=order_body(prefix + suffix,
                                         bound=literal.variables(),
                                         size_of=self._size_of),
                    ))
        return {head: [(ins_name(consumed), del_name(consumed), rules)
                       for consumed, rules in by_consumed.items()]
                for head, by_consumed in compiled.items()}

    def _size_of(self, predicate: str) -> int:
        """Extension-size estimate for the planner's join-order tie-breaks."""
        if predicate in self._program.derived:
            return len(self._extensions.get(predicate, ()))
        return self._db.count_of(predicate)

    def _order_for(self, rule: Rule) -> tuple[int, ...]:
        order = self._body_orders.get(rule)
        if order is None:
            order = order_body(rule.body, size_of=self._size_of)
            self._body_orders[rule] = order
        return order

    def _initialize_counts(self) -> None:
        old_view = _StateView(self._db, self._extensions)
        for predicate in self._order:
            self._counts[predicate] = counter = self._derive_counts(
                predicate, old_view)
            self._extensions[predicate] = {r for r, c in counter.items()
                                           if c > 0}

    def _derive_counts(self, predicate: str, view: _StateView) -> Counter:
        """Derivation counts of *predicate* computed from scratch in *view*."""
        counter: Counter = Counter()
        for rule in self._rules_of.get(predicate, ()):
            pairs = [(rule.body[i], view) for i in self._order_for(rule)]
            for bindings in self._run_ordered(pairs, {}):
                row = tuple(resolve(t, bindings) for t in rule.head.args)
                counter[row] += 1
        return counter

    # -- public API ------------------------------------------------------------

    @property
    def order(self) -> tuple[str, ...]:
        """Derived predicates in dependency (stratification) order."""
        return tuple(self._order)

    @property
    def n_delta_rules(self) -> int:
        """Number of compiled delta rules (telescoping terms)."""
        return sum(len(rules) for indexed in self._delta_rules.values()
                   for _, _, rules in indexed)

    @property
    def negation_boundary(self) -> frozenset[str]:
        """Predicates whose rules negate derived predicates."""
        return self._negation_boundary

    def extension(self, predicate: str) -> ExtentView:
        """Current (maintained) extension of a derived predicate.

        A read-only live view of the set the counts maintain, not a copy:
        membership is O(1) and nothing is allocated per row.
        """
        return ExtentView(self._extensions.get(predicate, frozenset()))

    def count(self, predicate: str, row: Row) -> int:
        """Current derivation count of one derived tuple."""
        return self._counts.get(predicate, Counter()).get(row, 0)

    def delta(self, transaction: Transaction) -> tuple[CountedResult,
                                                       StagedCounts]:
        """Induced events of *transaction*, without changing any state.

        This *is* the upward interpretation of the event rules over the
        maintained state: safe to run beside other readers, as often as
        wanted.  Returns the full-coverage result plus the staged count
        changes (also carried as ``result.staged``) to hand to
        :meth:`advance` once the transaction has actually been applied
        to the database.  A known shape and branch is answered by its
        template (see the module docstring); otherwise the computation
        enters only the delta rules the events trigger, so cost is
        proportional to the transaction and its consequences.
        """
        transaction.check_base_only(self._db)
        transaction = transaction.normalized(self._db)
        walk = self._templates.find(transaction, self._answer)
        if walk is None:
            return self._evaluate(transaction, None, "untemplated")
        if walk.leaf is not None:
            return self._replay(walk.leaf, walk.values, transaction)
        probes = Probes()
        result, staged = self._evaluate(transaction, probes, "delta")
        if any(kind == _REPLACE for kind, _ in staged.values()):
            result.path = "untemplated"  # a rederivation is never kept
            return result, staged
        walk.record(probes, lambda numbers: _leaf(result, numbers))
        if probes.enumerated_at is not None:
            result.path = "untemplated"
        return result, staged

    def _answer(self, kind, predicate: str, row: Row):
        """One template probe: a ``fact``, a ``member`` of a maintained
        extension, a ``builtin``, or -- *kind* being a count's signed
        change -- the zero-crossing class of that count."""
        if kind == "fact":
            return self._db.has_fact(predicate, *row)
        if kind == "member":
            return row in self._extensions[predicate]
        if kind == "builtin":
            return evaluate_builtin(predicate, row)
        return _crossing(self._counts[predicate].get(row, 0), kind)

    def _replay(self, leaf: _Leaf, values: list[Constant],
                transaction: Transaction) -> tuple[CountedResult,
                                                   StagedCounts]:
        """A template leaf renamed back to the request's constants."""
        get = values.__getitem__
        insertions = {predicate: frozenset(tuple(map(get, row))
                                           for row in rows)
                      for predicate, rows in leaf.insertions}
        deletions = {predicate: frozenset(tuple(map(get, row))
                                          for row in rows)
                     for predicate, rows in leaf.deletions}
        staged: StagedCounts = {
            predicate: (_DELTA, Counter({tuple(map(get, row)): change
                                         for row, change in changes}))
            for predicate, changes in leaf.staged}
        result = CountedResult(insertions, deletions, transaction,
                               covered=self._covered, staged=staged,
                               path="template")
        return result, staged

    def _evaluate(self, transaction: Transaction, probes: Probes | None,
                  path: str) -> tuple[CountedResult, StagedCounts]:
        """Run the triggered delta rules stratum by stratum, recording
        every probe into *probes* when given."""
        events = _event_rows(transaction)
        changes: dict[str, tuple[set[Row], set[Row]]] = {}
        old_view = _StateView(self._db, self._extensions, probes=probes)
        new_view = _StateView(self._db, self._extensions, events, changes,
                              probes)
        insertions: dict[str, frozenset[Row]] = {}
        deletions: dict[str, frozenset[Row]] = {}
        staged: StagedCounts = {}

        for predicate in self._order:
            delta_counter: Counter = Counter()
            for ins_event, del_event, delta_rules in \
                    self._delta_rules.get(predicate, ()):
                if ins_event in events or del_event in events:
                    for delta_rule in delta_rules:
                        self._apply_delta_rule(delta_rule, events, old_view,
                                               new_view, delta_counter)
            counter = self._counts[predicate]
            gained: set[Row] = set()
            lost: set[Row] = set()
            replacement: Counter | None = None
            for row, change in delta_counter.items():
                if not change:
                    continue
                crossing = _crossing(counter.get(row, 0), change)
                if crossing is _BREACH:
                    # Invariant breach: counts are stale (e.g. the
                    # database was mutated behind the engine's back).
                    if predicate not in self._negation_boundary:
                        raise SafetyError(
                            f"counting invariant violated for "
                            f"{predicate}{row}: {counter.get(row, 0)} + "
                            f"{change}"
                        )
                    replacement = self._rederive(predicate, new_view)
                    break
                if probes is not None:
                    probes.setdefault((change, predicate, row), crossing)
                if crossing is _GAINED:
                    gained.add(row)
                elif crossing is _LOST:
                    lost.add(row)
            if replacement is not None:
                new_ext = {r for r, c in replacement.items() if c > 0}
                old_ext = self._extensions[predicate]
                gained = new_ext - old_ext
                lost = old_ext - new_ext
                staged[predicate] = (_REPLACE, replacement)
            elif delta_counter:
                staged[predicate] = (_DELTA, delta_counter)
            if gained:
                insertions[predicate] = frozenset(gained)
                events[ins_name(predicate)] = gained
            if lost:
                deletions[predicate] = frozenset(lost)
                events[del_name(predicate)] = lost
            changes[predicate] = gained, lost

        result = CountedResult(insertions, deletions, transaction,
                               covered=self._covered, staged=staged,
                               path=path)
        return result, staged

    def advance(self, staged: StagedCounts) -> None:
        """Fold a staged count change from :meth:`delta` into the counts.

        Call *after* the transaction's base events have been applied to
        the database: facts and counts must move together.  Cost is
        proportional to the number of changed (predicate, row) pairs.
        """
        for predicate, (kind, counter) in staged.items():
            if kind == _REPLACE:
                self._counts[predicate] = counter
                self._extensions[predicate] = {r for r, c in counter.items()
                                               if c > 0}
                continue
            counts = self._counts[predicate]
            extension = self._extensions[predicate]
            for row, change in counter.items():
                if not change:
                    continue
                after = counts.get(row, 0) + change
                if after < 0:
                    raise SafetyError(
                        f"stale staged delta for {predicate}{row}: "
                        f"advance() must consume the delta() of the same "
                        f"state")
                if after == 0:
                    del counts[row]
                    extension.discard(row)
                else:
                    counts[row] = after
                    extension.add(row)

    def apply(self, transaction: Transaction) -> UpwardResult:
        """Induced events of *transaction*; advances counts and the database.

        The transaction is applied to the underlying database as part of
        the call (the counts and the stored facts must move together).
        """
        result, staged = self.delta(transaction)
        for event in result.transaction:
            if event.is_insertion:
                self._db.add_fact(event.predicate, *event.args)
            else:
                self._db.remove_fact(event.predicate, *event.args)
        self.advance(staged)
        return result

    # -- delta computation -----------------------------------------------------

    def _apply_delta_rule(self, delta_rule: DeltaRule,
                          events: Mapping[str, set[Row]],
                          old_view: _StateView, new_view: _StateView,
                          delta: Counter) -> None:
        tagged = ([(lit, new_view) for lit in delta_rule.prefix]
                  + [(lit, old_view) for lit in delta_rule.suffix])
        # Execution follows the static order chosen at schema time.
        pairs = [tagged[i] for i in delta_rule.order]
        for row, sign in self._signed_delta(delta_rule.literal, events):
            bindings = match_tuple(tuple(delta_rule.literal.args), row, {})
            if bindings is None:
                continue
            for final in self._run_ordered(pairs, dict(bindings)):
                head_row = tuple(resolve(t, final)
                                 for t in delta_rule.head.args)
                delta[head_row] += sign

    def _signed_delta(self, literal: Literal,
                      events: Mapping[str, set[Row]]) \
            -> Iterator[tuple[Row, int]]:
        """Rows where the literal's satisfaction changed, with signs."""
        ins_rows = events.get(ins_name(literal.predicate), ())
        del_rows = events.get(del_name(literal.predicate), ())
        if literal.positive:
            for row in ins_rows:
                yield row, +1
            for row in del_rows:
                yield row, -1
        else:
            for row in del_rows:
                yield row, +1
            for row in ins_rows:
                yield row, -1

    def _rederive(self, predicate: str, new_view: _StateView) -> Counter:
        """DRed-style heal: recount *predicate* from scratch in the new state.

        Only reached across negation boundaries when the incremental
        count invariant is breached; everything the predicate depends on
        is already final in ``new_view`` (topological order).
        """
        self.rederive_count += 1
        if self.on_rederive is not None:
            self.on_rederive(predicate)
        return self._derive_counts(predicate, new_view)

    # -- joins -----------------------------------------------------------------

    def _run_ordered(self, pairs: Sequence[tuple[Literal, _StateView]],
                     subst: dict) -> Iterator[Substitution]:
        """Execute a conjunction in the planner's fixed order.

        The static order guarantees negative and built-in literals are
        ground when reached, so each step is either a constant-time test
        or an indexed scan of the most-bound positive literal -- no
        per-step re-scoring of the pending tail.
        """
        if not pairs:
            yield subst
            return
        literal, view = pairs[0]
        rest = pairs[1:]
        pattern = tuple(resolve(t, subst) for t in literal.args)
        if all(isinstance(t, Constant) for t in pattern):
            if is_builtin(literal.predicate):
                satisfied = view.builtin(literal.predicate, pattern)
            else:
                satisfied = view.holds(literal.predicate, pattern)
            if satisfied == literal.positive:
                yield from self._run_ordered(rest, subst)
            return
        if not literal.positive or is_builtin(literal.predicate):
            # order_body never emits a non-groundable test literal.
            raise SafetyError(f"cannot evaluate: {literal}")
        for row in view.lookup(literal.predicate, pattern):
            extended = match_tuple(pattern, row, subst)
            if extended is not None:
                yield from self._run_ordered(rest, dict(extended))
