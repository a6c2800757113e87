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
Applying a transaction then only touches delta rules whose delta literal
has events, so maintenance cost is proportional to |delta|, not |EDB|.

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
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

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
from repro.interpretations.upward import UpwardResult, _event_rows

Row = tuple[Constant, ...]

#: Staged-change kinds (see :meth:`CountingEngine.delta`).
_DELTA = "delta"
_REPLACE = "replace"

#: predicate -> (kind, counter): either a signed count delta to add, or a
#: full replacement counter from a rederivation.
StagedCounts = dict[str, tuple[str, Counter]]


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


class _AdjustedSet:
    """A set plus a pending (gained, lost) overlay, without copying."""

    __slots__ = ("_base", "_gained", "_lost")

    def __init__(self, base: set[Row], gained: set[Row], lost: set[Row]):
        self._base = base
        self._gained = gained
        self._lost = lost

    def __contains__(self, row: Row) -> bool:
        if row in self._gained:
            return True
        return row in self._base and row not in self._lost

    def __iter__(self) -> Iterator[Row]:
        for row in self._base:
            if row not in self._lost:
                yield row
        yield from self._gained


class _StateView:
    """Old or new state of base facts and (set-semantics) derived tuples.

    Base predicates resolve through the database's column indexes (plus
    the transaction's event overlay for the new state); derived
    predicates resolve through the extension containers handed in --
    plain sets for the old state, :class:`_AdjustedSet` overlays for the
    new.  Nothing is copied per call.
    """

    __slots__ = ("_db", "_derived", "_events")

    def __init__(self, db: DeductiveDatabase, derived: Mapping[str, object],
                 events: Mapping[str, set[Row]] | None):
        self._db = db
        self._derived = derived
        self._events = events  # None = old state; events applied = new state

    def holds(self, predicate: str, row: Row) -> bool:
        derived = self._derived.get(predicate)
        if derived is not None:
            return row in derived
        if self._events is not None:
            if row in self._events.get(del_name(predicate), ()):
                return False
            if row in self._events.get(ins_name(predicate), ()):
                return True
        return self._db.has_fact(predicate, *row)

    def lookup(self, predicate: str, pattern: Sequence) -> Iterator[Row]:
        derived = self._derived.get(predicate)
        if derived is not None:
            bound = [(i, t) for i, t in enumerate(pattern)
                     if isinstance(t, Constant)]
            for row in derived:
                if all(row[i] == t for i, t in bound):
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
        bound = [(i, t) for i, t in enumerate(pattern)
                 if isinstance(t, Constant)]
        for row in self._events.get(ins_name(predicate), ()):
            if all(row[i] == t for i, t in bound):
                yield row

    def rows(self, predicate: str) -> frozenset[Row]:
        return frozenset(self.lookup(predicate, ()))


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

    def _compile_delta_rules(self) -> dict[str, list[DeltaRule]]:
        compiled: dict[str, list[DeltaRule]] = {}
        for rule in self._program.source_rules:
            body = list(rule.body)
            for index, literal in enumerate(body):
                if is_builtin(literal.predicate):
                    continue  # rigid: never a delta position
                prefix = tuple(body[:index])
                suffix = tuple(body[index + 1:])
                compiled.setdefault(rule.head.predicate, []).append(DeltaRule(
                    head=rule.head,
                    literal=literal,
                    prefix=prefix,
                    suffix=suffix,
                    order=order_body(prefix + suffix,
                                     bound=literal.variables(),
                                     size_of=self._size_of),
                ))
        return compiled

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
        old_view = _StateView(self._db, self._extensions, None)
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
        return sum(len(rules) for rules in self._delta_rules.values())

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
        to the database.  The computation only walks delta rules whose
        delta literal has events, so cost is proportional to the
        transaction and its consequences.
        """
        transaction.check_base_only(self._db)
        transaction = transaction.normalized(self._db)
        events = _event_rows(transaction)
        old_view = _StateView(self._db, self._extensions, None)
        new_derived: dict[str, _AdjustedSet] = {}
        new_view = _StateView(self._db, new_derived, events)
        insertions: dict[str, frozenset[Row]] = {}
        deletions: dict[str, frozenset[Row]] = {}
        staged: StagedCounts = {}

        for predicate in self._order:
            delta_counter: Counter = Counter()
            for delta_rule in self._delta_rules.get(predicate, ()):
                self._apply_delta_rule(delta_rule, events, old_view, new_view,
                                       delta_counter)
            counter = self._counts[predicate]
            gained: set[Row] = set()
            lost: set[Row] = set()
            replacement: Counter | None = None
            for row, change in delta_counter.items():
                if not change:
                    continue
                before = counter.get(row, 0)
                after = before + change
                if after < 0:
                    # Invariant breach: counts are stale (e.g. the
                    # database was mutated behind the engine's back).
                    if predicate not in self._negation_boundary:
                        raise SafetyError(
                            f"counting invariant violated for "
                            f"{predicate}{row}: {before} + {change}"
                        )
                    replacement = self._rederive(predicate, new_view)
                    break
                if before == 0 and after > 0:
                    gained.add(row)
                elif before > 0 and after == 0:
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
            new_derived[predicate] = _AdjustedSet(
                self._extensions[predicate], gained, lost)

        result = CountedResult(insertions, deletions, transaction,
                               covered=frozenset(self._order), staged=staged)
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
                satisfied = evaluate_builtin(literal.predicate, pattern)
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
