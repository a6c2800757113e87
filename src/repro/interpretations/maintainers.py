"""State maintainers: the two ways a serving engine keeps derived state warm.

A :class:`StateMaintainer` owns the derived state of one
:class:`~repro.core.processor.UpdateProcessor` and exposes a uniform
protocol --

- :meth:`StateMaintainer.bootstrap` -- materialise the standing state
  (counts, cached extensions);
- :meth:`StateMaintainer.apply` -- one-shot library entry point: compute the
  full-coverage :class:`~repro.interpretations.upward.UpwardResult` of a
  transaction, apply its base events to the database and advance the
  maintained state;
- :meth:`StateMaintainer.extension` / :meth:`StateMaintainer.lookup` /
  :meth:`StateMaintainer.holds` -- the current extension of a derived
  predicate as maintained by this strategy, as a read-only live view
  (never a per-call copy): this is what the serving engine's ``query``
  reads, so a warm maintainer answers a ground goal with one
  set-membership test and fires no rule -- and what the processor's
  downward interpreter reads as its old state, so a serving engine holds
  one standing copy of the derived state, not one per interpreter;
- :meth:`StateMaintainer.whatif` -- the upward interpretation of a
  *hypothetical* transaction over that state (``check`` / ``upward`` /
  ``monitor`` are three projections of it);
- :meth:`StateMaintainer.reset` -- drop all maintained state (it rebuilds on
  next use).

For the serving engine's staged commit protocol (check first, decide, then
apply facts and state together) each strategy also implements
:meth:`~StateMaintainer.check_full` / :meth:`~StateMaintainer.interpret` /
:meth:`~StateMaintainer.advance`: both compute every commit's induced
delta, which the change feed forwards as the commit's frame.

The serving engine picks the strategy from the program (docs/IVM.md):
:class:`CountingMaintainer` for every program counting accepts,
:class:`AdvancingMaintainer` for the recursive ones it refuses with
:class:`~repro.interpretations.counting.CountingUnsupportedError`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Sequence

from repro.datalog.database import GLOBAL_IC, DeductiveDatabase, Row
from repro.datalog.terms import Constant, Term
from repro.events.events import Transaction
from repro.interpretations.counting import (
    CountedResult,
    CountingEngine,
    ExtentView,
)
from repro.interpretations.upward import UpwardResult, _filter_rows

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.processor import UpdateProcessor
    from repro.problems.ic_checking import ICCheckResult


class StateMaintainer(ABC):
    """Strategy object owning the derived state of one processor."""

    #: The strategy's name, as ``stats`` and ``health`` report it.
    name: ClassVar[str]

    #: Whether :meth:`whatif` (and :meth:`check_full`) on an :attr:`active`
    #: maintainer only *reads* state that writers mutate.  The serving
    #: engine then runs what-ifs under its read lock alone, beside each
    #: other and beside queries; strategies that answer through the
    #: processor's memoising interpreters serialise on its mutex instead.
    pure_whatifs: ClassVar[bool] = False

    def __init__(self, processor: "UpdateProcessor"):
        self._processor = processor
        # The processor's downward interpreter reads the old state here
        # instead of materialising a private copy of it.
        processor.downward_old_state = self
        #: Observability hook: called with an event kind ("bootstrap",
        #: "rederive", ...) when the strategy does notable work.
        self.on_event: Callable[[str], None] | None = None
        #: Observability hook: called with the path (``template``,
        #: ``delta`` or ``untemplated``) of each upward interpretation a
        #: counting strategy computes.
        self.on_upward: Callable[[str], None] | None = None

    # -- shared plumbing -------------------------------------------------------

    @property
    def processor(self) -> "UpdateProcessor":
        return self._processor

    @property
    def db(self) -> DeductiveDatabase:
        return self._processor.db

    def _event(self, kind: str) -> None:
        if self.on_event is not None:
            self.on_event(kind)

    def _apply_base(self, transaction: Transaction) -> None:
        """Apply a (normalised) transaction's base events to the database."""
        for event in transaction:
            if event.is_insertion:
                self.db.add_fact(event.predicate, *event.args)
            else:
                self.db.remove_fact(event.predicate, *event.args)

    # -- the StateMaintainer protocol ------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the standing extents are materialised right now.

        While true, :meth:`extension` and :meth:`lookup` evaluate nothing
        and touch only state that writers mutate, so they are safe beside
        other readers.  It goes false on :meth:`reset`; the next
        :meth:`bootstrap` (or first use) re-materialises once.
        """
        return self._processor.has_warm_state

    def bootstrap(self, db: DeductiveDatabase | None = None) -> None:
        """Materialise the strategy's standing state.

        Maintainers are bound to their processor's database; *db* exists
        for protocol symmetry and, when given, must be that same object.
        """
        if db is not None and db is not self.db:
            raise ValueError("a StateMaintainer is bound to its processor's "
                             "database; bootstrap(db) must pass that object")
        self._materialize()

    def _materialize(self) -> None:
        """Build the standing state from the current database."""
        self._processor.live_extension(GLOBAL_IC)

    @abstractmethod
    def apply(self, transaction: Transaction) -> UpwardResult:
        """Compute induced events, apply the transaction, advance state."""

    def extension(self, predicate: str) -> ExtentView:
        """Current extension of a derived predicate: a read-only live view
        of the maintained set (materialising it first when cold)."""
        return ExtentView(self._processor.live_extension(predicate))

    def lookup(self, predicate: str,
               pattern: Sequence[Term]) -> Iterable[Row]:
        """Maintained rows of *predicate* compatible with *pattern*.

        Same contract as :meth:`DeductiveDatabase.lookup` (constants must
        match, variables match anything): one membership test for a
        ground pattern, one pass over that predicate's extent otherwise.
        """
        extent = self.extension(predicate)
        bound = sum(isinstance(term, Constant) for term in pattern)
        if bound == len(pattern):
            row = tuple(pattern)
            return (row,) if row in extent else ()
        return _filter_rows(extent, pattern) if bound else extent

    def holds(self, predicate: str, row: Row) -> bool:
        """Whether the derived ``predicate(row)`` holds: one membership test."""
        return row in self.extension(predicate)

    def whatif(self, transaction: Transaction) -> UpwardResult:
        """Full-coverage induced events of a hypothetical transaction.

        The upward interpretation (§4.1) over the maintained state;
        nothing is applied, staged or advanced.  Raises what the
        interpretation raises (``TransactionError`` for derived events).
        """
        return self._processor.upward(transaction)

    @abstractmethod
    def reset(self) -> None:
        """Drop all maintained state; it rebuilds on next use."""

    # -- engine hooks (staged commit protocol) ---------------------------------

    def check(self, transaction: Transaction) -> "ICCheckResult":
        """Integrity verdict for one transaction against the current state."""
        return self._processor.check(transaction)

    @abstractmethod
    def check_full(self, transaction: Transaction) \
            -> tuple["ICCheckResult", UpwardResult]:
        """Verdict plus the full-coverage result to later hand to
        :meth:`advance`."""

    @abstractmethod
    def interpret(self, transaction: Transaction) -> UpwardResult:
        """Full-coverage induced events of a commit no check ran for."""

    @abstractmethod
    def advance(self, result: UpwardResult | None) -> None:
        """Advance maintained state across an applied transaction.

        *result* must come from :meth:`check_full` / :meth:`interpret` on
        the state the transaction was applied to; ``None`` (or a stale
        result) degrades to :meth:`reset`.
        """


class AdvancingMaintainer(StateMaintainer):
    """Patch the processor's memoised interpreter state with the induced
    events: the maintainer of the recursive programs counting refuses."""

    name = "advance"

    def apply(self, transaction: Transaction) -> UpwardResult:
        result = self._processor.upward(transaction)
        self._apply_base(result.transaction)
        self.advance(result)
        return result

    def reset(self) -> None:
        self._processor.invalidate_state_caches()

    def check_full(self, transaction: Transaction) \
            -> tuple["ICCheckResult", UpwardResult]:
        return self._processor.check_full(transaction)

    def interpret(self, transaction: Transaction) -> UpwardResult:
        return self._processor.upward(transaction)

    def advance(self, result: UpwardResult | None) -> None:
        if result is None:
            self.reset()
            return
        try:
            self._processor.advance_state_caches(result)
        except ValueError:
            # Partial coverage: fall back to full invalidation.
            self._processor.invalidate_state_caches()


class CountingMaintainer(StateMaintainer):
    """Maintain per-tuple derivation counts during the commit ([GMS93]).

    The counting engine computes induced events from delta rules in time
    proportional to the transaction, keeps the integrity-constraint
    extension standing (so the consistency precondition is O(1)), and
    hands each delta back as a :class:`CountedResult` that carries its
    own count changes: :meth:`check_full` / :meth:`interpret` /
    :meth:`whatif` touch no state, and :meth:`advance` folds in whichever
    result the caller went on to apply, so facts and counts commit
    together.  The processor's interpreters are not kept moving: a
    commit drops whatever a library caller warmed there.
    """

    name = "counting"
    pure_whatifs = True

    def __init__(self, processor: "UpdateProcessor"):
        super().__init__(processor)
        self._engine: CountingEngine | None = None

    @property
    def active(self) -> bool:
        """Whether counts are currently materialised."""
        return self._engine is not None

    def counting_engine(self) -> CountingEngine:
        """The underlying engine, bootstrapping counts on first use."""
        if self._engine is None:
            self._engine = CountingEngine(
                self.db, program=self._processor.program,
                on_rederive=lambda predicate: self._event("rederive"))
            self._event("bootstrap")
        return self._engine

    def _materialize(self) -> None:
        self._engine = None
        self.counting_engine()

    def apply(self, transaction: Transaction) -> UpwardResult:
        result = self.counting_engine().apply(transaction)
        self._processor.invalidate_state_caches()
        return result

    def extension(self, predicate: str) -> ExtentView:
        return self.counting_engine().extension(predicate)

    def reset(self) -> None:
        self._engine = None
        self._processor.invalidate_state_caches()

    # -- engine hooks ----------------------------------------------------------

    def whatif(self, transaction: Transaction) -> CountedResult:
        result = self.counting_engine().delta(transaction)[0]
        if self.on_upward is not None:
            self.on_upward(result.path)
        return result

    def check(self, transaction: Transaction) -> "ICCheckResult":
        return self.check_full(transaction)[0]

    def check_full(self, transaction: Transaction) \
            -> tuple["ICCheckResult", CountedResult]:
        from repro.problems.ic_checking import require_consistent, verdict_of
        require_consistent(self.extension(GLOBAL_IC))
        result = self.whatif(transaction)
        return verdict_of(self.db, result), result

    def interpret(self, transaction: Transaction) -> CountedResult:
        return self.whatif(transaction)

    def advance(self, result: UpwardResult | None) -> None:
        if not isinstance(result, CountedResult) or self._engine is None:
            # Not a delta of this engine's counts: conservative full reset.
            self.reset()
            return
        self._engine.advance(result.staged)
        self._processor.invalidate_state_caches()


__all__ = [
    "AdvancingMaintainer",
    "CountingMaintainer",
    "StateMaintainer",
]
