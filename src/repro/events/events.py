"""Ground events and transactions (Section 3.1 of the paper).

An :class:`Event` is one ``ιP(C)`` or ``δP(C)`` fact; a :class:`Transaction`
is the paper's ``T``: "an unspecified set of insertion and/or deletion base
event facts".  Transactions validate themselves (no fact both inserted and
deleted) and know how to apply themselves to a database, producing the new
state ``Dn``.

The definitions (1) and (2) of the paper require an insertion event's fact
to be false in the old state and a deletion event's to be true.  Events in a
user-supplied transaction that violate this are *no-ops* (they cause no
transition); :meth:`Transaction.normalized` drops them, and the interpreters
normalise by default so that the event rules' preconditions hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.datalog.errors import TransactionError
from repro.datalog.parser import parse_events
from repro.datalog.rules import Atom
from repro.datalog.terms import Constant
from repro.events.naming import EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.datalog.database import DeductiveDatabase


@dataclass(frozen=True, slots=True)
class Event:
    """A ground event fact: ``ιP(C)`` or ``δP(C)``."""

    kind: EventKind
    predicate: str
    args: tuple[Constant, ...] = ()

    def __post_init__(self) -> None:
        for arg in self.args:
            if not isinstance(arg, Constant):
                raise TransactionError(
                    f"event arguments must be constants: {self}")

    @property
    def is_insertion(self) -> bool:
        """True for ``ιP`` events."""
        return self.kind is EventKind.INSERTION

    @property
    def is_deletion(self) -> bool:
        """True for ``δP`` events."""
        return self.kind is EventKind.DELETION

    def opposite(self) -> "Event":
        """The complementary event on the same fact."""
        return Event(self.kind.opposite(), self.predicate, self.args)

    def atom(self) -> Atom:
        """The underlying fact ``P(C)`` (without the event marker)."""
        return Atom(self.predicate, self.args)

    def is_noop_in(self, db: "DeductiveDatabase") -> bool:
        """True when the event violates its definition in the given state.

        ``ιP(C)`` is a no-op when ``P(C)`` already holds; ``δP(C)`` when it
        does not (definitions (1)/(2) of the paper).  Only meaningful for
        base predicates.
        """
        present = db.has_fact(self.predicate, *self.args)
        return present if self.is_insertion else not present

    def to_dict(self) -> dict:
        """A JSON-ready representation."""
        return {
            "kind": "insert" if self.is_insertion else "delete",
            "predicate": self.predicate,
            "args": [a.value for a in self.args],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        """Inverse of :meth:`to_dict`."""
        kind = payload.get("kind")
        if kind not in ("insert", "delete"):
            raise TransactionError(
                f"event 'kind' must be 'insert' or 'delete': {kind!r}")
        predicate = payload.get("predicate")
        if not isinstance(predicate, str) or not predicate:
            raise TransactionError(
                f"event 'predicate' must be a non-empty string: {predicate!r}")
        return cls(
            EventKind.INSERTION if kind == "insert" else EventKind.DELETION,
            predicate,
            tuple(Constant(value) for value in payload.get("args", ())),
        )

    def to_text(self) -> str:
        """The :func:`parse_transaction`-compatible form, e.g. ``insert P(A)``."""
        prefix = "insert " if self.is_insertion else "delete "
        return prefix + str(self.atom())

    def __str__(self) -> str:
        if not self.args:
            return f"{self.kind.symbol}{self.predicate}"
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.kind.symbol}{self.predicate}({rendered})"


def insert(predicate: str, *args) -> Event:
    """Build an insertion event, coercing raw values to constants."""
    return Event(EventKind.INSERTION, predicate, _coerce(args))


def delete(predicate: str, *args) -> Event:
    """Build a deletion event, coercing raw values to constants."""
    return Event(EventKind.DELETION, predicate, _coerce(args))


def _coerce(args: Iterable) -> tuple[Constant, ...]:
    return tuple(a if isinstance(a, Constant) else Constant(a) for a in args)


class Transaction:
    """An immutable set of base events, the paper's ``T``.

    Raises :class:`TransactionError` when the same fact is both inserted and
    deleted -- such a set does not denote a transition.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Event] = ()):
        event_set = frozenset(events)
        inserted = {(e.predicate, e.args) for e in event_set if e.is_insertion}
        if 0 < len(inserted) < len(event_set):
            for event in event_set:
                if not event.is_insertion \
                        and (event.predicate, event.args) in inserted:
                    raise TransactionError(
                        f"transaction both inserts and deletes {event.atom()}"
                    )
        self._events = event_set

    # -- set-like interface ---------------------------------------------------

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, event: Event) -> bool:
        return event in self._events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Transaction):
            return self._events == other._events
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._events)

    def __or__(self, other: "Transaction") -> "Transaction":
        return Transaction(self._events | other._events)

    @property
    def events(self) -> frozenset[Event]:
        """The underlying event set."""
        return self._events

    def insertions(self) -> frozenset[Event]:
        """All ``ι`` events."""
        return frozenset(e for e in self._events if e.is_insertion)

    def deletions(self) -> frozenset[Event]:
        """All ``δ`` events."""
        return frozenset(e for e in self._events if e.is_deletion)

    def predicates(self) -> frozenset[str]:
        """Predicates touched by the transaction."""
        return frozenset(e.predicate for e in self._events)

    # -- semantics -------------------------------------------------------------

    def check_base_only(self, db: "DeductiveDatabase") -> None:
        """Raise unless every event touches a base predicate of *db*."""
        schema = db.schema
        for event in self._events:
            if schema.is_derived(event.predicate):
                raise TransactionError(
                    f"transaction event on derived predicate: {event}; "
                    f"request it through the downward interpretation instead"
                )

    def normalized(self, db: "DeductiveDatabase") -> "Transaction":
        """Drop events that are no-ops in the given state (see module doc);
        a transaction without any is returned as it is."""
        kept = [e for e in self._events if not e.is_noop_in(db)]
        if len(kept) == len(self._events):
            return self
        return Transaction(kept)

    def apply_to(self, db: "DeductiveDatabase") -> "DeductiveDatabase":
        """Return the new state ``Dn = D ⊕ T`` (the input is not mutated)."""
        self.check_base_only(db)
        new_state = db.copy()
        for event in self._events:
            if event.is_insertion:
                new_state.add_fact(event.predicate, *event.args)
            else:
                new_state.remove_fact(event.predicate, *event.args)
        return new_state

    def to_dict(self) -> list[dict]:
        """A JSON-ready representation (sorted for determinism)."""
        return [e.to_dict() for e in sorted(self._events, key=str)]

    @classmethod
    def from_dict(cls, payload: Iterable[dict]) -> "Transaction":
        """Inverse of :meth:`to_dict`."""
        return cls(Event.from_dict(item) for item in payload)

    def to_text(self) -> str:
        """The :func:`parse_transaction`-compatible textual form.

        ``parse_transaction(t.to_text()) == t`` for every transaction
        (the empty transaction renders as ``{}``).
        """
        if not self._events:
            return "{}"
        return ", ".join(sorted(e.to_text() for e in self._events))

    def __str__(self) -> str:
        if not self._events:
            return "{}"
        rendered = ", ".join(sorted(str(e) for e in self._events))
        return "{" + rendered + "}"

    def __repr__(self) -> str:
        return f"Transaction({sorted(map(str, self._events))})"


def transaction_between(old: "DeductiveDatabase",
                        new: "DeductiveDatabase") -> Transaction:
    """The (unique) base-fact transaction turning *old* into *new*.

    Definitions (1)/(2) make the event set of a transition unique: the
    insertions are the facts of *new* missing from *old* and vice versa.
    Useful for diffing snapshots and for change-data capture.
    """
    old_facts = set(old.iter_facts())
    new_facts = set(new.iter_facts())
    events = [Event(EventKind.INSERTION, predicate, row)
              for predicate, row in new_facts - old_facts]
    events.extend(Event(EventKind.DELETION, predicate, row)
                  for predicate, row in old_facts - new_facts)
    return Transaction(events)


def parse_transaction(source: str) -> Transaction:
    """Parse ``"insert P(A), delete R(B)"`` (also ``ins``/``del``/``ι``/``δ``).

    Events are separated by ``,`` or ``;`` and may be wrapped in braces, so
    the paper's ``{δR(B)}`` notation works verbatim; the grammar is
    :func:`repro.datalog.parser.parse_events`.
    """
    return Transaction(
        Event(EventKind.INSERTION if inserts else EventKind.DELETION,
              predicate, args)
        for inserts, predicate, args in parse_events(source))
