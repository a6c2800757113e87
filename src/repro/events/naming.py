"""Predicate namespaces for transition programs.

The paper works with four copies of every predicate ``P``:

====================  ==================  =============================
paper notation        predicate name      meaning
====================  ==================  =============================
``P^o`` (old state)   ``P``               current database state
``P^n`` (new state)   ``new$P``           state after the transaction
``ιP`` (insertion)    ``ins$P``           insertion events (paper: ␣ι)
``δP`` (deletion)     ``del$P``           deletion events
====================  ==================  =============================

The ``$`` character cannot appear in parsed programs, so the namespaces can
never collide with user predicates.  :func:`display` renders prefixed names
back into the paper's notation (``ιP`` / ``δP`` / ``Pn`` / ``Po``).
"""

from __future__ import annotations

from enum import Enum

from repro.datalog.rules import Atom, Literal
from repro.datalog.terms import Term

INS_PREFIX = "ins$"
DEL_PREFIX = "del$"
NEW_PREFIX = "new$"

_PREFIXES = (INS_PREFIX, DEL_PREFIX, NEW_PREFIX)


class EventKind(Enum):
    """Insertion (``ι``) or deletion (``δ``) events."""

    INSERTION = "insertion"
    DELETION = "deletion"

    #: Members are singletons, so identity hashing is exact; it spares
    #: every event-set operation Enum's Python-level ``__hash__``.
    __hash__ = object.__hash__

    def __lt__(self, other: "EventKind") -> bool:
        # Ordered by value, so shape keys holding kinds sort.
        return self.value < other.value

    @property
    def symbol(self) -> str:
        """The paper's one-character notation."""
        return "ι" if self is EventKind.INSERTION else "δ"

    @property
    def prefix(self) -> str:
        """The predicate-name prefix of this kind."""
        return INS_PREFIX if self is EventKind.INSERTION else DEL_PREFIX

    def opposite(self) -> "EventKind":
        """Insertion <-> deletion."""
        if self is EventKind.INSERTION:
            return EventKind.DELETION
        return EventKind.INSERTION


def ins_name(predicate: str) -> str:
    """``P`` -> ``ins$P`` (the ``ιP`` predicate)."""
    return INS_PREFIX + predicate


def del_name(predicate: str) -> str:
    """``P`` -> ``del$P`` (the ``δP`` predicate)."""
    return DEL_PREFIX + predicate


def new_name(predicate: str) -> str:
    """``P`` -> ``new$P`` (the ``P^n`` predicate)."""
    return NEW_PREFIX + predicate


def event_name(kind: EventKind, predicate: str) -> str:
    """Prefixed event-predicate name for *kind*."""
    return kind.prefix + predicate


def is_event_predicate(name: str) -> bool:
    """True for ``ins$P`` / ``del$P`` names."""
    return name.startswith(INS_PREFIX) or name.startswith(DEL_PREFIX)


def is_new_predicate(name: str) -> bool:
    """True for ``new$P`` names."""
    return name.startswith(NEW_PREFIX)


def strip_prefix(name: str) -> str:
    """Remove one namespace prefix, returning the underlying predicate."""
    for prefix in _PREFIXES:
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


def parse_prefixed(name: str) -> tuple[str, str]:
    """Split a name into (namespace, base predicate).

    The namespace is one of ``"ins"``, ``"del"``, ``"new"`` or ``"old"``.
    """
    if name.startswith(INS_PREFIX):
        return "ins", name[len(INS_PREFIX):]
    if name.startswith(DEL_PREFIX):
        return "del", name[len(DEL_PREFIX):]
    if name.startswith(NEW_PREFIX):
        return "new", name[len(NEW_PREFIX):]
    return "old", name


def event_kind_of(name: str) -> EventKind | None:
    """The event kind of a prefixed name, or None for old/new names."""
    if name.startswith(INS_PREFIX):
        return EventKind.INSERTION
    if name.startswith(DEL_PREFIX):
        return EventKind.DELETION
    return None


def event_atom(kind: EventKind, predicate: str, args: tuple[Term, ...]) -> Atom:
    """Build the atom ``ins$P(args)`` / ``del$P(args)``."""
    return Atom(event_name(kind, predicate), args)


def event_literal(kind: EventKind, predicate: str, args: tuple[Term, ...],
                  positive: bool = True) -> Literal:
    """Build an event literal, optionally negated."""
    return Literal(event_atom(kind, predicate, args), positive)


def display(name: str) -> str:
    """Render a prefixed predicate name in the paper's notation."""
    namespace, base = parse_prefixed(name)
    if namespace == "ins":
        return f"ι{base}"
    if namespace == "del":
        return f"δ{base}"
    if namespace == "new":
        return f"{base}n"
    return base


def display_atom(target: Atom) -> str:
    """Render an atom in the paper's notation."""
    name = display(target.predicate)
    if not target.args:
        return name
    return f"{name}({', '.join(str(t) for t in target.args)})"


def display_literal(literal: Literal) -> str:
    """Render a literal in the paper's notation (¬ for negation)."""
    rendered = display_atom(literal.atom)
    return rendered if literal.positive else f"¬{rendered}"
