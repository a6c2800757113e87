"""Condition monitoring (Section 5.1.2).

A condition is a derived predicate with "watch" semantics.  Monitoring the
changes a transaction induces on ``Cond(x)`` is the upward interpretation of
``ιCond(x)`` (newly satisfied) and ``δCond(x)`` (no longer satisfied); the
upward interpretation of ``¬ιCond(x)`` / ``¬δCond(x)`` checks that the
transaction does not affect the condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import UnknownPredicateError
from repro.datalog.terms import Constant
from repro.events.events import Transaction
from repro.interpretations.upward import UpwardInterpreter, UpwardResult
from repro.problems.base import (
    Direction,
    PredicateSemantics,
    ProblemSpec,
    register_problem,
)

Row = tuple[Constant, ...]

register_problem(ProblemSpec(
    name="Condition monitoring",
    direction=Direction.UPWARD,
    event_form="ιP, δP",
    semantics=PredicateSemantics.CONDITION,
    section="5.1.2",
    summary="Which condition instances does a transaction (de)activate?",
))


@dataclass
class ConditionChanges:
    """Induced changes on the monitored conditions."""

    #: condition -> rows that newly satisfy it (``ιCond``).
    activated: dict[str, frozenset[Row]] = field(default_factory=dict)
    #: condition -> rows that stop satisfying it (``δCond``).
    deactivated: dict[str, frozenset[Row]] = field(default_factory=dict)
    transaction: Transaction = field(default_factory=Transaction)

    def is_unaffected(self, condition: str | None = None) -> bool:
        """Upward interpretation of ``¬ιCond`` and ``¬δCond``.

        With a condition name: that condition saw no change; without: no
        monitored condition changed.
        """
        if condition is None:
            return not self.activated and not self.deactivated
        return condition not in self.activated and condition not in self.deactivated

    def to_dict(self) -> dict:
        """A JSON-ready representation (the ``monitor`` wire shape)."""
        from repro.serde import rows_to_lists

        return {
            "activated": rows_to_lists(self.activated),
            "deactivated": rows_to_lists(self.deactivated),
            "transaction": self.transaction.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ConditionChanges":
        """Inverse of :meth:`to_dict`."""
        from repro.serde import rows_from_lists

        return cls(
            activated=rows_from_lists(payload.get("activated", {})),
            deactivated=rows_from_lists(payload.get("deactivated", {})),
            transaction=Transaction.from_dict(payload.get("transaction", [])),
        )

    def __str__(self) -> str:
        def render(sign: str, condition: str, row) -> str:
            if not row:
                return f"{sign}{condition}"
            return f"{sign}{condition}({', '.join(str(t) for t in row)})"

        pieces = []
        for condition, rows in sorted(self.activated.items()):
            pieces.extend(render("+", condition, row)
                          for row in sorted(rows, key=str))
        for condition, rows in sorted(self.deactivated.items()):
            pieces.extend(render("-", condition, row)
                          for row in sorted(rows, key=str))
        return "{" + ", ".join(pieces) + "}"


def check_conditions(db: DeductiveDatabase, conditions: Iterable[str]) -> None:
    """Raise :class:`UnknownPredicateError` unless every name is derived."""
    schema = db.schema
    for condition in conditions:
        if not schema.is_derived(condition):
            raise UnknownPredicateError(
                f"monitored condition {condition} is not a derived predicate"
            )


def condition_changes(result: UpwardResult,
                      conditions: Iterable[str]) -> ConditionChanges:
    """Project an upward interpretation covering *conditions* onto them."""
    conditions = list(conditions)
    activated = {c: result.insertions_of(c) for c in conditions
                 if result.insertions_of(c)}
    deactivated = {c: result.deletions_of(c) for c in conditions
                   if result.deletions_of(c)}
    return ConditionChanges(activated, deactivated, result.transaction)


def monitor_conditions(db: DeductiveDatabase, transaction: Transaction,
                       conditions: Iterable[str],
                       interpreter: UpwardInterpreter | None = None
                       ) -> ConditionChanges:
    """Upward interpretation of ``ιCond(x)`` / ``δCond(x)`` per condition."""
    conditions = list(conditions)
    check_conditions(db, conditions)
    interpreter = interpreter or UpwardInterpreter(db)
    return condition_changes(
        interpreter.interpret(transaction, predicates=conditions), conditions)
