"""Materialized view maintenance (Section 5.1.3).

Given a transaction of base-fact updates, determine which changes keep the
stored extension of a materialized view in sync: the upward interpretation
of ``ιView(x)`` (rows to insert into the materialisation) and ``δView(x)``
(rows to delete).

This module computes the *deltas*; the stateful engine that applies them
is the counting maintainer,
:class:`repro.interpretations.counting.CountingEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import UnknownPredicateError
from repro.datalog.terms import Constant
from repro.events.events import Transaction
from repro.interpretations.upward import UpwardInterpreter
from repro.problems.base import (
    Direction,
    PredicateSemantics,
    ProblemSpec,
    register_problem,
)

Row = tuple[Constant, ...]

register_problem(ProblemSpec(
    name="Materialized view maintenance",
    direction=Direction.UPWARD,
    event_form="ιP, δP",
    semantics=PredicateSemantics.VIEW,
    section="5.1.3",
    summary="Which rows must be inserted into / deleted from a materialisation?",
))


@dataclass
class ViewDeltas:
    """Maintenance deltas for a set of materialized views."""

    #: view -> rows to insert into the stored extension.
    to_insert: dict[str, frozenset[Row]] = field(default_factory=dict)
    #: view -> rows to delete from the stored extension.
    to_delete: dict[str, frozenset[Row]] = field(default_factory=dict)
    transaction: Transaction = field(default_factory=Transaction)

    def is_unaffected(self, view: str | None = None) -> bool:
        """Upward interpretation of ``¬ιView`` / ``¬δView``."""
        if view is None:
            return not self.to_insert and not self.to_delete
        return view not in self.to_insert and view not in self.to_delete

    def delta_size(self) -> int:
        """Total number of delta rows across all views."""
        inserted = sum(len(rows) for rows in self.to_insert.values())
        deleted = sum(len(rows) for rows in self.to_delete.values())
        return inserted + deleted


def view_maintenance_deltas(db: DeductiveDatabase, transaction: Transaction,
                            views: Iterable[str],
                            interpreter: UpwardInterpreter | None = None
                            ) -> ViewDeltas:
    """Upward interpretation of ``ιView(x)`` / ``δView(x)`` per view."""
    views = list(views)
    schema = db.schema
    for view in views:
        if not schema.is_derived(view):
            raise UnknownPredicateError(
                f"materialized view {view} is not a derived predicate"
            )
    interpreter = interpreter or UpwardInterpreter(db)
    result = interpreter.interpret(transaction, predicates=views)
    to_insert = {v: result.insertions_of(v) for v in views
                 if result.insertions_of(v)}
    to_delete = {v: result.deletions_of(v) for v in views
                 if result.deletions_of(v)}
    return ViewDeltas(to_insert, to_delete, result.transaction)
