"""The deductive database ``D = (F, DR, IC)`` of Section 2.

:class:`DeductiveDatabase` holds the extensional part (facts, with
per-column indexes), the intensional part (deductive rules and integrity
rules) and the derived schema/stratification metadata, which is recomputed
lazily whenever the intensional part changes.

Integrity constraints are stored as *integrity rules* ``IcN <- L1 & ... & Ln``
exactly as the paper prescribes, and the **global inconsistency predicate**
``Ic`` (Section 5: ``Ic <- Ic1(x1)``, ..., ``Ic <- Icn(xn)``) is synthesised
on demand by :meth:`DeductiveDatabase.rules_with_global_ic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.datalog.analysis import SchemaAnalysis, analyse_program, is_inconsistency_predicate
from repro.datalog.errors import (
    ArityError,
    SafetyError,
    UnknownPredicateError,
)
from repro.datalog.parser import IC_PREFIX, parse_program
from repro.datalog.rules import Atom, Literal, Rule
from repro.datalog.stratify import Stratification, stratify
from repro.datalog.terms import Constant, Term, Variable

#: The global inconsistency predicate of Section 5.
GLOBAL_IC = IC_PREFIX

Row = tuple[Constant, ...]


def answer_rows(target: Atom, rows: Iterable[Row]) -> list[tuple]:
    """Shape candidate *rows* of ``target.predicate`` into query answers.

    *rows* already agree with the goal's constants (the ``lookup``
    contract); this enforces repeated variables and projects each row
    onto the goal's variables in first-occurrence order, as plain Python
    values -- the reply shape of :meth:`DeductiveDatabase.query`
    (``[()]`` / ``[]`` for a ground goal).
    """
    first_at: dict[Term, int] = {}
    repeats: list[tuple[int, int]] = []
    for position, term in enumerate(target.args):
        if isinstance(term, Variable):
            if term in first_at:
                repeats.append((position, first_at[term]))
            else:
                first_at[term] = position
    columns = tuple(first_at.values())
    if repeats:
        rows = (row for row in rows
                if all(row[i] == row[j] for i, j in repeats))
    return sorted({tuple(row[i].value for i in columns) for row in rows},
                  key=str)


class Relation:
    """A stored base relation: a set of constant tuples plus column indexes.

    Indexes are built lazily per column on first indexed lookup and then
    maintained **incrementally** on add/discard: a single-row mutation
    patches the affected bucket of every live index instead of discarding
    them all, so the serving path's commit loop no longer forces an
    O(|relation|) rebuild on the next lookup.  :attr:`index_builds` counts
    from-scratch builds (steady state: one per probed column, ever).
    """

    __slots__ = ("name", "arity", "_rows", "_indexes", "index_builds")

    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity
        self._rows: set[Row] = set()
        self._indexes: dict[int, dict[Constant, set[Row]]] = {}
        self.index_builds = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Row) -> bool:
        return row in self._rows

    def rows(self) -> frozenset[Row]:
        """A snapshot of the stored tuples."""
        return frozenset(self._rows)

    def add(self, row: Row) -> bool:
        """Insert a tuple; returns True when it was new."""
        if len(row) != self.arity:
            raise ArityError(
                f"{self.name}: tuple of length {len(row)}, arity is {self.arity}"
            )
        if row in self._rows:
            return False
        self._rows.add(row)
        for column, index in self._indexes.items():
            index.setdefault(row[column], set()).add(row)
        return True

    def discard(self, row: Row) -> bool:
        """Delete a tuple; returns True when it was present."""
        if row in self._rows:
            self._rows.discard(row)
            for column, index in self._indexes.items():
                bucket = index.get(row[column])
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del index[row[column]]
            return True
        return False

    def lookup(self, pattern: Sequence[Term]) -> Iterator[Row]:
        """Yield rows compatible with *pattern* (variables match anything).

        Picks the first constant-bound column as the index when one exists.
        """
        bound = [(i, t) for i, t in enumerate(pattern) if isinstance(t, Constant)]
        if not bound:
            yield from self._rows
            return
        column, key = bound[0]
        index = self._indexes.get(column)
        if index is None:
            index = {}
            for row in self._rows:
                index.setdefault(row[column], set()).add(row)
            self._indexes[column] = index
            self.index_builds += 1
        candidates = index.get(key, ())
        if len(bound) == 1:
            yield from candidates
            return
        rest = bound[1:]
        for row in candidates:
            if all(row[i] == t for i, t in rest):
                yield row


@dataclass(frozen=True)
class Schema:
    """Static metadata of a database: arities and the base/derived partition."""

    arities: Mapping[str, int]
    base: frozenset[str]
    derived: frozenset[str]

    def arity(self, predicate: str) -> int:
        """Arity of *predicate*; raises :class:`UnknownPredicateError`."""
        try:
            return self.arities[predicate]
        except KeyError:
            raise UnknownPredicateError(f"unknown predicate: {predicate}") from None

    def is_base(self, predicate: str) -> bool:
        """True for base (extensional) predicates."""
        return predicate in self.base

    def is_derived(self, predicate: str) -> bool:
        """True for derived (view/Ic/condition) predicates."""
        return predicate in self.derived


class DeductiveDatabase:
    """A deductive database ``D = (F, DR, IC)`` with mutation and querying.

    Facts live in :class:`Relation` objects; deductive rules and integrity
    rules are kept in insertion order.  Schema analysis, stratification and
    the global-``Ic`` expansion are cached and invalidated on any change to
    the intensional part.
    """

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._rules: list[Rule] = []
        self._constraints: list[Rule] = []
        self._declared: dict[str, int] = {}
        self._cache_valid = False
        self._schema: Optional[Schema] = None
        self._analysis: Optional[SchemaAnalysis] = None
        self._stratification: Optional[Stratification] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_source(cls, source: str) -> "DeductiveDatabase":
        """Build a database from concrete syntax (see the parser grammar)."""
        program = parse_program(source)
        return cls.from_components(
            facts=[(r.head.predicate, tuple(r.head.args)) for r in program.facts],
            rules=program.rules,
            constraints=program.constraints,
        )

    @classmethod
    def from_components(
        cls,
        facts: Iterable[tuple[str, tuple]] = (),
        rules: Iterable[Rule] = (),
        constraints: Iterable[Rule] = (),
    ) -> "DeductiveDatabase":
        """Build a database from pre-parsed pieces.

        ``facts`` are (predicate, args) pairs; args may be raw Python values,
        which are coerced to :class:`Constant`.
        """
        db = cls()
        for r in rules:
            db.add_rule(r)
        for r in constraints:
            db.add_constraint(r)
        for predicate, args in facts:
            db.add_fact(predicate, *args)
        db._validate()
        return db

    def copy(self) -> "DeductiveDatabase":
        """An independent copy (facts deep-copied, rules shared — immutable)."""
        clone = DeductiveDatabase()
        clone._rules = list(self._rules)
        clone._constraints = list(self._constraints)
        clone._declared = dict(self._declared)
        for name, relation in self._relations.items():
            fresh = Relation(name, relation.arity)
            for row in relation:
                fresh.add(row)
            clone._relations[name] = fresh
        return clone

    # -- schema -------------------------------------------------------------

    def declare_base(self, predicate: str, arity: int) -> None:
        """Pre-declare a base predicate (useful before any fact exists)."""
        existing = self._declared.get(predicate)
        if existing is not None and existing != arity:
            raise ArityError(
                f"predicate {predicate} redeclared with arity {arity}, was {existing}"
            )
        self._declared[predicate] = arity
        if predicate not in self._relations:
            self._relations[predicate] = Relation(predicate, arity)
        self._invalidate()

    def _invalidate(self) -> None:
        self._cache_valid = False

    def _validate(self) -> None:
        """Run the full static analysis (arities, allowedness, stratification)."""
        known = {name: rel.arity for name, rel in self._relations.items()}
        known.update(self._declared)
        all_rules = self.all_rules()
        self._analysis = analyse_program(all_rules, known_arities=known)
        for name in self._relations:
            if name in self._analysis.derived:
                raise SafetyError(
                    f"predicate {name} has stored facts but is defined by rules; "
                    f"the base/derived partition forbids this"
                )
        arities = {n: info.arity for n, info in self._analysis.predicates.items()}
        arities.update(known)
        derived = frozenset(self._analysis.derived)
        base = frozenset(set(arities) - set(derived))
        self._schema = Schema(arities, base, derived)
        self._stratification = stratify(all_rules, base_predicates=base)
        self._cache_valid = True

    def _ensure_valid(self) -> None:
        if not self._cache_valid:
            self._validate()

    @property
    def schema(self) -> Schema:
        """Current schema (recomputed lazily)."""
        self._ensure_valid()
        assert self._schema is not None
        return self._schema

    @property
    def stratification(self) -> Stratification:
        """Current stratification of DR ∪ IC."""
        self._ensure_valid()
        assert self._stratification is not None
        return self._stratification

    # -- intensional part ----------------------------------------------------

    @property
    def rules(self) -> tuple[Rule, ...]:
        """The deductive rules DR."""
        return tuple(self._rules)

    @property
    def constraints(self) -> tuple[Rule, ...]:
        """The integrity rules IC."""
        return tuple(self._constraints)

    def all_rules(self) -> list[Rule]:
        """DR followed by IC."""
        return [*self._rules, *self._constraints]

    def rules_with_global_ic(self) -> list[Rule]:
        """DR ∪ IC plus the synthesised ``Ic <- IcN(x)`` rules of Section 5."""
        extra: list[Rule] = []
        for constraint in self._constraints:
            head = constraint.head
            extra.append(Rule(Atom(GLOBAL_IC), (Literal(head, True),), label="global-ic"))
        deduped: list[Rule] = []
        seen: set[Rule] = set()
        for r in extra:
            if r not in seen:
                seen.add(r)
                deduped.append(r)
        return [*self._rules, *self._constraints, *deduped]

    def add_rule(self, r: Rule) -> None:
        """Add a deductive rule (facts are routed to the extensional part)."""
        if not r.body:
            if not r.head.is_ground():
                raise SafetyError(f"bodiless rule must be a ground fact: {r}")
            self.add_fact(r.head.predicate, *r.head.args)
            return
        if is_inconsistency_predicate(r.head.predicate):
            self.add_constraint(r)
            return
        self._rules.append(r)
        self._invalidate()

    def remove_rule(self, r: Rule) -> bool:
        """Remove a deductive rule; returns True when it was present."""
        try:
            self._rules.remove(r)
        except ValueError:
            return False
        self._invalidate()
        return True

    def add_constraint(self, r: Rule) -> None:
        """Add an integrity rule (head must be an ``Ic*`` predicate)."""
        if not is_inconsistency_predicate(r.head.predicate):
            raise SafetyError(
                f"integrity rule head must be an {IC_PREFIX}* predicate: {r}"
            )
        self._constraints.append(r)
        self._invalidate()

    def remove_constraint(self, r: Rule) -> bool:
        """Remove an integrity rule; returns True when it was present."""
        try:
            self._constraints.remove(r)
        except ValueError:
            return False
        self._invalidate()
        return True

    def rules_defining(self, predicate: str) -> tuple[Rule, ...]:
        """The definition of *predicate*: all rules with it in the head."""
        return tuple(r for r in self.all_rules() if r.head.predicate == predicate)

    # -- extensional part ----------------------------------------------------

    def _coerce_row(self, args: Iterable) -> Row:
        row = []
        for value in args:
            if isinstance(value, Constant):
                row.append(value)
            elif isinstance(value, Variable):
                raise SafetyError("facts must be ground; got a variable argument")
            else:
                row.append(Constant(value))
        return tuple(row)

    def _relation_for(self, predicate: str, arity: int) -> Relation:
        relation = self._relations.get(predicate)
        if relation is None:
            relation = Relation(predicate, arity)
            self._relations[predicate] = relation
            self._invalidate()
        return relation

    def add_fact(self, predicate: str, *args) -> bool:
        """Insert a base fact; returns True when it was new."""
        row = self._coerce_row(args)
        relation = self._relation_for(predicate, len(row))
        if self._cache_valid and self._schema is not None \
                and self._schema.is_derived(predicate):
            raise SafetyError(f"cannot store facts for derived predicate {predicate}")
        return relation.add(row)

    def remove_fact(self, predicate: str, *args) -> bool:
        """Delete a base fact; returns True when it was present."""
        row = self._coerce_row(args)
        relation = self._relations.get(predicate)
        if relation is None:
            return False
        return relation.discard(row)

    def has_fact(self, predicate: str, *args) -> bool:
        """Membership test on the extensional part."""
        relation = self._relations.get(predicate)
        if relation is None:
            return False
        return self._coerce_row(args) in relation

    def facts_of(self, predicate: str) -> frozenset[Row]:
        """All stored tuples of a base predicate (empty if none)."""
        relation = self._relations.get(predicate)
        return relation.rows() if relation is not None else frozenset()

    def lookup(self, predicate: str, pattern: Sequence[Term]) -> Iterator[Row]:
        """Indexed scan of a base relation under a term pattern."""
        relation = self._relations.get(predicate)
        if relation is None:
            return iter(())
        return relation.lookup(pattern)

    def count_of(self, predicate: str) -> int:
        """Stored tuple count (planner size estimates, no snapshot copy)."""
        relation = self._relations.get(predicate)
        return len(relation) if relation is not None else 0

    def index_build_count(self) -> int:
        """Total from-scratch column-index builds across all relations.

        Steady state under the incremental index maintenance of
        :class:`Relation` is one build per (relation, column) ever probed;
        commits must not bump this (see the planner's index-stats
        counters for the compiled engine's equivalent).
        """
        return sum(rel.index_builds for rel in self._relations.values())

    def base_predicates_with_facts(self) -> list[str]:
        """Names of relations that currently store at least one tuple."""
        return [name for name, rel in self._relations.items() if len(rel)]

    def fact_count(self) -> int:
        """Total number of stored tuples."""
        return sum(len(rel) for rel in self._relations.values())

    def iter_facts(self) -> Iterator[tuple[str, Row]]:
        """Iterate (predicate, row) over the whole extensional part."""
        for name, relation in self._relations.items():
            for row in relation:
                yield name, row

    def active_domain(self) -> frozenset[Constant]:
        """Constants occurring in facts or rules (the paper's finite domain)."""
        constants: set[Constant] = set()
        for _, row in self.iter_facts():
            constants.update(row)
        for r in self.all_rules():
            constants.update(r.constants())
        return frozenset(constants)

    # -- convenience ----------------------------------------------------------

    def check_goal(self, target: Atom) -> bool:
        """Whether a query goal names a known predicate.

        A goal whose argument count contradicts the predicate's arity
        raises :class:`ArityError`; an unknown predicate is not an error
        (it has no rows), just ``False``.
        """
        arity = self.schema.arities.get(target.predicate)
        if arity is not None and arity != len(target.args):
            raise ArityError(
                f"goal {target} has {len(target.args)} argument(s), "
                f"{target.predicate} has arity {arity}")
        return arity is not None

    def query(self, goal: str) -> list[tuple]:
        """Answer a query in the current state, e.g. ``db.query("P(x)")``.

        Returns the list of answer rows as plain Python values (strings /
        ints) for the query's variables, in first-occurrence order; for a
        ground query the list is ``[()]`` when it holds and ``[]``
        otherwise.  Evaluation is bottom-up over DR ∪ IC with a fresh
        evaluator per call -- every rule is re-materialised, which makes
        this the library entry point and the test oracle, not a serving
        path: a server answers from maintained state
        (:meth:`repro.server.engine.DatabaseEngine.query`), and repeated
        in-process querying should hold a
        :class:`~repro.datalog.evaluation.BottomUpEvaluator`.
        """
        from repro.datalog.evaluation import BottomUpEvaluator
        from repro.datalog.parser import parse_atom

        target = parse_atom(goal)
        self.check_goal(target)
        ordered: list[Variable] = []
        for term in target.args:
            if isinstance(term, Variable) and term not in ordered:
                ordered.append(term)
        evaluator = BottomUpEvaluator(self, self.all_rules())
        answers = []
        for bindings in evaluator.answers(target):
            answers.append(tuple(bindings[v].value for v in ordered))
        return sorted(set(answers), key=str)

    @classmethod
    def from_file(cls, path) -> "DeductiveDatabase":
        """Load a database from a source file (parser grammar)."""
        from pathlib import Path

        return cls.from_source(Path(path).read_text())

    def to_file(self, path) -> None:
        """Write the database out in parseable concrete syntax."""
        from pathlib import Path

        Path(path).write_text(str(self) + "\n")

    def __str__(self) -> str:
        lines = [f"{Atom(name, row)}." for name, row in sorted(
            self.iter_facts(), key=lambda pair: (pair[0], str(pair[1]))
        )]
        lines.extend(str(r) for r in self._rules)
        lines.extend(str(r) for r in self._constraints)
        return "\n".join(lines)
