"""Disjunctive-normal-form algebra over literals.

Both interpretations of the event rules manipulate DNF formulas whose
literals are old-state literals and event literals (Sections 3.2 and 4.2).
A :class:`Dnf` is a set of :class:`Conjunct`; a conjunct is a set of
:class:`~repro.datalog.rules.Literal`.

The algebra implements exactly what the paper uses:

- conjunction ("the DNF of the logical conjunction", §4.2),
- negation ("the DNF of the logical negation", §4.2),
- the simplifications that keep results minimal: complementary-pair pruning,
  contradictory-event pruning (``ιQ(c) ∧ δQ(c)`` is unsatisfiable because
  (1) and (2) make the two events mutually exclusive) and subsumption.

The simplifications run once, where a formula is built: conjunction drops
contradictions while it forms the cross product, disjunction of two minimal
formulas only has to re-check subsumption across the union.  Every result of
the algebra (and ``true`` / ``false``) is therefore *minimal* -- no conjunct
is contradictory or subsumed -- and :meth:`Dnf.simplified` returns a minimal
formula unchanged.  Formulas built by hand from conjuncts are not assumed
minimal and are cleaned in full, at every size: translations are *minimal*
explanations, so minimality is specification, not optimisation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Iterator, Mapping

from repro.datalog.errors import ComplexityLimitExceeded
from repro.datalog.rules import Atom, Literal
from repro.datalog.terms import Term
from repro.datalog.unification import (Substitution, rename_terms,
                                       substitute_literal)
from repro.events.naming import DEL_PREFIX, INS_PREFIX

Conjunct = frozenset[Literal]


def _is_contradictory(conjunct: Conjunct) -> bool:
    """True when the conjunct can never hold in any transition.

    Two cases: a literal and its negation, or a positive insertion event
    together with the positive deletion event on the same atom.  One pass:
    the polarity seen per atom, and the event kind seen per positive
    ``(predicate, args)`` event.
    """
    if len(conjunct) < 2:
        return False
    polarity: dict[Atom, bool] = {}
    events: dict[tuple, bool] = {}
    for literal in conjunct:
        atom = literal.atom
        positive = literal.positive
        if polarity.setdefault(atom, positive) is not positive:
            return True
        if not positive:
            continue
        name = atom.predicate
        if name.startswith(INS_PREFIX):
            key, inserted = (name[len(INS_PREFIX):], atom.args), True
        elif name.startswith(DEL_PREFIX):
            key, inserted = (name[len(DEL_PREFIX):], atom.args), False
        else:
            continue
        if events.setdefault(key, inserted) is not inserted:
            return True
    return False


def _without_subsumed(conjuncts: Iterable[Conjunct]) -> "Dnf":
    """The minimal formula of contradiction-free *conjuncts*.

    Smallest first, each conjunct is kept unless a kept one is its subset.
    A kept conjunct is filed under its rarest literal, and a candidate is
    tested only against those filed under its own literals: a kept subset
    is filed under one of them.
    """
    viable = sorted(set(conjuncts), key=len)
    if not viable or not viable[0]:
        return TRUE_DNF if viable else FALSE_DNF
    frequency = Counter(literal for conjunct in viable
                        for literal in conjunct)
    filed: dict[Literal, list[Conjunct]] = {}
    kept = []
    for conjunct in viable:
        if not any(previous <= conjunct for literal in conjunct
                   for previous in filed.get(literal, ())):
            kept.append(conjunct)
            filed.setdefault(min(conjunct, key=frequency.__getitem__),
                             []).append(conjunct)
    return _minimal(frozenset(kept))


def _minimal(disjuncts: frozenset[Conjunct]) -> "Dnf":
    """A formula the caller knows to be minimal, marked as such."""
    dnf = Dnf(disjuncts)
    object.__setattr__(dnf, "minimal", True)
    return dnf


@dataclass(frozen=True)
class Dnf:
    """An immutable DNF formula: a set of conjuncts (empty set = false)."""

    disjuncts: frozenset[Conjunct] = frozenset()
    #: Set by the algebra: no conjunct is contradictory or subsumed.  Not
    #: a constructor argument, and ignored by equality and hashing.
    minimal: bool = field(default=False, init=False, compare=False,
                          repr=False)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def true() -> "Dnf":
        """The formula ``true`` (one empty conjunct)."""
        return TRUE_DNF

    @staticmethod
    def false() -> "Dnf":
        """The formula ``false`` (no conjuncts)."""
        return FALSE_DNF

    @staticmethod
    def of_literal(literal: Literal) -> "Dnf":
        """A single-literal formula."""
        return Dnf(frozenset({frozenset({literal})}))

    @staticmethod
    def of_conjunct(literals: Iterable[Literal]) -> "Dnf":
        """A single-conjunct formula."""
        return Dnf(frozenset({frozenset(literals)}))

    @staticmethod
    def of_disjuncts(conjuncts: Iterable[Iterable[Literal]]) -> "Dnf":
        """A formula from explicit conjuncts."""
        return Dnf(frozenset(frozenset(c) for c in conjuncts))

    # -- predicates -------------------------------------------------------------

    @property
    def is_false(self) -> bool:
        """No disjunct -- unsatisfiable."""
        return not self.disjuncts

    @property
    def is_true(self) -> bool:
        """Contains the empty conjunct -- trivially satisfiable."""
        return frozenset() in self.disjuncts

    def __iter__(self) -> Iterator[Conjunct]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    # -- algebra ----------------------------------------------------------------

    def or_(self, other: "Dnf") -> "Dnf":
        """Disjunction (simplified)."""
        if not (self.minimal and other.minimal):
            return Dnf(self.disjuncts | other.disjuncts).simplified()
        if not other.disjuncts:
            return self
        if not self.disjuncts:
            return other
        return _without_subsumed(self.disjuncts | other.disjuncts)

    def and_(self, other: "Dnf", max_size: int | None = None) -> "Dnf":
        """Conjunction: cross-product of conjuncts, pruning contradictions.

        With ``max_size``, raises :class:`ComplexityLimitExceeded` once more
        than that many distinct conjuncts survive the pruning, before the
        subsumption pass runs on them.
        """
        if self.minimal and other.disjuncts == _TRUE_DISJUNCTS:
            return self
        if other.minimal and self.disjuncts == _TRUE_DISJUNCTS:
            return other
        bound = inf if max_size is None else max_size
        merged: set[Conjunct] = set()
        for left in self.disjuncts:
            for right in other.disjuncts:
                conjunct = left | right
                if not _is_contradictory(conjunct):
                    merged.add(conjunct)
                    if len(merged) > bound:
                        raise ComplexityLimitExceeded(
                            f"DNF grew past {max_size} disjuncts")
        return _without_subsumed(merged)

    def negated(self, max_size: int | None = None) -> "Dnf":
        """Logical negation, re-expanded to DNF.

        ``¬(C1 ∨ ... ∨ Cn) = ¬C1 ∧ ... ∧ ¬Cn`` where each ``¬Ci`` is the
        disjunction of the negated literals of ``Ci``, conjoined one clause
        at a time and minimal after each.  The expansion is exponential in
        the worst case; ``max_size`` bounds each conjunction as in
        :meth:`and_`.
        """
        if self.is_false:
            return TRUE_DNF
        if self.is_true:
            return FALSE_DNF
        # Small clauses first keeps intermediates small (unit propagation).
        clauses = sorted(self.disjuncts, key=len)
        result = TRUE_DNF
        for conjunct in clauses:
            clause = Dnf(frozenset(frozenset({lit.negate()}) for lit in conjunct))
            result = result.and_(clause, max_size)
        return result

    def simplified(self) -> "Dnf":
        """Drop contradictory conjuncts and subsumed (superset) conjuncts.

        A minimal formula has nothing to drop and is returned as it is.
        """
        if self.minimal:
            return self
        return _without_subsumed(
            c for c in self.disjuncts if not _is_contradictory(c))

    def substitute(self, subst: Substitution) -> "Dnf":
        """Apply a substitution to every literal."""
        return Dnf(frozenset(
            frozenset(substitute_literal(lit, subst) for lit in conjunct)
            for conjunct in self.disjuncts
        ))

    def renamed(self, mapping: Mapping[Term, Term]) -> "Dnf":
        """Replace terms through *mapping* (:func:`rename_terms`).

        The caller promises the renaming is injective on the formula's
        terms, so no two literals merge and a minimal formula stays
        minimal.
        """
        renamed = Dnf(frozenset(
            frozenset(rename_terms(lit, mapping) for lit in conjunct)
            for conjunct in self.disjuncts))
        if self.minimal:
            object.__setattr__(renamed, "minimal", True)
        return renamed

    def literals(self) -> frozenset[Literal]:
        """Every literal occurring anywhere in the formula."""
        collected: set[Literal] = set()
        for conjunct in self.disjuncts:
            collected.update(conjunct)
        return frozenset(collected)

    def is_ground(self) -> bool:
        """True when every literal is ground."""
        return all(lit.is_ground() for conjunct in self.disjuncts
                   for lit in conjunct)

    # -- display ------------------------------------------------------------------

    def __str__(self) -> str:
        from repro.events.naming import display_literal

        if self.is_false:
            return "false"
        if self.is_true:
            return "true"
        rendered = []
        for conjunct in sorted(self.disjuncts,
                               key=lambda c: sorted(str(lit) for lit in c)):
            body = " ∧ ".join(sorted(display_literal(lit) for lit in conjunct))
            rendered.append(f"({body})")
        return " ∨ ".join(rendered)


_TRUE_DISJUNCTS: frozenset[Conjunct] = frozenset({frozenset()})
TRUE_DNF = _minimal(_TRUE_DISJUNCTS)
FALSE_DNF = _minimal(frozenset())
