"""Substitutions, matching and unification over function-free terms.

Because the language has no function symbols, unification degenerates to
variable binding with union-find-free occurs-check-free simplicity; we keep
full (two-way) unification for generality and a faster one-way :func:`match`
for the common evaluate-body-against-ground-fact case.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional

from repro.datalog.rules import Atom, Literal, Rule
from repro.datalog.terms import Constant, Term, Variable

#: A substitution maps variables to terms.  Immutability is by convention:
#: all functions here return fresh dicts instead of mutating inputs.
Substitution = Mapping[Variable, Term]

EMPTY_SUBSTITUTION: Substitution = {}

_fresh_counter = itertools.count(1)


def resolve(term: Term, subst: Substitution) -> Term:
    """Follow variable bindings until a constant or an unbound variable."""
    while isinstance(term, Variable) and term in subst:
        term = subst[term]
    return term


def substitute_term(term: Term, subst: Substitution) -> Term:
    """Apply *subst* to a single term."""
    return resolve(term, subst)


def substitute_atom(target: Atom, subst: Substitution) -> Atom:
    """Apply *subst* to every argument of an atom."""
    if not subst or not target.args:
        return target
    return Atom(target.predicate, tuple(resolve(t, subst) for t in target.args))


def substitute_literal(literal: Literal, subst: Substitution) -> Literal:
    """Apply *subst* to a literal."""
    return Literal(substitute_atom(literal.atom, subst), literal.positive)


def rename_terms(literal: Literal, mapping: Mapping[Term, Term]) -> Literal:
    """Replace every term of *literal*, constant or variable, that
    *mapping* names (one pass, no chains followed)."""
    return Literal(Atom(literal.atom.predicate,
                        tuple(mapping.get(t, t) for t in literal.atom.args)),
                   literal.positive)


def substitute_rule(r: Rule, subst: Substitution) -> Rule:
    """Apply *subst* to a whole rule."""
    return Rule(
        substitute_atom(r.head, subst),
        tuple(substitute_literal(lit, subst) for lit in r.body),
        label=r.label,
    )


def unify_terms(left: Term, right: Term, subst: Substitution) -> Optional[Substitution]:
    """Unify two terms under an existing substitution.

    Returns the extended substitution, or None when unification fails.
    """
    left = resolve(left, subst)
    right = resolve(right, subst)
    if left == right:
        return subst
    if isinstance(left, Variable):
        extended = dict(subst)
        extended[left] = right
        return extended
    if isinstance(right, Variable):
        extended = dict(subst)
        extended[right] = left
        return extended
    return None  # two distinct constants


def unify_atoms(left: Atom, right: Atom,
                subst: Substitution = EMPTY_SUBSTITUTION) -> Optional[Substitution]:
    """Unify two atoms; they must share predicate and arity."""
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    current: Optional[Substitution] = subst
    for l_term, r_term in zip(left.args, right.args):
        current = unify_terms(l_term, r_term, current)
        if current is None:
            return None
    return current


def match_atom(pattern: Atom, ground: Atom,
               subst: Substitution = EMPTY_SUBSTITUTION) -> Optional[Substitution]:
    """One-way match: bind *pattern*'s variables against a ground atom.

    Faster than :func:`unify_atoms` and the common case during bottom-up
    evaluation, where stored facts are always ground.
    """
    if pattern.predicate != ground.predicate or pattern.arity != ground.arity:
        return None
    bindings = dict(subst)
    for p_term, g_term in zip(pattern.args, ground.args):
        p_term = resolve(p_term, bindings)
        if isinstance(p_term, Variable):
            bindings[p_term] = g_term
        elif p_term != g_term:
            return None
    return bindings


def match_tuple(pattern: tuple[Term, ...], row: tuple[Constant, ...],
                subst: Substitution) -> Optional[Substitution]:
    """Match an argument pattern against a stored tuple of constants."""
    bindings: Optional[dict] = None
    for p_term, value in zip(pattern, row):
        p_term = resolve(p_term, bindings if bindings is not None else subst)
        if isinstance(p_term, Variable):
            if bindings is None:
                bindings = dict(subst)
            bindings[p_term] = value
        elif p_term != value:
            return None
    return bindings if bindings is not None else subst


def fresh_variable(stem: str = "v") -> Variable:
    """A globally fresh variable (never collides with parsed names)."""
    return Variable(f"{stem}#{next(_fresh_counter)}")


def rename_apart(r: Rule) -> Rule:
    """Rename every variable of a rule to a fresh one (standardising apart)."""
    renaming: dict[Variable, Term] = {v: fresh_variable(v.name.split("#")[0])
                                      for v in r.variables()}
    return substitute_rule(r, renaming)


def ground_atom(target: Atom, subst: Substitution) -> Atom:
    """Apply *subst* and assert the result is ground."""
    result = substitute_atom(target, subst)
    if not result.is_ground():
        raise ValueError(f"atom not ground after substitution: {result}")
    return result


def restrict(subst: Substitution, variables: Iterable[Variable]) -> dict[Variable, Term]:
    """Project a substitution onto the given variables, fully resolving each."""
    return {v: resolve(v, subst) for v in variables if v in subst}


def compose(outer: Substitution, inner: Substitution) -> dict[Variable, Term]:
    """Compose substitutions: applying the result is inner-then-outer."""
    composed: dict[Variable, Term] = {
        v: substitute_term(t, outer) for v, t in inner.items()
    }
    for v, t in outer.items():
        composed.setdefault(v, t)
    return composed
