"""Datalog substrate: the deductive-database machinery the paper presupposes.

The paper (Section 2) assumes a function-free first-order language, a
partition of predicates into base and derived, allowed (range-restricted)
rules, and an evaluation mechanism for queries in a database state.  This
package provides all of it:

- :mod:`repro.datalog.terms` / :mod:`repro.datalog.rules` -- the AST,
- :mod:`repro.datalog.parser` -- a concrete syntax,
- :mod:`repro.datalog.unification` -- substitutions and (one-way) unification,
- :mod:`repro.datalog.analysis` -- schema extraction and the "allowed" check,
- :mod:`repro.datalog.graph` / :mod:`repro.datalog.stratify` -- dependency
  analysis and stratification,
- :mod:`repro.datalog.evaluation` -- naive and semi-naive bottom-up
  evaluation with stratified negation,
- :mod:`repro.datalog.database` -- the deductive database ``D = (F, DR, IC)``.
"""

from repro.datalog.errors import (
    ArityError,
    DatalogError,
    DepthLimitExceeded,
    DomainError,
    ParseError,
    SafetyError,
    StratificationError,
    TransactionError,
    UnknownPredicateError,
)
from repro.datalog.terms import Constant, Term, Variable, const, var
from repro.datalog.rules import Atom, Literal, Rule, atom, fact, neg, pos, rule
from repro.datalog.parser import parse_atom, parse_literal, parse_program, parse_rule
from repro.datalog.database import DeductiveDatabase, Schema
from repro.datalog.evaluation import BottomUpEvaluator, EvaluationStats
from repro.datalog.stratify import Stratification, stratify

__all__ = [
    "ArityError",
    "Atom",
    "BottomUpEvaluator",
    "Constant",
    "DatalogError",
    "DeductiveDatabase",
    "DepthLimitExceeded",
    "DomainError",
    "EvaluationStats",
    "Literal",
    "ParseError",
    "Rule",
    "SafetyError",
    "Schema",
    "Stratification",
    "StratificationError",
    "Term",
    "TransactionError",
    "UnknownPredicateError",
    "Variable",
    "atom",
    "const",
    "fact",
    "neg",
    "parse_atom",
    "parse_literal",
    "parse_program",
    "parse_rule",
    "pos",
    "rule",
    "stratify",
    "var",
]
