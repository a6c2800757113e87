"""Goal answering: ``DeductiveDatabase.query`` and the evaluator's goal API.

One query path stays in the library: materialise the perfect model bottom-up,
then match the goal against it (``BottomUpEvaluator.holds`` / ``answers`` /
``solve``, and ``db.query`` over them).  These tests pin that path on ground
goals, bound and free arguments, repeated variables, recursion (left
recursion included), negation and built-ins, and check every answer set
against the goal's pattern filtered out of the full extension.
"""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import ArityError, SafetyError
from repro.datalog.evaluation import BottomUpEvaluator
from repro.datalog.parser import parse_atom, parse_literal
from repro.datalog.terms import Constant, Variable


TWO_ISLANDS = """
    Edge(A1, A2). Edge(A2, A3).
    Edge(B1, B2). Edge(B2, B3). Edge(B3, B1).
    Path(x, y) <- Edge(x, y).
    Path(x, y) <- Edge(x, z) & Path(z, y).
"""

ACYCLIC = """
    Edge(A, B). Edge(B, C). Edge(C, D).
    Path(x, y) <- Edge(x, y).
    Path(x, y) <- Edge(x, z) & Path(z, y).
"""


def evaluator_for(source):
    db = DeductiveDatabase.from_source(source)
    return db, BottomUpEvaluator(db, db.all_rules())


def filtered_extension(db, goal):
    """The goal's answers read off the full extension, as ``db.query`` rows.

    A row matches when it equals every constant of the goal and agrees on
    every repeated variable; it is projected onto the goal's variables in
    first-occurrence order.
    """
    evaluator = BottomUpEvaluator(db, db.all_rules())
    variables: list[Variable] = []
    for term in goal.args:
        if isinstance(term, Variable) and term not in variables:
            variables.append(term)
    answers = set()
    for row in evaluator.extension(goal.predicate):
        binding: dict = {}
        if all(term == value if isinstance(term, Constant)
               else binding.setdefault(term, value) == value
               for term, value in zip(goal.args, row)):
            answers.add(tuple(binding[v].value for v in variables))
    return answers


class TestGroundGoals:
    def test_fact(self):
        _, evaluator = evaluator_for("Q(A).")
        assert evaluator.holds(parse_literal("Q(A)"))
        assert not evaluator.holds(parse_literal("Q(B)"))

    def test_derived(self):
        _, evaluator = evaluator_for(
            "Q(A). R(B). Q(B). P(x) <- Q(x) & not R(x).")
        assert evaluator.holds(parse_literal("P(A)"))
        assert not evaluator.holds(parse_literal("P(B)"))

    def test_negation_as_failure(self):
        _, evaluator = evaluator_for("Q(A). P(x) <- Q(x).")
        assert evaluator.holds(parse_literal("not P(B)"))
        assert not evaluator.holds(parse_literal("not P(A)"))

    def test_propositional(self):
        db, evaluator = evaluator_for("Q(A). P <- Q(x).")
        assert evaluator.holds(parse_literal("P"))
        assert db.query("P") == [()]

    def test_ground_query_rows(self):
        db = DeductiveDatabase.from_source(ACYCLIC)
        assert db.query("Path(A, D)") == [()]
        assert db.query("Path(D, A)") == []


class TestAnswers:
    def test_enumeration(self):
        _, evaluator = evaluator_for(
            "Q(A). Q(B). R(B). P(x) <- Q(x) & not R(x).")
        assert evaluator.answers(parse_atom("P(x)")) == \
            [{Variable("x"): Constant("A")}]

    def test_deduplication_across_rules(self):
        db, evaluator = evaluator_for(
            "Q(A). R(A). P(x) <- Q(x). P(x) <- R(x).")
        assert len(evaluator.answers(parse_atom("P(x)"))) == 1
        assert db.query("P(x)") == [("A",)]

    def test_query_columns_follow_first_occurrence(self):
        db = DeductiveDatabase.from_source(ACYCLIC)
        # Columns are ordered by where a variable first occurs, not by name.
        forward = set(db.query("Path(x, y)"))
        assert set(db.query("Path(y, x)")) == forward
        assert ("A", "D") in forward and ("D", "A") not in forward


    def test_predicate_without_rows_answers_nothing(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x) & R(x).")
        assert db.query("P(x)") == []
        assert db.query("Nope(x)") == []


class TestRecursion:
    def test_recursive_ground_goal(self):
        _, evaluator = evaluator_for(ACYCLIC)
        assert evaluator.holds(parse_literal("Path(A, D)"))
        assert not evaluator.holds(parse_literal("Path(D, A)"))

    def test_left_recursion_terminates(self):
        db = DeductiveDatabase.from_source("""
            Edge(A, B). Edge(B, C).
            Path(x, y) <- Path(x, z) & Edge(z, y).
            Path(x, y) <- Edge(x, y).
        """)
        assert db.query("Path(A, C)") == [()]
        assert set(db.query("Path(x, y)")) == \
            {("A", "B"), ("B", "C"), ("A", "C")}

    def test_answers_agree_with_extension(self):
        _, evaluator = evaluator_for(ACYCLIC)
        answered = set()
        for answer in evaluator.answers(parse_atom("Path(x, y)")):
            answered.add((answer[Variable("x")], answer[Variable("y")]))
        assert answered == set(evaluator.extension("Path"))
        assert len(answered) == 6


class TestSafety:
    def test_non_ground_negative_rejected(self):
        _, evaluator = evaluator_for("Q(A).")
        with pytest.raises(SafetyError):
            list(evaluator.solve([parse_literal("not Q(x)")]))

    def test_negative_delayed_behind_positive(self):
        _, evaluator = evaluator_for("Q(A). Q(B). R(B).")
        answers = list(evaluator.solve([parse_literal("not R(x)"),
                                        parse_literal("Q(x)")]))
        assert answers == [{Variable("x"): Constant("A")}]

    def test_query_arity_checked(self):
        db = DeductiveDatabase.from_source("B1(A). V1(x) <- B1(x).")
        with pytest.raises(ArityError):
            db.query("V1(x, y)")


class TestBoundGoals:
    """Constants in a goal select exactly the matching rows of the model."""

    @pytest.mark.parametrize("query", [
        "Path(A1, y)", "Path(x, B2)", "Path(A1, A3)", "Path(B1, A1)",
        "Path(x, y)",
    ])
    def test_matches_full_evaluation(self, query):
        db = DeductiveDatabase.from_source(TWO_ISLANDS)
        assert set(db.query(query)) == filtered_extension(db, parse_atom(query))

    def test_bound_goal_stays_on_its_island(self):
        db = DeductiveDatabase.from_source(TWO_ISLANDS)
        assert set(db.query("Path(A1, y)")) == {("A2",), ("A3",)}
        assert set(db.query("Path(B1, y)")) == {("B1",), ("B2",), ("B3",)}

    def test_non_recursive_join(self):
        db = DeductiveDatabase.from_source("""
            Emp(Ada, Tools). Emp(Alan, Tools). Emp(Grace, Compilers).
            Dept(Tools, Building1). Dept(Compilers, Building2).
            Location(e, b) <- Emp(e, d) & Dept(d, b).
        """)
        assert db.query("Location(Ada, b)") == [("Building1",)]
        assert set(db.query("Location(e, Building1)")) == \
            filtered_extension(db, parse_atom("Location(e, Building1)"))

    def test_multi_level_views(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). S(A).
            P(x) <- Q(x).
            W(x) <- P(x) & S(x).
        """)
        assert db.query("W(A)") == [()]
        assert db.query("W(B)") == []

    def test_with_builtins(self):
        db = DeductiveDatabase.from_source("""
            Score(Ada, 90). Score(Alan, 70).
            Beats(x, y) <- Score(x, a) & Score(y, b) & Gt(a, b).
        """)
        assert db.query("Beats(Ada, y)") == [("Alan",)]
        assert db.query("Beats(Alan, y)") == []

    def test_base_negation(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). R(B).
            P(x) <- Q(x) & not R(x).
        """)
        assert db.query("P(A)") == [()]
        assert db.query("P(B)") == []

    def test_derived_negation(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). T(B).
            P(x) <- T(x).
            S(x) <- Q(x) & not P(x).
        """)
        assert db.query("S(x)") == [("A",)]
        assert db.query("S(B)") == []


class TestRepeatedVariables:
    """``Self(x, x)`` admits only rows whose columns are equal."""

    def test_repeated_variable_query(self):
        db = DeductiveDatabase.from_source("""
            E(A, B). E(C, C).
            Self(x, y) <- E(x, y).
        """)
        assert db.query("Self(x, x)") == [("C",)]

    def test_repeated_variable_with_constant(self):
        db = DeductiveDatabase.from_source("""
            T(A, A, B). T(A, B, B). T(B, A, A).
            V(x, y, z) <- T(x, y, z).
        """)
        assert db.query("V(x, x, B)") == [("A",)]

    def test_recursive_repeated_variable_query(self):
        db = DeductiveDatabase.from_source("""
            E(A, B). E(B, A). E(B, C).
            Path(x, y) <- E(x, y).
            Path(x, y) <- E(x, z) & Path(z, y).
        """)
        assert set(db.query("Path(x, x)")) == {("A",), ("B",)}
        assert set(db.query("Path(x, x)")) == \
            filtered_extension(db, parse_atom("Path(x, x)"))
