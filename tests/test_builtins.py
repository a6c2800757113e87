"""Tests for built-in (rigid) comparison predicates across every layer."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.builtins import evaluate_builtin, is_builtin
from repro.datalog.errors import ArityError, SafetyError
from repro.datalog.evaluation import BottomUpEvaluator
from repro.datalog.parser import parse_atom, parse_literal, parse_rule
from repro.datalog.terms import Constant
from repro.events.events import Transaction, delete, insert
from repro.events.transition import compile_transition_rule
from repro.interpretations import (
    DownwardInterpreter,
    UpwardInterpreter,
    UpwardOptions,
    naive_changes,
    want_delete,
    want_insert,
)


def rows(*names):
    return frozenset(
        tuple(Constant(p) for p in (n if isinstance(n, tuple) else (n,)))
        for n in names
    )


class TestEvaluateBuiltin:
    def test_registry(self):
        assert is_builtin("Neq") and is_builtin("Lt")
        assert not is_builtin("P") and not is_builtin("neq")

    @pytest.mark.parametrize("name,args,expected", [
        ("Eq", ("A", "A"), True),
        ("Eq", ("A", "B"), False),
        ("Neq", ("A", "B"), True),
        ("Neq", ("A", "A"), False),
        ("Lt", (1, 2), True),
        ("Lt", (2, 1), False),
        ("Leq", (2, 2), True),
        ("Gt", ("B", "A"), True),
        ("Geq", ("A", "B"), False),
    ])
    def test_semantics(self, name, args, expected):
        row = tuple(Constant(a) for a in args)
        assert evaluate_builtin(name, row) is expected

    def test_mixed_types_compare_as_strings(self):
        assert evaluate_builtin("Lt", (Constant(10), Constant("A"))) is True

    def test_arity_checked(self):
        with pytest.raises(ArityError):
            evaluate_builtin("Neq", (Constant("A"),))


class TestStaticChecks:
    def test_builtin_head_rejected(self):
        with pytest.raises(SafetyError):
            DeductiveDatabase.from_source("Neq(x, y) <- P(x) & Q(y). P(A). Q(B).")

    def test_builtin_does_not_bind(self):
        with pytest.raises(SafetyError):
            DeductiveDatabase.from_source("P(x) <- Neq(x, A).")

    def test_builtin_arity_enforced(self):
        with pytest.raises(ArityError):
            DeductiveDatabase.from_source("P(x) <- Q(x) & Neq(x). Q(A).")

    def test_builtin_not_in_schema(self):
        db = DeductiveDatabase.from_source("P(x,y) <- Q(x) & Q(y) & Neq(x,y). Q(A).")
        assert not db.schema.is_base("Neq")
        assert not db.schema.is_derived("Neq")


class TestEvaluation:
    SOURCE = """
        Q(A). Q(B). Q(C).
        Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).
    """

    @pytest.mark.parametrize("semi_naive", [True, False])
    def test_bottom_up(self, semi_naive):
        db = DeductiveDatabase.from_source(self.SOURCE)
        ev = BottomUpEvaluator(db, db.all_rules(), semi_naive=semi_naive)
        assert len(ev.extension("Pair")) == 6  # 3x3 minus the diagonal

    def test_negated_builtin(self):
        db = DeductiveDatabase.from_source(
            "Q(A). Q(B). Same(x, y) <- Q(x) & Q(y) & not Neq(x, y).")
        ev = BottomUpEvaluator(db, db.all_rules())
        assert ev.extension("Same") == rows(("A", "A"), ("B", "B"))

    def test_order_comparison(self):
        db = DeductiveDatabase.from_source("""
            Score(Ada, 90). Score(Alan, 70). Score(Grace, 95).
            Beats(x, y) <- Score(x, a) & Score(y, b) & Gt(a, b).
        """)
        ev = BottomUpEvaluator(db, db.all_rules())
        assert (Constant("Grace"), Constant("Alan")) in ev.extension("Beats")
        assert (Constant("Alan"), Constant("Grace")) not in ev.extension("Beats")

    def test_goal_answers_agree(self):
        db = DeductiveDatabase.from_source(self.SOURCE)
        ev = BottomUpEvaluator(db, db.all_rules())
        assert ev.holds(parse_literal("Pair(A, B)"))
        assert not ev.holds(parse_literal("Pair(A, A)"))
        assert len(ev.answers(parse_atom("Pair(x, y)"))) == 6
        assert sorted(db.query("Pair(A, y)")) == [("B",), ("C",)]

    def test_unsafe_builtin_only_query(self):
        db = DeductiveDatabase.from_source(self.SOURCE)
        ev = BottomUpEvaluator(db, db.all_rules())
        with pytest.raises(SafetyError):
            list(ev.solve([parse_literal("Neq(x, y)")]))


class TestTransitionCompilation:
    def test_rigid_literal_not_expanded(self):
        rule = parse_rule("P(x, y) <- Q(x) & Q(y) & Neq(x, y).")
        transition = compile_transition_rule(rule)
        # Two expandable literals -> 4 disjuncts (not 8); Neq in each.
        assert len(transition.disjuncts) == 4
        for disjunct in transition.disjuncts:
            assert sum(1 for l in disjunct if l.predicate == "Neq") == 1

    def test_no_events_for_builtins(self):
        from repro.events import EventCompiler

        db = DeductiveDatabase.from_source(
            "Q(A). P(x, y) <- Q(x) & Q(y) & Neq(x, y).")
        program = EventCompiler().compile(db)
        assert "Neq" not in program.base_arities
        heads = {r.head.predicate for r in program.upward_rules}
        assert "new$Neq" not in heads


class TestUpwardWithBuiltins:
    SOURCE = """
        Q(A). Q(B).
        Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).
    """

    @pytest.mark.parametrize("strategy", ["hybrid", "flat"])
    def test_induced_changes(self, strategy):
        db = DeductiveDatabase.from_source(self.SOURCE)
        interpreter = UpwardInterpreter(
            db, options=UpwardOptions(strategy=strategy))
        result = interpreter.interpret(Transaction([insert("Q", "C")]))
        assert result.insertions_of("Pair") == rows(
            ("A", "C"), ("C", "A"), ("B", "C"), ("C", "B"))

    def test_agrees_with_oracle(self):
        db = DeductiveDatabase.from_source(self.SOURCE)
        transaction = Transaction([delete("Q", "A"), insert("Q", "D")])
        hybrid = UpwardInterpreter(db).interpret(transaction)
        oracle = naive_changes(db, transaction)
        assert hybrid.insertions == oracle.insertions
        assert hybrid.deletions == oracle.deletions


class TestDownwardWithBuiltins:
    def test_insert_with_neq_guard(self):
        db = DeductiveDatabase.from_source(
            "Q(A). Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).")
        result = DownwardInterpreter(db).interpret(
            want_insert("Pair", "A", "B"))
        assert Transaction([insert("Q", "B")]) in result.transactions()

    def test_diagonal_request_unsatisfiable(self):
        db = DeductiveDatabase.from_source(
            "Q(A). Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).")
        result = DownwardInterpreter(db).interpret(
            want_insert("Pair", "A", "A"))
        assert not result.is_satisfiable

    def test_delete_with_guard(self):
        db = DeductiveDatabase.from_source(
            "Q(A). Q(B). Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).")
        result = DownwardInterpreter(db).interpret(
            want_delete("Pair", "A", "B"))
        assert set(result.transactions()) == {
            Transaction([delete("Q", "A")]),
            Transaction([delete("Q", "B")]),
        }

    def test_translations_verified_by_oracle(self):
        db = DeductiveDatabase.from_source("""
            Score(Ada, 90). Score(Alan, 70).
            Leader(x) <- Score(x, a) & not Better(x).
            Better(x) <- Score(x, a) & Score(y, b) & Gt(b, a).
        """)
        result = DownwardInterpreter(db).interpret(
            want_insert("Leader", "Alan"))
        assert result.translations
        for translation in result.translations:
            induced = naive_changes(db, translation.transaction)
            assert (Constant("Alan"),) in induced.insertions_of("Leader")
