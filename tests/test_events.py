"""Unit tests for events and transactions (Section 3.1)."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import ParseError, TransactionError
from repro.datalog.terms import Constant
from repro.events.events import (
    Event,
    Transaction,
    delete,
    insert,
    parse_transaction,
)
from repro.events.naming import EventKind


class TestEvent:
    def test_constructors_coerce(self):
        event = insert("P", "A", 3)
        assert event.args == (Constant("A"), Constant(3))
        assert event.is_insertion and not event.is_deletion

    def test_opposite(self):
        assert insert("P", "A").opposite() == delete("P", "A")

    def test_atom(self):
        assert str(insert("P", "A").atom()) == "P(A)"

    def test_str_uses_paper_notation(self):
        assert str(insert("Works", "John")) == "ιWorks(John)"
        assert str(delete("R", "B")) == "δR(B)"
        assert str(insert("Flag")) == "ιFlag"

    def test_variable_argument_rejected(self):
        from repro.datalog.terms import Variable

        with pytest.raises(TransactionError):
            Event(EventKind.INSERTION, "P", (Variable("x"),))

    def test_noop_detection(self):
        db = DeductiveDatabase.from_source("Q(A).")
        assert insert("Q", "A").is_noop_in(db)
        assert not insert("Q", "B").is_noop_in(db)
        assert delete("Q", "B").is_noop_in(db)
        assert not delete("Q", "A").is_noop_in(db)


class TestTransaction:
    def test_set_behaviour(self):
        t = Transaction([insert("P", "A"), delete("Q", "B"), insert("P", "A")])
        assert len(t) == 2
        assert insert("P", "A") in t

    def test_contradictory_rejected(self):
        with pytest.raises(TransactionError):
            Transaction([insert("P", "A"), delete("P", "A")])

    def test_same_predicate_different_args_fine(self):
        t = Transaction([insert("P", "A"), delete("P", "B")])
        assert len(t) == 2

    def test_partitions(self):
        t = Transaction([insert("P", "A"), delete("Q", "B")])
        assert t.insertions() == {insert("P", "A")}
        assert t.deletions() == {delete("Q", "B")}
        assert t.predicates() == {"P", "Q"}

    def test_union(self):
        t = Transaction([insert("P", "A")]) | Transaction([delete("Q", "B")])
        assert len(t) == 2

    def test_union_contradiction_rejected(self):
        with pytest.raises(TransactionError):
            Transaction([insert("P", "A")]) | Transaction([delete("P", "A")])

    def test_equality_and_hash(self):
        a = Transaction([insert("P", "A")])
        b = Transaction([insert("P", "A")])
        assert a == b and hash(a) == hash(b)

    def test_str_sorted(self):
        t = Transaction([delete("R", "B"), insert("P", "A")])
        assert str(t) == "{δR(B), ιP(A)}"  # δ (U+03B4) sorts before ι (U+03B9)


class TestTransactionSemantics:
    def test_apply_to(self):
        db = DeductiveDatabase.from_source("Q(A). R(B).")
        new_db = Transaction([delete("R", "B"), insert("Q", "C")]).apply_to(db)
        assert not new_db.has_fact("R", "B")
        assert new_db.has_fact("Q", "C")
        # original untouched
        assert db.has_fact("R", "B")

    def test_apply_rejects_derived(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x).")
        with pytest.raises(TransactionError):
            Transaction([insert("P", "B")]).apply_to(db)

    def test_normalized_drops_noops(self):
        db = DeductiveDatabase.from_source("Q(A).")
        t = Transaction([insert("Q", "A"), insert("Q", "B"), delete("Q", "Z")])
        assert t.normalized(db) == Transaction([insert("Q", "B")])

    def test_normalized_keeps_a_transaction_without_noops(self):
        db = DeductiveDatabase.from_source("Q(A).")
        t = Transaction([delete("Q", "A"), insert("Q", "B")])
        assert t.normalized(db) is t

    @pytest.mark.parametrize("op, params", [
        ("check", {"transaction": "insert La(W1), insert Works(W1)"}),
        ("upward", {"transaction": "insert U_benefit(W2)"}),
        ("monitor", {"transaction": "insert La(W3)",
                     "conditions": ["Unemp"]}),
    ])
    def test_a_whatif_builds_one_transaction(self, tmp_path, monkeypatch,
                                             op, params):
        from repro.requests import UpdateRequest
        from repro.server.engine import DatabaseEngine
        from repro.workloads import employment_database

        engine = DatabaseEngine.open(
            tmp_path / "db", initial=employment_database(20, seed=1))
        try:
            built = []
            original = Transaction.__init__
            monkeypatch.setattr(Transaction, "__init__",
                                lambda self, *args: built.append(args)
                                or original(self, *args))
            UpdateRequest.of(op, params).execute(engine)
            assert len(built) == 1  # the parse; normalising keeps it
        finally:
            engine.close(checkpoint=False)


class TestParseTransaction:
    def test_paper_notation(self):
        t = parse_transaction("{δR(B)}")
        assert t == Transaction([delete("R", "B")])

    def test_keywords(self):
        t = parse_transaction("insert P(A), delete R(B)")
        assert t == Transaction([insert("P", "A"), delete("R", "B")])

    def test_short_keywords(self):
        t = parse_transaction("ins P(A); del R(B)")
        assert t == Transaction([insert("P", "A"), delete("R", "B")])

    def test_multi_arg_atoms(self):
        t = parse_transaction("insert Works(John, Sales)")
        assert t == Transaction([insert("Works", "John", "Sales")])

    def test_empty(self):
        assert parse_transaction("{}") == Transaction()
        assert parse_transaction("  ") == Transaction()

    def test_non_ground_rejected(self):
        with pytest.raises(ParseError):
            parse_transaction("insert P(x)")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_transaction("upsert P(A)")
