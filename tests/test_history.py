"""Tests for the transaction journal."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import TransactionError
from repro.events.events import Transaction, delete, insert
from repro.core.history import Journal, inverse_of


@pytest.fixture
def shop_db():
    return DeductiveDatabase.from_source("""
        Stock(Widget, 3). Threshold(Widget, 5).
        LowStock(p) <- Stock(p, n) & Threshold(p, m) & Lt(n, m).
    """)


class TestJournal:
    def test_commit_and_undo_round_trip(self, shop_db):
        journal = Journal(shop_db)
        before = set(shop_db.iter_facts())
        journal.commit(Transaction([insert("Stock", "Bolt", 7)]))
        journal.commit(Transaction([delete("Stock", "Widget", 3)]))
        assert len(journal) == 2
        journal.undo(2)
        assert set(shop_db.iter_facts()) == before
        assert len(journal) == 0

    def test_partial_undo(self, shop_db):
        journal = Journal(shop_db)
        journal.commit(Transaction([insert("Stock", "Bolt", 7)]))
        journal.commit(Transaction([insert("Stock", "Nut", 9)]))
        (undone,) = journal.undo()
        assert insert("Stock", "Nut", 9) in undone.transaction
        assert shop_db.has_fact("Stock", "Bolt", 7)
        assert not shop_db.has_fact("Stock", "Nut", 9)

    def test_noops_normalised_before_recording(self, shop_db):
        journal = Journal(shop_db)
        entry = journal.commit(Transaction([
            insert("Stock", "Widget", 3),   # already present: no-op
            insert("Stock", "Bolt", 7),
        ]))
        assert entry.transaction == Transaction([insert("Stock", "Bolt", 7)])

    def test_undo_too_many(self, shop_db):
        journal = Journal(shop_db)
        with pytest.raises(TransactionError):
            journal.undo()

    def test_undo_requires_positive_steps(self, shop_db):
        journal = Journal(shop_db)
        with pytest.raises(ValueError):
            journal.undo(0)

    def test_inverse_of(self):
        transaction = Transaction([insert("A", "X"), delete("B", "Y")])
        assert inverse_of(transaction) == Transaction([
            delete("A", "X"), insert("B", "Y")])

    def test_replay_onto_backup(self, shop_db):
        backup = shop_db.copy()
        journal = Journal(shop_db)
        journal.commit(Transaction([insert("Stock", "Bolt", 7)]))
        journal.commit(Transaction([delete("Stock", "Widget", 3)]))
        journal.replay_onto(backup)
        assert set(backup.iter_facts()) == set(shop_db.iter_facts())
