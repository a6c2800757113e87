"""Unit tests for condition monitoring (5.1.2) and view maintenance (5.1.3)."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import UnknownPredicateError
from repro.datalog.terms import Constant
from repro.events.events import Transaction, delete, insert
from repro.core import UpdateProcessor
from repro.problems import monitor_conditions, view_maintenance_deltas


@pytest.fixture
def watched_db():
    return DeductiveDatabase.from_source("""
        Temp(Room1, High). Temp(Room2, Low).
        Alarm(x) <- Temp(x, High) & not Muted(x).
        Normal(x) <- Temp(x, Low).
    """)


class TestConditionMonitoring:
    def test_activation(self, watched_db):
        changes = monitor_conditions(
            watched_db, Transaction([insert("Temp", "Room2", "High")]),
            ["Alarm"])
        assert changes.activated["Alarm"] == {(Constant("Room2"),)}
        assert not changes.deactivated

    def test_deactivation(self, watched_db):
        watched_db.declare_base("Muted", 1)
        changes = monitor_conditions(
            watched_db, Transaction([insert("Muted", "Room1")]), ["Alarm"])
        assert changes.deactivated["Alarm"] == {(Constant("Room1"),)}

    def test_unaffected(self, watched_db):
        changes = monitor_conditions(
            watched_db, Transaction([insert("Temp", "Room3", "Low")]),
            ["Alarm", "Normal"])
        assert changes.is_unaffected("Alarm")
        assert not changes.is_unaffected()  # Normal changed

    def test_multiple_conditions(self, watched_db):
        changes = monitor_conditions(
            watched_db,
            Transaction([insert("Temp", "Room3", "Low"),
                         insert("Temp", "Room4", "High")]),
            ["Alarm", "Normal"])
        assert set(changes.activated) == {"Alarm", "Normal"}

    def test_unknown_condition_rejected(self, watched_db):
        with pytest.raises(UnknownPredicateError):
            monitor_conditions(watched_db, Transaction(), ["Temp"])

    def test_str(self, watched_db):
        changes = monitor_conditions(
            watched_db, Transaction([insert("Temp", "Room2", "High")]),
            ["Alarm"])
        assert "+Alarm" in str(changes)


class TestViewMaintenance:
    def test_insert_delta(self, watched_db):
        deltas = view_maintenance_deltas(
            watched_db, Transaction([insert("Temp", "Room2", "High")]),
            ["Alarm"])
        assert deltas.to_insert["Alarm"] == {(Constant("Room2"),)}
        assert deltas.delta_size() == 1

    def test_delete_delta(self, watched_db):
        deltas = view_maintenance_deltas(
            watched_db, Transaction([delete("Temp", "Room1", "High")]),
            ["Alarm"])
        assert deltas.to_delete["Alarm"] == {(Constant("Room1"),)}

    def test_unaffected_view(self, watched_db):
        deltas = view_maintenance_deltas(
            watched_db, Transaction([insert("Temp", "Room9", "Mid")]),
            ["Alarm", "Normal"])
        assert deltas.is_unaffected()
        assert deltas.is_unaffected("Alarm")

    def test_unknown_view_rejected(self, watched_db):
        with pytest.raises(UnknownPredicateError):
            view_maintenance_deltas(watched_db, Transaction(), ["Nope"])

    def test_deltas_match_recomputation(self, watched_db):
        from repro.datalog.evaluation import BottomUpEvaluator

        transaction = Transaction([
            insert("Temp", "Room2", "High"),
            delete("Temp", "Room1", "High"),
        ])
        deltas = view_maintenance_deltas(watched_db, transaction, ["Alarm"])
        before = BottomUpEvaluator(
            watched_db, watched_db.all_rules()).extension("Alarm")
        new_db = transaction.apply_to(watched_db)
        after = BottomUpEvaluator(new_db, new_db.all_rules()).extension("Alarm")
        maintained = (before | deltas.to_insert.get("Alarm", frozenset())) \
            - deltas.to_delete.get("Alarm", frozenset())
        assert maintained == after


@pytest.fixture
def shop_db():
    return DeductiveDatabase.from_source("""
        Stock(Widget, 3). Threshold(Widget, 5).
        LowStock(p) <- Stock(p, n) & Threshold(p, m) & Lt(n, m).
    """)


def replenish(db, product):
    """Raise *product*'s stock to 100: the reaction to ``ιLowStock``."""
    (current,) = (n.value for p, n in db.facts_of("Stock")
                  if p.value == product)
    return Transaction([delete("Stock", product, current),
                        insert("Stock", product, 100)])


class TestReactingToActivations:
    """Reacting to ``ιCond`` read upward through ``UpdateProcessor.monitor``."""

    def test_activation_reports_the_new_row(self, shop_db):
        changes = UpdateProcessor(shop_db).monitor(Transaction([
            insert("Stock", "Gadget", 1),
            insert("Threshold", "Gadget", 10),
        ]), ["LowStock"])
        assert changes.activated["LowStock"] == {(Constant("Gadget"),)}
        assert not changes.deactivated

    def test_deactivation_reported(self, shop_db):
        changes = UpdateProcessor(shop_db).monitor(Transaction([
            delete("Stock", "Widget", 3),
            insert("Stock", "Widget", 9),
        ]), ["LowStock"])
        assert changes.deactivated["LowStock"] == {(Constant("Widget"),)}
        assert not changes.activated

    def test_staying_low_is_not_an_activation(self, shop_db):
        # Widget is already low; a further sale is no transition into it.
        changes = UpdateProcessor(shop_db).monitor(Transaction([
            delete("Stock", "Widget", 3),
            insert("Stock", "Widget", 2),
        ]), ["LowStock"])
        assert changes.is_unaffected("LowStock")

    def test_reaction_deactivates_the_condition(self, shop_db):
        processor = UpdateProcessor(shop_db)
        sale = Transaction([insert("Stock", "Gadget", 1),
                            insert("Threshold", "Gadget", 10)])
        changes = processor.monitor(sale, ["LowStock"])
        processor.execute(sale)
        for (product,) in changes.activated["LowStock"]:
            reaction = replenish(shop_db, product.value)
            followed = processor.monitor(reaction, ["LowStock"])
            assert followed.deactivated["LowStock"] == {(product,)}
            processor.execute(reaction)
        assert shop_db.has_fact("Stock", "Gadget", 100)
        assert shop_db.query("LowStock(Gadget)") == []
        assert shop_db.query("LowStock(p)") == [("Widget",)]

    def test_unrelated_change_needs_no_reaction(self, shop_db):
        changes = UpdateProcessor(shop_db).monitor(
            Transaction([insert("Stock", "Bolt", 50)]), ["LowStock"])
        assert changes.is_unaffected()

    def test_monitor_leaves_the_database_untouched(self, shop_db):
        UpdateProcessor(shop_db).monitor(
            Transaction([insert("Stock", "Gadget", 1),
                         insert("Threshold", "Gadget", 10)]), ["LowStock"])
        assert not shop_db.has_fact("Stock", "Gadget", 1)
        assert shop_db.query("LowStock(p)") == [("Widget",)]

    def test_base_condition_rejected(self, shop_db):
        with pytest.raises(UnknownPredicateError):
            UpdateProcessor(shop_db).monitor(Transaction(), ["Stock"])
