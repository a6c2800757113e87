"""Reordering on low stock, and an undo journal.

Inventory management where a sale that makes stock low is followed by a
reorder.  Condition monitoring (Section 5.1.2), the upward interpretation of
``ιLowStock``, decides which products a sale makes low; a journal provides
exact undo.

Run:  python examples/active_inventory.py
"""

from repro import DeductiveDatabase, Transaction, UpdateProcessor, delete, insert
from repro.core import Journal


def build_inventory() -> DeductiveDatabase:
    return DeductiveDatabase.from_source("""
        Stock(Widget, 8). Stock(Gear, 2). Stock(Bolt, 40).
        Threshold(Widget, 5). Threshold(Gear, 5). Threshold(Bolt, 10).

        LowStock(p) <- Stock(p, n) & Threshold(p, m) & Lt(n, m).
        WellStocked(p) <- Stock(p, n) & Threshold(p, m) & Geq(n, m).
    """)


def reorder(db: DeductiveDatabase, product: str) -> Transaction:
    """Raise *product*'s stock by 50."""
    (current,) = (n.value for p, n in db.facts_of("Stock")
                  if p.value == product)
    print(f"  -> reordering {product} (stock {current})")
    return Transaction([delete("Stock", product, current),
                        insert("Stock", product, current + 50)])


def main() -> None:
    db = build_inventory()
    processor = UpdateProcessor(db)

    print("initial low stock:", db.query("LowStock(p)"))

    # Gear is already low, but only a *transition* into LowStock reorders
    # (the event rules define transitions).  Sell enough widgets to cross
    # the threshold:
    print("\nselling 5 widgets…")
    sale = Transaction([delete("Stock", "Widget", 8),
                        insert("Stock", "Widget", 3)])
    changes = processor.monitor(sale, ["LowStock"])
    print(f"  monitored: {changes}")
    processor.execute(sale)
    reorders = sorted(row[0].value
                      for row in changes.activated.get("LowStock", ()))
    for product in reorders:
        processor.execute(reorder(db, product))
    print(f"widget stock now: {db.query('Stock(Widget, n)')}")
    assert reorders == ["Widget"]
    assert db.query("LowStock(Widget)") == []

    # --- journaled manual adjustments with undo ---------------------------------
    print("\njournaled session:")
    journal = Journal(db)
    journal.commit(Transaction([insert("Stock", "Cam", 4),
                                insert("Threshold", "Cam", 2)]))
    journal.commit(Transaction([delete("Stock", "Bolt", 40)]))
    print("  after commits, bolt stock:", db.query("Stock(Bolt, n)"))
    journal.undo()  # oops, bring the bolts back
    print("  after undo,    bolt stock:", db.query("Stock(Bolt, n)"))
    assert db.has_fact("Stock", "Bolt", 40)


if __name__ == "__main__":
    main()
