"""Materialized view maintenance on a small order-processing warehouse.

Three base relations (customers, orders, shipments), two derived views kept
physically materialized, a stream of transactions, and a comparison of the
incremental maintenance cost against full recomputation (Section 5.1.3).

Run:  python examples/materialized_warehouse.py
"""

import random
import time

from repro import DeductiveDatabase, Transaction, insert
from repro.datalog.evaluation import BottomUpEvaluator
from repro.interpretations import CountingEngine

VIEWS = ("Pending", "ActiveCustomer")


def build_warehouse(n_customers: int = 60, n_orders: int = 300,
                    seed: int = 7) -> DeductiveDatabase:
    rng = random.Random(seed)
    db = DeductiveDatabase()
    db.declare_base("Customer", 1)
    db.declare_base("Order", 2)      # Order(order_id, customer)
    db.declare_base("Shipped", 1)    # Shipped(order_id)
    from repro.datalog.parser import parse_rule

    db.add_rule(parse_rule("Pending(o, c) <- Order(o, c) & not Shipped(o)."))
    db.add_rule(parse_rule("ActiveCustomer(c) <- Pending(o, c)."))
    for index in range(n_customers):
        db.add_fact("Customer", f"Cust{index}")
    for index in range(n_orders):
        customer = f"Cust{rng.randrange(n_customers)}"
        db.add_fact("Order", f"Ord{index}", customer)
        if rng.random() < 0.5:
            db.add_fact("Shipped", f"Ord{index}")
    return db


def main() -> None:
    db = build_warehouse()
    engine = CountingEngine(db)
    print(f"warehouse: {db.fact_count()} facts, "
          f"{len(engine.extension('Pending'))} pending orders, "
          f"{len(engine.extension('ActiveCustomer'))} active customers")

    rng = random.Random(99)
    incremental_time = 0.0
    recompute_time = 0.0
    for step in range(30):
        order = f"NewOrd{step}"
        customer = f"Cust{rng.randrange(60)}"
        transaction = Transaction([insert("Order", order, customer)]) \
            if step % 3 else Transaction([insert("Shipped", f"Ord{step}")])

        start = time.perf_counter()
        result = engine.apply(transaction)
        incremental_time += time.perf_counter() - start

        start = time.perf_counter()
        evaluator = BottomUpEvaluator(db, db.all_rules())
        evaluator.materialize()
        recompute_time += time.perf_counter() - start

        summary = {view: (len(result.insertions_of(view)),
                          len(result.deletions_of(view)))
                   for view in VIEWS
                   if result.insertions_of(view) or result.deletions_of(view)}
        if summary:
            print(f"  step {step:2d}: {transaction}  ->  deltas {summary}")

    ok = all(engine.extension(view) == evaluator.extension(view)
             for view in VIEWS)
    print(f"\nmaintained views agree with recomputation: {ok}")
    assert ok
    print(f"incremental maintenance: {incremental_time * 1000:.1f} ms total; "
          f"full recomputation would have been {recompute_time * 1000:.1f} ms")


if __name__ == "__main__":
    main()
