"""The employment office of Section 5, run as a live update-processing system.

Walks through every problem class of the paper on the unemployment-benefit
schema (Examples 5.1-5.3), then scales the database up and runs a random
workload with automatic integrity maintenance.

Run:  python examples/employment_office.py
"""

from repro import (
    DeductiveDatabase,
    Transaction,
    UpdateProcessor,
    insert,
    parse_transaction,
    want_delete,
)
from repro.workloads import employment_database, random_transaction


def paper_scenario() -> None:
    """Examples 5.1, 5.2 and 5.3, verbatim."""
    db = DeductiveDatabase.from_source("""
        La(Dolors). U_benefit(Dolors).
        Unemp(x) <- La(x) & not Works(x).
        Ic1 <- Unemp(x) & not U_benefit(x).
    """)
    db.declare_base("Works", 1)
    office = UpdateProcessor(db)
    office.declare_view("Unemp")
    office.declare_condition("Unemp")

    # 5.1 Integrity checking: removing Dolors' benefit violates Ic1.
    attempt = parse_transaction("{delete U_benefit(Dolors)}")
    verdict = office.check(attempt)
    print(f"5.1  check {attempt}: {verdict}")

    # 5.2 View updating: how can Dolors stop being unemployed?
    translations = office.translate(want_delete("Unemp", "Dolors"))
    print(f"5.2  translate δUnemp(Dolors): {translations}")

    # 5.3 Preventing side effects: register Maria without making her
    # unemployed.
    prevented = office.prevent_side_effects(
        Transaction([insert("La", "Maria")]), "Unemp", args=("Maria",))
    print(f"5.3  prevent ιUnemp(Maria): {prevented}")

    # 5.2.4 Maintenance: the checking failure above, repaired automatically.
    maintained = office.maintain(attempt)
    print(f"5.2.4 maintain {attempt}: {maintained}")


def scaled_workload(n_people: int = 150, days: int = 15) -> None:
    """A random day-by-day workload over a larger office."""
    db = employment_database(n_people, seed=2024)
    office = UpdateProcessor(db)
    office.declare_view("Unemp")

    applied = rejected = repaired = 0
    for day in range(days):
        transaction = random_transaction(db, n_events=3, seed=day)
        outcome = office.execute(transaction, on_violation="maintain")
        if not outcome.applied:
            rejected += 1
            continue
        applied += 1
        if outcome.repairs:
            repaired += 1
    print(f"\nworkload over {n_people} people, {days} transactions: "
          f"{applied} applied ({repaired} needed repairs), {rejected} rejected")
    print(f"database still consistent: {office.is_consistent()}")
    unemployed = len(office.maintenance_deltas(Transaction()).transaction) == 0
    assert office.is_consistent()
    assert unemployed is True  # empty transaction has no deltas


if __name__ == "__main__":
    paper_scenario()
    scaled_workload()
