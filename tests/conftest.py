"""Shared fixtures: the running example databases, plus fault hygiene."""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.datalog import DeductiveDatabase
from repro.workloads import employment_database


@pytest.fixture(autouse=True)
def _disarm_failpoints():
    """No test may leak armed failpoints (or an installed fault clock)."""
    yield
    faults.reset()
    faults.clock.install(faults.clock.Clock())


#: Every thread the TCP server starts carries one of these names.
SERVER_THREAD_NAMES = frozenset(
    {"repro-accept", "repro-session", "repro-feed", "repro-watch"})


@pytest.fixture(autouse=True)
def _no_leaked_server_threads():
    """A stopped server leaves no thread behind.

    One blocking thread per connection hangs in exactly one way: a thread
    parked in ``recv`` (or joined by one that is) after ``stop()``.  Give
    stragglers two seconds -- sessions of clients the test closed last are
    still noticing EOF -- then fail the test that leaked them.
    """
    yield
    deadline = time.monotonic() + 2.0
    while True:
        leaked = sorted(thread.name for thread in threading.enumerate()
                        if thread.name in SERVER_THREAD_NAMES)
        if not leaked:
            return
        if time.monotonic() >= deadline:
            pytest.fail(f"server threads outlived the test: {leaked}")
        time.sleep(0.01)


@pytest.fixture
def many_unemployed_db() -> DeductiveDatabase:
    """The employment schema with 2000 unemployed (and insured) people:
    an unbound ``Unemp(x)`` answers with ~19 kB, past any socket's MSS."""
    db = employment_database(10, seed=2)
    for index in range(2000):
        db.add_fact("La", f"Idle{index}")
        db.add_fact("U_benefit", f"Idle{index}")
    return db


@pytest.fixture
def pqr_db() -> DeductiveDatabase:
    """The database of Examples 4.1 / 4.2: Q(A), Q(B), R(B), P = Q ∧ ¬R."""
    return DeductiveDatabase.from_source("""
        Q(A). Q(B). R(B).
        P(x) <- Q(x) & not R(x).
    """)


@pytest.fixture
def employment_db() -> DeductiveDatabase:
    """The database of Examples 5.1 / 5.2 / 5.3 (employment office)."""
    db = DeductiveDatabase.from_source("""
        La(Dolors). U_benefit(Dolors).
        Unemp(x) <- La(x) & not Works(x).
        Ic1 <- Unemp(x) & not U_benefit(x).
    """)
    db.declare_base("Works", 1)
    return db
