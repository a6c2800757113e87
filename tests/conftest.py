"""Shared fixtures: the running example databases, plus fault hygiene."""

from __future__ import annotations

import gc
import os
import sys
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


def _open_log_descriptors() -> int:
    """How many of this process's descriptors name a WAL or decision log."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the descriptor of the listing itself, now closed
            continue
        # An unlinked file (a checkpointed-away log) reads "... (deleted)".
        count += target.removesuffix(" (deleted)").endswith(
            ("events.log", "decisions.log"))
    return count


@pytest.fixture(autouse=True)
def _no_leaked_log_descriptors():
    """Every store a test opens gives its log descriptor back.

    ``close()`` does it for a store shut down properly and the log's
    ``weakref.finalize`` for one a test (or a simulated crash) abandons,
    so after a collection the count is back where it was.  Every fixture
    in ``tests/`` is function-scoped, which makes per-test exact.
    """
    if not sys.platform.startswith("linux"):
        yield
        return
    before = _open_log_descriptors()
    yield
    if _open_log_descriptors() > before:
        gc.collect()  # abandoned stores caught in a reference cycle
    leaked = _open_log_descriptors() - before
    if leaked > 0:
        pytest.fail(f"{leaked} events.log / decisions.log descriptor(s) "
                    "outlived the test")


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
