"""Crash-recovery matrix: every failpoint x a workload, three invariants.

Each test arms a failpoint schedule, drives a generated workload through a
real engine over a real directory (``tests/faultkit.py``), lets the
simulated crash unwind, re-opens through recovery and asserts the
invariants: acked commits survive, no partial batch is visible, derived
state equals the naive oracle rebuild.

``test_every_failpoint_is_exercised`` is the completeness backstop: the
point lists below (plus the two server-layer points exercised in
``tests/test_server.py``) must cover the whole registry, so registering a
new failpoint without a crash-recovery test fails the suite.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core import durable
from repro.events.events import Transaction, parse_transaction
from repro.server import engine as engine_mod
from repro.server import server as server_mod
from repro.server.engine import DatabaseEngine
from repro.shard import coordinator as coordinator_mod
from repro.workloads.generators import employment_database

from tests import faultkit

#: Crash points on the commit path, exercised single-commit and batched.
COMMIT_POINTS = (
    durable.FP_WAL_MID_APPEND,
    durable.FP_WAL_PRE_FSYNC,
    engine_mod.FP_PRE_BATCH_MERGE,
    engine_mod.FP_POST_CHECK_PRE_ACK,
    engine_mod.FP_MID_CACHE_ADVANCE,
    engine_mod.FP_PRE_ACK)
#: Crash points on the checkpoint path.
CHECKPOINT_POINTS = (
    durable.FP_CHECKPOINT_PRE_RENAME,
    durable.FP_CHECKPOINT_PRE_TRUNCATE)
#: Protocol-layer points; their crash/timeout tests live in test_server.py.
SERVER_POINTS = (
    server_mod.FP_PRE_DISPATCH,
    server_mod.FP_SEND_FRAME)
#: Two-phase-commit points; their crash matrix lives in test_shard_2pc.py.
TWOPC_POINTS = (
    engine_mod.FP_PREPARE_WRITTEN,
    engine_mod.FP_DECIDE_PRE_ACK,
    coordinator_mod.FP_PRE_DECISION,
    coordinator_mod.FP_DECISION_WRITTEN)
#: Change-feed points; their fault matrix lives in test_subscriptions.py
#: (they only fire while a subscription is registered, so the generic
#: subscriber-less workloads here can never reach them).
FEED_POINTS = (
    engine_mod.FP_FEED_PUBLISH,
    server_mod.FP_FEED_FRAME)


def fresh_engine(tmp_path, recursive: bool = False,
                 **kwargs) -> DatabaseEngine:
    """The employment workload (counting); *recursive* adds
    :func:`faultkit.with_recursion`'s view, which advance serves."""
    directory = tmp_path / "db"
    initial = employment_database(n_people=20, seed=7)
    # Give everyone a benefit: most random events then pass the Ic1
    # check (so workloads actually commit), while deleting the benefit
    # of an unemployed person still exercises rejection now and then.
    for index in range(20):
        initial.add_fact("U_benefit", f"P{index}")
    if recursive:
        faultkit.with_recursion(initial)
    return DatabaseEngine.open(directory, initial=initial, **kwargs)


def test_every_failpoint_is_exercised():
    """New failpoints must be added to a covered list (and get a test)."""
    covered = (set(COMMIT_POINTS) | set(CHECKPOINT_POINTS)
               | set(SERVER_POINTS) | set(TWOPC_POINTS)
               | set(FEED_POINTS))
    registered = {name for name in faults.names()
                  if not name.startswith("test.")}
    assert covered == registered, (
        "failpoint registry and crash-recovery coverage diverge; "
        f"uncovered: {sorted(registered - covered)}, "
        f"stale: {sorted(covered - registered)}")


def test_baseline_workload_without_faults(tmp_path):
    """The harness itself: no faults -> no crash, invariants hold."""
    engine = fresh_engine(tmp_path)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=10, seed=1)
    try:
        assert not report.crashed
        assert report.acked  # the workload really commits things
        assert faultkit.base_facts(recovered.db) == report.expected_facts()
    finally:
        recovered.close()


@pytest.mark.parametrize("point", COMMIT_POINTS)
@pytest.mark.parametrize("skip", [0, 2])
def test_commit_crash_single(tmp_path, point, skip):
    engine = fresh_engine(tmp_path)
    faults.arm(point, "crash", skip=skip, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=25, seed=3)
    try:
        assert report.crashed, f"{point} never fired (skip={skip})"
        assert len(report.inflight) == 1
    finally:
        recovered.close()


@pytest.mark.parametrize("point", COMMIT_POINTS)
def test_commit_crash_batched(tmp_path, point):
    """Group-commit batches: the whole chunk is in flight at the crash."""
    engine = fresh_engine(tmp_path, max_batch=8)
    faults.arm(point, "crash", skip=1, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=25, seed=5, batch=4)
    try:
        assert report.crashed, f"{point} never fired batched"
        assert len(report.inflight) >= 1
    finally:
        recovered.close()


@pytest.mark.parametrize("point", CHECKPOINT_POINTS)
def test_checkpoint_crash(tmp_path, point):
    """A crash inside checkpoint loses nothing: old-snapshot+log or
    new-snapshot+stale-log, and stale-log replay is idempotent."""
    engine = fresh_engine(tmp_path)
    faults.arm(point, "crash", times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=10, seed=9, checkpoint_every=3)
    try:
        assert report.crashed, f"{point} never fired"
        assert not report.inflight  # checkpoints carry no transaction
        assert faultkit.base_facts(recovered.db) == report.expected_facts()
    finally:
        recovered.close()


@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.9])
def test_torn_wal_append_is_dropped_on_recovery(tmp_path, fraction):
    """A torn final line -- any cut point -- recovers to the acked state."""
    engine = fresh_engine(tmp_path)
    faults.arm(durable.FP_WAL_MID_APPEND, "torn", param=fraction,
               skip=2, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=25, seed=11)
    try:
        assert report.crashed
        # The torn fragment must be gone entirely: recovery rewrote the
        # log to the durable prefix, so the observed state is exactly the
        # acked one and the log ends with a newline again.
        assert faultkit.base_facts(recovered.db) == report.expected_facts()
        log = (tmp_path / "db" / durable.LOG_NAME).read_text()
        assert not log or log.endswith("\n")
    finally:
        recovered.close()


@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.99])
def test_torn_append_through_the_kept_descriptor(tmp_path, fraction):
    """The torn write leaves exactly the prefix; a second store opened
    while the dead one still holds its descriptor recovers and appends."""
    directory = tmp_path / "db"
    store = durable.DurableDatabase.open(
        directory, initial=employment_database(n_people=5, seed=7))
    store.commit(parse_transaction("insert Works(Kept)"))
    log = directory / durable.LOG_NAME
    before = log.read_bytes()
    faults.arm(durable.FP_WAL_MID_APPEND, "torn", param=fraction, times=1)
    with pytest.raises(faults.SimulatedCrash):
        store.commit(parse_transaction("insert Works(Torn)"),
                     txn=("t-torn", "0123456789abcdef"))
    line = b"#txn t-torn 0123456789abcdef applied :: insert Works(Torn)\n"
    cut = min(int(len(line) * fraction), len(line) - 1)
    assert log.read_bytes() == before + line[:cut]
    # ``store`` is dead but not collected: its descriptor is still open.
    recovered = durable.DurableDatabase.open(directory)
    assert log.read_bytes() == before
    assert recovered.db.has_fact("Works", "Kept")
    assert not recovered.db.has_fact("Works", "Torn")
    assert recovered.txns.get("t-torn") is None
    recovered.commit(parse_transaction("insert Works(After)"))
    assert log.read_bytes() == before + b"insert Works(After)\n"
    assert durable.DurableDatabase.open(directory).log_length() == 2


def test_failing_fsync_fails_every_waiter_of_the_drain(tmp_path, monkeypatch):
    """``os.fsync`` itself failing (not a patched ``sync_log``): nobody in
    the drain is acknowledged, everybody gets the error."""
    import os

    from repro.server.engine import _Pending

    engine = fresh_engine(tmp_path, max_batch=2)
    entries = [_Pending(parse_transaction(f"insert Works(New{i})"), "reject")
               for i in range(3)]           # two batches, one drain

    def broken(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "fsync", broken)
    with engine._pending_lock:
        engine._pending.extend(entries)
    with pytest.raises(OSError):
        with engine._batch_lock:
            engine._drain()
    monkeypatch.undo()
    assert all(e.done.is_set() and e.outcome is None
               and isinstance(e.error, OSError) for e in entries)
    engine.close(checkpoint=False)


def test_torn_append_then_more_commits(tmp_path):
    """Recovery after a torn write leaves a fully usable database."""
    engine = fresh_engine(tmp_path)
    faults.arm(durable.FP_WAL_MID_APPEND, "torn", skip=1, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=10, seed=13)
    try:
        assert report.crashed
        more = faultkit.run_workload(recovered, steps=5, seed=14)
        assert not more.crashed and more.acked
    finally:
        recovered.close()


def test_injected_fsync_error_fails_commit_not_engine(tmp_path):
    """A 'raise' action is an infrastructure error, not a crash: the
    waiter sees it, the engine survives, and the change is not acked."""
    engine = fresh_engine(tmp_path)
    report = faultkit.run_workload(engine, steps=3, seed=15)
    faults.arm(durable.FP_WAL_PRE_FSYNC, "raise",
               exception=lambda: OSError(5, "Input/output error"))
    # Hiring someone always passes Ic1, so this reaches the WAL fsync.
    working = {row[0].value for row in engine.db.facts_of("Works")}
    idle = sorted(p for p in (f"P{i}" for i in range(20)) if p not in working)
    transaction = Transaction(parse_transaction(
        f"insert Works({idle[0]}), insert Works({idle[1]})"))
    with pytest.raises(OSError):
        engine.commit(transaction)
    faults.reset()
    after = faultkit.run_workload(engine, steps=3, seed=16)
    assert not after.crashed and after.acked
    engine.close()
    recovered = faultkit.recover(tmp_path / "db")
    try:
        # Everything acked before and after the fault survived; the
        # faulted transaction may or may not (its fsync never returned).
        surviving = faultkit.base_facts(recovered.db)
        combined = faultkit.CrashReport(
            initial=report.initial,
            acked=report.acked + after.acked,
            inflight=[transaction])
        assert surviving in combined.allowed_facts()
        faultkit.check_invariants(combined, recovered)
    finally:
        recovered.close()


def test_crash_unwinds_commit_many_and_fails_waiters(tmp_path):
    """SimulatedCrash reaches the commit_many caller; every pending entry
    is finished with the error rather than left blocked."""
    engine = fresh_engine(tmp_path, max_batch=2)
    transactions = [
        faultkit.random_transaction(engine.db, n_events=1, seed=s)
        for s in (21, 22, 23)
    ]
    faults.arm(engine_mod.FP_PRE_BATCH_MERGE, "crash", times=1)
    with pytest.raises(faults.SimulatedCrash):
        engine.commit_many(transactions, raise_errors=True)


@pytest.mark.parametrize("maintainer", ["counting", "advance"])
def test_recovery_reopens_with_the_maintainer_the_program_picks(
        tmp_path, maintainer):
    """Recovery re-opens with the maintainer the program picks, and the
    oracle check in :func:`faultkit.check_derived_oracle` compares its
    re-materialised extensions against the naive rebuild."""
    engine = fresh_engine(tmp_path, recursive=maintainer == "advance")
    faults.arm(engine_mod.FP_PRE_ACK, "crash", skip=1, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=20, seed=17)
    try:
        assert report.crashed
        assert recovered.stats()["engine"]["cache_mode"] == maintainer
    finally:
        recovered.close()


@pytest.mark.parametrize("eval_engine", ["compiled", "interpreted"])
def test_eval_engine_survives_recovery(tmp_path, eval_engine):
    """``eval_engine=`` -- which the benchmark harness still passes -- is
    accepted on open and on recovery and selects nothing: the recovered
    engine serves from the maintainer the program picks, and
    :func:`faultkit.check_invariants` holds its reads to the oracle."""
    engine = fresh_engine(tmp_path, eval_engine=eval_engine)
    faults.arm(engine_mod.FP_PRE_ACK, "crash", skip=1, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=20, seed=23,
        engine_kwargs={"eval_engine": eval_engine})
    try:
        assert report.crashed
        assert recovered.stats()["engine"]["cache_mode"] == "counting"
        assert "eval_engine" not in recovered.stats()["engine"]
    finally:
        recovered.close()


@pytest.mark.parametrize("point", COMMIT_POINTS)
def test_commit_crash_counting_mode(tmp_path, point):
    """The full commit-path crash matrix in counting mode.

    Counts live only in memory; every crash point must recover to a
    state whose re-bootstrapped counts equal the naive oracle, with the
    acked-prefix invariants intact.
    """
    engine = fresh_engine(tmp_path)
    faults.arm(point, "crash", skip=1, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=25, seed=3)
    try:
        assert report.crashed, f"{point} never fired in counting mode"
        assert recovered.maintainer.active
    finally:
        recovered.close()


@pytest.mark.parametrize("point", COMMIT_POINTS)
def test_commit_crash_recursive_program(tmp_path, point):
    """The commit-path crash matrix on a recursive program.

    Counting refuses the recursion, so the advancing maintainer serves
    it: every crash point must recover to a state whose derived
    predicates -- the recursive closure included -- equal the naive
    rebuild.
    """
    engine = fresh_engine(tmp_path, recursive=True)
    faults.arm(point, "crash", skip=1, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=25, seed=11)
    try:
        assert report.crashed, f"{point} never fired on the advance path"
        assert recovered.cache_mode == "advance"
    finally:
        recovered.close()


def test_counting_mode_batched_crash(tmp_path):
    """Group-commit batches under counting maintenance survive a crash."""
    engine = fresh_engine(tmp_path, max_batch=8)
    faults.arm(engine_mod.FP_MID_CACHE_ADVANCE, "crash", skip=1, times=1)
    report, recovered = faultkit.crash_and_recover(
        engine, tmp_path / "db", steps=25, seed=5, batch=4)
    try:
        assert report.crashed
    finally:
        recovered.close()
