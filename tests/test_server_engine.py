"""Tests for the concurrent serving engine (group commit, locking)."""

import threading

import pytest

from repro.core.durable import DurableDatabase
from repro.datalog.errors import TransactionError
from repro.events.events import Transaction, delete, insert, parse_transaction
from repro.server.engine import (
    CommitOutcome,
    DatabaseEngine,
    EngineClosedError,
    RWLock,
    checked_commit,
)
from repro.workloads import employment_database


@pytest.fixture
def engine(tmp_path, employment_db):
    engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
    yield engine
    engine.close(checkpoint=False)


@pytest.fixture
def big_engine(tmp_path):
    engine = DatabaseEngine.open(tmp_path / "d",
                                 initial=employment_database(40, seed=7))
    yield engine
    engine.close(checkpoint=False)


class TestCheckedCommit:
    def test_applies_and_invalidates(self, employment_db):
        from repro.core import UpdateProcessor

        processor = UpdateProcessor(employment_db)
        applied = []
        outcome = checked_commit(
            processor, Transaction([insert("Works", "Maria")]), applied.append)
        assert outcome.applied
        assert applied == [Transaction([insert("Works", "Maria")])]

    def test_rejects_violation_without_applying(self, employment_db):
        from repro.core import UpdateProcessor

        processor = UpdateProcessor(employment_db)
        applied = []
        outcome = checked_commit(
            processor, Transaction([delete("U_benefit", "Dolors")]),
            applied.append)
        assert not outcome.applied
        assert outcome.check is not None and not outcome.check.ok
        assert applied == []

    def test_maintain_extends_with_repairs(self, employment_db):
        from repro.core import UpdateProcessor

        processor = UpdateProcessor(employment_db)
        applied = []
        outcome = checked_commit(
            processor, Transaction([delete("U_benefit", "Dolors")]),
            applied.append, on_violation="maintain")
        assert outcome.applied
        assert outcome.repairs is not None and outcome.repairs.events

    def test_bad_policy_rejected(self, employment_db):
        from repro.core import UpdateProcessor

        with pytest.raises(ValueError):
            checked_commit(UpdateProcessor(employment_db), Transaction(),
                           lambda t: None, on_violation="explode")


class TestEngineBasics:
    def test_commit_applies_and_persists(self, engine, tmp_path):
        outcome = engine.commit(parse_transaction("insert Works(Maria)"))
        assert outcome.applied
        assert engine.query("Works(x)") == [("Maria",)]
        recovered = DurableDatabase.open(tmp_path / "d")
        assert recovered.db.has_fact("Works", "Maria")

    def test_rejected_commit_leaves_no_wal_entry(self, engine):
        outcome = engine.commit(
            parse_transaction("delete U_benefit(Dolors)"))
        assert not outcome.applied
        assert engine.store.log_length() == 0
        assert engine.db.has_fact("U_benefit", "Dolors")

    def test_maintain_policy_through_engine(self, engine):
        outcome = engine.commit(parse_transaction("delete U_benefit(Dolors)"),
                                on_violation="maintain")
        assert outcome.applied
        assert outcome.repairs is not None

    def test_derived_event_raises(self, engine):
        with pytest.raises(TransactionError):
            engine.commit(parse_transaction("insert Unemp(Zoe)"))

    def test_check_monitor_upward_downward(self, engine):
        verdict = engine.check(parse_transaction("delete U_benefit(Dolors)"))
        assert not verdict.ok
        changes = engine.monitor(parse_transaction("insert Works(Dolors)"),
                                 ["Unemp"])
        assert not changes.is_unaffected("Unemp")
        result = engine.upward(parse_transaction("insert Works(Dolors)"))
        assert result.deletions_of("Unemp")
        from repro.events.requests import parse_request

        translations = engine.downward([parse_request("del Unemp(Dolors)")])
        assert translations.is_satisfiable

    def test_close_checkpoints_and_refuses(self, tmp_path, employment_db):
        engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
        engine.commit(parse_transaction("insert Works(Maria)"))
        assert engine.store.log_length() == 1
        engine.close()
        assert engine.store.log_length() == 0  # checkpointed
        with pytest.raises(EngineClosedError):
            engine.query("Works(x)")
        with pytest.raises(EngineClosedError):
            engine.commit(parse_transaction("insert Works(Zoe)"))
        engine.close()  # idempotent

    def test_stats_shape(self, engine):
        engine.commit(parse_transaction("insert Works(Maria)"))
        engine.query("Works(x)")
        stats = engine.stats()
        assert stats["engine"]["log_length"] == 1
        assert stats["requests"]["commit"]["count"] == 1
        assert stats["requests"]["query"]["count"] == 1
        assert stats["counters"]["commit.batches"] == 1


class TestGroupCommit:
    def test_batchable_commits_share_one_batch(self, big_engine):
        transactions = [parse_transaction(f"insert Works(N{i})")
                        for i in range(10)]
        outcomes = big_engine.commit_many(transactions)
        assert all(o.applied for o in outcomes)
        assert big_engine.metrics.counter("commit.batches") == 1
        assert big_engine.metrics.counter("commit.wal_syncs") == 1
        assert big_engine.store.log_length() == 10

    def test_max_batch_splits(self, tmp_path):
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=employment_database(10, seed=1),
            max_batch=4)
        try:
            engine.commit_many([parse_transaction(f"insert Works(N{i})")
                                for i in range(10)])
            assert engine.metrics.counter("commit.batches") == 3  # 4+4+2
        finally:
            engine.close(checkpoint=False)

    def test_conflicting_commits_defer_and_serialize(self, big_engine):
        # Same fact in both transactions: members run in queue order, so
        # the result must equal the serial order insert-then-delete --
        # and sharing the fact costs them no second batch.
        outcomes = big_engine.commit_many([
            parse_transaction("insert Works(Zed)"),
            parse_transaction("delete Works(Zed)"),
        ])
        assert all(o.applied for o in outcomes)
        assert [str(o.effective) for o in outcomes] == [
            str(parse_transaction("insert Works(Zed)")),
            str(parse_transaction("delete Works(Zed)"))]
        assert big_engine.metrics.counter("commit.wal_syncs") == 1
        assert not big_engine.db.has_fact("Works", "Zed")
        assert big_engine.store.log_length() == 2

    def test_duplicate_insert_becomes_noop(self, big_engine):
        outcomes = big_engine.commit_many([
            parse_transaction("insert Works(Zed)"),
            parse_transaction("insert Works(Zed)"),
        ])
        assert all(o.applied for o in outcomes)
        # The second normalises to a no-op against the post-batch state and
        # is not logged.
        assert not outcomes[1].effective.events
        assert big_engine.store.log_length() == 1

    def test_violating_member_rejected_others_commit(self, big_engine):
        victim = big_engine.query("Unemp(x)")[0][0]
        outcomes = big_engine.commit_many([
            parse_transaction("insert Works(N1)"),
            parse_transaction(f"delete U_benefit({victim})"),  # violates Ic1
            parse_transaction("insert Works(N3)"),
        ], raise_errors=False)
        applied = [o.applied for o in outcomes]
        assert applied == [True, False, True]
        assert big_engine.store.log_length() == 2

    def test_batch_cannot_mask_individually_violating_members(self, tmp_path):
        # Coupled constraints: P(x) requires Q(x) and vice versa.  Each
        # transaction alone violates, their union does not -- every serial
        # order rejects both, so the batch must too (a merged-only check
        # would wrongly commit both).
        from repro.datalog import DeductiveDatabase, parse_rule

        db = DeductiveDatabase()
        db.declare_base("P", 1)
        db.declare_base("Q", 1)
        db.add_constraint(parse_rule("Ic1(x) <- P(x) & not Q(x)."))
        db.add_constraint(parse_rule("Ic2(x) <- Q(x) & not P(x)."))
        engine = DatabaseEngine.open(tmp_path / "coupled", initial=db)
        try:
            outcomes = engine.commit_many(
                [parse_transaction("insert P(A)"),
                 parse_transaction("insert Q(A)")],
                raise_errors=False)
            assert [o.applied for o in outcomes] == [False, False]
            assert engine.store.log_length() == 0
            assert not engine.db.has_fact("P", "A")
            assert not engine.db.has_fact("Q", "A")
        finally:
            engine.close(checkpoint=False)

    #: Batches whose members interact through the constraints: source,
    #: transactions in queue order, which of them a serial history applies.
    INTERLOCKING = {
        # "Exactly two of P, Q, R" is forbidden: each insert passes alone
        # and all three pass together, but every serial order stops at
        # one (a merged-batch check would wrongly commit all three).
        "exactly-two-forbidden": ("""
            Ic1(x) <- P(x) & Q(x) & not R(x).
            Ic2(x) <- P(x) & R(x) & not Q(x).
            Ic3(x) <- Q(x) & R(x) & not P(x).
            """, ["insert P(A)", "insert Q(A)", "insert R(A)"],
            [True, False, False]),
        # P(x) requires Q(x) and vice versa: each alone violates.
        "each-alone-violates": ("""
            Ic1(x) <- P(x) & not Q(x).
            Ic2(x) <- Q(x) & not P(x).
            """, ["insert P(A)", "insert Q(A)"], [False, False]),
        # The second violates alone, but is queued behind its repair.
        "in-order-dependency": ("""
            Ic1(x) <- P(x) & not Q(x).
            """, ["insert Q(A)", "insert P(A)", "insert P(B)"],
            [True, True, False]),
    }

    @pytest.mark.parametrize("maintainer", ["counting", "advance"])
    @pytest.mark.parametrize("case", sorted(INTERLOCKING))
    def test_batch_decides_what_serial_commits_decide(self, tmp_path, case,
                                                      maintainer):
        """One batch at ``max_batch=8`` == the same commits one at a time
        (``advance``: with a recursive view added, which counting
        refuses)."""
        from repro.datalog import DeductiveDatabase, parse_rule
        from tests import faultkit

        constraints, requests, applied = self.INTERLOCKING[case]
        runs = []
        for max_batch in (8, 1):
            db = DeductiveDatabase()
            for predicate in "PQR":
                db.declare_base(predicate, 1)
            for line in constraints.strip().splitlines():
                db.add_constraint(parse_rule(line.strip()))
            if maintainer == "advance":
                db.declare_base("E", 2)
                db.add_rule(parse_rule("T(x, y) <- E(x, y)."))
                db.add_rule(parse_rule("T(x, y) <- E(x, z) & T(z, y)."))
            engine = DatabaseEngine.open(
                tmp_path / f"{case}-{max_batch}", initial=db,
                max_batch=max_batch)
            try:
                assert engine.cache_mode == maintainer
                outcomes = engine.commit_many(
                    [parse_transaction(text) for text in requests],
                    raise_errors=False)
                assert engine.metrics.counter("commit.batches") == (
                    1 if max_batch == 8 else len(requests))
                runs.append(([o.to_dict() for o in outcomes],
                             faultkit.base_facts(engine.db)))
            finally:
                engine.close(checkpoint=False)
        batched, serial = runs
        assert batched == serial
        assert [o["applied"] for o in batched[0]] == applied

    def test_group_commit_outcomes_carry_individual_verdicts(self, big_engine):
        outcomes = big_engine.commit_many([
            parse_transaction("insert Works(V1)"),
            parse_transaction("insert Works(V2)"),
        ])
        assert big_engine.metrics.counter("commit.group_committed") == 2
        assert all(o.check is not None and o.check.ok for o in outcomes)

    def test_mixed_batch_bad_member_fails_alone(self, big_engine):
        entries = [
            parse_transaction("insert Works(N1)"),
            parse_transaction("insert Unemp(Zoe)"),  # derived: invalid
        ]
        with pytest.raises(TransactionError):
            big_engine.commit_many(entries)
        assert big_engine.db.has_fact("Works", "N1")


class TestDurableAcknowledgement:
    """Commits must be acknowledged only after the batch fsync."""

    def _spy_sync(self, engine, entries, observed):
        real_sync = engine.store.sync_log

        def spy():
            observed.extend(entry.done.is_set() for entry in entries)
            real_sync()

        return spy

    def test_fast_path_acks_after_fsync(self, big_engine, monkeypatch):
        from repro.server.engine import _Pending

        entries = [_Pending(parse_transaction("insert Works(A1)"), "reject"),
                   _Pending(parse_transaction("insert Works(A2)"), "reject")]
        observed: list[bool] = []
        monkeypatch.setattr(big_engine.store, "sync_log",
                            self._spy_sync(big_engine, entries, observed))
        big_engine._commit_batch(entries)
        # No waiter was woken before sync_log ran...
        assert observed == [False, False]
        # ... and every waiter was woken (successfully) afterwards.
        assert all(e.done.is_set() and e.outcome and e.outcome.applied
                   for e in entries)

    def test_slow_path_acks_after_fsync(self, big_engine, monkeypatch):
        from repro.server.engine import _Pending

        # 'maintain' forces the per-entry slow path.
        entries = [_Pending(parse_transaction("insert Works(B1)"), "maintain")]
        observed: list[bool] = []
        monkeypatch.setattr(big_engine.store, "sync_log",
                            self._spy_sync(big_engine, entries, observed))
        big_engine._commit_batch(entries)
        assert observed == [False]
        assert entries[0].outcome is not None and entries[0].outcome.applied

    def test_fsync_failure_fails_the_batch(self, big_engine, monkeypatch):
        def broken_sync():
            raise OSError("disk gone")

        monkeypatch.setattr(big_engine.store, "sync_log", broken_sync)
        with pytest.raises(OSError):
            big_engine.commit_many([parse_transaction("insert Works(C1)"),
                                    parse_transaction("insert Works(C2)")])

    def test_fsync_failure_fails_every_waiter(self, big_engine, monkeypatch):
        from repro.server.engine import _Pending

        def broken_sync():
            raise OSError("disk gone")

        monkeypatch.setattr(big_engine.store, "sync_log", broken_sync)
        entries = [_Pending(parse_transaction("insert Works(D1)"), "reject"),
                   _Pending(parse_transaction("insert Works(D2)"), "reject")]
        with big_engine._pending_lock:
            big_engine._pending.extend(entries)
        with pytest.raises(OSError):
            with big_engine._batch_lock:
                big_engine._drain()
        # Nobody is left blocked and nobody saw a success.
        assert all(e.done.is_set() for e in entries)
        assert all(isinstance(e.error, OSError) for e in entries)
        assert all(e.outcome is None for e in entries)


class TestConcurrency:
    N_THREADS = 8
    PER_THREAD = 10

    def test_serializable_commits_from_many_threads(self, tmp_path):
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=employment_database(20, seed=3),
            max_batch=16)
        errors: list[BaseException] = []

        def writer(thread_index: int) -> None:
            try:
                for j in range(self.PER_THREAD):
                    outcome = engine.commit(Transaction(
                        [insert("Works", f"T{thread_index}_{j}")]))
                    assert outcome.applied
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        total = self.N_THREADS * self.PER_THREAD
        # No lost updates: every fact present...
        for i in range(self.N_THREADS):
            for j in range(self.PER_THREAD):
                assert engine.db.has_fact("Works", f"T{i}_{j}")
        # ... and the WAL holds exactly one line per effective transaction,
        # while group commit needed at most as many fsyncs as batches.
        assert engine.store.log_length() == total
        batches = engine.metrics.counter("commit.batches")
        assert 1 <= batches <= total
        assert engine.metrics.counter("commit.wal_syncs") == batches
        # Crash-recovery equivalence.
        engine.close(checkpoint=False)
        recovered = DurableDatabase.open(tmp_path / "d")
        assert recovered.db.fact_count() == engine.db.fact_count()

    def test_readers_run_during_writes(self, tmp_path):
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=employment_database(20, seed=4))
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    engine.query("Works(x)")
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            for i in range(20):
                engine.commit(Transaction([insert("Works", f"W{i}")]))
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        assert not errors
        assert engine.store.log_length() == 20
        engine.close(checkpoint=False)

    def test_rwlock_excludes_writer_from_readers(self):
        lock = RWLock()
        state = {"writer_active": False}
        seen_overlap = []
        barrier = threading.Barrier(3)

        def reader() -> None:
            barrier.wait()
            for _ in range(200):
                with lock.read():
                    writes = lock.writes
                    if state["writer_active"]:
                        seen_overlap.append(True)
                    if lock.writes != writes:  # the memo's generation rule
                        seen_overlap.append("writes moved")

        def writer() -> None:
            barrier.wait()
            for _ in range(100):
                with lock.write():
                    state["writer_active"] = True
                    state["writer_active"] = False

        threads = [threading.Thread(target=reader),
                   threading.Thread(target=reader),
                   threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not seen_overlap
        assert lock.writes == 100


class TestOutcome:
    def test_truthiness(self):
        assert CommitOutcome(True, Transaction())
        assert not CommitOutcome(False, Transaction())
