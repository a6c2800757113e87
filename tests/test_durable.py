"""Tests for durable storage (snapshot + event log + recovery)."""

import pytest

from repro.datalog.errors import TransactionError
from repro.events.events import Transaction, delete, insert
from repro.core.durable import DurableDatabase


@pytest.fixture
def seed_db(employment_db):
    return employment_db


class TestOpenAndRecover:
    def test_fresh_directory_snapshots_initial(self, tmp_path, seed_db):
        store = DurableDatabase.open(tmp_path / "d", initial=seed_db)
        assert store.db.has_fact("La", "Dolors")
        assert (tmp_path / "d" / "snapshot.dl").exists()

    def test_recovery_replays_log(self, tmp_path, seed_db):
        directory = tmp_path / "d"
        store = DurableDatabase.open(directory, initial=seed_db)
        store.commit(Transaction([insert("Works", "Maria"),
                                  insert("La", "Maria")]))
        store.commit(Transaction([delete("U_benefit", "Dolors"),
                                  insert("Works", "Dolors")]))
        # Simulate a crash: reopen from disk only.
        recovered = DurableDatabase.open(directory)
        assert set(recovered.db.iter_facts()) == set(store.db.iter_facts())
        assert recovered.db.query("Unemp(x)") == []

    def test_rules_survive_via_snapshot(self, tmp_path, seed_db):
        directory = tmp_path / "d"
        DurableDatabase.open(directory, initial=seed_db)
        recovered = DurableDatabase.open(directory)
        assert len(recovered.db.rules) == len(seed_db.rules)
        assert len(recovered.db.constraints) == len(seed_db.constraints)

    def test_existing_directory_rejects_initial(self, tmp_path, seed_db):
        directory = tmp_path / "d"
        DurableDatabase.open(directory, initial=seed_db)
        with pytest.raises(TransactionError):
            DurableDatabase.open(directory, initial=seed_db)

    def test_fresh_without_initial_is_empty(self, tmp_path):
        store = DurableDatabase.open(tmp_path / "d")
        assert store.db.fact_count() == 0


class TestCommitAndCheckpoint:
    def test_commit_returns_effective(self, tmp_path, seed_db):
        store = DurableDatabase.open(tmp_path / "d", initial=seed_db)
        effective = store.commit(Transaction([
            insert("La", "Dolors"),      # no-op: already present
            insert("Works", "Maria"),
        ]))
        assert effective == Transaction([insert("Works", "Maria")])
        assert store.log_length() == 1

    def test_noop_transaction_not_logged(self, tmp_path, seed_db):
        store = DurableDatabase.open(tmp_path / "d", initial=seed_db)
        store.commit(Transaction([insert("La", "Dolors")]))
        assert store.log_length() == 0

    def test_checkpoint_truncates_log(self, tmp_path, seed_db):
        directory = tmp_path / "d"
        store = DurableDatabase.open(directory, initial=seed_db)
        for index in range(5):
            store.commit(Transaction([insert("Works", f"P{index}")]))
        assert store.log_length() == 5
        store.checkpoint()
        assert store.log_length() == 0
        recovered = DurableDatabase.open(directory)
        assert set(recovered.db.iter_facts()) == set(store.db.iter_facts())

    def test_many_cycles_round_trip(self, tmp_path, seed_db):
        from repro.workloads import random_transaction

        from repro.workloads import employment_database

        directory = tmp_path / "d"
        store = DurableDatabase.open(directory,
                                     initial=employment_database(25, seed=3))
        for seed in range(12):
            store.commit(random_transaction(store.db, n_events=2, seed=seed))
            if seed % 4 == 3:
                store.checkpoint()
        recovered = DurableDatabase.open(directory)
        assert set(recovered.db.iter_facts()) == set(store.db.iter_facts())

    def test_derived_event_rejected(self, tmp_path, seed_db):
        store = DurableDatabase.open(tmp_path / "d", initial=seed_db)
        with pytest.raises(TransactionError):
            store.commit(Transaction([insert("Unemp", "Zoe")]))

    def test_unsynced_commits_plus_sync_log(self, tmp_path, seed_db):
        directory = tmp_path / "d"
        store = DurableDatabase.open(directory, initial=seed_db)
        for index in range(3):
            store.commit(Transaction([insert("Works", f"P{index}")]),
                         sync=False)
        store.sync_log()  # the group-commit pattern: one fsync per batch
        recovered = DurableDatabase.open(directory)
        assert set(recovered.db.iter_facts()) == set(store.db.iter_facts())
        assert recovered.log_length() == 3


class TestTornLogRecovery:
    """Crash-recovery of a torn/partial final WAL line."""

    def _store_with_commits(self, directory, seed_db, n=3):
        store = DurableDatabase.open(directory, initial=seed_db)
        for index in range(n):
            store.commit(Transaction([insert("Works", f"P{index}")]))
        return store

    def test_torn_unparsable_tail_is_dropped(self, tmp_path, seed_db):
        directory = tmp_path / "d"
        self._store_with_commits(directory, seed_db)
        log = directory / "events.log"
        with log.open("a") as fh:
            fh.write("insert Works(P9")  # crash mid-append: no ')'/newline
        recovered = DurableDatabase.open(directory)
        assert recovered.log_length() == 3
        assert recovered.db.has_fact("Works", "P2")
        assert not recovered.db.has_fact("Works", "P9")
        # The log was truncated to the durable prefix and stays replayable.
        again = DurableDatabase.open(directory)
        assert set(again.db.iter_facts()) == set(recovered.db.iter_facts())

    def test_missing_final_newline_drops_last_line(self, tmp_path, seed_db):
        # Appends always end with '\n'; a file that does not lost the tail
        # of its final write even if the fragment parses.
        directory = tmp_path / "d"
        self._store_with_commits(directory, seed_db)
        log = directory / "events.log"
        with log.open("a") as fh:
            fh.write("insert Works")  # parses as a 0-ary atom, but torn
        recovered = DurableDatabase.open(directory)
        assert recovered.log_length() == 3
        assert not recovered.db.has_fact("Works")

    def test_complete_garbage_tail_with_newline_dropped(self, tmp_path,
                                                        seed_db):
        directory = tmp_path / "d"
        self._store_with_commits(directory, seed_db)
        log = directory / "events.log"
        with log.open("a") as fh:
            fh.write("@@ not a transaction @@\n")
        recovered = DurableDatabase.open(directory)
        assert recovered.log_length() == 3

    def test_mid_log_corruption_still_raises(self, tmp_path, seed_db):
        from repro.datalog.errors import ParseError

        directory = tmp_path / "d"
        self._store_with_commits(directory, seed_db)
        log = directory / "events.log"
        lines = log.read_text().splitlines()
        lines[1] = "@@ corrupted @@"  # not the last line: refuse to guess
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            DurableDatabase.open(directory)

    def test_torn_rewrite_is_atomic(self, tmp_path, seed_db):
        # The rewrite of the truncated log goes through a temp file +
        # atomic rename (never truncate-in-place), so a stale temp file
        # from a crash during a previous recovery is harmless and none is
        # left behind afterwards.
        directory = tmp_path / "d"
        self._store_with_commits(directory, seed_db)
        log = directory / "events.log"
        (directory / "events.tmp").write_text("insert Works(Stale)\n")
        with log.open("a") as fh:
            fh.write("insert Works(P9")  # torn tail
        recovered = DurableDatabase.open(directory)
        assert recovered.log_length() == 3
        assert not recovered.db.has_fact("Works", "Stale")
        assert not (directory / "events.tmp").exists()
        # The rewritten log is a well-formed replayable prefix.
        assert log.read_text().endswith("\n")
        again = DurableDatabase.open(directory)
        assert set(again.db.iter_facts()) == set(recovered.db.iter_facts())

    def test_torn_only_line_recovers_to_snapshot(self, tmp_path, seed_db):
        directory = tmp_path / "d"
        store = DurableDatabase.open(directory, initial=seed_db)
        log = directory / "events.log"
        with log.open("a") as fh:
            fh.write("insert Works(P0")
        recovered = DurableDatabase.open(directory)
        assert recovered.log_length() == 0
        assert set(recovered.db.iter_facts()) == set(store.db.iter_facts())


def recount(directory) -> int:
    """``log_length`` the way it was computed before it was counted: read
    the whole WAL back and parse every line.  Kept as the counter's oracle."""
    from repro.core.durable import parse_log_line
    from repro.datalog.errors import ParseError

    count = 0
    for line in (directory / "events.log").read_text().splitlines():
        text = line.strip()
        if not text:
            continue
        try:
            header, body = parse_log_line(text)
        except ParseError:
            continue  # a torn tail fragment; replay drops it too
        if body and (header is None or header[2] != "prepared"):
            count += 1
    return count


class TestCountedLogLength:
    """``log_length`` is a counter, and the counter is right."""

    def test_counter_equals_a_recount_through_every_record_kind(
            self, tmp_path, seed_db):
        from repro.core.durable import transaction_digest

        directory = tmp_path / "d"
        store = DurableDatabase.open(directory, initial=seed_db)

        def stamped(name, *events):
            transaction = Transaction(list(events))
            return transaction, (name, transaction_digest(transaction))

        def agrees(expected, store=store):
            assert store.log_length() == recount(directory) == expected

        store.commit(Transaction([insert("Works", "Maria")]))
        transaction, txn = stamped("t1", insert("La", "Maria"))
        store.commit(transaction, sync=False, txn=txn)
        agrees(2)
        transaction, txn = stamped("noop", insert("La", "Dolors"))
        store.commit(transaction, txn=txn)          # stamped, no net effect
        store.log_txn_outcome("rej", "0" * 16, applied=False)  # rejection
        vote_a, (_, digest_a) = stamped("a", insert("Works", "Anna"))
        vote_b, (_, digest_b) = stamped("b", insert("Works", "Berta"))
        store.log_prepare("a", digest_a, vote_a)
        store.log_prepare("b", digest_b, vote_b)
        store.log_txn_outcome("a", digest_a, applied=False, status="aborted")
        store.sync_log()
        agrees(2)
        # The checkpoint carries the in-doubt vote "b" into the fresh log.
        store.checkpoint()
        assert (directory / "events.log").read_text().count("prepared") == 1
        agrees(0)
        store.commit(vote_b, txn=("b", digest_b))   # the commit decision
        store.commit(Transaction([insert("Works", "Carla")]))
        agrees(2)
        # Crash with a torn tail: the re-opened store counts what it
        # replays, and the repaired file recounts to the same number.
        with (directory / "events.log").open("a") as fh:
            fh.write("#txn torn 0123 applied :: insert Works(Ze")
        recovered = DurableDatabase.open(directory)
        assert recovered.db.has_fact("Works", "Berta")
        agrees(2, recovered)
        recovered.commit(Transaction([insert("Works", "Dora")]))
        agrees(3, recovered)

    def test_health_and_stats_never_read_the_wal(self, tmp_path, seed_db,
                                                 monkeypatch):
        from pathlib import Path

        from repro.server.engine import DatabaseEngine

        engine = DatabaseEngine.open(tmp_path / "d", initial=seed_db)
        try:
            for name in ("Maria", "Anna", "Berta"):
                engine.commit(Transaction([insert("Works", name)]))

            def forbidden(*args, **kwargs):
                raise AssertionError("health/stats touched a file")

            monkeypatch.setattr(Path, "read_text", forbidden)
            monkeypatch.setattr(Path, "open", forbidden)
            assert engine.health()["wal"]["log_length"] == 3
            assert engine.stats()["engine"]["log_length"] == 3
        finally:
            monkeypatch.undo()
            engine.close(checkpoint=False)


@pytest.fixture
def syscalls(monkeypatch):
    """Counts of the calls a log append could make, by name."""
    import builtins
    import io
    import os
    from collections import Counter

    counts: Counter = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("open", "write", "fsync", "mkdir"):
        counted(os, name)
    counted(io, "open")
    counted(builtins, "open")
    return counts


class TestOneDescriptor:
    """The WAL and the decision log are opened once, not once per record."""

    def test_warm_commit_is_one_write_one_fsync_no_open(
            self, tmp_path, seed_db, syscalls):
        from repro.server.engine import DatabaseEngine

        engine = DatabaseEngine.open(tmp_path / "d", initial=seed_db)
        try:
            engine.commit(Transaction([insert("Works", "Warm")]))
            syscalls.clear()
            assert engine.commit(Transaction([insert("Works", "Maria")]))
            assert dict(syscalls) == {"write": 1, "fsync": 1}
        finally:
            engine.close(checkpoint=False)

    def test_batches_share_the_fsync_not_the_write(self, tmp_path, syscalls):
        from repro.server.engine import DatabaseEngine
        from repro.workloads import employment_database

        engine = DatabaseEngine.open(tmp_path / "d", max_batch=64,
                                     initial=employment_database(10, seed=3))
        try:
            engine.commit(Transaction([insert("Works", "Warm")]))
            syscalls.clear()
            outcomes = engine.commit_many(
                [Transaction([insert("Works", f"W{index}")])
                 for index in range(128)])
            assert all(outcome.applied for outcome in outcomes)
            assert dict(syscalls) == {"write": 128, "fsync": 2}
        finally:
            engine.close(checkpoint=False)

    def test_decision_record_is_one_write_one_fsync(self, tmp_path, syscalls):
        from repro.shard import DecisionLog

        decisions = DecisionLog(tmp_path / "group" / "decisions.log")
        assert decisions.record("t1", "commit") == "commit"
        syscalls.clear()
        assert decisions.record("t2", "abort") == "abort"
        assert decisions.record("t2", "commit") == "abort"  # first one wins
        assert dict(syscalls) == {"write": 1, "fsync": 1}
        decisions.close()
        reloaded = DecisionLog(tmp_path / "group" / "decisions.log")
        assert (reloaded.decision("t1"), reloaded.decision("t2")) == \
            ("commit", "abort")
        reloaded.close()

    def test_torn_decision_does_not_swallow_the_next_one(self, tmp_path):
        from repro.shard import DecisionLog

        path = tmp_path / "decisions.log"
        path.write_text("t1 commit\nt2 comm")   # crash mid-append
        decisions = DecisionLog(path)
        assert decisions.decision("t2") is None
        decisions.record("t3", "abort")
        decisions.close()
        assert path.read_text() == "t1 commit\nt3 abort\n"

    def test_append_after_checkpoint_follows_the_carried_votes(
            self, tmp_path, seed_db):
        from repro.core.durable import transaction_digest

        directory = tmp_path / "d"
        store = DurableDatabase.open(directory, initial=seed_db)
        vote = Transaction([insert("Works", "Anna")])
        store.log_prepare("v", transaction_digest(vote), vote)
        store.commit(Transaction([insert("Works", "Maria")]))
        store.checkpoint()
        carried = (directory / "events.log").read_text()
        assert carried.count("\n") == 1 and " prepared :: " in carried
        # Written through the descriptor of the *fresh* file: had the one
        # from before the rename been kept, this line would vanish.
        store.commit(Transaction([insert("Works", "Berta")]))
        assert (directory / "events.log").read_text() == \
            carried + "insert Works(Berta)\n"
        recovered = DurableDatabase.open(directory)
        assert recovered.db.has_fact("Works", "Berta")
        assert list(recovered.in_doubt) == ["v"]
        assert not (directory / "events.tmp").exists()
