"""Cache lifecycle tests: delta-driven maintenance of warm derived state.

The engine serves a recursive program with the ``advance`` maintainer: it
reuses the commit-time upward interpretation (the paper's
view-maintenance reading of the event rules, Section 5.1.3) to patch the
memoised derived extensions in place instead of invalidating them; every
other program is served by ``counting``.  These tests pin down the
lifecycle: when the cache advances, when it falls back to invalidation,
and that readers can never observe a partially advanced cache.  The
advance tests run on recursive programs (``faultkit.with_recursion``),
the only input that maintainer serves.
"""

import logging
import sys
import threading
import time

import pytest

from repro.core.processor import UpdateProcessor
from repro.datalog import DeductiveDatabase
from repro.events.events import Transaction, insert, parse_transaction
from repro.interpretations import (
    DownwardInterpreter,
    UpwardInterpreter,
    want_insert,
)
from repro.server.engine import DatabaseEngine
from repro.workloads import employment_database

from tests import faultkit


@pytest.fixture
def engine(tmp_path, employment_db):
    engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
    yield engine
    engine.close(checkpoint=False)


@pytest.fixture
def recursive_engine(tmp_path, employment_db):
    engine = DatabaseEngine.open(
        tmp_path / "d", initial=faultkit.with_recursion(employment_db))
    assert engine.cache_mode == "advance"
    yield engine
    engine.close(checkpoint=False)


#: The maintainers the engine picks from: counting, and advance for the
#: recursive programs counting refuses.
MAINTAINERS = ["counting", "advance"]


def open_engine(tmp_path, db, maintainer: str) -> DatabaseEngine:
    """An engine over *db* served by *maintainer*: for ``advance``, *db*
    gets :func:`faultkit.with_recursion`'s view first."""
    if maintainer == "advance":
        faultkit.with_recursion(db)
    engine = DatabaseEngine.open(tmp_path / "d", initial=db)
    assert engine.cache_mode == maintainer
    return engine


def fresh_extension(db, predicate: str):
    """Oracle: the predicate's extension via a from-scratch interpreter."""
    return UpwardInterpreter(db).old_extension(predicate)


class TestCacheModes:
    """The advance maintainer's cache lifecycle, on recursive programs."""

    def test_advance_mode_keeps_cache_warm(self, tmp_path):
        engine = open_engine(tmp_path, employment_database(30, seed=3),
                             "advance")
        try:
            engine.check(parse_transaction("insert Works(Probe)"))  # warm up
            for i in range(5):
                engine.commit(parse_transaction(
                    f"insert La(N{i}); insert U_benefit(N{i})"))
                engine.check(parse_transaction(f"insert Works(N{i})"))
            stats = engine.stats()
            assert stats["engine"]["cache_mode"] == "advance"
            # Commits patched the warm cache: no invalidations, epoch
            # untouched, exactly the initial materialisation.
            assert stats["engine"]["cache_epoch"] == 0
            counters = stats["counters"]
            assert counters["cache.advance"] == 5
            assert counters["cache.rematerialize"] == 1
            assert "cache.invalidate" not in counters
            # ... and the warm state it kept serving is the true one.
            assert engine._processor._upward.old_extension("Unemp") == \
                fresh_extension(engine.db, "Unemp")
        finally:
            engine.close(checkpoint=False)

    def test_advance_without_constraints(self, tmp_path):
        """With no constraints the commit check never runs, but the
        commit still interprets once -- warming a cold cache -- and
        advances with that pass."""
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). R(B). E(A, B).
            P(x) <- Q(x) & not R(x).
            P(x) <- E(x, y) & P(y).
        """)
        engine = DatabaseEngine.open(tmp_path / "d", initial=db)
        try:
            assert engine.cache_mode == "advance"
            engine.commit(parse_transaction("insert Q(C)"))
            engine.commit(parse_transaction("insert E(D, C)"))
            counters = engine.stats()["counters"]
            assert counters.get("cache.advance") == 2
            assert counters.get("cache.rematerialize") == 1
            assert engine._processor._upward.old_extension("P") == \
                fresh_extension(engine.db, "P")
        finally:
            engine.close(checkpoint=False)

    def test_checkpoint_invalidates(self, recursive_engine):
        engine = recursive_engine
        engine.check(parse_transaction("insert Works(Maria)"))
        engine.commit(parse_transaction("insert La(Pere)"))
        engine.checkpoint()
        counters = engine.stats()["counters"]
        assert counters.get("cache.invalidate", 0) >= 1
        assert engine.stats()["engine"]["cache_epoch"] >= 1

    def test_slow_path_invalidates(self, recursive_engine):
        """There is no slow path: a non-reject policy runs the same commit
        step, so its commit advances the warm cache like any other."""
        engine = recursive_engine
        engine.check(parse_transaction("insert Works(Maria)"))
        outcome = engine.commit(parse_transaction("insert La(Pere)"),
                                on_violation="maintain")
        assert outcome.applied and outcome.repairs
        counters = engine.stats()["counters"]
        assert counters.get("cache.invalidate", 0) == 0
        assert counters["cache.advance"] == 1
        assert engine._processor._upward.old_extension("Unemp") == \
            fresh_extension(engine.db, "Unemp")


@pytest.fixture
def evaluators_built(monkeypatch):
    """Every ``BottomUpEvaluator`` constructed while the test runs."""
    from repro.datalog.evaluation import BottomUpEvaluator

    built: list[BottomUpEvaluator] = []
    construct = BottomUpEvaluator.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(BottomUpEvaluator, "__init__", counted)
    return built


class TestReadsServedFromMaintainedState:
    """``query`` reads the maintainer's standing extents: a warm read
    evaluates nothing, a cold state is materialised once per epoch."""

    GOALS = ["Unemp(x)", "Unemp(P3)", "Unemp(Nobody)", "Works(P3)",
             "La(x)", "Ic1(x)"] * 5

    @staticmethod
    def _commit(engine, i: int) -> None:
        assert engine.commit(parse_transaction(
            f"insert La(N{i}); insert U_benefit(N{i})")).applied

    @pytest.mark.parametrize("maintainer", MAINTAINERS)
    def test_warm_queries_construct_no_evaluator(self, tmp_path, maintainer,
                                                 evaluators_built):
        engine = open_engine(tmp_path, employment_database(30, seed=3),
                             maintainer)
        try:
            engine.query("Unemp(x)")  # advance materialises here, once
            for i in range(3):  # fast-path commits keep the state warm
                self._commit(engine, i)
                evaluators_built.clear()
                answers = [engine.query(goal) for goal in self.GOALS]
                assert not evaluators_built, (
                    f"{len(evaluators_built)} evaluator(s) built by "
                    f"{len(self.GOALS)} warm reads")
                assert answers == [engine.db.query(g) for g in self.GOALS]
            assert engine.metrics.counter("query.warmups") == \
                (1 if maintainer == "advance" else 0)
        finally:
            engine.close(checkpoint=False)

    @pytest.mark.parametrize("maintainer", MAINTAINERS)
    def test_resets_are_rewarmed_once(self, tmp_path, maintainer):
        """A checkpoint resets the maintainer; the next read warms it and
        the reads after that are warm again.  A ``maintain`` commit is no
        reset: it advances like any other commit."""
        engine = open_engine(tmp_path, employment_database(30, seed=3),
                             maintainer)
        try:
            engine.query("Unemp(x)")
            base = engine.metrics.counter("query.warmups")
            engine.checkpoint()
            for goal in self.GOALS:
                assert engine.query(goal) == engine.db.query(goal)
            assert engine.metrics.counter("query.warmups") == base + 1
            assert engine.commit(parse_transaction("insert La(Zoe)"),
                                 on_violation="maintain").repairs
            for goal in self.GOALS:
                assert engine.query(goal) == engine.db.query(goal)
            base += 1
            assert engine.metrics.counter("query.warmups") == base
            engine.checkpoint()
            for goal in self.GOALS:
                assert engine.query(goal) == engine.db.query(goal)
            assert engine.metrics.counter("query.warmups") == base + 1
        finally:
            engine.close(checkpoint=False)


class TestAdvanceMatchesRematerialize:
    """Advanced and from-scratch extensions agree on recursive example
    programs."""

    CASES = {
        "stratified-negation": (
            """
            La(Dolors). La(Joan). Works(Joan). U_benefit(Dolors).
            Refers(Joan, Dolors).
            Unemp(x) <- La(x) & not Works(x).
            Linked(x, y) <- Refers(x, y).
            Linked(x, y) <- Refers(x, z) & Linked(z, y).
            Ic1 <- Unemp(x) & not U_benefit(x).
            """,
            "insert Works(Dolors)",
            ("insert La(Mar); insert U_benefit(Mar); "
             "insert Refers(Dolors, Mar)",
             "insert Works(Joan2)",
             "insert La(Nil); insert U_benefit(Nil); insert Works(Nil); "
             "delete Refers(Joan, Dolors)"),
        ),
        "two-level-views": (
            """
            Q(A). Q(B). R(B). S(A). E(A, B).
            P(x) <- Q(x) & not R(x).
            P(x) <- E(x, y) & P(y).
            T(x) <- P(x) & S(x).
            """,
            "insert Q(Z)",
            ("insert Q(C); insert S(C)",
             "insert R(A)",
             "insert Q(D); insert E(D, C)"),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_extensions_match(self, tmp_path, name):
        source, warmup, commits = self.CASES[name]
        db = DeductiveDatabase.from_source(source)
        derived = sorted(db.schema.derived)
        engine = DatabaseEngine.open(tmp_path / "d", initial=db)
        try:
            assert engine.cache_mode == "advance"
            engine.upward(parse_transaction(warmup))  # warm the cache
            for commit in commits:
                engine.commit(parse_transaction(commit))
            counters = engine.stats()["counters"]
            assert counters.get("cache.advance", 0) >= 1
            warm = engine._processor._upward
            for predicate in derived:
                assert warm.old_extension(predicate) == \
                    fresh_extension(engine.db, predicate), predicate
        finally:
            engine.close(checkpoint=False)


class TestUncheckedCommits:
    def test_unchecked_commit_counts_and_warns(self, engine, caplog):
        # Drive the state inconsistent past the checker ("ignore" takes
        # the slow path and skips the check entirely).
        engine.commit(parse_transaction("insert La(Pere)"),
                      on_violation="ignore")
        assert engine.metrics.counter("commit.unchecked") == 0
        # Now a reject-policy commit finds Ic already true: StateError
        # inside the fast path -> committed unchecked, loudly.
        with caplog.at_level(logging.WARNING, logger="repro.server.engine"):
            outcome = engine.commit(parse_transaction("insert La(Jordi)"))
        assert outcome.applied and outcome.check is None
        assert engine.metrics.counter("commit.unchecked") == 1
        warning = "\n".join(r.getMessage() for r in caplog.records
                            if r.levelno == logging.WARNING)
        assert "UNCHECKED" in warning
        assert "Ic1" in warning

    def test_consistent_commits_are_not_counted(self, engine):
        engine.commit(parse_transaction("insert Works(Maria)"))
        assert engine.metrics.counter("commit.unchecked") == 0


class TestConcurrentReaders:
    def test_readers_never_observe_partial_advance(self, tmp_path):
        """Checks racing group commits always see a consistent snapshot.

        Readers repeatedly check a probe transaction whose verdict depends
        on derived state; writers commit facts that flip that state.  A
        reader that catches the cache mid-advance would see a verdict that
        matches *neither* the pre- nor the post-commit database.
        """
        engine = open_engine(tmp_path, employment_database(20, seed=11),
                             "advance")
        failures: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                try:
                    verdict = engine.check(
                        Transaction([insert("La", "Probe")]))
                except Exception as error:  # noqa: BLE001 - fail the test
                    failures.append(f"check raised: {error!r}")
                    return
                # "insert La(Probe)" makes Probe unemployed without
                # benefit: always a violation, whatever the writers do.
                if verdict.ok:
                    failures.append("check lost the Ic1 violation")
                    return

        def writer(offset: int) -> None:
            for i in range(10):
                name = f"W{offset}_{i}"
                engine.commit(Transaction([
                    insert("La", name), insert("U_benefit", name)]))

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=writer, args=(o,))
                   for o in range(3)]
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join()
            stop.set()
            for thread in readers:
                thread.join()
            assert not failures, failures
            # After the dust settles the warm cache equals a fresh one.
            warm = engine._processor._upward
            assert warm is not None and warm.has_cached_state
            assert warm.old_extension("Unemp") == \
                fresh_extension(engine.db, "Unemp")
        finally:
            engine.close(checkpoint=False)

    def test_reads_and_whatifs_racing_resets_see_only_committed_states(
            self, tmp_path, monkeypatch):
        """Everything served from maintained state, beside a writer that
        keeps moving and resetting it.

        Query readers hammer ``Unemp(q)`` for the hires in flight:
        ``insert La(q), insert Works(q)`` is atomic, so ``Unemp(q)``
        holds in no committed state and a reader that saw it caught a
        half-applied hire (or a half-built extent).  No writer ever
        changes who is unemployed, so the unbound answer is the same in
        every committed state too.  What-if threads run ``check`` /
        ``upward`` / ``monitor`` on the same hires under the read lock
        alone and a ``downward`` thread runs beside them under the
        interpreter mutex: each reply must be the from-scratch oracle's
        against the state before the hire or the state after it --
        ``upward(insert Works(q))`` seen on a half-applied hire would
        report ``δUnemp(q)``, ``downward(ins Unemp(q))`` "already
        satisfied", which no committed state gives.  The writer mixes
        plain hires, batches with a rejected member, ``maintain``-policy
        commits (the same commit step: none of these resets) and
        ``checkpoint()`` (which does reset the maintainer), and each
        reset must be re-warmed exactly once, whoever gets there first,
        not once per reader.
        """
        initial = employment_database(20, seed=11)
        engine = DatabaseEngine.open(tmp_path / "d", initial=initial)
        # Stretch the warm-up (sleeping drops the GIL) so that readers
        # which are not serialised around it would all pile in.
        bootstrap = engine.maintainer.bootstrap
        monkeypatch.setattr(engine.maintainer, "bootstrap",
                            lambda: (time.sleep(0.005), bootstrap()))
        unemployed = engine.db.query("Unemp(x)")
        hires = [f"H{i}" for i in range(30)]

        def hire_of(person: str) -> Transaction:
            return parse_transaction(
                f"insert La({person}), insert Works({person})")

        def probes(person: str) -> list[tuple]:
            return [("check", parse_transaction(f"delete Works({person})")),
                    ("upward", parse_transaction(f"insert Works({person})")),
                    ("monitor", parse_transaction(f"insert Works({person})"),
                     ["Unemp"])]

        # The rules are per person, so what a probe about q answers
        # depends on the committed state only through "q hired yet?".
        allowed: dict[str, list] = {}
        for person in hires:
            states = [initial, hire_of(person).apply_to(initial)]
            oracles = [UpdateProcessor(state) for state in states]
            allowed[person] = [
                [getattr(oracle, op)(*arguments).to_dict()
                 for op, *arguments in probes(person)]
                + [DownwardInterpreter(state).interpret(
                    want_insert("Unemp", person)).to_dict()]
                for state, oracle in zip(states, oracles)]
        failures: list[str] = []
        stop = threading.Event()
        resets = 0
        turns = [0] * 5  # per thread: completed loop iterations

        def next_hire(slot: int) -> str:
            hire = hires[(turns[slot] + slot) % len(hires)]
            turns[slot] += 1
            return hire

        def guarded(body):
            def run(slot: int) -> None:
                while not stop.is_set() and not failures:
                    try:
                        body(next_hire(slot))
                    except Exception as error:  # noqa: BLE001 - fail the test
                        failures.append(f"{body.__name__} raised: {error!r}")
            return run

        def reader(hire: str) -> None:
            if engine.query(f"Unemp({hire})"):
                failures.append(f"saw La({hire}) without Works({hire})")
            everyone = engine.query("Unemp(x)")
            if everyone != unemployed:
                failures.append(
                    f"Unemp(x) matched no committed state: {everyone}")

        def whatif(hire: str) -> None:
            for index, (op, *arguments) in enumerate(probes(hire)):
                reply = getattr(engine, op)(*arguments).to_dict()
                if reply not in [state[index] for state in allowed[hire]]:
                    failures.append(
                        f"{op} about {hire} matched no committed state: "
                        f"{reply}")

        def downward(hire: str) -> None:
            reply = engine.downward([want_insert("Unemp", hire)]).to_dict()
            if reply not in [state[-1] for state in allowed[hire]]:
                failures.append(f"downward ins Unemp({hire}) matched no "
                                f"committed state: {reply}")

        def let_every_thread_in() -> None:
            """Hold the writer back until each thread has come round, so
            all of them meet the state the reset left cold."""
            seen = list(turns)
            deadline = time.monotonic() + 5
            while (not failures and time.monotonic() < deadline
                   and any(now <= then + 1
                           for now, then in zip(turns, seen))):
                time.sleep(0.0005)

        def writer() -> None:
            nonlocal resets
            for i, hire in enumerate(hires):
                if i % 4 == 0:
                    # The batch mate is rejected by its own verdict; the
                    # hire still group-commits and nothing is reset.
                    outcomes = engine.commit_many(
                        [hire_of(hire), parse_transaction(f"insert La(V{i})")])
                    assert [o.applied for o in outcomes] == [True, False]
                elif i % 4 == 1:
                    assert engine.commit(hire_of(hire)).applied
                    engine.checkpoint()
                    resets += 1
                    let_every_thread_in()
                elif i % 4 == 2:
                    # Any other policy is the same commit step and
                    # advances too; the checkpoint is the reset.
                    assert engine.commit(hire_of(hire),
                                         on_violation="maintain").applied
                    engine.checkpoint()
                    resets += 1
                    let_every_thread_in()
                else:
                    assert engine.commit(hire_of(hire)).applied

        threads = [threading.Thread(target=guarded(body), args=(slot,))
                   for slot, body in enumerate(
                       (reader, reader, whatif, whatif, downward))]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave inside the reads
        try:
            for thread in threads:
                thread.start()
            writer()
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "a reader never finished"
            assert not failures, failures
            assert all(turns), "some thread never ran"
            faultkit.check_reads_match_oracle(engine)  # warms the last reset
            counters = engine.stats()["counters"]
            # One bootstrap at open, then one per reset -- by the first
            # reader or what-if to find it cold or by the next commit,
            # never more than one of them.
            assert counters["ivm.bootstrap"] == 1 + resets
            assert (counters.get("query.warmups", 0)
                    + counters.get("whatif.warmups", 0)) <= resets
            assert counters["commit.rejected_fast"] == len(hires[::4])
        finally:
            sys.setswitchinterval(switch_interval)
            stop.set()
            engine.close(checkpoint=False)


class TestMemoisedScans:
    """A constant-free read is answered once per state: the memo lives
    until the next writer enters, whatever that writer does."""

    #: ``Unemp(y)`` is the renamed-variable twin of ``Unemp(x)``.
    GOALS = ("Unemp(x)", "Works(x)", "Ic1(x)", "Unemp(y)")

    @classmethod
    def _read_twice(cls, engine) -> None:
        """Every goal twice, each the oracle's; only the twin and the
        second round hit, so the state's first scans all missed."""
        oracle = engine.db.copy()
        hits = engine.metrics.counter("query.memo_hits")
        for _ in range(2):
            for goal in cls.GOALS:
                assert engine.query(goal) == oracle.query(goal), goal
        assert engine.metrics.counter("query.memo_hits") == \
            hits + len(cls.GOALS) + 1

    @staticmethod
    def _applied(engine, tmp_path):
        assert engine.commit(parse_transaction(
            "insert La(N1), insert U_benefit(N1)")).applied
        return engine

    @staticmethod
    def _rejected(engine, tmp_path):
        assert not engine.commit(parse_transaction("insert La(N2)")).applied
        return engine

    @staticmethod
    def _maintained(engine, tmp_path):
        assert engine.commit(parse_transaction("insert La(N3)"),
                             on_violation="maintain").repairs
        return engine

    @staticmethod
    def _ignored(engine, tmp_path):
        # Leaves Ic1(N4) true: the memoised empty Ic1(x) must not survive.
        assert engine.commit(parse_transaction("insert La(N4)"),
                             on_violation="ignore").applied
        return engine

    @classmethod
    def _prepared_then(cls, engine, decision: str):
        transaction = parse_transaction("insert La(N5), insert U_benefit(N5)")
        assert engine.prepare(transaction, "t5") == \
            {"vote": "commit", "prepared": True}
        cls._read_twice(engine)
        assert engine.decide("t5", decision)["resolved"]
        return engine

    @classmethod
    def _prepare_commit(cls, engine, tmp_path):
        return cls._prepared_then(engine, "commit")

    @classmethod
    def _prepare_abort(cls, engine, tmp_path):
        return cls._prepared_then(engine, "abort")

    @staticmethod
    def _checkpoint(engine, tmp_path):
        engine.checkpoint()
        return engine

    @staticmethod
    def _reopen(engine, tmp_path):
        assert engine.commit(parse_transaction(
            "insert La(N6), insert U_benefit(N6)")).applied
        engine.close(checkpoint=False)  # the reopen replays the WAL
        return DatabaseEngine.open(tmp_path / "d")

    WRITES = ["applied", "rejected", "maintained", "ignored",
              "prepare_commit", "prepare_abort", "checkpoint", "reopen"]

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("maintainer", MAINTAINERS)
    def test_a_write_makes_the_next_scan_fresh(self, tmp_path, maintainer,
                                               write):
        engine = open_engine(tmp_path, employment_database(30, seed=3),
                             maintainer)
        try:
            self._read_twice(engine)
            engine = getattr(self, f"_{write}")(engine, tmp_path)
            self._read_twice(engine)
        finally:
            engine.close(checkpoint=False)

    def test_a_caller_mutating_its_reply_changes_nothing(self, engine):
        expected = engine.db.query("Unemp(x)")
        for _ in range(3):  # a miss, then hits
            reply = engine.query("Unemp(x)")
            assert reply == expected
            reply.clear()
            reply.append(("Intruder",))

    def test_bound_and_unknown_goals_stay_out_of_the_memo(self, engine):
        ground = [f"{predicate}(P{i})" for i in range(250)
                  for predicate in ("Unemp", "Works", "La", "U_benefit")]
        assert len(set(ground)) == 1000
        for goal in ground + ["Nope(x)", "Nope(x, y)", "Nope(x, x)", "Ic1"]:
            assert engine.query(goal) == []
        assert engine._memo[1] == {}
        assert engine.metrics.counter("query.memo_hits") == 0

    def test_only_the_current_state_is_kept(self, engine):
        engine.query("Unemp(x)")
        engine.query("Works(x)")
        assert len(engine._memo[1]) == 2
        assert engine.commit(parse_transaction("insert Works(Maria)")).applied
        assert engine.query("Unemp(x)") == [("Dolors",)]
        assert len(engine._memo[1]) == 1

    def test_repeated_variables_get_their_own_entry(self, tmp_path):
        db = DeductiveDatabase.from_source("""
            E(A, A). E(A, B). E(B, B). E(C, A). E(C, C). F(C).
            P(x, y) <- E(x, y) & not F(x).
        """)
        engine = DatabaseEngine.open(tmp_path / "d", initial=db)
        try:
            goals = ["P(x, x)", "P(x, y)", "P(y, y)", "P(u, v)", "P(y, x)"]
            for _ in range(2):
                for goal in goals:
                    assert engine.query(goal) == db.query(goal), goal
            assert engine.query("P(x, x)") == [("A",), ("B",)]
            assert len(engine._memo[1]) == 2
        finally:
            engine.close(checkpoint=False)

    def test_scans_racing_a_writer_see_a_committed_prefix(self, tmp_path):
        """Four readers scan ``Unemp(x)`` while 200 dismiss / rehire
        toggles commit.  Toggle *k* flips ``Works(W{k % 10})``, so the
        unemployed W's after a prefix repeat only every 20 commits; a
        scan must match a prefix no older than the last ack it saw
        before it started and no newer than the one in flight after it
        returned.  The writer lets a few scans finish after each ack:
        left alone, a writer-preferring lock starves the readers."""
        initial = employment_database(20, seed=11)
        workers = [f"W{i}" for i in range(10)]
        for person in workers:
            for predicate in ("La", "Works", "U_benefit"):
                initial.add_fact(predicate, person)
        toggles = [parse_transaction(
            f"{'delete' if (k // 10) % 2 == 0 else 'insert'} "
            f"Works({workers[k % 10]})") for k in range(200)]
        states = [initial]
        for toggle in toggles:
            states.append(toggle.apply_to(states[-1]))
        prefixes_of: dict[tuple, list[int]] = {}
        for index, state in enumerate(states):
            prefixes_of.setdefault(tuple(state.query("Unemp(x)")),
                                   []).append(index)
        assert len(prefixes_of) == 20
        engine = DatabaseEngine.open(tmp_path / "d", initial=initial)
        acked = 0
        scans = [0] * 4  # per reader: scans finished
        done = threading.Event()
        failures: list[str] = []

        def reader(slot: int) -> None:
            while not done.is_set() and not failures:
                low = acked
                try:
                    reply = engine.query("Unemp(x)")
                except Exception as error:  # noqa: BLE001 - fail the test
                    failures.append(f"query raised: {error!r}")
                    return
                high = acked + 1
                seen = prefixes_of.get(tuple(reply))
                if seen is None:
                    failures.append(f"no committed prefix answers {reply}")
                elif not any(low <= index <= high for index in seen):
                    failures.append(f"read after ack {low} saw prefixes "
                                    f"{seen} (in flight: {high})")
                scans[slot] += 1

        def let_readers_scan() -> None:
            target = sum(scans) + 8
            deadline = time.monotonic() + 5
            while (sum(scans) < target and not failures
                   and time.monotonic() < deadline):
                time.sleep(0.0002)

        readers = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(4)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in readers:
                thread.start()
            for toggle in toggles:
                assert engine.commit(toggle).applied
                acked += 1
                let_readers_scan()
            done.set()
            for thread in readers:
                thread.join(timeout=30)
                assert not thread.is_alive(), "a reader never finished"
            assert not failures, failures[:5]
            assert all(scans), "some reader never scanned"
            assert engine.metrics.counter("query.memo_hits")
            assert engine.query("Unemp(x)") == states[-1].query("Unemp(x)")
        finally:
            sys.setswitchinterval(switch_interval)
            done.set()
            engine.close(checkpoint=False)


class TestRecursiveServingMaterialisesOnce:
    """Commits advance the recursive program's warm state instead of
    dropping it, so an interleaved read-heavy workload materialises the
    old state exactly once -- the first commit's check -- whatever the
    number of rounds."""

    ROUNDS = 8
    READS_PER_ROUND = 6

    def test_commits_then_reads_make_one_full_materialisation(self,
                                                              tmp_path):
        engine = open_engine(tmp_path, employment_database(60, seed=3),
                             "advance")
        try:
            for round_ in range(self.ROUNDS):
                name = f"N{round_}"
                assert engine.commit(Transaction(
                    [insert("La", name), insert("U_benefit", name)])).applied
                for read in range(self.READS_PER_ROUND):
                    assert engine.check(Transaction(
                        [insert("Works", f"R{round_}_{read}")])).ok
            counters = engine.stats()["counters"]
            assert counters["cache.rematerialize"] == 1
            assert counters["cache.advance"] == self.ROUNDS
            assert "cache.invalidate" not in counters
        finally:
            engine.close(checkpoint=False)
