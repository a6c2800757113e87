"""The StateMaintainer registry and the three cache-mode strategies.

Covers the API-redesign surface of the counting PR: the
:class:`CacheMode` enum (typed values, legacy string spellings), the
name-keyed registry replacing the old ``if cache_mode == ...`` branches,
protocol conformance of all three maintainers against the naive oracle,
and the serving engine's counting-mode behaviour (verdicts, ``ivm.*``
counters, resets, stats/health surfacing).
"""

from __future__ import annotations

import pytest

from repro.datalog.database import DeductiveDatabase
from repro.core.processor import UpdateProcessor
from repro.events.events import Transaction, delete, insert, parse_transaction
from repro.interpretations import naive_changes
from repro.interpretations.counting import CountingUnsupportedError
from repro.interpretations.maintainers import (
    MAINTAINERS,
    AdvancingMaintainer,
    CacheMode,
    CountingMaintainer,
    InvalidatingMaintainer,
    StateMaintainer,
    create_maintainer,
)
from repro.server.engine import DatabaseEngine
from repro.workloads import employment_database, random_transaction

ALL_MODES = ("advance", "invalidate", "counting")


def small_db() -> DeductiveDatabase:
    return DeductiveDatabase.from_source("""
        Q(A). Q(B). R(B).
        P(x) <- Q(x).
        V(x) <- Q(x) & not R(x).
    """)


class TestCacheMode:
    def test_legacy_strings_accepted(self):
        assert CacheMode.of("advance") is CacheMode.ADVANCE
        assert CacheMode.of("invalidate") is CacheMode.INVALIDATE
        assert CacheMode.of("counting") is CacheMode.COUNTING

    def test_enum_values_accepted(self):
        for mode in CacheMode:
            assert CacheMode.of(mode) is mode

    def test_case_insensitive(self):
        assert CacheMode.of("ADVANCE") is CacheMode.ADVANCE

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="cache_mode"):
            CacheMode.of("bogus")
        with pytest.raises(ValueError, match="cache_mode"):
            CacheMode.of(7)

    def test_str_is_wire_spelling(self):
        assert str(CacheMode.COUNTING) == "counting"
        assert CacheMode.COUNTING.value == "counting"


class TestRegistry:
    def test_three_strategies_registered(self):
        assert set(MAINTAINERS) == set(ALL_MODES)
        assert MAINTAINERS["advance"] is AdvancingMaintainer
        assert MAINTAINERS["invalidate"] is InvalidatingMaintainer
        assert MAINTAINERS["counting"] is CountingMaintainer

    def test_create_maintainer_by_name_and_enum(self):
        processor = UpdateProcessor(small_db())
        assert isinstance(create_maintainer("counting", processor),
                          CountingMaintainer)
        assert isinstance(create_maintainer(CacheMode.ADVANCE, processor),
                          AdvancingMaintainer)

    def test_subclass_registration_hook(self):
        class Probe(InvalidatingMaintainer):
            name = "probe-test"
        try:
            assert MAINTAINERS["probe-test"] is Probe
        finally:
            del MAINTAINERS["probe-test"]


class TestProtocolConformance:
    """apply/extension/reset/bootstrap behave alike across strategies."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_apply_matches_oracle_and_moves_the_database(self, mode):
        db = small_db()
        maintainer = create_maintainer(mode, UpdateProcessor(db))
        transaction = Transaction([delete("Q", "A"), insert("Q", "C")])
        expected = naive_changes(db, transaction)
        result = maintainer.apply(transaction)
        assert result.insertions == expected.insertions
        assert result.deletions == expected.deletions
        assert not db.has_fact("Q", "A") and db.has_fact("Q", "C")

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_extension_reflects_applied_state(self, mode):
        db = small_db()
        maintainer = create_maintainer(mode, UpdateProcessor(db))
        maintainer.apply(Transaction([insert("R", "A")]))
        extension = {tuple(c.value for c in row)
                     for row in maintainer.extension("V")}
        assert extension == set()  # both A and B are now in R
        assert {tuple(c.value for c in row)
                for row in maintainer.extension("P")} == {("A",), ("B",)}

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_reset_then_reuse(self, mode):
        db = small_db()
        maintainer = create_maintainer(mode, UpdateProcessor(db))
        maintainer.apply(Transaction([delete("Q", "B")]))
        maintainer.reset()
        assert {tuple(c.value for c in row)
                for row in maintainer.extension("P")} == {("A",)}

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_apply_sequence_matches_oracle(self, mode):
        db = employment_database(15, seed=23)
        maintainer = create_maintainer(mode, UpdateProcessor(db))
        for seed in range(6):
            transaction = random_transaction(db, n_events=2, seed=seed)
            expected = naive_changes(db, transaction)
            result = maintainer.apply(transaction)
            assert result.insertions == expected.insertions, f"seed {seed}"
            assert result.deletions == expected.deletions, f"seed {seed}"

    def test_bootstrap_rejects_foreign_database(self):
        maintainer = create_maintainer("counting",
                                       UpdateProcessor(small_db()))
        with pytest.raises(ValueError):
            maintainer.bootstrap(small_db())

    def test_counting_bootstrap_materialises_counts(self):
        maintainer = create_maintainer("counting",
                                       UpdateProcessor(small_db()))
        assert not maintainer.active
        maintainer.bootstrap()
        assert maintainer.active
        maintainer.reset()
        assert not maintainer.active

    def test_on_event_observes_bootstrap(self):
        events = []
        maintainer = create_maintainer("counting",
                                       UpdateProcessor(small_db()))
        maintainer.on_event = events.append
        maintainer.bootstrap()
        assert events == ["bootstrap"]

    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError):
            StateMaintainer(UpdateProcessor(small_db()))


def fresh_engine(tmp_path, **kwargs) -> DatabaseEngine:
    initial = employment_database(n_people=12, seed=7)
    for index in range(12):
        initial.add_fact("U_benefit", f"P{index}")
    return DatabaseEngine.open(tmp_path / "db", initial=initial, **kwargs)


class TestEngineCountingMode:
    def test_stats_and_health_surface_the_mode(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode=CacheMode.COUNTING)
        try:
            assert engine.cache_mode is CacheMode.COUNTING
            assert engine.stats()["engine"]["cache_mode"] == "counting"
            assert engine.health()["cache"]["mode"] == "counting"
            assert isinstance(engine.maintainer, CountingMaintainer)
        finally:
            engine.close()

    def test_delta_rules_counter_set_at_bootstrap(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="counting")
        try:
            assert engine.metrics.counter("ivm.delta_rules") \
                == engine.maintainer.counting_engine().n_delta_rules > 0
            assert engine.metrics.counter("ivm.bootstrap") == 1
        finally:
            engine.close()

    def test_commits_maintain_without_invalidation(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="counting")
        try:
            working = {r[0].value for r in engine.db.facts_of("Works")}
            idle = sorted(p for p in (f"P{i}" for i in range(12))
                          if p not in working)
            for person in idle[:3]:
                outcome = engine.commit(Transaction(
                    parse_transaction(f"insert Works({person})")))
                assert outcome.applied and outcome.check.ok
            assert engine.stats()["engine"]["cache_epoch"] == 0
            assert engine.metrics.counter("cache.invalidate") == 0
            faultkit_oracle(engine)
        finally:
            engine.close()

    def test_rejection_verdict_matches_interpreter(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="counting")
        try:
            # Deleting the benefit of an unemployed person violates Ic1.
            working = {r[0].value for r in engine.db.facts_of("Works")}
            idle = sorted(p for p in (f"P{i}" for i in range(12))
                          if p not in working)
            bad = Transaction(
                parse_transaction(f"delete U_benefit({idle[0]})"))
            counting_verdict = engine.maintainer.check(bad)
            interpreter_verdict = engine.processor.check(bad)
            assert counting_verdict.ok == interpreter_verdict.ok is False
            assert counting_verdict.violations \
                == interpreter_verdict.violations
            outcome = engine.commit(bad)
            assert not outcome.applied
            faultkit_oracle(engine)
        finally:
            engine.close()

    def test_checkpoint_resets_then_rebootstraps(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="counting")
        try:
            assert engine.maintainer.active
            engine.checkpoint()
            assert not engine.maintainer.active  # conservative reset
            working = {r[0].value for r in engine.db.facts_of("Works")}
            idle = sorted(p for p in (f"P{i}" for i in range(12))
                          if p not in working)
            outcome = engine.commit(Transaction(
                parse_transaction(f"insert Works({idle[0]})")))
            assert outcome.applied
            assert engine.maintainer.active  # lazily re-bootstrapped
            assert engine.metrics.counter("ivm.bootstrap") == 2
            faultkit_oracle(engine)
        finally:
            engine.close()

    def test_slow_path_resets_counting_state(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="counting")
        try:
            working = {r[0].value for r in engine.db.facts_of("Works")}
            idle = sorted(p for p in (f"P{i}" for i in range(12))
                          if p not in working)
            # A maintain-policy commit takes the serial slow path.
            outcome = engine.commit(
                Transaction(parse_transaction(f"insert Works({idle[0]})")),
                on_violation="maintain")
            assert outcome.applied
            # Facts moved outside delta maintenance: counts were dropped
            # and the next commit re-bootstraps to a consistent state.
            someone_working = sorted(working)[0]
            outcome = engine.commit(Transaction(
                parse_transaction(f"delete Works({someone_working})")))
            assert outcome.applied
            faultkit_oracle(engine)
        finally:
            engine.close()

    def test_recursive_program_fails_fast_at_open(self, tmp_path):
        db = DeductiveDatabase.from_source("""
            Edge(A, B).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
        """)
        with pytest.raises(CountingUnsupportedError):
            DatabaseEngine.open(tmp_path / "rec", initial=db,
                                cache_mode="counting")

    def test_legacy_string_still_opens_engine(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="advance")
        try:
            assert engine.cache_mode is CacheMode.ADVANCE
            assert engine.stats()["engine"]["cache_mode"] == "advance"
        finally:
            engine.close()

    def test_invalid_mode_still_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cache_mode"):
            fresh_engine(tmp_path, cache_mode="refcount")


def faultkit_oracle(engine: DatabaseEngine) -> None:
    """Counting extensions vs a fresh naive rebuild of the live state."""
    oracle = DeductiveDatabase.from_source(str(engine.db))
    schema = engine.db.schema
    for predicate in sorted(schema.derived):
        arity = schema.arity(predicate)
        variables = ", ".join(f"x{i}" for i in range(arity))
        goal = f"{predicate}({variables})" if arity else predicate
        answers = {tuple(row) for row in oracle.query(goal)}
        extension = {tuple(constant.value for constant in row)
                     for row in engine.maintainer.extension(predicate)}
        assert extension == answers, (
            f"maintained {predicate} diverges from the oracle")
        assert {tuple(row) for row in engine.query(goal)} == answers


class TestEngineBatchCounting:
    def test_group_commit_batches_stay_consistent(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="counting", max_batch=8)
        try:
            working = {r[0].value for r in engine.db.facts_of("Works")}
            idle = sorted(p for p in (f"P{i}" for i in range(12))
                          if p not in working)
            transactions = [
                Transaction(parse_transaction(f"insert Works({person})"))
                for person in idle[:4]
            ]
            results = engine.commit_many(transactions, raise_errors=True)
            assert all(outcome.applied for outcome in results)
            faultkit_oracle(engine)
        finally:
            engine.close()


def people(engine: DatabaseEngine) -> tuple[list[str], list[str]]:
    """(idle, working) people of the fixture; everyone holds a benefit."""
    working = sorted(r[0].value for r in engine.db.facts_of("Works"))
    idle = sorted(p for p in (f"P{i}" for i in range(12))
                  if p not in working)
    return idle, working


class TestWhatifsFromMaintainedState:
    """check / upward / monitor / downward and rejections are answered by
    the maintainer: same replies as the from-scratch interpreters, none
    of their standing state."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_oracle_through_resets(self, tmp_path, mode):
        """After a fast commit, a rejection, a serial (slow-path) batch,
        a checkpoint and a re-open, every non-applying op still equals
        the fresh-processor / fresh-interpreter oracle."""
        from tests import faultkit

        engine = fresh_engine(tmp_path, cache_mode=mode)
        try:
            faultkit.check_reads_match_oracle(engine)
            idle, working = people(engine)
            assert engine.commit(parse_transaction(
                f"insert Works({idle[0]})")).applied
            faultkit.check_reads_match_oracle(engine)
            assert not engine.commit(parse_transaction(
                "insert La(Nobody)")).applied
            faultkit.check_reads_match_oracle(engine)
            assert engine.commit(parse_transaction(
                f"delete Works({working[0]})"),
                on_violation="maintain").applied
            faultkit.check_reads_match_oracle(engine)
            engine.checkpoint()
            faultkit.check_reads_match_oracle(engine)
        finally:
            engine.close()
        engine = DatabaseEngine.open(tmp_path / "db", cache_mode=mode)
        try:
            faultkit.check_reads_match_oracle(engine)
        finally:
            engine.close()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_typed_errors_match_on_an_inconsistent_state(self, tmp_path,
                                                        mode):
        """``check`` refuses an inconsistent old state with the
        processor's own typed error; the other what-ifs still answer."""
        from repro.problems.base import StateError
        from tests import faultkit

        db = employment_database(n_people=12, seed=7)
        db.add_fact("La", "Orphan")  # unemployed, no benefit: Ic1 holds
        engine = DatabaseEngine.open(tmp_path / "db", initial=db,
                                     cache_mode=mode)
        try:
            with pytest.raises(StateError):
                engine.check(parse_transaction("insert Works(Orphan)"))
            faultkit.check_whatifs_match_oracle(engine)
        finally:
            engine.close()

    def test_counting_whatifs_and_rejections_build_no_interpreter(
            self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="counting")
        try:
            idle, _ = people(engine)
            bad = parse_transaction(f"delete U_benefit({idle[0]})")
            good = parse_transaction(f"insert Works({idle[0]})")
            for _ in range(5):
                assert not engine.check(bad).ok
                assert engine.check(good).ok
                assert engine.upward(bad).insertions_of("Ic1")
                assert engine.monitor(good, ["Unemp"]).deactivated
            verdict = engine.check(bad)
            rejected = engine.commit(bad, txn_id="no-1")
            assert not rejected.applied
            # The maintainer's verdict *is* the commit's: same rows, and
            # nothing re-checked it.
            assert rejected.check.violations == verdict.violations
            assert rejected.check.to_dict() == verdict.to_dict()
            counters = engine.stats()["counters"]
            assert counters["commit.rejected_fast"] == 1
            assert counters.get("cache.rematerialize", 0) == 0
            assert counters.get("whatif.warmups", 0) == 0
            assert engine.processor._upward is None
            assert engine.maintainer.active  # and nothing was reset
        finally:
            engine.close()

    def test_counting_whatifs_do_not_take_the_interpreter_mutex(
            self, tmp_path):
        """A warm what-if finishes while another thread sits on the
        interpreter mutex (a long ``downward``, say); ``downward`` itself
        waits for it."""
        import threading

        engine = fresh_engine(tmp_path, cache_mode="counting")
        try:
            idle, _ = people(engine)
            probe = parse_transaction(f"insert Works({idle[0]})")
            done: list[str] = []

            def whatifs() -> None:
                engine.check(probe)
                engine.upward(probe)
                engine.monitor(probe, ["Unemp"])
                done.append("whatifs")

            def downward() -> None:
                from repro.interpretations.downward import want_insert
                engine.downward([want_insert("Unemp", idle[0])])
                done.append("downward")

            with engine._interp_lock:
                threads = [threading.Thread(target=whatifs),
                           threading.Thread(target=downward)]
                for thread in threads:
                    thread.start()
                threads[0].join(timeout=10)
                assert not threads[0].is_alive(), \
                    "a counting what-if blocked on the interpreter mutex"
                assert done == ["whatifs"]  # downward is still waiting
            threads[1].join(timeout=10)
            assert not threads[1].is_alive()
            assert done == ["whatifs", "downward"]
        finally:
            engine.close()

    def test_cold_counting_whatif_warms_once(self, tmp_path):
        engine = fresh_engine(tmp_path, cache_mode="counting")
        try:
            engine.checkpoint()  # resets the maintainer
            assert not engine.maintainer.active
            probe = parse_transaction(
                f"insert Works({people(engine)[0][0]})")
            assert engine.check(probe).ok
            assert engine.upward(probe).deletions_of("Unemp")
            assert engine.stats()["counters"]["whatif.warmups"] == 1
            assert engine.metrics.counter("ivm.bootstrap") == 2
        finally:
            engine.close()

    def test_mixed_batch_rejects_its_bad_members_on_the_fast_path(
            self, tmp_path):
        """Each member that fails alone against the batch-start state is
        rejected with that verdict; the others still share one group
        commit -- and a transaction every serial order rejects cannot
        hide behind batch mates whose union would pass."""
        engine = fresh_engine(tmp_path, cache_mode="counting", max_batch=8)
        try:
            idle, _ = people(engine)
            outcomes = engine.commit_many([
                parse_transaction(f"insert Works({idle[0]})"),
                parse_transaction("insert La(Fresh)"),         # no benefit
                parse_transaction("insert U_benefit(Fresh)"),  # its repair
                parse_transaction("insert La(Other)"),
            ], txn_ids=["a", "b", "c", "d"])
            assert [o.applied for o in outcomes] == [True, False, True, False]
            assert outcomes[1].check.violated_constraints() == ("Ic1",)
            assert not engine.db.has_fact("La", "Fresh")
            counters = engine.stats()["counters"]
            assert counters["commit.rejected_fast"] == 2
            assert counters["commit.group_committed"] == 2
            assert counters["commit.wal_syncs"] == 1
            assert engine.processor._upward is None
            assert engine.metrics.counter("ivm.bootstrap") == 1  # no reset
            faultkit_oracle(engine)
            # The recorded rejections replay as rejections.
            again = engine.commit(parse_transaction("insert La(Fresh)"),
                                  txn_id="b")
            assert not again.applied
        finally:
            engine.close()
