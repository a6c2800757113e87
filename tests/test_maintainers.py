"""The two StateMaintainer strategies and the engine's choice between them.

Covers protocol conformance of both maintainers against the naive oracle
(counting on a non-recursive program, advance on a recursive one), the
engine's pick -- counting for every program it accepts, advance for the
recursive ones it refuses -- and the serving engine's counting-path
behaviour (verdicts, ``ivm.*`` counters, resets, stats/health surfacing).
"""

from __future__ import annotations

import pytest

from repro.datalog.database import DeductiveDatabase
from repro.core.processor import UpdateProcessor
from repro.events.events import Transaction, delete, insert, parse_transaction
from repro.interpretations import naive_changes
from repro.interpretations.maintainers import (
    AdvancingMaintainer,
    CountingMaintainer,
    StateMaintainer,
)
from repro.server.engine import DatabaseEngine
from repro.workloads import (
    employment_database,
    random_transaction,
    reachability_database,
)

from tests import faultkit


def small_db() -> DeductiveDatabase:
    return DeductiveDatabase.from_source("""
        Q(A). Q(B). R(B).
        P(x) <- Q(x).
        V(x) <- Q(x) & not R(x).
    """)


def small_recursive_db() -> DeductiveDatabase:
    """:func:`small_db` with ``P`` closed under a recursive ``E`` step."""
    return DeductiveDatabase.from_source("""
        Q(A). Q(B). R(B). E(A, B).
        P(x) <- Q(x).
        P(x) <- E(x, y) & P(y).
        V(x) <- Q(x) & not R(x).
    """)


#: Each strategy with the program shape it serves: ``(maintainer class,
#: small database, larger seeded database)``.
STRATEGIES = {
    "counting": (CountingMaintainer, small_db,
                 lambda: employment_database(15, seed=23)),
    "advance": (AdvancingMaintainer, small_recursive_db,
                lambda: reachability_database(12, 20, seed=23)),
}


def maintainer_of(mode: str, db: DeductiveDatabase | None = None
                  ) -> StateMaintainer:
    cls, small, _ = STRATEGIES[mode]
    return cls(UpdateProcessor(small() if db is None else db))


class TestProtocolConformance:
    """apply/extension/reset/bootstrap behave alike across strategies."""

    @pytest.mark.parametrize("mode", sorted(STRATEGIES))
    def test_apply_matches_oracle_and_moves_the_database(self, mode):
        db = STRATEGIES[mode][1]()
        maintainer = maintainer_of(mode, db)
        transaction = Transaction([delete("Q", "A"), insert("Q", "C")])
        expected = naive_changes(db, transaction)
        result = maintainer.apply(transaction)
        assert result.insertions == expected.insertions
        assert result.deletions == expected.deletions
        assert not db.has_fact("Q", "A") and db.has_fact("Q", "C")

    @pytest.mark.parametrize("mode", sorted(STRATEGIES))
    def test_extension_reflects_applied_state(self, mode):
        maintainer = maintainer_of(mode)
        maintainer.apply(Transaction([insert("R", "A")]))
        extension = {tuple(c.value for c in row)
                     for row in maintainer.extension("V")}
        assert extension == set()  # both A and B are now in R
        assert {tuple(c.value for c in row)
                for row in maintainer.extension("P")} == {("A",), ("B",)}

    @pytest.mark.parametrize("mode", sorted(STRATEGIES))
    def test_reset_then_reuse(self, mode):
        maintainer = maintainer_of(mode)
        maintainer.apply(Transaction([delete("Q", "B")]))
        maintainer.reset()
        assert {tuple(c.value for c in row)
                for row in maintainer.extension("P")} == {("A",)}

    @pytest.mark.parametrize("mode", sorted(STRATEGIES))
    def test_apply_sequence_matches_oracle(self, mode):
        db = STRATEGIES[mode][2]()
        maintainer = maintainer_of(mode, db)
        for seed in range(6):
            transaction = random_transaction(db, n_events=2, seed=seed)
            expected = naive_changes(db, transaction)
            result = maintainer.apply(transaction)
            assert result.insertions == expected.insertions, f"seed {seed}"
            assert result.deletions == expected.deletions, f"seed {seed}"

    def test_bootstrap_rejects_foreign_database(self):
        maintainer = maintainer_of("counting")
        with pytest.raises(ValueError):
            maintainer.bootstrap(small_db())

    def test_counting_bootstrap_materialises_counts(self):
        maintainer = maintainer_of("counting")
        assert not maintainer.active
        maintainer.bootstrap()
        assert maintainer.active
        maintainer.reset()
        assert not maintainer.active

    def test_on_event_observes_bootstrap(self):
        events = []
        maintainer = maintainer_of("counting")
        maintainer.on_event = events.append
        maintainer.bootstrap()
        assert events == ["bootstrap"]

    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError):
            StateMaintainer(UpdateProcessor(small_db()))


def fresh_engine(tmp_path, maintainer: str = "counting", **kwargs
                 ) -> DatabaseEngine:
    """The employment fixture, served by counting -- or, for
    ``advance``, with :func:`faultkit.with_recursion`'s view added."""
    initial = employment_database(n_people=12, seed=7)
    for index in range(12):
        initial.add_fact("U_benefit", f"P{index}")
    if maintainer == "advance":
        faultkit.with_recursion(initial)
    return DatabaseEngine.open(tmp_path / "db", initial=initial, **kwargs)


class TestEngineCountingMode:
    def test_stats_and_health_surface_the_mode(self, tmp_path):
        """A non-recursive program opened with no arguments is served by
        counting, and ``stats`` / ``health`` name it."""
        engine = fresh_engine(tmp_path)
        try:
            assert engine.cache_mode == "counting"
            assert engine.stats()["engine"]["cache_mode"] == "counting"
            assert engine.health()["cache"]["mode"] == "counting"
            assert isinstance(engine.maintainer, CountingMaintainer)
        finally:
            engine.close()

    def test_delta_rules_counter_set_at_bootstrap(self, tmp_path):
        engine = fresh_engine(tmp_path)
        try:
            assert engine.metrics.counter("ivm.delta_rules") \
                == engine.maintainer.counting_engine().n_delta_rules > 0
            assert engine.metrics.counter("ivm.bootstrap") == 1
        finally:
            engine.close()

    def test_commits_maintain_without_invalidation(self, tmp_path):
        engine = fresh_engine(tmp_path)
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
        engine = fresh_engine(tmp_path)
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
        engine = fresh_engine(tmp_path)
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
        engine = fresh_engine(tmp_path)
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

    def test_recursive_program_opens_with_advance(self, tmp_path):
        """Counting refuses recursion at open; the engine then serves the
        program with the advancing maintainer, whatever it was asked."""
        db = DeductiveDatabase.from_source("""
            Edge(A, B).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
        """)
        engine = DatabaseEngine.open(tmp_path / "rec", initial=db,
                                     cache_mode="counting")
        try:
            assert isinstance(engine.maintainer, AdvancingMaintainer)
            assert engine.cache_mode == "advance"
            assert engine.stats()["engine"]["cache_mode"] == "advance"
            assert engine.health()["cache"]["mode"] == "advance"
            assert engine.metrics.counter("ivm.bootstrap") == 0
            assert engine.query("Path(A, y)") == [("B",)]
        finally:
            engine.close()

    @pytest.mark.parametrize("cache_mode", ["advance", "invalidate",
                                            "refcount"])
    def test_legacy_string_still_opens_engine(self, tmp_path, cache_mode):
        """``cache_mode=`` / ``eval_engine=`` are accepted and select
        nothing: the program picks the maintainer."""
        engine = fresh_engine(tmp_path, cache_mode=cache_mode,
                              eval_engine="interpreted")
        try:
            assert isinstance(engine.maintainer, CountingMaintainer)
            assert engine.stats()["engine"]["cache_mode"] == "counting"
        finally:
            engine.close()

    @pytest.mark.parametrize("cache_mode", ["counting", "invalidate",
                                            "refcount"])
    def test_legacy_string_does_not_move_a_recursive_program(
            self, tmp_path, cache_mode):
        """Nor does a legacy string move a recursive program off advance,
        whichever evaluator ``eval_engine=`` names."""
        engine = fresh_engine(tmp_path, "advance", cache_mode=cache_mode,
                              eval_engine="compiled")
        try:
            assert isinstance(engine.maintainer, AdvancingMaintainer)
            assert engine.stats()["engine"]["cache_mode"] == "advance"
            assert engine.commit(parse_transaction(
                "insert La(Zed); insert U_benefit(Zed)")).applied
            faultkit.check_derived_oracle(engine)
        finally:
            engine.close()


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
        engine = fresh_engine(tmp_path, max_batch=8)
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

    @pytest.mark.parametrize("maintainer", ["counting", "advance"])
    def test_oracle_through_resets(self, tmp_path, maintainer):
        """After a fast commit, a rejection, a serial (slow-path) batch,
        a checkpoint and a re-open, every non-applying op still equals
        the fresh-processor / fresh-interpreter oracle."""

        engine = fresh_engine(tmp_path, maintainer)
        try:
            assert engine.cache_mode == maintainer
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
        engine = DatabaseEngine.open(tmp_path / "db")
        try:
            assert engine.cache_mode == maintainer
            faultkit.check_reads_match_oracle(engine)
        finally:
            engine.close()

    @pytest.mark.parametrize("maintainer", ["counting", "advance"])
    def test_typed_errors_match_on_an_inconsistent_state(self, tmp_path,
                                                        maintainer):
        """``check`` refuses an inconsistent old state with the
        processor's own typed error; the other what-ifs still answer."""
        from repro.problems.base import StateError

        db = employment_database(n_people=12, seed=7)
        db.add_fact("La", "Orphan")  # unemployed, no benefit: Ic1 holds
        if maintainer == "advance":
            faultkit.with_recursion(db)
        engine = DatabaseEngine.open(tmp_path / "db", initial=db)
        try:
            with pytest.raises(StateError):
                engine.check(parse_transaction("insert Works(Orphan)"))
            faultkit.check_whatifs_match_oracle(engine)
        finally:
            engine.close()

    def test_counting_whatifs_and_rejections_build_no_interpreter(
            self, tmp_path):
        engine = fresh_engine(tmp_path)
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

        engine = fresh_engine(tmp_path)
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
        engine = fresh_engine(tmp_path)
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
        engine = fresh_engine(tmp_path, max_batch=8)
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


def _employment() -> DeductiveDatabase:
    return employment_database(n_people=12, seed=7)


def _employment_with_recursion() -> DeductiveDatabase:
    return faultkit.with_recursion(_employment())


def _reachability() -> DeductiveDatabase:
    return reachability_database(8, 12, seed=5)


class TestTheProgramPicksTheMaintainer:
    """One rule picks the maintainer: counting for every program counting
    accepts, advance for the recursive ones it refuses.

    Each program below carries its maintainer as a hand-written label --
    the test holds no recursion check of its own.  Opened with no
    arguments, the program must be served by its label's maintainer, and
    stay so across a commit and a reopen that replays the WAL, with every
    read, what-if and maintained extension equal to its from-scratch
    oracle (:func:`faultkit.check_derived_oracle`).
    """

    #: name -> (label, program source or builder, one transaction).
    PROGRAMS = {
        # -- counting: every non-recursive shape --------------------------
        "views-and-constraints": (
            "counting", _employment, "insert La(Zed); insert U_benefit(Zed)"),
        "base-facts-only": (
            "counting", "Q(A). Q(B). R(B).", "insert Q(C)"),
        "constraint-only": (
            "counting", """
                Q(A). R(B).
                Ic1(x) <- Q(x) & R(x).
            """, "insert Q(B)"),
        "rules-without-facts": (
            "counting", """
                P(x) <- Q(x) & not R(x).
                Ic1(x) <- P(x) & S(x).
            """, "insert Q(A); insert S(B)"),
        "stratified-negation-chain": (
            "counting", """
                Q(A). Q(B). R(B). S(A).
                A1(x) <- Q(x) & not R(x).
                B1(x) <- A1(x) & not S(x).
                Ic1(x) <- B1(x).
            """, "insert Q(C); insert S(C)"),
        "union-of-rules": (
            "counting", """
                Q(A). R(B).
                P(x) <- Q(x).
                P(x) <- R(x).
                Ic1(x) <- P(x) & Banned(x).
            """, "insert Banned(C); insert R(C)"),
        "repeated-variables": (
            "counting", """
                E(A, A). E(A, B).
                Loop(x) <- E(x, x).
                Out(x, y) <- E(x, y) & not Loop(y).
            """, "insert E(B, B)"),
        "comparison-builtins": (
            "counting", """
                Stock(Widget, 8). Stock(Gear, 2).
                Threshold(Widget, 5). Threshold(Gear, 5).
                LowStock(p) <- Stock(p, n) & Threshold(p, m) & Lt(n, m).
                WellStocked(p) <- Stock(p, n) & Threshold(p, m) & Geq(n, m).
            """, "delete Stock(Gear, 2); insert Stock(Gear, 9)"),
        "two-level-join": (
            "counting", """
                Customer(C1). Customer(C2).
                Order(O1, C1). Order(O2, C2). Shipped(O2).
                Pending(o, c) <- Order(o, c) & not Shipped(o).
                ActiveCustomer(c) <- Pending(o, c).
            """, "insert Shipped(O1); insert Order(O3, C2)"),
        "negated-view-with-constraint": (
            "counting", """
                Item(Widget). Item(Gear). InStock(Widget).
                Discontinued(Gear).
                Orderable(x) <- Item(x) & InStock(x) & not Discontinued(x).
                Missing(x) <- Item(x) & not InStock(x).
                Ic1(x) <- Discontinued(x) & InStock(x).
            """, "insert InStock(Gear)"),
        # -- advance: every recursive shape --------------------------------
        "self-recursion": (
            "advance", """
                Edge(A, B). Edge(B, C).
                Path(x, y) <- Edge(x, y).
                Path(x, y) <- Edge(x, z) & Path(z, y).
            """, "insert Edge(C, D)"),
        "left-recursion": (
            "advance", """
                Edge(A, B). Edge(B, C).
                Path(x, y) <- Edge(x, y).
                Path(x, y) <- Path(x, z) & Edge(z, y).
            """, "delete Edge(A, B)"),
        "mutual-recursion": (
            "advance", """
                Edge(A, B). Edge(B, C). Edge(C, A). Edge(C, D).
                Odd(x, y) <- Edge(x, y).
                Odd(x, y) <- Edge(x, z) & Even(z, y).
                Even(x, y) <- Edge(x, z) & Odd(z, y).
            """, "insert Edge(D, A)"),
        "recursion-under-negation": (
            "advance", """
                Link(Mine, Smelter). Link(Smelter, Plant).
                Link(Plant, Depot). Link(Smelter, Backup).
                Facility(Smelter). Facility(Plant). Facility(Depot).
                Supplies(x, y) <- Link(x, y).
                Supplies(x, y) <- Link(x, z) & Supplies(z, y).
                Cut(y) <- Facility(y) & not Supplies(Mine, y).
            """, "delete Link(Smelter, Plant); insert Link(Backup, Plant)"),
        "recursion-in-a-constraint": (
            "advance", _employment_with_recursion,
            "insert Manages(P11, P0)"),
        "one-recursive-view-among-many": (
            "advance", """
                Q(A). Q(B). R(B). E(A, B).
                V(x) <- Q(x) & not R(x).
                W(x) <- V(x) & Q(x).
                T(x, y) <- E(x, y).
                T(x, y) <- T(x, z) & E(z, y).
            """, "insert E(B, C); delete R(B)"),
        "random-graph-closure": (
            "advance", _reachability, "insert Edge(N0, N7)"),
    }

    @staticmethod
    def _assert_served_by(engine: DatabaseEngine, label: str) -> None:
        expected = {"counting": CountingMaintainer,
                    "advance": AdvancingMaintainer}[label]
        assert type(engine.maintainer) is expected
        assert engine.cache_mode == label
        assert engine.stats()["engine"]["cache_mode"] == label
        assert engine.health()["cache"]["mode"] == label

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_program_is_served_by_its_labelled_maintainer(self, tmp_path,
                                                          name):
        label, build, source = self.PROGRAMS[name]
        db = build() if callable(build) \
            else DeductiveDatabase.from_source(build)
        directory = tmp_path / "db"
        engine = DatabaseEngine.open(directory, initial=db)
        try:
            self._assert_served_by(engine, label)
            faultkit.check_derived_oracle(engine)
            transaction = parse_transaction(source)
            verdict = UpdateProcessor(engine.db.copy()).check(transaction)
            outcome = engine.commit(transaction)
            assert outcome.applied == verdict.ok
            faultkit.check_derived_oracle(engine)
        finally:
            engine.close(checkpoint=False)
        engine = DatabaseEngine.open(directory)  # replays the WAL
        try:
            self._assert_served_by(engine, label)
            faultkit.check_derived_oracle(engine)
        finally:
            engine.close()
