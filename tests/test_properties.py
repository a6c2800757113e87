"""Property-based tests (hypothesis) for the core invariants.

The headline property is the one the whole framework stands on: the upward
interpretation (both strategies, simplified or not) computes exactly the
events defined by (1)/(2) -- i.e. it agrees with materialise-and-diff -- on
arbitrary databases and transactions.  Alongside it: downward soundness
(every translation achieves its request), the boolean algebra of the DNF
layer, and round-trips of the concrete syntax.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import ComplexityLimitExceeded
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Atom, Literal
from repro.datalog.terms import Constant
from repro.events.dnf import Dnf, FALSE_DNF, TRUE_DNF
from repro.events.events import Event, Transaction, parse_transaction
from repro.events.naming import EventKind
from repro.interpretations import (
    DownwardInterpreter,
    DownwardOptions,
    UpwardInterpreter,
    UpwardOptions,
    naive_changes,
    want_delete,
    want_insert,
)

from tests import faultkit

CONSTANTS = ["C0", "C1", "C2", "C3"]

#: Rule pool: every shape is allowed and stratifiable, over base B1/B2 and
#: derived V1 (first group) and V2 (second group, may use V1).
V1_RULES = [
    "V1(x) <- B1(x).",
    "V1(x) <- B1(x) & not B2(x, x).",
    "V1(x) <- B2(x, y).",
    "V1(x) <- B2(y, x) & B1(y).",
    "V1(x) <- B2(x, y) & not B1(y).",
]
V2_RULES = [
    "V2(x) <- V1(x) & B1(x).",
    "V2(x) <- B1(x) & not V1(x).",
    "V2(x) <- B2(x, y) & V1(y).",
    "V2(x) <- V1(x) & not B2(x, x).",
]
V3_RULES = [
    "V3(x) <- V2(x) & not V1(x).",
    "V3(x) <- V1(x) & V2(x).",
    "V3(x) <- B2(y, x) & not V2(y).",
    "V3(x, y) <- B2(x, y) & V1(x) & x != y.",
]


@st.composite
def databases(draw):
    """A small random database over B1/1, B2/2 with one or two views."""
    db = DeductiveDatabase()
    db.declare_base("B1", 1)
    db.declare_base("B2", 2)
    for constant in draw(st.sets(st.sampled_from(CONSTANTS), max_size=4)):
        db.add_fact("B1", constant)
    pairs = st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS))
    for pair in draw(st.sets(pairs, max_size=6)):
        db.add_fact("B2", *pair)
    for source in draw(st.sets(st.sampled_from(V1_RULES), min_size=1, max_size=3)):
        db.add_rule(parse_rule(source))
    for source in draw(st.sets(st.sampled_from(V2_RULES), max_size=2)):
        db.add_rule(parse_rule(source))
    v3_pool = [r for r in draw(st.sets(st.sampled_from(V3_RULES), max_size=2))]
    arities = {parse_rule(r).head.arity for r in v3_pool}
    if len(arities) <= 1:  # avoid mixed-arity V3 definitions
        has_v2 = any(r.head.predicate == "V2" for r in db.rules)
        for source in v3_pool:
            if "V2" in source and not has_v2:
                continue
            db.add_rule(parse_rule(source))
    return db


@st.composite
def transactions(draw):
    """A well-formed random transaction over B1/B2."""
    events: dict[tuple, Event] = {}
    n = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n):
        kind = draw(st.sampled_from([EventKind.INSERTION, EventKind.DELETION]))
        if draw(st.booleans()):
            predicate, args = "B1", (draw(st.sampled_from(CONSTANTS)),)
        else:
            predicate = "B2"
            args = (draw(st.sampled_from(CONSTANTS)),
                    draw(st.sampled_from(CONSTANTS)))
        key = (predicate, tuple(args))
        if key not in events:
            events[key] = Event(kind, predicate,
                                tuple(Constant(a) for a in args))
    return Transaction(events.values())


class TestUpwardAgreesWithOracle:
    @given(db=databases(), transaction=transactions(),
           strategy=st.sampled_from(["hybrid", "flat"]),
           simplify=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_upward_equals_naive_diff(self, db, transaction, strategy, simplify):
        interpreter = UpwardInterpreter(
            db, simplify=simplify, options=UpwardOptions(strategy=strategy))
        result = interpreter.interpret(transaction)
        oracle = naive_changes(db, transaction)
        assert result.insertions == oracle.insertions
        assert result.deletions == oracle.deletions

    @given(db=databases(), transaction=transactions())
    @settings(max_examples=60, deadline=None)
    def test_events_are_disjoint_from_old_state(self, db, transaction):
        """(1)/(2): ιP rows were false before, δP rows were true before."""
        interpreter = UpwardInterpreter(db)
        result = interpreter.interpret(transaction)
        for predicate, rows in result.insertions.items():
            assert rows.isdisjoint(interpreter.old_extension(predicate))
        for predicate, rows in result.deletions.items():
            assert rows <= interpreter.old_extension(predicate)

    @given(db=databases(), transaction=transactions())
    @settings(max_examples=60, deadline=None)
    def test_empty_transaction_induces_nothing(self, db, transaction):
        result = UpwardInterpreter(db).interpret(Transaction())
        assert result.is_empty()


class TestCountingAgreesWithOracle:
    @given(db=databases(), seeds=st.lists(st.integers(0, 10_000),
                                          min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_counting_sequence(self, db, seeds):
        """The counting engine tracks the oracle across whole sequences."""
        from repro.interpretations.counting import CountingEngine
        from repro.workloads import random_transaction

        if not db.base_predicates_with_facts():
            return
        engine = CountingEngine(db)
        for seed in seeds:
            if not db.base_predicates_with_facts():
                break  # earlier transactions may have emptied the database
            transaction = random_transaction(db, n_events=2, seed=seed)
            expected = naive_changes(db, transaction)
            result = engine.apply(transaction)  # also applies to db
            assert result.insertions == expected.insertions
            assert result.deletions == expected.deletions


class TestDownwardSoundness:
    @given(db=databases(),
           kind=st.sampled_from(["ins", "del"]),
           constant=st.sampled_from(CONSTANTS))
    @settings(max_examples=80, deadline=None)
    def test_translations_achieve_request(self, db, kind, constant):
        view = "V1"
        request = want_insert(view, constant) if kind == "ins" \
            else want_delete(view, constant)
        result = DownwardInterpreter(db).interpret(request)
        if result.already_satisfied:
            # Footnote 1: the requested change already holds; the (empty)
            # translation is "do nothing" and induces nothing.
            return
        row = (Constant(constant),)
        for translation in result.translations:
            induced = naive_changes(db, translation.transaction)
            achieved = induced.insertions_of(view) if kind == "ins" \
                else induced.deletions_of(view)
            assert row in achieved

    @given(db=databases(), data=st.data(),
           kind=st.sampled_from(["ins", "del"]), positive=st.booleans(),
           pair=st.tuples(st.sampled_from(CONSTANTS),
                          st.sampled_from(CONSTANTS)))
    @settings(max_examples=80, deadline=None)
    def test_templated_translations_induce_the_request(self, db, data, kind,
                                                       positive, pair):
        """Served warm -- after the request's shape was interpreted for
        every other constant -- each translation, applied to a copy and
        re-read upward by the naive oracle, induces the requested event
        (or, for a negative request, does not), and the reply is a cold
        unfold's."""
        arity = {rule.head.predicate: rule.head.arity for rule in db.rules}
        view = data.draw(st.sampled_from(sorted(arity)))
        target = pair[:arity[view]]

        def request(args):
            literal = want_insert(view, *args) if kind == "ins" \
                else want_delete(view, *args)
            return literal if positive else literal.negate()

        # Negating a large DNF is bounded: past the bound both a warm and
        # a cold interpreter refuse the request alike.
        options = DownwardOptions(max_disjuncts=500)

        def serve(interpreter, args):
            try:
                return interpreter.interpret(request(args))
            except ComplexityLimitExceeded:
                return None

        interpreter = DownwardInterpreter(db, options=options)
        for args in itertools.product(CONSTANTS, repeat=arity[view]):
            if args != target:
                serve(interpreter, args)
        result = serve(interpreter, target)
        cold = serve(DownwardInterpreter(db, options=options), target)
        assert (result is None) == (cold is None)
        if result is None:
            return
        event(result.stats.path)
        assert result.to_dict() == cold.to_dict()
        if result.dnf.is_true:
            return
        row = tuple(Constant(c) for c in target)
        for translation in result.translations:
            induced = naive_changes(db, translation.transaction)
            achieved = induced.insertions_of(view) if kind == "ins" \
                else induced.deletions_of(view)
            assert (row in achieved) == positive

    @given(db=databases(), constant=st.sampled_from(CONSTANTS))
    @settings(max_examples=50, deadline=None)
    def test_already_satisfied_requests_are_true(self, db, constant):
        from repro.datalog.evaluation import BottomUpEvaluator

        evaluator = BottomUpEvaluator(db, db.all_rules())
        row = (Constant(constant),)
        if row in evaluator.extension("V1"):
            result = DownwardInterpreter(db).interpret(
                want_insert("V1", constant))
            assert result.dnf.is_true


class TestGoalEquivalence:
    @given(db=databases(),
           view=st.sampled_from(["V1", "V2"]),
           constant=st.sampled_from(CONSTANTS + [None]))
    @settings(max_examples=60, deadline=None)
    def test_query_matches_full_evaluation(self, db, view, constant):
        """``db.query`` on a bound or free goal is the filtered extension."""
        from repro.datalog.evaluation import BottomUpEvaluator

        if not any(r.head.predicate == view for r in db.rules):
            return
        goal = f"{view}({constant})" if constant else f"{view}(x)"
        full = BottomUpEvaluator(db, db.all_rules())
        expected = {
            row for row in full.extension(view)
            if constant is None or row[0] == Constant(constant)
        }
        if constant is None:
            assert set(db.query(goal)) == {(c.value,) for (c,) in expected}
        else:
            assert db.query(goal) == ([()] if expected else [])

def _truth_assignments(literal_pool):
    atoms = sorted({l.atom for l in literal_pool}, key=str)
    for bits in itertools.product([False, True], repeat=len(atoms)):
        yield dict(zip(atoms, bits))


def _eval_dnf(dnf, assignment):
    if dnf.is_true:
        return True
    return any(
        all(assignment[l.atom] == l.positive for l in conjunct)
        for conjunct in dnf.disjuncts
    )


_LITERAL_POOL = [
    Literal(Atom("ins$A", (Constant("X"),)), True),
    Literal(Atom("ins$A", (Constant("X"),)), False),
    Literal(Atom("del$B", (Constant("Y"),)), True),
    Literal(Atom("del$B", (Constant("Y"),)), False),
    Literal(Atom("ins$C"), True),
    Literal(Atom("ins$C"), False),
]

_dnfs = st.builds(
    Dnf.of_disjuncts,
    st.lists(st.lists(st.sampled_from(_LITERAL_POOL), min_size=1, max_size=3),
             max_size=4),
)


class TestDnfAlgebra:
    @given(a=_dnfs, b=_dnfs)
    @settings(max_examples=150, deadline=None)
    def test_conjunction_semantics(self, a, b):
        combined = a.and_(b)
        for assignment in _truth_assignments(_LITERAL_POOL):
            expected = _eval_dnf(a, assignment) and _eval_dnf(b, assignment)
            assert _eval_dnf(combined, assignment) == expected

    @given(a=_dnfs, b=_dnfs)
    @settings(max_examples=150, deadline=None)
    def test_disjunction_semantics(self, a, b):
        combined = a.or_(b)
        for assignment in _truth_assignments(_LITERAL_POOL):
            expected = _eval_dnf(a, assignment) or _eval_dnf(b, assignment)
            assert _eval_dnf(combined, assignment) == expected

    @given(a=_dnfs)
    @settings(max_examples=150, deadline=None)
    def test_negation_semantics(self, a):
        negated = a.negated()
        for assignment in _truth_assignments(_LITERAL_POOL):
            assert _eval_dnf(negated, assignment) == (not _eval_dnf(a, assignment))

    @given(a=_dnfs)
    @settings(max_examples=100, deadline=None)
    def test_simplified_preserves_semantics(self, a):
        simplified = a.simplified()
        for assignment in _truth_assignments(_LITERAL_POOL):
            assert _eval_dnf(simplified, assignment) == _eval_dnf(a, assignment)

    @given(a=_dnfs)
    @settings(max_examples=60, deadline=None)
    def test_identities(self, a):
        assert a.and_(TRUE_DNF) == a.simplified()
        assert a.and_(FALSE_DNF).is_false
        assert a.or_(FALSE_DNF) == a.simplified()


class TestRoundTrips:
    @given(db=databases())
    @settings(max_examples=60, deadline=None)
    def test_database_source_round_trip(self, db):
        again = DeductiveDatabase.from_source(str(db))
        assert set(again.iter_facts()) == set(db.iter_facts())
        assert set(map(str, again.rules)) == set(map(str, db.rules))

    @given(transaction=transactions())
    @settings(max_examples=80, deadline=None)
    def test_transaction_string_round_trip(self, transaction):
        assert parse_transaction(str(transaction)) == transaction

    @given(db=databases(), transaction=transactions())
    @settings(max_examples=60, deadline=None)
    def test_normalization_preserves_transition(self, db, transaction):
        """Applying T and applying normalise(T) give the same new state."""
        direct = transaction.apply_to(db)
        normalized = transaction.normalized(db).apply_to(db)
        assert set(direct.iter_facts()) == set(normalized.iter_facts())


class TestUpwardDownwardRoundTrip:
    @given(db=databases(),
           kind=st.sampled_from(["ins", "del"]),
           view=st.sampled_from(["V1", "V2"]),
           constant=st.sampled_from(CONSTANTS))
    @settings(max_examples=80, deadline=None)
    def test_upward_confirms_every_translation(self, db, kind, view, constant):
        """upward ∘ downward: each translation's induced events contain the
        requested one, and applying it really flips the view row."""
        from repro.datalog.evaluation import BottomUpEvaluator

        if not any(r.head.predicate == view for r in db.rules):
            return
        request = want_insert(view, constant) if kind == "ins" \
            else want_delete(view, constant)
        result = DownwardInterpreter(db).interpret(request)
        if result.already_satisfied:
            return
        row = (Constant(constant),)
        interpreter = UpwardInterpreter(db)
        for translation in result.translations:
            induced = interpreter.interpret(translation.transaction)
            achieved = induced.insertions.get(view, frozenset()) \
                if kind == "ins" else induced.deletions.get(view, frozenset())
            assert row in achieved
            new_db = translation.transaction.apply_to(db)
            holds_after = row in BottomUpEvaluator(
                new_db, new_db.all_rules()).extension(view)
            assert holds_after == (kind == "ins")


class TestEngineModeDifferential:
    """The served engine ≡ the naive oracle, after every commit.

    These programs are non-recursive, so the engine serves them with the
    counting maintainer: its upward interpretations must equal
    ``naive_changes``, every read must equal a from-scratch evaluation,
    and its *maintained extensions* (not just its query answers) must
    track the set semantics commit after commit, including through the
    negation in V2/V3.
    """

    @staticmethod
    def _derived_goals(db):
        goals = []
        for predicate in sorted(db.schema.derived):
            arity = db.schema.arity(predicate)
            variables = ", ".join(f"x{i}" for i in range(arity))
            goals.append(f"{predicate}({variables})" if arity else predicate)
        return goals

    @given(db=databases(), seeds=st.lists(st.integers(0, 10_000),
                                          min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_modes_and_oracle_agree_after_every_commit(self, db, seeds):
        import tempfile

        from repro.server.engine import DatabaseEngine
        from repro.workloads import random_transaction

        if not db.base_predicates_with_facts():
            return
        with tempfile.TemporaryDirectory() as scratch:
            engine = DatabaseEngine.open(f"{scratch}/c", initial=db)
            oracle = db.copy()
            try:
                assert engine.cache_mode == "counting"
                for seed in seeds:
                    if not engine.db.base_predicates_with_facts():
                        break
                    transaction = random_transaction(
                        engine.db, n_events=2, seed=seed)
                    induced = engine.upward(transaction)
                    expected = naive_changes(oracle, transaction)
                    assert induced.insertions == expected.insertions
                    assert induced.deletions == expected.deletions

                    assert engine.commit(transaction).applied
                    oracle = transaction.apply_to(oracle)
                    assert set(engine.db.iter_facts()) \
                        == set(oracle.iter_facts())
                    # Reads are served from maintained state: every goal
                    # shape over every predicate must equal db.query.
                    faultkit.check_reads_match_oracle(engine)
                    for goal, predicate in zip(self._derived_goals(db),
                                               sorted(db.schema.derived)):
                        extension = {
                            tuple(constant.value for constant in row)
                            for row in engine.maintainer.extension(
                                predicate)}
                        assert extension == set(map(
                            tuple, oracle.query(goal))), (
                            f"counting extension of {predicate} diverged "
                            f"after commit")
            finally:
                engine.close()


class TestRecursiveProgramDifferential:
    """The advance path ≡ the naive oracle on recursive programs.

    Counting refuses recursion, so these are the programs the engine
    serves with the advancing maintainer.  The rules are
    ``examples/supply_chain_reachability.py``'s -- a recursive ``Path``
    closure, a negated ``Cut`` over it, a constraint on it -- over a
    seeded random graph (:func:`~repro.workloads.reachability_database`);
    a second shape puts two mutually recursive views on the same graph.
    After every commit of a seeded workload: the commit's upward
    interpretation equals ``naive_changes``; its verdict is the one a
    fresh processor gives; ``query``, ``check`` / ``upward`` /
    ``monitor`` and ``downward`` equal their from-scratch oracles; and a
    subscriber's delta frames rebuild the materialised state.
    """

    @staticmethod
    def _program(seed: int) -> DeductiveDatabase:
        from repro.workloads import reachability_database

        db = reachability_database(n_nodes=6, n_edges=8, seed=seed)
        db.declare_base("Facility", 1)
        db.declare_base("Source", 1)
        on_a_cycle = {row[0] for row in db.query("Path(x, x)")}
        nodes = [f"N{index}" for index in range(6)]
        for node in nodes:
            db.add_fact("Facility", node)
        # The start state is consistent: the source is on no cycle.
        db.add_fact("Source", next(n for n in nodes if n not in on_a_cycle))
        for source in ("Reached(y) <- Source(x) & Path(x, y).",
                       "Cut(y) <- Facility(y) & not Reached(y)."):
            db.add_rule(parse_rule(source))
        # A source must not lie on a cycle: some inserted edges violate.
        db.add_constraint(parse_rule("Ic1(x) <- Source(x) & Path(x, x)."))
        return db

    @staticmethod
    def _mutual_program(seed: int) -> DeductiveDatabase:
        """The same seeded graph under two *mutually* recursive views:
        ``Odd`` / ``Even``, the walks of odd / even length, one SCC of
        two predicates; ``EvenOnly`` negates one of them over the other,
        and a source must lie on no odd closed walk."""
        from repro.workloads import reachability_database

        db = reachability_database(n_nodes=6, n_edges=8, seed=seed)
        for source in ("Odd(x, y) <- Edge(x, y).",
                       "Odd(x, y) <- Edge(x, z) & Even(z, y).",
                       "Even(x, y) <- Edge(x, z) & Odd(z, y).",
                       "EvenOnly(x, y) <- Even(x, y) & not Odd(x, y)."):
            db.add_rule(parse_rule(source))
        db.declare_base("Source", 1)
        on_an_odd_walk = {row[0] for row in db.query("Odd(x, x)")}
        db.add_fact("Source", next(f"N{index}" for index in range(6)
                                   if f"N{index}" not in on_an_odd_walk))
        db.add_constraint(parse_rule("Ic1(x) <- Source(x) & Odd(x, x)."))
        return db

    @staticmethod
    def _agree_after_every_commit(tmp_path, db: DeductiveDatabase,
                                  seed: int) -> None:
        from repro.core.processor import UpdateProcessor
        from repro.server.engine import DatabaseEngine
        from repro.workloads import random_transaction

        engine = DatabaseEngine.open(tmp_path / "db", initial=db)
        try:
            assert engine.cache_mode == "advance"
            subscriber = faultkit.SubscriptionOracle(engine)
            oracle = db.copy()
            applied = rejected = 0
            for step in range(6):
                transaction = random_transaction(
                    engine.db, n_events=2, seed=100 * seed + step,
                    predicates=["Edge"])
                expected = naive_changes(oracle, transaction)
                induced = engine.upward(transaction)
                assert induced.insertions == expected.insertions
                assert induced.deletions == expected.deletions
                verdict = UpdateProcessor(oracle).check(transaction)
                outcome = engine.commit(transaction)
                assert outcome.applied == verdict.ok
                assert outcome.check.to_dict() == verdict.to_dict()
                if outcome.applied:
                    applied += 1
                    oracle = transaction.apply_to(oracle)
                else:
                    rejected += 1
                assert set(engine.db.iter_facts()) \
                    == set(oracle.iter_facts())
                faultkit.check_reads_match_oracle(engine)
                subscriber.check()
            assert applied, "workload never commits; oracle untested"
            assert 0 < subscriber.deltas <= applied
            assert subscriber.resyncs == 0
        finally:
            engine.close()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_advance_and_oracle_agree_after_every_commit(self, tmp_path,
                                                         seed):
        self._agree_after_every_commit(tmp_path, self._program(seed), seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mutual_recursion_agrees_after_every_commit(self, tmp_path,
                                                        seed):
        self._agree_after_every_commit(tmp_path, self._mutual_program(seed),
                                       seed)


_CONTRADICTION_NOTE = """
The transaction strategy already avoids inserting and deleting the same
fact, matching the paper's well-formedness requirement on T.
"""
