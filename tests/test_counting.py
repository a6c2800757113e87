"""Tests for the counting-based change computation engine ([GMS93])."""

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import StratificationError
from repro.datalog.terms import Constant
from repro.events.events import Transaction, delete, insert
from repro.interpretations import naive_changes
from repro.interpretations.counting import CountingEngine
from repro.workloads import employment_database, random_transaction

from tests.test_properties import CONSTANTS, databases, transactions


def rows(*names):
    return frozenset(
        tuple(Constant(p) for p in (n if isinstance(n, tuple) else (n,)))
        for n in names
    )


class TestInitialization:
    def test_counts_match_derivations(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        engine = CountingEngine(db)
        assert engine.count("P", (Constant("A"),)) == 2
        assert engine.extension("P") == rows("A")

    def test_join_derivations_counted_per_binding(self):
        db = DeductiveDatabase.from_source("""
            E(A, B). E(A, C).
            Reaches(x) <- E(x, y).
        """)
        engine = CountingEngine(db)
        # Two bindings of y support Reaches(A).
        assert engine.count("Reaches", (Constant("A"),)) == 2

    def test_recursion_rejected(self):
        db = DeductiveDatabase.from_source("""
            Edge(A, B).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
        """)
        with pytest.raises(StratificationError):
            CountingEngine(db)


class TestZeroCrossings:
    def test_duplicate_support_prevents_deletion(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        engine = CountingEngine(db)
        result = engine.apply(Transaction([delete("Q", "A")]))
        assert result.deletions == {}  # count 2 -> 1, no zero-crossing
        assert engine.count("P", (Constant("A"),)) == 1
        result = engine.apply(Transaction([delete("R", "A")]))
        assert result.deletions_of("P") == rows("A")
        assert engine.count("P", (Constant("A"),)) == 0

    def test_insertion_crossing(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x) & S(x).")
        db.declare_base("S", 1)
        engine = CountingEngine(db)
        result = engine.apply(Transaction([insert("S", "A")]))
        assert result.insertions_of("P") == rows("A")

    def test_negative_literal_deltas(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). R(B).
            P(x) <- Q(x) & not R(x).
        """)
        engine = CountingEngine(db)
        result = engine.apply(Transaction([delete("R", "B")]))
        assert result.insertions_of("P") == rows("B")
        result = engine.apply(Transaction([insert("R", "A")]))
        assert result.deletions_of("P") == rows("A")

    def test_cascading_levels(self):
        db = DeductiveDatabase.from_source("""
            Q(A). S(A).
            P(x) <- Q(x).
            W(x) <- P(x) & S(x).
        """)
        engine = CountingEngine(db)
        result = engine.apply(Transaction([delete("Q", "A")]))
        assert result.deletions_of("P") == rows("A")
        assert result.deletions_of("W") == rows("A")


class TestAgainstOracle:
    def test_transaction_sequence_agrees_with_oracle(self):
        db = employment_database(40, seed=31)
        engine = CountingEngine(db)
        for seed in range(12):
            # The oracle sees the database *before* the engine applies.
            transaction = random_transaction(db, n_events=3, seed=seed)
            expected = naive_changes(db, transaction)
            result = engine.apply(transaction)
            assert result.insertions == expected.insertions, f"seed {seed}"
            assert result.deletions == expected.deletions, f"seed {seed}"

    def test_extensions_stay_in_sync(self):
        from repro.datalog.evaluation import BottomUpEvaluator

        db = employment_database(30, seed=5)
        engine = CountingEngine(db)
        for seed in range(8):
            engine.apply(random_transaction(db, n_events=2, seed=100 + seed))
        evaluator = BottomUpEvaluator(db, db.rules_with_global_ic())
        assert engine.extension("Unemp") == evaluator.extension("Unemp")

    def test_with_builtins(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B).
            Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).
        """)
        engine = CountingEngine(db)
        expected = naive_changes(db, Transaction([insert("Q", "C")]))
        result = engine.apply(Transaction([insert("Q", "C")]))
        assert result.insertions == expected.insertions

    def test_same_event_multiple_positions(self):
        # One event hits two positions of the same rule body: the
        # telescoping decomposition must not double-count.
        db = DeductiveDatabase.from_source("E(A, A). Self(x) <- E(x, y) & E(y, x).")
        engine = CountingEngine(db)
        expected = naive_changes(db, Transaction([insert("E", "B", "B")]))
        result = engine.apply(Transaction([insert("E", "B", "B")]))
        assert result.insertions == expected.insertions
        assert engine.count("Self", (Constant("B"),)) == 1


class TestTwoPhase:
    """The staged delta()/advance() split used by the serving engine."""

    def test_delta_leaves_state_untouched(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x).")
        engine = CountingEngine(db)
        result, staged = engine.delta(Transaction([delete("Q", "A")]))
        assert result.deletions_of("P") == rows("A")
        # Nothing moved: neither the database nor the counts.
        assert db.has_fact("Q", "A")
        assert engine.extension("P") == rows("A")
        assert engine.count("P", (Constant("A"),)) == 1

    def test_advance_after_manual_apply(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x).")
        engine = CountingEngine(db)
        result, staged = engine.delta(Transaction([delete("Q", "A")]))
        for event in result.transaction:
            db.remove_fact(event.predicate, *event.args)
        engine.advance(staged)
        assert engine.extension("P") == frozenset()
        assert engine.count("P", (Constant("A"),)) == 0

    def test_double_advance_is_rejected(self):
        from repro.datalog.errors import SafetyError

        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x).")
        engine = CountingEngine(db)
        result, staged = engine.delta(Transaction([delete("Q", "A")]))
        db.remove_fact("Q", "A")
        engine.advance(staged)
        with pytest.raises(SafetyError):
            engine.advance(staged)  # stale: would drive the count negative

    def test_apply_is_delta_plus_advance(self):
        db = employment_database(20, seed=11)
        twin = db.copy()
        engine = CountingEngine(db)
        twin_engine = CountingEngine(twin)
        transaction = random_transaction(db, n_events=3, seed=2)
        result, staged = engine.delta(transaction)
        applied = engine.apply(transaction)
        assert applied.insertions == result.insertions
        assert applied.deletions == result.deletions
        one_shot = twin_engine.apply(transaction)
        assert one_shot.insertions == applied.insertions
        assert one_shot.deletions == applied.deletions


class TestMaintainedViews:
    """The engine as the store of materialised views (Section 5.1.3)."""

    WAREHOUSE = """
        Order(O1, Ada). Order(O2, Ada). Order(O3, Alan). Shipped(O3).
        Pending(o, c) <- Order(o, c) & not Shipped(o).
        ActiveCustomer(c) <- Pending(o, c).
    """

    def test_initial_extension(self, employment_db):
        engine = CountingEngine(employment_db)
        assert engine.extension("Unemp") == rows("Dolors")
        assert engine.extension("Ic1") == frozenset()

    def test_insertion_maintained(self, employment_db):
        engine = CountingEngine(employment_db)
        result = engine.apply(Transaction([insert("La", "Maria")]))
        assert result.insertions_of("Unemp") == rows("Maria")
        assert engine.extension("Unemp") == rows("Dolors", "Maria")
        # Maria has no benefit: the inconsistency view is maintained too.
        assert engine.extension("Ic1") == frozenset({()})

    def test_apply_writes_through_to_db(self, employment_db):
        engine = CountingEngine(employment_db)
        engine.apply(Transaction([insert("La", "Maria")]))
        assert employment_db.has_fact("La", "Maria")

    def test_deletion_maintained(self, employment_db):
        engine = CountingEngine(employment_db)
        result = engine.apply(Transaction([insert("Works", "Dolors")]))
        assert result.deletions_of("Unemp") == rows("Dolors")
        assert engine.extension("Unemp") == frozenset()

    def test_two_level_view_keeps_its_support(self):
        db = DeductiveDatabase.from_source(self.WAREHOUSE)
        engine = CountingEngine(db)
        assert engine.extension("ActiveCustomer") == rows("Ada")
        assert engine.count("ActiveCustomer", (Constant("Ada"),)) == 2
        # Ada stays active while one of her orders is still pending.
        engine.apply(Transaction([insert("Shipped", "O1")]))
        assert engine.extension("ActiveCustomer") == rows("Ada")
        result = engine.apply(Transaction([insert("Shipped", "O2")]))
        assert result.deletions_of("ActiveCustomer") == rows("Ada")
        assert engine.extension("ActiveCustomer") == frozenset()

    def test_every_view_in_sync_after_many_transactions(self):
        from repro.datalog.evaluation import BottomUpEvaluator

        db = employment_database(40, seed=11)
        engine = CountingEngine(db)
        for seed in range(8):
            engine.apply(random_transaction(db, n_events=3, seed=seed))
        evaluator = BottomUpEvaluator(db, db.rules_with_global_ic())
        for predicate in engine.order:
            assert engine.extension(predicate) \
                == evaluator.extension(predicate), predicate

    def test_agrees_with_upward_interpreter(self):
        from repro.core import UpdateProcessor

        db = employment_database(20, seed=62)
        engine = CountingEngine(db.copy())
        for seed in range(6):
            transaction = random_transaction(db, n_events=2, seed=seed)
            deltas = UpdateProcessor(db).maintenance_deltas(
                transaction, ["Unemp"])
            result = engine.apply(transaction)
            assert result.insertions_of("Unemp") \
                == deltas.to_insert.get("Unemp", frozenset()), seed
            assert result.deletions_of("Unemp") \
                == deltas.to_delete.get("Unemp", frozenset()), seed
            db = transaction.apply_to(db)

    def test_base_predicate_is_not_maintained(self, employment_db):
        engine = CountingEngine(employment_db)
        assert "La" not in engine.order
        assert engine.extension("La") == frozenset()
        assert engine.count("Unemp", (Constant("Maria"),)) == 0


class TestDeltaRules:
    def test_delta_rules_compiled_per_body_position(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x) & R(x).
        """)
        engine = CountingEngine(db)
        # One delta rule per non-builtin body literal.
        assert engine.n_delta_rules == 2

    def test_builtin_positions_are_rigid(self):
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B).
            Pair(x, y) <- Q(x) & Q(y) & Neq(x, y).
        """)
        engine = CountingEngine(db)
        assert engine.n_delta_rules == 2  # Neq is never a delta position

    def test_delete_both_supports_in_one_transaction(self):
        # Refcount regression: the same tuple derived through two rules,
        # both supports removed by a single transaction -> exactly one
        # deletion event, count exactly zero (not negative).
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        engine = CountingEngine(db)
        result = engine.apply(
            Transaction([delete("Q", "A"), delete("R", "A")]))
        assert result.deletions_of("P") == rows("A")
        assert engine.count("P", (Constant("A"),)) == 0
        assert engine.extension("P") == frozenset()


class TestNegationBoundary:
    def test_boundary_is_negation_over_derived(self):
        db = DeductiveDatabase.from_source("""
            Q(A). S(A). R(A).
            V(x) <- Q(x).
            P(x) <- S(x) & not V(x).
            W(x) <- S(x) & not R(x).
        """)
        engine = CountingEngine(db)
        # P negates the derived V; W only negates the base R.
        assert engine.negation_boundary == frozenset({"P"})

    def test_rederive_heals_stale_counts_across_boundary(self):
        db = DeductiveDatabase.from_source("""
            Q(A). S(A). S(B).
            V(x) <- Q(x).
            P(x) <- S(x) & not V(x).
        """)
        healed = []
        engine = CountingEngine(db, on_rederive=healed.append)
        assert engine.extension("P") == rows("B")
        # Corrupt the counts behind the engine's back: the next decrement
        # breaches the invariant, and P (a negation boundary) must heal
        # by DRed-style rederivation instead of raising.
        engine._counts["P"].clear()
        result = engine.apply(Transaction([delete("S", "B")]))
        assert result.deletions_of("P") == rows("B")
        assert engine.extension("P") == frozenset()
        assert engine.rederive_count == 1
        assert healed == ["P"]

    def test_breach_off_boundary_raises(self):
        from repro.datalog.errors import SafetyError

        db = DeductiveDatabase.from_source("Q(A). W(x) <- Q(x).")
        engine = CountingEngine(db)
        engine._counts["W"].clear()  # corrupt: no rederive escape for W
        with pytest.raises(SafetyError):
            engine.apply(Transaction([delete("Q", "A")]))

    def test_recursion_error_is_typed(self):
        from repro.interpretations.counting import CountingUnsupportedError

        db = DeductiveDatabase.from_source("""
            Edge(A, B).
            Path(x, y) <- Edge(x, y).
            Path(x, y) <- Edge(x, z) & Path(z, y).
        """)
        assert issubclass(CountingUnsupportedError, StratificationError)
        with pytest.raises(CountingUnsupportedError):
            CountingEngine(db)

    def test_stratified_negation_sequence_agrees_with_oracle(self):
        db = DeductiveDatabase.from_source("""
            B(A). B(C). S(A). S(C). S(D).
            V(x) <- B(x).
            P(x) <- S(x) & not V(x).
            W(x) <- P(x) & S(x).
        """)
        engine = CountingEngine(db)
        steps = [
            Transaction([delete("B", "A")]),
            Transaction([insert("B", "D")]),
            Transaction([insert("S", "E"), delete("S", "C")]),
            Transaction([delete("B", "D"), insert("B", "A")]),
        ]
        for step, transaction in enumerate(steps):
            expected = naive_changes(db, transaction)
            result = engine.apply(transaction)
            assert result.insertions == expected.insertions, f"step {step}"
            assert result.deletions == expected.deletions, f"step {step}"
        assert engine.rederive_count == 0  # exact counting, no healing


# -- upward templates ----------------------------------------------------------

EMPLOYMENT = """
    La(Dolors). U_benefit(Dolors). La(Pere). Works(Pere).
    Unemp(x) <- La(x) & not Works(x).
    Ic1(x) <- Unemp(x) & not U_benefit(x).
"""

#: (database source, warm-up transactions, target, path of the target).
UPWARD_TEMPLATE_CASES = [
    # The paper's running example: the target reuses the warm-up's shape.
    (EMPLOYMENT, ["insert La(Maria), insert Works(Maria)"],
     "insert La(Joan), insert Works(Joan)", "template"),
    (EMPLOYMENT, ["delete Works(Pere)"], "delete U_benefit(Dolors)",
     "delta"),
    (EMPLOYMENT, ["delete U_benefit(Dolors)"], "delete U_benefit(Dolors)",
     "template"),
    # Examples 4.1 / 4.2.
    ("Q(A). Q(B). R(B). P(x) <- Q(x) & not R(x).",
     ["delete R(B)"], "delete R(A)", "delta"),
    ("Q(A). Q(B). R(B). Q(C). R(C). P(x) <- Q(x) & not R(x).",
     ["delete R(B)"], "delete R(C)", "template"),
    # Repeated constants are part of the shape: Q(A, A) is not Q(B, C).
    ("S(A). P(x) <- Q(x, x) & S(x).", ["insert Q(B, C)"], "insert Q(A, A)",
     "delta"),
    ("S(A). S(D). P(x) <- Q(x, x) & S(x).", ["insert Q(A, A)"],
     "insert Q(D, D)", "template"),
    # A built-in is a probe: its other outcome is another branch.
    ("Big(x, y) <- Q(x, y) & x < y.", ["insert Q(1, 2)"], "insert Q(5, 3)",
     "delta"),
    ("Big(x, y) <- Q(x, y) & x < y.", ["insert Q(1, 2)", "insert Q(5, 3)"],
     "insert Q(7, 9)", "template"),
    # A transaction naming a rule's constant is never templated.
    ("P(x) <- Q(x, Sales).", ["insert Q(A, B)"], "insert Q(A, Sales)",
     "untemplated"),
    ("P(x) <- Q(x, Sales).", ["insert Q(A, Sales)", "insert Q(A, B)"],
     "insert Q(C, D)", "template"),
    # A lookup with an unbound argument rules the shape out.
    ("E(A, B). Reaches(x) <- E(x, y).", ["insert E(C, D)"],
     "insert E(F, G)", "template"),
    ("E(A, B). F(B). Src(x) <- E(x, y) & F(y).", ["insert F(A)"],
     "insert F(C)", "untemplated"),
    # The negation boundary: P negates the derived V.
    ("Q(A). S(A). S(B). V(x) <- Q(x). P(x) <- S(x) & not V(x).",
     ["insert Q(B)"], "insert Q(C), insert S(C)", "delta"),
    ("Q(A). S(A). S(B). S(C). V(x) <- Q(x). P(x) <- S(x) & not V(x).",
     ["insert Q(B)"], "insert Q(C)", "template"),
]


def _assert_same_delta(served, cold):
    assert served[0].insertions == cold[0].insertions
    assert served[0].deletions == cold[0].deletions
    assert served[0].transaction == cold[0].transaction
    assert served[0].covered == cold[0].covered
    assert served[1] == cold[1]


class TestUpwardTemplates:
    """A fresh engine compiles its own program, so its first delta always
    runs the delta rules; a warm one that served the shape with other
    constants answers from the template and must agree exactly."""

    @pytest.mark.parametrize("index", range(len(UPWARD_TEMPLATE_CASES)))
    def test_warm_template_matches_a_cold_delta(self, index):
        from repro.events.events import parse_transaction

        source, warm, target, path = UPWARD_TEMPLATE_CASES[index]
        db = DeductiveDatabase.from_source(source)
        engine = CountingEngine(db)
        for text in warm:
            engine.delta(parse_transaction(text))
        served = engine.delta(parse_transaction(target))
        cold = CountingEngine(db).delta(parse_transaction(target))
        assert cold[0].path in ("delta", "untemplated")
        assert served[0].path == path
        _assert_same_delta(served, cold)

    def test_employment_database_at_scale(self):
        db = employment_database(30, seed=5)
        engine = CountingEngine(db)
        people = [f"P{i}" for i in range(30)] + ["New0", "New1"]
        paths = []
        for index, person in enumerate(people):
            for text in (f"insert La({person}), insert Works({person})",
                         f"delete Works({person}), insert U_benefit({person})",
                         f"delete U_benefit({person})",
                         f"delete La({person})"):
                from repro.events.events import parse_transaction

                transaction = parse_transaction(text)
                served = engine.delta(transaction)
                _assert_same_delta(served, CountingEngine(db).delta(
                    transaction))
                paths.append(served[0].path)
        assert paths.count("template") > 0.8 * len(paths)

    def test_a_repeated_shape_enters_no_delta_rule(self, monkeypatch):
        db = employment_database(50, seed=1)
        engine = CountingEngine(db)
        engine.delta(Transaction([insert("La", "W0"), insert("Works", "W0")]))
        calls = []
        original = CountingEngine._apply_delta_rule
        monkeypatch.setattr(CountingEngine, "_apply_delta_rule",
                            lambda self, *args: calls.append(args)
                            or original(self, *args))
        for index in range(1, 200):
            result, _ = engine.delta(Transaction([
                insert("La", f"W{index}"), insert("Works", f"W{index}")]))
            assert result.path == "template"
        assert calls == []

    def test_untemplated_delta_enters_only_triggered_rules(self, monkeypatch):
        calls = []
        original = CountingEngine._apply_delta_rule
        monkeypatch.setattr(CountingEngine, "_apply_delta_rule",
                            lambda self, rule, *args: calls.append(
                                (rule.head.predicate, rule.literal.predicate))
                            or original(self, rule, *args))
        db = employment_database(20, seed=1)
        # Five delta rules; a benefit triggers only Ic1's U_benefit one.
        engine = CountingEngine(db)
        assert engine.n_delta_rules == 5
        engine.delta(Transaction([insert("U_benefit", "Nobody")]))
        assert calls == [("Ic1", "U_benefit")]
        calls.clear()
        CountingEngine(db).delta(Transaction([insert("La", "Nobody"),
                                              insert("Works", "Nobody")]))
        assert calls == [("Unemp", "La"), ("Unemp", "Works")]
        calls.clear()
        person = next(row[0] for row in db.query("Works(x)")
                      if db.has_fact("La", *row))
        result, _ = CountingEngine(db).delta(
            Transaction([delete("Works", person)]))
        # Unemp gains the person, so Ic1's Unemp rule runs too, and Ic1
        # gains the (benefit-less) person, so Ic's rule runs as well.
        assert calls == [("Unemp", "Works"), ("Ic1", "Unemp"),
                         ("Ic", "Ic1")]
        assert result.insertions_of("Ic1")

    def test_templates_live_on_the_program(self):
        db = employment_database(20, seed=3)
        engine = CountingEngine(db)
        engine.delta(Transaction([insert("La", "Fresh0")]))
        rebuilt = CountingEngine(db, program=engine._program)
        result, _ = rebuilt.delta(Transaction([insert("La", "Fresh1")]))
        assert result.path == "template"

    def test_a_breach_on_a_known_branch_still_heals(self):
        db = DeductiveDatabase.from_source("""
            Q(A). S(A). S(B). S(C).
            V(x) <- Q(x).
            P(x) <- S(x) & not V(x).
        """)
        engine = CountingEngine(db)
        engine.delta(Transaction([delete("S", "B")]))
        engine._counts["P"].clear()  # stale counts behind the engine's back
        result = engine.apply(Transaction([delete("S", "C")]))
        assert result.path == "untemplated"  # a rederivation is not kept
        assert result.deletions_of("P") == rows("C")
        assert engine.rederive_count == 1
        assert engine.extension("P") == rows("B")

    def test_two_hires_share_one_key_whatever_the_constants(self):
        db = employment_database(20, seed=2)
        engine = CountingEngine(db)
        paths = []
        for first, second in [("A", "B"), ("B", "A"), ("Zed", "Amy"),
                              ("N1", "N2"), ("Q9", "Q1"), ("Mo", "Al"),
                              ("X", "Y"), ("Y", "X")]:
            transaction = Transaction([
                insert("La", first), insert("La", second),
                insert("Works", first), insert("Works", second)])
            served = engine.delta(transaction)
            _assert_same_delta(served, CountingEngine(db).delta(transaction))
            paths.append(served[0].path)
        assert len(engine._templates) == 1
        assert paths == ["delta"] + ["template"] * 7

    def test_an_enumerating_branch_leaves_the_others_templated(self):
        # R is looked up with y unbound only when S(x) holds.
        db = DeductiveDatabase.from_source("""
            S(A). S(B). R(A, C). R(B, D).
            P(x) <- Q(x) & S(x) & R(x, y).
        """)
        engine = CountingEngine(db)
        paths = []
        for name in ("E", "A", "F", "B", "G"):
            transaction = Transaction([insert("Q", name)])
            served = engine.delta(transaction)
            _assert_same_delta(served, CountingEngine(db).delta(transaction))
            paths.append(served[0].path)
        assert paths == ["delta", "untemplated", "template", "untemplated",
                         "template"]

    def test_shapes_stop_at_the_bound(self):
        from itertools import combinations

        from repro.events.shapes import _MAX_SHAPES

        names = [f"B{i}" for i in range(9)]
        db = DeductiveDatabase.from_source(
            " ".join(f"P(x) <- {name}(x)." for name in names))
        engine = CountingEngine(db)
        subsets = [subset for size in range(1, len(names) + 1)
                   for subset in combinations(names, size)]
        paths = []
        for subset in subsets[:_MAX_SHAPES + 20]:
            transaction = Transaction(insert(name, f"C{index}")
                                      for index, name in enumerate(subset))
            paths.append(engine.delta(transaction)[0].path)
        assert len(engine._templates) == _MAX_SHAPES
        assert paths == ["delta"] * _MAX_SHAPES + ["untemplated"] * 20
        # Shapes already kept still answer.
        result, _ = engine.delta(Transaction([insert("B0", "New")]))
        assert result.path == "template"
        assert result.insertions_of("P") == rows("New")

    def test_commit_stream_through_templated_advance(self):
        import random

        db = employment_database(30, seed=11)
        engine = CountingEngine(db)
        rng = random.Random(7)
        people = [f"P{i}" for i in range(30)] + [f"N{i}" for i in range(10)]
        hits = 0
        for step in range(300):
            person = rng.choice(people)
            events = rng.choice([
                [insert("La", person), insert("Works", person)],
                [delete("Works", person), insert("U_benefit", person)],
                [insert("Works", person), delete("U_benefit", person)],
                [delete("La", person)],
                [delete("U_benefit", person)],
            ])
            result = engine.apply(Transaction(events))
            hits += result.path == "template"
            if step % 50 == 49:
                fresh = CountingEngine(db)
                for predicate in engine.order:
                    assert engine._counts[predicate] == \
                        fresh._counts[predicate], (step, predicate)
                    assert engine.extension(predicate) == \
                        fresh.extension(predicate)
        assert hits > 200


@st.composite
def _tied_transactions(draw):
    """Up to six events over B1/B2 that often share predicate and kind."""
    from repro.events.events import Event, EventKind

    events = {}
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from([EventKind.INSERTION,
                                     EventKind.DELETION]))
        predicate, arity = draw(st.sampled_from([("B1", 1), ("B2", 2)]))
        args = tuple(Constant(draw(st.sampled_from(CONSTANTS)))
                     for _ in range(arity))
        events.setdefault((predicate, args),
                          Event(kind, predicate, args))
    return Transaction(events.values())


class TestShapeKey:
    """A shape key names no constant: every renaming of a transaction has
    its key, and the slots rename the key back to the transaction."""

    @given(transaction=_tied_transactions())
    @settings(max_examples=150, deadline=None)
    def test_every_renaming_has_one_key(self, transaction):
        from itertools import permutations

        from repro.events.shapes import _shape

        shape = _shape(transaction)
        event(f"templated={shape is not None}")
        if shape is None:
            return
        key, slots = shape
        constants = list(slots)
        assert {(kind, predicate, tuple(constants[i] for i in pattern))
                for kind, predicate, pattern in key} == \
            {(e.kind, e.predicate, e.args) for e in transaction}
        for permutation in permutations(CONSTANTS):
            renamed = TestUpwardTemplateProperty._renamed(transaction, {
                Constant(a): Constant(b)
                for a, b in zip(CONSTANTS, permutation)})
            assert _shape(renamed)[0] == key

    def test_alike_parts_take_no_search(self):
        from repro.events.shapes import _shape

        def hires(names):
            return Transaction(event for name in names for event in (
                insert("La", name), insert("Works", name)))

        # Far more hires than one part's orders allow: parts alike.
        names = [f"H{i}" for i in range(12)]
        key = _shape(hires(names))[0]
        assert _shape(hires(reversed(names)))[0] == key
        assert _shape(hires(f"G{i}" for i in range(12)))[0] == key
        # Five facts sharing one constant are one part, whose 5! orders
        # exceed the orders searched.
        crowded = Transaction([insert("B2", f"C{i}", "Hub") for i in range(5)])
        assert _shape(crowded) is None


class TestUpwardTemplateProperty:
    """Random non-recursive programs: a warm engine, fed each transaction
    and a renamed twin of it, agrees with a cold engine on everything a
    delta returns, and its counts track a recount across applies."""

    @staticmethod
    def _renamed(transaction, mapping):
        from repro.events.events import Event

        return Transaction(Event(e.kind, e.predicate,
                                 tuple(mapping.get(a, a) for a in e.args))
                           for e in transaction)

    @given(db=databases(),
           steps=st.lists(st.tuples(transactions(), st.booleans(),
                                    st.permutations(CONSTANTS)),
                          min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_warm_agrees_with_cold_on_random_programs(self, db, steps):
        engine = CountingEngine(db)
        for transaction, apply, permutation in steps:
            twin = self._renamed(transaction, {
                Constant(a): Constant(b)
                for a, b in zip(CONSTANTS, permutation)})
            for candidate in (transaction, twin, transaction):
                served = engine.delta(candidate)
                event(f"path={served[0].path}")
                _assert_same_delta(served, CountingEngine(db).delta(
                    candidate))
            if apply:
                engine.apply(transaction)
                fresh = CountingEngine(db)
                for predicate in engine.order:
                    assert engine._counts[predicate] == \
                        fresh._counts[predicate]
