"""Unit tests for the bottom-up evaluator."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import SafetyError
from repro.datalog.evaluation import BottomUpEvaluator, ExtensionalStore
from repro.datalog.parser import parse_atom, parse_literal
from repro.datalog.terms import Constant


def rows(*names):
    return {tuple(Constant(n) for n in (name if isinstance(name, tuple) else (name,)))
            for name in names}


def evaluator_for(source, semi_naive=True):
    db = DeductiveDatabase.from_source(source)
    return BottomUpEvaluator(db, db.all_rules(), semi_naive=semi_naive)


class TestBasicDerivation:
    SOURCE = "Q(A). Q(B). R(B). P(x) <- Q(x) & not R(x)."

    @pytest.mark.parametrize("semi_naive", [True, False])
    def test_negation(self, semi_naive):
        ev = evaluator_for(self.SOURCE, semi_naive)
        assert ev.extension("P") == rows("A")

    def test_base_extension_passthrough(self):
        ev = evaluator_for(self.SOURCE)
        assert ev.extension("Q") == rows("A", "B")

    def test_unknown_predicate_is_empty(self):
        ev = evaluator_for(self.SOURCE)
        assert ev.extension("Nothing") == frozenset()

    def test_propositional_head(self):
        ev = evaluator_for("Q(A). P <- Q(x).")
        assert ev.extension("P") == {()}

    def test_join(self):
        ev = evaluator_for("E(A,B). E(B,C). J(x,z) <- E(x,y) & E(y,z).")
        assert ev.extension("J") == rows(("A", "C"))

    def test_constants_in_rule_body(self):
        ev = evaluator_for("Q(A). Q(B). P(x) <- Q(x) & Q(A).")
        assert ev.extension("P") == rows("A", "B")

    def test_repeated_variable_join(self):
        ev = evaluator_for("E(A,A). E(A,B). D(x) <- E(x,x).")
        assert ev.extension("D") == rows("A")


class TestRecursion:
    PATH = """
        Edge(A,B). Edge(B,C). Edge(C,D). Edge(D,B).
        Path(x,y) <- Edge(x,y).
        Path(x,y) <- Edge(x,z) & Path(z,y).
    """

    @pytest.mark.parametrize("semi_naive", [True, False])
    def test_transitive_closure_with_cycle(self, semi_naive):
        ev = evaluator_for(self.PATH, semi_naive)
        path = ev.extension("Path")
        assert (Constant("A"), Constant("D")) in path
        assert (Constant("B"), Constant("B")) in path  # via the cycle
        assert (Constant("B"), Constant("A")) not in path

    def test_naive_and_semi_naive_agree(self):
        naive = evaluator_for(self.PATH, semi_naive=False).extension("Path")
        semi = evaluator_for(self.PATH, semi_naive=True).extension("Path")
        assert naive == semi

    def test_semi_naive_does_less_work(self):
        chain = " ".join(f"Edge(N{i},N{i + 1})." for i in range(30))
        source = chain + """
            Path(x,y) <- Edge(x,y).
            Path(x,y) <- Edge(x,z) & Path(z,y).
        """
        naive = evaluator_for(source, semi_naive=False)
        semi = evaluator_for(source, semi_naive=True)
        naive.materialize()
        semi.materialize()
        assert naive.extension("Path") == semi.extension("Path")
        assert semi.stats.literals_matched < naive.stats.literals_matched

    def test_mutual_recursion(self):
        ev = evaluator_for("""
            N(Zero).
            Succ(Zero, One). Succ(One, Two). Succ(Two, Three).
            Even(x) <- N(x).
            Even(x) <- Succ(y, x) & Odd(y).
            Odd(x) <- Succ(y, x) & Even(y).
        """)
        assert ev.extension("Even") == rows("Zero", "Two")
        assert ev.extension("Odd") == rows("One", "Three")

    def test_stratified_negation_over_recursion(self):
        ev = evaluator_for(self.PATH + """
            Node(A). Node(B). Node(C). Node(D).
            Unreach(x,y) <- Node(x) & Node(y) & not Path(x,y).
        """)
        unreach = ev.extension("Unreach")
        assert (Constant("B"), Constant("A")) in unreach
        assert (Constant("A"), Constant("D")) not in unreach


class TestSolve:
    def test_solve_binds_variables(self):
        ev = evaluator_for("Q(A). Q(B). R(B). P(x) <- Q(x) & not R(x).")
        answers = ev.answers(parse_atom("P(x)"))
        assert len(answers) == 1

    def test_holds_ground(self):
        ev = evaluator_for("Q(A). P(x) <- Q(x).")
        assert ev.holds(parse_literal("P(A)"))
        assert not ev.holds(parse_literal("P(B)"))
        assert ev.holds(parse_literal("not P(B)"))

    def test_ground_derived_probe_is_one_membership_test(self):
        """A ground positive literal over a derived predicate is looked
        up, not matched against every row of the extent."""
        facts = " ".join(f"Q(C{i})." for i in range(50))
        ev = evaluator_for(facts + " P(x) <- Q(x).")
        ev.materialize()
        for literal, expected in (("P(C7)", True), ("P(Nope)", False)):
            before = ev.stats.snapshot()
            assert ev.holds(parse_literal(literal)) is expected
            assert ev.stats.delta_since(before).literals_matched == 1

    def test_unsafe_negative_query_rejected(self):
        ev = evaluator_for("Q(A).")
        with pytest.raises(SafetyError):
            list(ev.solve([parse_literal("not Q(x)")]))

    def test_negative_delayed_until_ground(self):
        ev = evaluator_for("Q(A). Q(B). R(B).")
        answers = list(ev.solve([parse_literal("not R(x)"),
                                 parse_literal("Q(x)")]))
        assert len(answers) == 1

    def test_answers_deduplicated(self):
        ev = evaluator_for("Q(A). R(A). P(x) <- Q(x). P(x) <- R(x).")
        assert len(ev.answers(parse_atom("P(x)"))) == 1


class TestExtensionalStore:
    def test_add_and_discard(self):
        store = ExtensionalStore()
        row = (Constant("A"),)
        assert store.add("P", row)
        assert not store.add("P", row)
        assert store.facts_of("P") == {row}
        assert store.discard("P", row)
        assert not store.discard("P", row)

    def test_lookup_filters(self):
        store = ExtensionalStore({"P": {(Constant("A"), Constant("B")),
                                        (Constant("A"), Constant("C"))}})
        hits = list(store.lookup("P", (Constant("A"), Constant("C"))))
        assert hits == [(Constant("A"), Constant("C"))]

    def test_predicates(self):
        store = ExtensionalStore({"P": {(Constant("A"),)}, "Q": set()})
        assert store.predicates() == ["P"]


class TestStats:
    def test_counters_populated(self):
        ev = evaluator_for("Q(A). P(x) <- Q(x).")
        ev.materialize()
        assert ev.stats.rule_firings >= 1
        assert ev.stats.facts_derived == 1

    def test_merged_with(self):
        from repro.datalog.evaluation import EvaluationStats

        a = EvaluationStats(1, 2, 3, 4)
        b = EvaluationStats(10, 20, 30, 40)
        merged = a.merged_with(b)
        assert (merged.iterations, merged.rule_firings,
                merged.facts_derived, merged.literals_matched) == (11, 22, 33, 44)
