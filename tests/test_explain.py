"""Tests for derivation explanations."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.explain import Explainer
from repro.datalog.terms import Constant
from repro.events.events import delete, insert


@pytest.fixture
def library_db():
    return DeductiveDatabase.from_source("""
        Member(Ada). Member(Alan).
        Borrowed(Ada, Sicp).
        Overdue(Ada, Sicp).
        Flagged(x) <- Borrowed(x, b) & Overdue(x, b).
        InGoodStanding(x) <- Member(x) & not Flagged(x).
    """)


class TestExplain:
    def test_base_fact(self, library_db):
        explainer = Explainer.for_database(library_db)
        (derivation,) = explainer.explain("Member", (Constant("Ada"),))
        assert derivation.is_leaf()
        assert "fact" in str(derivation)

    def test_derived_fact_tree(self, library_db):
        explainer = Explainer.for_database(library_db)
        (derivation,) = explainer.explain(
            "Flagged", (Constant("Ada"),))
        assert derivation.rule is not None
        assert derivation.depth() == 2
        supports = {str(d.fact) for d in derivation.support}
        assert supports == {"Borrowed(Ada, Sicp)", "Overdue(Ada, Sicp)"}

    def test_negative_conditions_listed(self, library_db):
        explainer = Explainer.for_database(library_db)
        (derivation,) = explainer.explain(
            "InGoodStanding", (Constant("Alan"),))
        assert any(l.predicate == "Flagged" and not l.positive
                   for l in derivation.absences)

    def test_false_fact_has_no_explanation(self, library_db):
        explainer = Explainer.for_database(library_db)
        assert explainer.explain("Flagged", (Constant("Alan"),)) == ()

    def test_multiple_explanations(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        explainer = Explainer.for_database(db)
        derivations = explainer.explain("P", (Constant("A"),),
                                        max_explanations=5)
        assert len(derivations) == 2

    def test_render_nested(self):
        db = DeductiveDatabase.from_source("""
            Q(A). S(A).
            P(x) <- Q(x).
            W(x) <- P(x) & S(x).
        """)
        explainer = Explainer.for_database(db)
        (derivation,) = explainer.explain("W", (Constant("A"),))
        rendered = str(derivation)
        assert "W(A)" in rendered and "P(A)" in rendered and "Q(A)" in rendered
        assert derivation.depth() == 3


class TestExplainEvent:
    def test_example_4_1_derivation(self, pqr_db):
        from repro.events.events import parse_transaction
        from repro.interpretations import explain_event

        trees = explain_event(pqr_db, parse_transaction("{delete R(B)}"),
                              insert("P", "B"))
        assert len(trees) == 1
        rendered = str(trees[0])
        # The firing disjunct is Q(B) ∧ ¬δQ(B) ∧ δR(B) -- the paper's
        # "second disjunct" of Example 4.1.
        assert "del$R(B)" in rendered
        assert "Q(B)  [fact]" in rendered
        assert "not P(B)" in rendered

    def test_non_induced_event_unexplained(self, pqr_db):
        from repro.events.events import parse_transaction
        from repro.interpretations import explain_event

        trees = explain_event(pqr_db, parse_transaction("{delete R(B)}"),
                              insert("P", "A"))
        assert trees == ()

    def test_deletion_event(self, pqr_db):
        from repro.events.events import parse_transaction
        from repro.interpretations import explain_event

        trees = explain_event(pqr_db, parse_transaction("{insert R(A)}"),
                              delete("P", "A"))
        assert trees
        assert "del$P(A)" in str(trees[0])
