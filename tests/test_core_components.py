"""Unit tests for the repair loop and schema updates."""

import pytest

from repro.datalog.parser import parse_rule
from repro.datalog.terms import Constant
from repro.events.events import Transaction, insert
from repro.core import apply_schema_update, repair_to_consistency
from repro.core.repair_loop import smallest_repair
from repro.problems.base import StateError
from repro.workloads import employment_database


class TestRepairLoop:
    def test_single_violation(self):
        db = employment_database(10, benefit_ratio=0.0, employed_ratio=0.99,
                                 seed=2)
        # Force exactly one violation.
        db.remove_fact("Works", sorted(db.facts_of("Works"), key=str)[0][0].value) \
            if db.facts_of("Works") else None
        if not any(True for _ in db.facts_of("Works")):
            pytest.skip("seed produced no employment")
        result = repair_to_consistency(db)
        assert result.consistent
        assert result.db is not None
        from repro.problems import is_consistent

        assert is_consistent(result.db)

    def test_many_violations_violation_granularity(self):
        db = employment_database(30, benefit_ratio=0.0, employed_ratio=0.4,
                                 seed=9)
        result = repair_to_consistency(db)
        assert result.consistent
        assert result.rounds >= 1
        assert result.total_events() == result.rounds  # one event per round

    def test_global_granularity_small_instance(self):
        db = employment_database(8, benefit_ratio=0.0, employed_ratio=0.5,
                                 seed=13)
        result = repair_to_consistency(db, granularity="global")
        assert result.consistent
        assert result.rounds == 1  # a global repair fixes everything at once

    def test_input_untouched(self):
        db = employment_database(10, benefit_ratio=0.0, employed_ratio=0.2,
                                 seed=4)
        before = db.fact_count()
        repair_to_consistency(db)
        assert db.fact_count() == before

    def test_consistent_input_rejected(self, employment_db):
        with pytest.raises(StateError):
            repair_to_consistency(employment_db)

    def test_unknown_granularity(self):
        db = employment_database(10, benefit_ratio=0.0, employed_ratio=0.2,
                                 seed=4)
        with pytest.raises(ValueError):
            repair_to_consistency(db, granularity="chaotic")

    def test_smallest_repair_strategy(self):
        from repro.interpretations.downward import Translation

        small = Translation(Transaction([insert("A", "X")]))
        large = Translation(Transaction([insert("A", "X"), insert("B", "Y")]))
        assert smallest_repair([large, small]) is small
        assert smallest_repair([]) is None


class TestSchemaUpdates:
    def test_adding_rule_induces_insertions(self, pqr_db):
        result = apply_schema_update(
            pqr_db, add_rules=[parse_rule("P(x) <- R(x).")])
        assert result.induced.insertions_of("P") == \
            frozenset({(Constant("B"),)})
        assert result.keeps_consistency

    def test_removing_rule_induces_deletions(self, pqr_db):
        (rule_,) = pqr_db.rules
        result = apply_schema_update(pqr_db, remove_rules=[rule_])
        assert result.induced.deletions_of("P") == \
            frozenset({(Constant("A"),)})

    def test_adding_constraint_reports_new_violations(self, employment_db):
        result = apply_schema_update(
            employment_db,
            add_constraints=[parse_rule("Ic2(x) <- La(x) & not Works(x).")])
        assert not result.keeps_consistency
        assert "Ic2" in result.new_violations

    def test_removing_constraint_resolves_violations(self, employment_db):
        employment_db.remove_fact("U_benefit", "Dolors")
        (constraint,) = employment_db.constraints
        result = apply_schema_update(employment_db,
                                     remove_constraints=[constraint])
        assert result.resolved_violations

    def test_original_db_untouched(self, pqr_db):
        apply_schema_update(pqr_db, add_rules=[parse_rule("P(x) <- R(x).")])
        assert len(pqr_db.rules) == 1

    def test_updated_db_usable(self, pqr_db):
        result = apply_schema_update(
            pqr_db, add_rules=[parse_rule("P(x) <- R(x).")])
        from repro.datalog.evaluation import BottomUpEvaluator

        ev = BottomUpEvaluator(result.db, result.db.all_rules())
        assert (Constant("B"),) in ev.extension("P")

