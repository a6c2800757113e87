"""End-to-end integration tests across every layer.

These drive the system the way a user would: parse a schema, run an update
workload through the processor, keep a counted view in sync, break and
repair consistency, and evolve the schema -- checking global invariants at
every step.
"""

import pytest

from repro import (
    DeductiveDatabase,
    Transaction,
    UpdateProcessor,
    apply_schema_update,
    delete,
    naive_changes,
    parse_transaction,
    repair_to_consistency,
    want_delete,
    want_insert,
)
from repro.datalog.evaluation import BottomUpEvaluator
from repro.datalog.parser import parse_rule
from repro.interpretations import CountingEngine
from repro.problems import is_consistent
from repro.workloads import employment_database, random_transaction


class TestEmploymentOfficeLifecycle:
    """A registry office runs its daily business through the processor."""

    @pytest.fixture
    def office(self):
        db = employment_database(30, seed=42)
        processor = UpdateProcessor(db)
        processor.declare_view("Unemp")
        processor.declare_condition("Unemp")
        return processor

    def test_full_day(self, office):
        # 1. A new person in labour age arrives; plain insert would violate
        #    Ic1 (unemployed without benefit) -- maintenance repairs it.
        result = office.execute(parse_transaction("{insert La(Nova)}"),
                                on_violation="maintain")
        assert result.applied
        assert office.is_consistent()

        # 2. The condition monitor saw nothing yet for a benign change.
        changes = office.monitor(parse_transaction("{insert Works(Nova)}"))
        assert changes.deactivated.get("Unemp")

        # 3. A view update request: make Nova employed via the view,
        #    maintaining constraints through the staged (§5.3) pipeline.
        candidates = office.translate_maintained(want_delete("Unemp", "Nova"))
        assert candidates
        assert office.execute(candidates[0], on_violation="reject").applied

    def test_processor_survives_many_random_transactions(self, office):
        applied = 0
        for seed in range(12):
            transaction = random_transaction(office.db, n_events=2, seed=seed)
            result = office.execute(transaction, on_violation="maintain")
            applied += bool(result.applied)
            assert office.is_consistent()
        assert applied >= 8  # most transactions are maintainable


class TestMaterializedPipeline:
    def test_counting_stays_in_sync_with_oracle(self):
        db = employment_database(25, seed=7)
        engine = CountingEngine(db)
        for seed in range(10):
            transaction = random_transaction(db, n_events=2, seed=100 + seed)
            before = frozenset(engine.extension("Unemp"))
            oracle = naive_changes(db, transaction)
            engine.apply(transaction)
            expected = (before | oracle.insertions_of("Unemp")) \
                - oracle.deletions_of("Unemp")
            assert engine.extension("Unemp") == expected
        recomputed = BottomUpEvaluator(db, db.all_rules()).extension("Unemp")
        assert engine.extension("Unemp") == recomputed


class TestBreakAndRepair:
    def test_break_then_repair_round_trip(self):
        db = employment_database(20, seed=5)
        processor = UpdateProcessor(db)
        # Break it deliberately.
        victims = sorted(
            row[0].value for row in db.facts_of("U_benefit"))[:3]
        if not victims:
            pytest.skip("no benefits to remove in this seed")
        processor.execute(
            Transaction([delete("U_benefit", v) for v in victims]),
            on_violation="ignore")
        assert not processor.is_consistent()
        # Repair it back.
        result = repair_to_consistency(processor.db)
        assert result.consistent
        assert is_consistent(result.db)

    def test_restoration_check_agrees_with_repair(self):
        db = employment_database(6, seed=3)
        if not db.facts_of("U_benefit"):
            pytest.skip("seed produced no benefits")
        victim = sorted(row[0].value for row in db.facts_of("U_benefit"))[0]
        db.remove_fact("U_benefit", victim)
        processor = UpdateProcessor(db)
        repairs = processor.repair(verify=True).repairs
        assert repairs
        check = processor.check_restoration(repairs[0].transaction)
        assert check.ok


class TestSchemaEvolution:
    def test_rule_update_then_queries(self):
        db = DeductiveDatabase.from_source("""
            Emp(A, Sales). Emp(B, Tech).
            SalesPerson(x) <- Emp(x, Sales).
        """)
        update = apply_schema_update(
            db, add_rules=[parse_rule("Staff(x) <- Emp(x, d).")])
        assert update.induced.insertions_of("Staff")
        processor = UpdateProcessor(update.db)
        result = processor.downward(want_insert("Staff", "C"))
        assert result.is_satisfiable

    def test_constraint_tightening_workflow(self):
        db = employment_database(10, seed=1)
        tightened = apply_schema_update(
            db,
            add_constraints=[parse_rule("Ic2(x) <- Works(x) & U_benefit(x).")])
        # If anyone both works and draws a benefit the schema change reports
        # it; either way the updated database is immediately usable.
        processor = UpdateProcessor(tightened.db)
        if tightened.keeps_consistency:
            assert processor.is_consistent()
        else:
            assert not processor.is_consistent()
            repaired = repair_to_consistency(tightened.db)
            assert repaired.consistent


class TestCrossStrategyConsistency:
    def test_three_change_computations_agree_end_to_end(self):
        from repro.interpretations import UpwardInterpreter, UpwardOptions

        db = employment_database(40, seed=21)
        for seed in range(6):
            transaction = random_transaction(db, n_events=3, seed=seed)
            hybrid = UpwardInterpreter(
                db, options=UpwardOptions(strategy="hybrid")).interpret(transaction)
            flat = UpwardInterpreter(
                db, options=UpwardOptions(strategy="flat")).interpret(transaction)
            oracle = naive_changes(db, transaction)
            assert hybrid.insertions == flat.insertions == oracle.insertions
            assert hybrid.deletions == flat.deletions == oracle.deletions
