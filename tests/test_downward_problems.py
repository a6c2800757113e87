"""Unit tests for the remaining downward problems (5.2.1-5.2.6)."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.terms import Constant
from repro.events.events import Transaction, delete, insert
from repro.events.naming import EventKind
from repro.interpretations.upward import UpwardInterpreter
from repro.problems import (
    StateError,
    can_reach_inconsistency,
    constraints_satisfiable,
    enforce_condition,
    maintain_inconsistency,
    maintain_transaction,
    prevent_condition_activation,
    prevent_side_effects,
    repair_database,
    validate_condition,
    validate_view,
)


@pytest.fixture
def inconsistent_db(employment_db):
    db = employment_db.copy()
    db.remove_fact("U_benefit", "Dolors")
    return db


class TestViewValidation:
    def test_achievable_view(self, employment_db):
        employment_db.add_fact("La", "Maria")
        employment_db.add_fact("Works", "Maria")
        result = validate_view(employment_db, "Unemp")
        assert result.is_valid
        witness = result.first_witness()
        assert witness == (Constant("Maria"),)
        assert result.witnesses[witness]

    def test_already_satisfied_rows_are_not_witnesses(self, employment_db):
        # Dolors is already unemployed; with her alone in the universe no
        # *transition* can achieve a new Unemp row.
        result = validate_view(employment_db, "Unemp")
        assert not result.is_valid

    def test_unachievable_view(self):
        # V needs S, but S can never hold: no facts, no rules, and the only
        # base relation T cannot make it true.
        db = DeductiveDatabase.from_source("T(A). V(x) <- T(x) & S(x) & not T(x).")
        db.declare_base("S", 1)
        result = validate_view(db, "V")
        assert not result.is_valid
        assert "not achievable" in str(result)

    def test_deletion_validation(self, employment_db):
        result = validate_view(employment_db, "Unemp", EventKind.DELETION)
        assert result.is_valid  # Unemp(Dolors) can be deleted

    def test_max_witnesses(self):
        db = DeductiveDatabase.from_source("Q(A). Q(B). Q(C). P(x) <- Q(x) & S(x).")
        db.declare_base("S", 1)
        result = validate_view(db, "P", max_witnesses=None)
        assert len(result.witnesses) >= 3

    def test_non_derived_rejected(self, employment_db):
        from repro.datalog.errors import UnknownPredicateError

        with pytest.raises(UnknownPredicateError):
            validate_view(employment_db, "La")


class TestPreventSideEffects:
    def test_example_53_via_api(self, employment_db):
        result = prevent_side_effects(
            employment_db, Transaction([insert("La", "Maria")]),
            "Unemp", EventKind.INSERTION, args=("Maria",))
        assert len(result.translations) == 1
        assert result.translations[0].transaction == Transaction([
            insert("La", "Maria"), insert("Works", "Maria")])

    def test_all_values_protected(self, employment_db):
        result = prevent_side_effects(
            employment_db,
            Transaction([insert("La", "Maria"), insert("La", "Pere")]),
            "Unemp")
        assert result.is_satisfiable
        for translation in result.translations:
            transaction = translation.transaction
            assert insert("Works", "Maria") in transaction
            assert insert("Works", "Pere") in transaction

    def test_no_side_effect_no_extra_events(self, employment_db):
        result = prevent_side_effects(
            employment_db, Transaction([insert("U_benefit", "Maria")]),
            "Unemp")
        assert Transaction([insert("U_benefit", "Maria")]) in \
            result.transactions()


class TestRepair:
    def test_repairs_found(self, inconsistent_db):
        result = repair_database(inconsistent_db, verify=True)
        assert result.is_repairable
        assert not result.unverified
        expected = {
            Transaction([insert("U_benefit", "Dolors")]),
            Transaction([delete("La", "Dolors")]),
            Transaction([insert("Works", "Dolors")]),
        }
        assert set(t.transaction for t in result.repairs) == expected

    def test_requires_inconsistency(self, employment_db):
        with pytest.raises(StateError):
            repair_database(employment_db)

    def test_str(self, inconsistent_db):
        assert "Dolors" in str(repair_database(inconsistent_db))


class TestSatisfiability:
    def test_consistent_state_trivially_satisfiable(self, employment_db):
        result = constraints_satisfiable(employment_db)
        assert result.satisfiable
        assert result.answered_by_current_state

    def test_inconsistent_but_repairable(self, inconsistent_db):
        result = constraints_satisfiable(inconsistent_db)
        assert result.satisfiable
        assert result.witnesses

    def test_can_reach_inconsistency(self, employment_db):
        result = can_reach_inconsistency(employment_db)
        assert result.satisfiable  # ιLa(x) without benefit violates Ic1
        assert result.witnesses

    def test_unviolable_constraints(self):
        # Ic1 requires S(x) & not S(x): never satisfiable.
        db = DeductiveDatabase.from_source("T(A). Ic1(x) <- S(x) & not S(x).")
        db.declare_base("S", 1)
        result = can_reach_inconsistency(db)
        assert not result.satisfiable

    def test_inconsistent_state_already_answers_reachability(self, inconsistent_db):
        result = can_reach_inconsistency(inconsistent_db)
        assert result.satisfiable
        assert result.answered_by_current_state

    def test_bool_protocol(self, employment_db):
        assert constraints_satisfiable(employment_db)


class TestIcMaintenance:
    def test_repairs_appended(self, employment_db):
        transaction = Transaction([delete("U_benefit", "Dolors")])
        result = maintain_transaction(employment_db, transaction)
        assert result.is_satisfiable
        for candidate in result.transactions():
            assert delete("U_benefit", "Dolors") in candidate
            assert len(candidate) >= 2  # repair appended

    def test_benign_transaction_unchanged(self, employment_db):
        transaction = Transaction([insert("Works", "Maria")])
        result = maintain_transaction(employment_db, transaction)
        assert transaction in result.transactions()

    def test_requires_consistent_state(self, inconsistent_db):
        with pytest.raises(StateError):
            maintain_transaction(inconsistent_db, Transaction())

    def test_maintain_inconsistency(self, inconsistent_db):
        # Another (employed, benefit-less) person gives the framework a way
        # to keep the database inconsistent after Dolors is repaired.
        inconsistent_db.add_fact("La", "Pere")
        inconsistent_db.add_fact("Works", "Pere")
        transaction = Transaction([insert("U_benefit", "Dolors")])
        result = maintain_inconsistency(inconsistent_db, transaction)
        assert result.is_satisfiable
        for candidate in result.transactions():
            assert insert("U_benefit", "Dolors") in candidate
            assert len(candidate) >= 2

    def test_maintain_inconsistency_impossible_with_singleton_domain(
            self, inconsistent_db):
        # With Dolors alone in the universe there is no second violation to
        # fall back on: the framework correctly reports unsatisfiability.
        transaction = Transaction([insert("U_benefit", "Dolors")])
        result = maintain_inconsistency(inconsistent_db, transaction)
        assert not result.is_satisfiable

    def test_maintain_inconsistency_requires_inconsistent(self, employment_db):
        with pytest.raises(StateError):
            maintain_inconsistency(employment_db, Transaction())


class TestConditionActivation:
    def test_enforce_ground(self, employment_db):
        result = enforce_condition(employment_db, "Unemp",
                                   args=("Maria",))
        assert Transaction([insert("La", "Maria")]) in result.transactions()

    def test_enforce_existential(self, employment_db):
        # Maria works, so ιUnemp(x) is achievable (fire her).
        employment_db.add_fact("La", "Maria")
        employment_db.add_fact("Works", "Maria")
        result = enforce_condition(employment_db, "Unemp")
        assert result.is_satisfiable
        assert Transaction([delete("Works", "Maria")]) in result.transactions()

    def test_enforce_existential_impossible(self, employment_db):
        # Dolors is the whole universe and is already unemployed: no x can
        # become newly unemployed.
        result = enforce_condition(employment_db, "Unemp")
        assert not result.is_satisfiable

    def test_enforce_deactivation(self, employment_db):
        result = enforce_condition(employment_db, "Unemp",
                                   EventKind.DELETION, args=("Dolors",))
        assert set(result.transactions()) == {
            Transaction([delete("La", "Dolors")]),
            Transaction([insert("Works", "Dolors")]),
        }

    def test_validate_condition(self, employment_db):
        employment_db.add_fact("La", "Maria")
        employment_db.add_fact("Works", "Maria")
        result = validate_condition(employment_db, "Unemp")
        assert result.is_valid

    def test_prevent_activation(self, employment_db):
        result = prevent_condition_activation(
            employment_db, Transaction([insert("La", "Jordi")]), "Unemp")
        assert result.is_satisfiable
        upward = UpwardInterpreter(employment_db)
        for translation in result.translations:
            assert insert("Works", "Jordi") in translation.transaction
            induced = upward.interpret(translation.transaction)
            assert not induced.insertions_of("Unemp")
