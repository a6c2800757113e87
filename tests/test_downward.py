"""Unit tests for the downward interpretation."""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.errors import (
    DepthLimitExceeded,
    TransactionError,
)
from repro.datalog.rules import Atom, Literal
from repro.datalog.terms import Constant, Variable
from repro.events.events import Transaction, delete, insert
from repro.interpretations import (
    DownwardInterpreter,
    DownwardOptions,
    forbid_delete,
    forbid_insert,
    naive_changes,
    want_delete,
    want_insert,
)


class TestBaseEventRequests:
    def test_effective_base_insert_is_itself(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("Q", "Z"))
        assert result.transactions() == (Transaction([insert("Q", "Z")]),)

    def test_noop_base_insert_already_satisfied(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("Q", "A"))
        assert result.dnf.is_true
        assert result.already_satisfied

    def test_base_delete(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_delete("R", "B"))
        assert result.transactions() == (Transaction([delete("R", "B")]),)

    def test_impossible_delete_already_satisfied(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_delete("R", "Z"))
        assert result.dnf.is_true

    def test_non_event_request_rejected(self, pqr_db):
        with pytest.raises(TransactionError):
            DownwardInterpreter(pqr_db).interpret(
                Literal(Atom("Q", (Constant("A"),)), True))


class TestDerivedInsertion:
    def test_multiple_alternatives(self):
        db = DeductiveDatabase.from_source("""
            Q(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        db.declare_base("R", 1)
        result = DownwardInterpreter(db).interpret(want_insert("P", "B"))
        assert set(result.transactions()) == {
            Transaction([insert("Q", "B")]),
            Transaction([insert("R", "B")]),
        }

    def test_conjunction_requires_both(self):
        db = DeductiveDatabase.from_source("W(x) <- Q(x) & S(x). Q(A). S(B).")
        result = DownwardInterpreter(db).interpret(want_insert("W", "C"))
        assert set(result.transactions()) == {
            Transaction([insert("Q", "C"), insert("S", "C")]),
        }

    def test_partial_support_used(self):
        db = DeductiveDatabase.from_source("W(x) <- Q(x) & S(x). Q(A). S(B).")
        result = DownwardInterpreter(db).interpret(want_insert("W", "A"))
        # Q(A) already holds: only S(A) needs inserting.
        assert Transaction([insert("S", "A")]) in result.transactions()

    def test_two_level_descent(self):
        db = DeductiveDatabase.from_source("""
            Q(A).
            P(x) <- Q(x).
            W(x) <- P(x) & S(x).
        """)
        db.declare_base("S", 1)
        result = DownwardInterpreter(db).interpret(want_insert("W", "B"))
        assert Transaction([insert("Q", "B"), insert("S", "B")]) in \
            result.transactions()

    def test_already_satisfied_derived(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("P", "A"))
        assert result.dnf.is_true
        assert result.already_satisfied


class TestDerivedDeletion:
    def test_deletion_choices(self, pqr_db):
        # δP(A): delete Q(A) or insert R(A).
        result = DownwardInterpreter(pqr_db).interpret(want_delete("P", "A"))
        assert set(result.transactions()) == {
            Transaction([delete("Q", "A")]),
            Transaction([insert("R", "A")]),
        }

    def test_multi_rule_deletion_needs_all_supports_cut(self):
        db = DeductiveDatabase.from_source("""
            Q(A). R(A).
            P(x) <- Q(x).
            P(x) <- R(x).
        """)
        result = DownwardInterpreter(db).interpret(want_delete("P", "A"))
        assert set(result.transactions()) == {
            Transaction([delete("Q", "A"), delete("R", "A")]),
        }


class TestNegativeRequests:
    def test_forbid_insert_vacuous_when_impossible(self, pqr_db):
        # P(A) already holds, so ιP(A) cannot occur: constraint vacuous.
        result = DownwardInterpreter(pqr_db).interpret(forbid_insert("P", "A"))
        assert result.dnf.is_true

    def test_forbid_insert_produces_requirements(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(forbid_insert("P", "B"))
        # ¬ιP(B) = ¬δR(B) (keeping R(B)) -- possibly with alternatives.
        assert result.is_satisfiable
        for translation in result.translations:
            assert delete("R", "B") in translation.constraints or \
                translation.transaction.events

    def test_forbid_delete(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(forbid_delete("P", "A"))
        assert result.is_satisfiable

    def test_universal_prevention(self, employment_db):
        x = Variable("x")
        request = Literal(Atom("ins$Unemp", (x,)), False)
        result = DownwardInterpreter(employment_db).interpret(
            [insert("La", "Maria"), request])
        assert len(result.translations) == 1
        assert insert("Works", "Maria") in result.translations[0].transaction


class TestRequestSets:
    def test_conjunction_of_requests(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(
            [want_insert("P", "B"), want_insert("Q", "Z")])
        (translation,) = result.translations
        assert translation.transaction == Transaction(
            [delete("R", "B"), insert("Q", "Z")])

    def test_unsatisfiable_conjunction(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(
            [want_insert("P", "B"), forbid_insert("P", "B")])
        assert not result.is_satisfiable

    def test_event_objects_accepted(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(delete("R", "B"))
        assert result.transactions() == (Transaction([delete("R", "B")]),)


class TestNonGroundRequests:
    def test_existential_insert(self, pqr_db):
        # ιP(x): any x with a translation; A is already satisfied... but
        # non-ground positives are existential, each witness an alternative.
        x = Variable("x")
        request = Literal(Atom("ins$P", (x,)), True)
        result = DownwardInterpreter(pqr_db).interpret(request)
        assert result.is_satisfiable
        assert Transaction([delete("R", "B")]) in result.transactions()

    def test_existential_delete_enumerates_stored_rows(self):
        db = DeductiveDatabase.from_source("Q(A). Q(B). P(x) <- Q(x).")
        x = Variable("x")
        request = Literal(Atom("del$P", (x,)), True)
        result = DownwardInterpreter(db).interpret(request)
        assert set(result.transactions()) >= {
            Transaction([delete("Q", "A")]),
            Transaction([delete("Q", "B")]),
        }


class TestSoundness:
    """Every translation, upward-interpreted, satisfies the request."""

    @pytest.mark.parametrize("view,kind,args", [
        ("Unemp", "ins", ("Maria",)),
        ("Unemp", "del", ("Dolors",)),
        ("Ic1", "ins", ()),
    ])
    def test_translations_achieve_request(self, employment_db, view, kind, args):
        request = want_insert(view, *args) if kind == "ins" \
            else want_delete(view, *args)
        result = DownwardInterpreter(employment_db).interpret(request)
        assert result.translations
        row = tuple(Constant(a) for a in args)
        for translation in result.translations:
            induced = naive_changes(employment_db, translation.transaction)
            target = induced.insertions_of(view) if kind == "ins" \
                else induced.deletions_of(view)
            assert row in target


class TestLimits:
    def test_depth_limit_raises(self):
        db = DeductiveDatabase.from_source("""
            Edge(A,B).
            Path(x,y) <- Edge(x,y).
            Path(x,y) <- Edge(x,z) & Path(z,y).
        """)
        interpreter = DownwardInterpreter(
            db, options=DownwardOptions(max_depth=3))
        with pytest.raises(DepthLimitExceeded):
            interpreter.interpret(want_insert("Path", "A", "Z"))

    def test_depth_limit_prune(self):
        db = DeductiveDatabase.from_source("""
            Edge(A,B).
            Path(x,y) <- Edge(x,y).
            Path(x,y) <- Edge(x,z) & Path(z,y).
        """)
        interpreter = DownwardInterpreter(
            db, options=DownwardOptions(max_depth=6, on_depth_limit="prune"))
        result = interpreter.interpret(want_insert("Path", "A", "Z"))
        # Direct edge insertion survives within the bound.
        assert Transaction([insert("Edge", "A", "Z")]) in result.transactions()

    def test_extra_domain(self):
        db = DeductiveDatabase()
        db.declare_base("Q", 1)
        db.add_rule_source = None
        from repro.datalog.parser import parse_rule

        db.add_rule(parse_rule("P(x) <- Q(x)."))
        interpreter = DownwardInterpreter(
            db, options=DownwardOptions(extra_domain=frozenset({Constant("Z")})))
        x = Variable("x")
        result = interpreter.interpret(Literal(Atom("ins$P", (x,)), True))
        assert Transaction([insert("Q", "Z")]) in result.transactions()

    def test_stats_populated(self, employment_db):
        interpreter = DownwardInterpreter(employment_db)
        result = interpreter.interpret(want_delete("Unemp", "Dolors"))
        assert result.stats.descents >= 1
        assert result.stats.old_queries >= 1


class TestOldStateProbes:
    """Old database literals are probes of the old state, not scans."""

    @staticmethod
    def _probe(n_people: int):
        from repro.workloads import employment_database

        db = employment_database(n_people, seed=5)
        interpreter = DownwardInterpreter(db)
        person = sorted(db.query("Unemp(x)"))[0][0]
        request = want_delete("Unemp", person)
        interpreter.interpret(request)  # materialises the old state
        stats = interpreter.old_state.evaluator.stats
        before = stats.snapshot()
        result = interpreter.interpret(request)
        return stats.delta_since(before).literals_matched, result

    def test_ground_probes_do_not_grow_with_the_extent(self):
        small, small_result = self._probe(200)
        large, large_result = self._probe(2000)
        assert small == large > 0
        assert len(small_result.translations) \
            == len(large_result.translations) > 0

    def test_caller_supplied_old_state_is_read_instead(self, employment_db):
        """The interpreter asks whatever old-state source it was given
        about derived atoms -- and only about those."""

        class Recording:
            def __init__(self, inner):
                self.inner, self.asked = inner, []

            def holds(self, predicate, row):
                self.asked.append(predicate)
                return self.inner.holds(predicate, row)

            def lookup(self, predicate, pattern):
                self.asked.append(predicate)
                return self.inner.lookup(predicate, pattern)

        reference = DownwardInterpreter(employment_db)
        source = Recording(reference.old_state)
        interpreter = DownwardInterpreter(employment_db, old_state=source)
        for request in (want_delete("Unemp", "Dolors"),
                        want_insert("Unemp", "Pere"),
                        want_insert("Works", "Dolors")):
            assert interpreter.interpret(request).to_dict() \
                == reference.interpret(request).to_dict()
        assert source.asked
        assert set(source.asked) <= set(employment_db.schema.derived) | {"Ic"}


class TestResultApi:
    def test_str_translations(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("P", "B"))
        assert "δR(B)" in str(result)

    def test_str_already_satisfied(self, employment_db):
        result = DownwardInterpreter(employment_db).interpret(
            want_insert("Unemp", "Dolors"))
        assert result.dnf.is_true
        assert str(result) == "already satisfied"
        assert result.to_dict()["translations"] == [
            {"transaction": [], "constraints": []}]

    def test_str_no_translation(self):
        db = DeductiveDatabase.from_source("Q(A). P(x) <- Q(x) & R(x).")
        # R is underivable and has no facts; inserting P(Z) needs both.
        db.declare_base("R", 1)
        result = DownwardInterpreter(db).interpret(
            [want_insert("P", "Z"), forbid_insert("Q", "Z")])
        assert not result.is_satisfiable
        assert str(result) == "no translation"

    def test_respects_constraints(self, pqr_db):
        result = DownwardInterpreter(pqr_db).interpret(want_insert("P", "B"))
        (translation,) = result.translations
        assert translation.respects_constraints(Transaction([delete("R", "B")]))
        assert not translation.respects_constraints(
            Transaction([delete("Q", "B")]))


# -- ground calls unfold their transition rule as written ----------------------


#: A recursive view: its inner ``new$Path(z, y)`` calls share variables
#: with their caller, so they are standardised apart even for a ground
#: request.
PATH = """
    Edge(A,B). Edge(B,C).
    Path(x,y) <- Edge(x,y).
    Path(x,y) <- Edge(x,z) & Path(z,y).
"""


def _paper_and_employment_cases():
    """(database, request set) pairs: the paper's examples and the
    employment workload -- ins/del on Unemp and Ic1, negative requests,
    requests with variables, and the recursive :data:`PATH`."""
    from repro.workloads import employment_database

    x, y = Variable("x"), Variable("y")
    pqr = """
        Q(A). Q(B). R(B).
        P(x) <- Q(x) & not R(x).
    """
    office = """
        La(Dolors). U_benefit(Dolors). La(Pere). Works(Pere). La(Joan).
        Unemp(x) <- La(x) & not Works(x).
        Ic1 <- Unemp(x) & not U_benefit(x).
    """
    path = PATH
    cases = [
        (pqr, [want_insert("P", "B")]),
        (pqr, [want_delete("P", "A")]),
        (pqr, [forbid_insert("P", "B")]),
        (pqr, [want_insert("P", "C"), forbid_insert("Q", "C")]),
        (pqr, [Literal(Atom("ins$P", (x,)), True)]),
        (office, [want_insert("Unemp", "Pere")]),
        (office, [want_delete("Unemp", "Dolors")]),
        (office, [want_insert("Ic1")]),
        (office, [want_delete("Ic1")]),
        (office, [forbid_insert("Ic1")]),
        (office, [forbid_delete("Unemp", "Dolors")]),
        (office, [Literal(Atom("ins$Unemp", (x,)), True)]),
        (office, [Literal(Atom("ins$Unemp", (x,)), False)]),
        (path, [want_insert("Path", "A", "D")]),
        (path, [want_delete("Path", "A", "C")]),
        (path, [Literal(Atom("ins$Path", (x, y)), True)]),
    ]
    workload = employment_database(30, benefit_ratio=0.5, seed=4)
    unemployed = sorted(row[0] for row in workload.query("Unemp(x)"))
    employed = sorted(row[0] for row in workload.query("Works(x)"))
    violators = sorted(row[0] for row in workload.query("Ic1(x)"))
    assert unemployed and employed and violators
    cases += [
        (workload, [want_insert("Unemp", employed[0])]),
        (workload, [want_delete("Unemp", unemployed[0])]),
        (workload, [forbid_delete("Unemp", unemployed[-1])]),
        (workload, [want_insert("Ic1", employed[-1])]),
        (workload, [want_delete("Ic1", violators[0])]),
        (workload, [forbid_insert("Ic1", employed[0]),
                    want_insert("Unemp", employed[0])]),
        (workload, [Literal(Atom("del$Ic1", (x,)), True)]),
    ]
    return cases


def _database(source):
    if isinstance(source, DeductiveDatabase):
        return source
    return DeductiveDatabase.from_source(source)


def _always_rename(self, transition, call, subst):
    return self._rename_transition(transition), subst


GROUND_UNFOLD_CASES = _paper_and_employment_cases()


class TestGroundUnfold:
    """A ground ``new$P`` call unfolds the transition rule without renaming
    it apart; the result must be exactly the renaming path's."""

    @staticmethod
    def _interpret(source, requests):
        options = DownwardOptions(max_depth=8, on_depth_limit="prune")
        return DownwardInterpreter(_database(source),
                                   options=options).interpret(requests)

    @pytest.mark.parametrize("index", range(len(GROUND_UNFOLD_CASES)))
    def test_same_result_as_renaming_every_call(self, index, monkeypatch):
        source, requests = GROUND_UNFOLD_CASES[index]
        written = self._interpret(source, requests)
        monkeypatch.setattr(DownwardInterpreter, "_standardised",
                            _always_rename)
        renamed = self._interpret(source, requests)
        assert written.translations == renamed.translations
        assert written.dnf == renamed.dnf
        assert all(literal.is_ground() for literal in written.dnf.literals())

    @pytest.mark.parametrize("index", [
        i for i, (source, requests) in enumerate(GROUND_UNFOLD_CASES)
        if source is not PATH and all(r.is_ground() for r in requests)])
    def test_ground_request_never_renames(self, index, monkeypatch):
        source, requests = GROUND_UNFOLD_CASES[index]
        renames = []

        def spy(self, transition):
            renames.append(transition)
            return original(self, transition)

        original = DownwardInterpreter._rename_transition
        monkeypatch.setattr(DownwardInterpreter, "_rename_transition", spy)
        result = self._interpret(source, requests)
        assert renames == []
        assert all(literal.is_ground() for literal in result.dnf.literals())

    def test_caller_bindings_do_not_leak_into_the_rule(self):
        # The caller's x (bound to B) and the transition rule's own x are
        # different variables: unfolding new$P(A) as written must start
        # from an empty substitution, not the caller's.
        db = DeductiveDatabase.from_source("""
            Q(A). Q(B). R(B).
            P(x) <- Q(x) & not R(x).
            W(x) <- S(x) & P(A).
        """)
        db.declare_base("S", 1)
        result = DownwardInterpreter(db).interpret(want_insert("W", "B"))
        assert Transaction([insert("S", "B")]) in result.transactions()


class TestDownwardCallCounts:
    """Deterministic cost guard: DNF work, renaming, unfolding and state
    probes per request."""

    def test_ground_unemp_requests(self, monkeypatch):
        from repro.events import dnf as dnf_module
        from repro.workloads import employment_database

        db = employment_database(1000, seed=7)
        unemployed = sorted(row[0] for row in db.query("Unemp(x)"))
        employed = sorted(row[0] for row in db.query("Works(x)"))
        requests = [want_delete("Unemp", p) for p in unemployed[:100]] \
            + [want_insert("Unemp", p) for p in employed[:100]]
        interpreter = DownwardInterpreter(db)
        interpreter.interpret(requests[0])  # materialise the old state
        counts = {"contradictory": 0, "rename": 0, "unfold": 0, "probe": 0}
        contradictory = dnf_module._is_contradictory
        rename = DownwardInterpreter._rename_transition
        down_conjunct = DownwardInterpreter._down_conjunct
        holds = DownwardInterpreter._holds

        def counted_contradictory(conjunct):
            counts["contradictory"] += 1
            return contradictory(conjunct)

        def counted_rename(self, transition):
            counts["rename"] += 1
            return rename(self, transition)

        monkeypatch.setattr(dnf_module, "_is_contradictory",
                            counted_contradictory)
        def counted_down_conjunct(self, *args):
            counts["unfold"] += 1
            return down_conjunct(self, *args)

        def counted_holds(self, predicate, row):
            counts["probe"] += 1
            return holds(self, predicate, row)

        monkeypatch.setattr(DownwardInterpreter, "_rename_transition",
                            counted_rename)
        monkeypatch.setattr(DownwardInterpreter, "_down_conjunct",
                            counted_down_conjunct)
        monkeypatch.setattr(DownwardInterpreter, "_holds", counted_holds)
        paths = []
        for request in requests:
            before = dict(counts)
            result = interpreter.interpret(request)
            assert result.translations
            paths.append(result.stats.path)
            if result.stats.templated:
                # A hit runs each distinct probe once and unfolds nothing.
                assert counts["unfold"] == before["unfold"]
                assert counts["probe"] - before["probe"] \
                    == result.stats.old_queries <= 3
        assert len(requests) == 200
        # One recording per shape and branch: here one branch per shape.
        assert paths.count("unfold") == 1
        assert paths.count("template") == 199
        assert counts["contradictory"] <= 15 * len(requests)
        assert counts["rename"] == 0


class TestOrderedDomain:
    """The instantiation domain is sorted once per ``interpret`` call."""

    @staticmethod
    def _syn4(size):
        from repro.datalog.parser import parse_rule

        db = DeductiveDatabase()
        db.declare_base("B", 1)
        db.declare_base("G", 1)
        db.add_rule(parse_rule("V(x) <- B(x) & not G(x)."))
        for index in range(size):
            db.add_fact("G", f"C{index}")
        return db

    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_syn4_domain_sweep_translations(self, size):
        request = Literal(Atom("ins$V", (Variable("x"),)), True)
        result = DownwardInterpreter(self._syn4(size)).interpret(request)
        assert set(result.transactions()) == {
            Transaction([insert("B", f"C{i}"), delete("G", f"C{i}")])
            for i in range(size)}

    def test_one_sort_per_interpret(self, monkeypatch):
        x, y = Variable("x"), Variable("y")
        requests = [Literal(Atom("ins$V", (x,)), False),
                    Literal(Atom("ins$B", (y,)), False)]
        interpreter = DownwardInterpreter(self._syn4(6))
        domain_calls, instantiations = [], []
        domain = DownwardInterpreter.domain
        instantiate = DownwardInterpreter._instantiate_vars

        def spy_domain(self):
            domain_calls.append(1)
            return domain(self)

        def spy_instantiate(self, variables, subst):
            if variables:
                instantiations.append(variables)
            return instantiate(self, variables, subst)

        monkeypatch.setattr(DownwardInterpreter, "domain", spy_domain)
        monkeypatch.setattr(DownwardInterpreter, "_instantiate_vars",
                            spy_instantiate)
        first = interpreter.interpret(requests)
        assert len(instantiations) >= 2
        assert len(domain_calls) == 1
        interpreter.interpret(requests)
        assert len(domain_calls) == 2

        # Request constants join the domain of the call that names them.
        named = interpreter.interpret(
            requests + [Literal(Atom("ins$B", (Constant("New"),)), True)])
        assert first.is_satisfiable and not named.is_satisfiable
        assert len(domain_calls) == 3


# -- templates: a warm interpreter agrees with a cold unfold -------------------


def _template_cases():
    """(database, request builder, target constants, warm-up constants,
    expected path of the target on the warm interpreter)."""
    from repro.workloads import employment_database

    pqr = """
        Q(A). Q(B). R(B). Q(C). R(C). Q(D).
        P(x) <- Q(x) & not R(x).
    """
    office = """
        La(Dolors). U_benefit(Dolors). La(Pere). Works(Pere). La(Joan).
        La(Maria). Works(Maria). La(Anna). U_benefit(Anna).
        Unemp(x) <- La(x) & not Works(x).
        Ic1 <- Unemp(x) & not U_benefit(x).
    """
    pairs = """
        Q(A). Q(B). S(A). S(B). S(C).
        P(x, y) <- Q(x) & S(y) & not Q(y).
    """
    distinct = """
        Q(A). Q(B). Q(C).
        P(x, y) <- Q(x) & Q(y) & x != y.
    """
    #: ``ins P(C, D)`` and ``ins P(A, A)`` see the same probe outcomes;
    #: only the shape tells that the second needs ``ιR(A) ∧ ¬ιR(A)``.
    equal_args = """
        S(A). S(B). S(C). S(D). R(Z).
        P(x, y) <- S(x) & S(y) & R(x) & not R(y).
    """
    #: ``A`` occurs in a rule: requests naming it are never templated.
    rule_constant = """
        Q(B). R(Z).
        P(x) <- Q(x).
        P(A) <- R(A).
    """
    x = Variable("x")
    workload = employment_database(30, benefit_ratio=0.5, seed=4)
    unemployed = sorted(row[0] for row in workload.query("Unemp(x)"))
    employed = sorted(row[0] for row in workload.query("Works(x)"))
    violators = sorted(row[0] for row in workload.query("Ic1(x)"))
    assert len(employed) > 2 and len(unemployed) > 2 and len(violators) > 2

    def each(people):
        return [(person,) for person in people]

    return [
        # The paper's P/Q/R example: derived insertion and deletion, an
        # already-satisfied request, negative and multi-literal sets.
        (pqr, lambda c: [want_insert("P", c)], ("B",), [("C",)], "template"),
        (pqr, lambda c: [want_delete("P", c)], ("A",), [("D",)], "template"),
        (pqr, lambda c: [want_insert("P", c)], ("A",), [("D",)], "template"),
        (pqr, lambda c: [forbid_insert("P", c)], ("B",), [("C",)],
         "template"),
        (pqr, lambda c: [want_insert("P", c), forbid_insert("Q", c)], ("E",),
         [("F",)], "template"),
        (pqr, lambda c: [want_insert("P", c), forbid_delete("R", c)], ("B",),
         [("C",)], "template"),
        # The running example of Section 5.
        (office, lambda p: [want_insert("Unemp", p)], ("Pere",),
         [("Maria",)], "template"),
        (office, lambda p: [want_delete("Unemp", p)], ("Dolors",),
         [("Anna",)], "template"),
        (office, lambda p: [forbid_delete("Unemp", p)], ("Dolors",),
         [("Anna",)], "template"),
        # Joan already violates Ic1: one probe, nothing enumerated.
        (office, lambda: [want_insert("Ic1")], (), [()], "template"),
        (office, lambda: [want_delete("Ic1")], (), [()], "untemplated"),
        (office, lambda: [Literal(Atom("ins$Unemp", (x,)), True)], (), [()],
         "untemplated"),
        # Enumerating requests: an old-state scan, a stored-row scan.
        (pqr, lambda: [Literal(Atom("del$P", (x,)), True)], (), [()],
         "untemplated"),
        (pqr, lambda: [Literal(Atom("del$R", (x,)), True)], (), [()],
         "untemplated"),
        # employment_database: ins/del Unemp and Ic1, warmed on everyone
        # else of the same kind.
        (workload, lambda p: [want_insert("Unemp", p)], (employed[0],),
         each(employed[1:]), "template"),
        (workload, lambda p: [want_delete("Unemp", p)], (unemployed[0],),
         each(unemployed[1:]), "template"),
        (workload, lambda p: [forbid_delete("Unemp", p)], (unemployed[-1],),
         each(unemployed[:-1]), "template"),
        (workload, lambda p: [want_insert("Ic1", p)], (employed[-1],),
         each(employed[:-1]), "template"),
        (workload, lambda p: [want_delete("Ic1", p)], (violators[0],),
         each(violators[1:]), "template"),
        (workload, lambda p: [forbid_insert("Ic1", p),
                              want_insert("Unemp", p)], (employed[0],),
         each(employed[1:]), "template"),
        # Repeated constants: P(a, a) and P(a, b) are different shapes.
        (pairs, lambda a, b: [want_insert("P", a, b)], ("A", "A"),
         [("B", "C")], "unfold"),
        (pairs, lambda a, b: [want_insert("P", a, b)], ("A", "A"),
         [("B", "B")], "template"),
        (pairs, lambda a, b: [want_insert("P", a, b)], ("C", "A"),
         [("D", "B")], "template"),
        (equal_args, lambda a, b: [want_insert("P", a, b)], ("A", "A"),
         [("C", "D")], "unfold"),
        (equal_args, lambda a, b: [want_insert("P", a, b)], ("A", "B"),
         [("C", "D")], "template"),
        (distinct, lambda a, b: [want_delete("P", a, b)], ("A", "B"),
         [("B", "C")], "template"),
        (distinct, lambda a, b: [want_insert("P", a, b)], ("A", "A"),
         [("B", "B"), ("C", "D")], "template"),
        # A request constant that a rule mentions.
        (rule_constant, lambda c: [want_insert("P", c)], ("A",), [("C",)],
         "untemplated"),
        (rule_constant, lambda c: [want_insert("P", c)], ("C",), [("D",)],
         "template"),
        # The recursive view enumerates: never templated.
        (PATH, lambda a, b: [want_insert("Path", a, b)], ("A", "D"),
         [("B", "D")], "untemplated"),
        (PATH, lambda a, b: [want_delete("Path", a, b)], ("A", "C"),
         [("B", "C")], "untemplated"),
    ]


TEMPLATE_CASES = _template_cases()


class TestDownwardTemplates:
    """A fresh interpreter compiles its own program, so its first request
    is always the unfold; a warm one that served the shape with other
    constants answers from the template and must agree exactly."""

    OPTIONS = DownwardOptions(max_depth=8, on_depth_limit="prune")

    @pytest.mark.parametrize("index", range(len(TEMPLATE_CASES)))
    def test_warm_template_matches_a_cold_unfold(self, index):
        source, build, target, warm, path = TEMPLATE_CASES[index]
        db = _database(source)
        interpreter = DownwardInterpreter(db, options=self.OPTIONS)
        for args in warm:
            interpreter.interpret(build(*args))
        served = interpreter.interpret(build(*target))
        cold = DownwardInterpreter(db, options=self.OPTIONS).interpret(
            build(*target))
        assert cold.stats.path in ("unfold", "untemplated")
        assert served.stats.path == path
        assert served.dnf == cold.dnf
        assert served.dnf.minimal == cold.dnf.minimal
        assert served.translations == cold.translations
        assert served.already_satisfied == cold.already_satisfied
        assert served.to_dict() == cold.to_dict()

    def test_rule_constant_template_would_be_wrong(self):
        # Reusing P(C)'s template for P(A) would lose the P(A) <- R(A) rule.
        interpreter = DownwardInterpreter(DeductiveDatabase.from_source("""
            Q(B). R(Z).
            P(x) <- Q(x).
            P(A) <- R(A).
        """))
        interpreter.interpret(want_insert("P", "C"))
        assert Transaction([insert("R", "A")]) \
            in interpreter.interpret(want_insert("P", "A")).transactions()

    def test_a_hit_reports_only_its_probes(self, employment_db):
        interpreter = DownwardInterpreter(employment_db)
        interpreter.interpret(want_delete("Unemp", "Dolors"))
        hit = interpreter.interpret(want_delete("Unemp", "Dolors")).stats
        assert (hit.templated, hit.untemplated) == (1, 0)
        assert 0 < hit.old_queries <= 3
        assert hit.descents == hit.disjuncts_explored == hit.enumerations == 0

    def test_templates_outlive_the_interpreter(self):
        from repro.core.processor import UpdateProcessor
        from repro.workloads import employment_database

        processor = UpdateProcessor(employment_database(20, seed=3))
        first, second = sorted(
            row[0] for row in processor.db.query("Unemp(x)"))[:2]
        assert processor.downward(want_delete("Unemp", first)).stats.path \
            == "unfold"
        processor.invalidate_state_caches()
        assert processor.downward(want_delete("Unemp", second)).stats.path \
            == "template"

    def test_shapes_stop_at_the_bound(self):
        from itertools import combinations

        from repro.interpretations.downward import _MAX_SHAPES

        names = [f"B{i}" for i in range(9)]
        interpreter = DownwardInterpreter(DeductiveDatabase.from_source(
            " ".join(f"P{i}(x) <- {name}(x)." for i, name in
                     enumerate(names))))
        subsets = [subset for size in range(1, len(names) + 1)
                   for subset in combinations(range(len(names)), size)]
        paths = [interpreter.interpret(
                     [want_insert(f"P{i}", f"C{i}") for i in subset]
                 ).stats.path
                 for subset in subsets[:_MAX_SHAPES + 20]]
        assert len(interpreter._templates) == _MAX_SHAPES
        assert paths == ["unfold"] * _MAX_SHAPES + ["untemplated"] * 20
        result = interpreter.interpret(want_insert("P0", "New"))
        assert result.stats.path == "template"
        assert result.transactions() == (Transaction([insert("B0", "New")]),)

    def test_options_do_not_share_templates(self, employment_db):
        shallow = DownwardOptions(max_depth=1, on_depth_limit="prune")
        interpreter = DownwardInterpreter(employment_db)
        request = want_delete("Unemp", "Dolors")
        interpreter.interpret(request)
        other = DownwardInterpreter(employment_db, program=interpreter.program,
                                    options=shallow)
        result = other.interpret(request)
        assert result.stats.path == "unfold"
        assert result.to_dict() == DownwardInterpreter(
            employment_db, options=shallow).interpret(request).to_dict()

    @pytest.mark.parametrize("maintainer", ["counting", "advance"])
    def test_engine_templates_survive_a_commit(self, tmp_path, maintainer):
        """Under counting, and under advance (a recursive view added)."""
        from repro.events.events import parse_transaction
        from repro.server.engine import DatabaseEngine
        from repro.workloads import employment_database
        from tests import faultkit

        db = employment_database(30, seed=7)
        first, second = sorted(row[0] for row in db.query("Unemp(x)"))[:2]
        if maintainer == "advance":
            faultkit.with_recursion(db)
        engine = DatabaseEngine.open(tmp_path / "db", initial=db)
        try:
            assert engine.cache_mode == maintainer
            request = [want_delete("Unemp", first)]
            assert engine.downward(request).stats.path == "unfold"
            engine.commit(parse_transaction(f"insert Works({first})"))
            # Unemp(first) no longer holds: a new branch of the same trie.
            served = engine.downward(request)
            assert served.stats.path == "unfold" and served.dnf.is_true
            assert served.to_dict() \
                == DownwardInterpreter(engine.db).interpret(request).to_dict()
            # The branch recorded before the commit is still there.
            other = [want_delete("Unemp", second)]
            kept = engine.downward(other)
            assert kept.stats.path == "template"
            assert kept.to_dict() \
                == DownwardInterpreter(engine.db).interpret(other).to_dict()
            counters = engine.stats()["counters"]
            assert counters["downward.template_misses"] == 2
            assert counters["downward.template_hits"] == 1
            assert "downward.untemplated" not in counters
        finally:
            engine.close()
