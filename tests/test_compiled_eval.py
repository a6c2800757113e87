"""The compiled evaluation engine: differentials and regression tests.

The headline property: on arbitrary stratified programs the compiled
closure-chain engine computes exactly the same perfect model as the
tuple-at-a-time interpreter in both its naive and semi-naive iteration
modes, and the magic rewrite evaluated compiled agrees with full compiled
evaluation.  Alongside it, regression tests for the latent bugs fixed in
the same change:

- ``magic_answers`` ignored repeated variables in the query atom;
- ``Relation.add``/``discard`` dropped every column index per mutation;
- arity-mismatched patterns silently matched by ``zip`` truncation;
- ``materialize()`` returned a ``Materialization`` aliasing live stats.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import DeductiveDatabase
from repro.datalog.compile_plan import (
    ENGINE_COMPILED,
    ENGINE_INTERPRETED,
    ENGINES,
    ENV_ENGINE,
    order_body,
    resolve_engine,
)
from repro.datalog.database import Relation
from repro.datalog.errors import ArityError, SafetyError
from repro.datalog.evaluation import BottomUpEvaluator, ExtensionalStore
from repro.datalog.magic import _SeededSource, magic_answers
from repro.datalog.parser import parse_atom, parse_rule
from repro.datalog.terms import Constant, Variable

from tests.test_properties import CONSTANTS, databases, positive_databases


def _model(db, *, engine, semi_naive=True):
    evaluator = BottomUpEvaluator(db, db.all_rules(),
                                  semi_naive=semi_naive, engine=engine)
    return evaluator, evaluator.materialize()


class TestEngineDifferential:
    """Interpreted-naive ≡ interpreted-semi-naive ≡ compiled."""

    @given(db=databases())
    @settings(max_examples=80, deadline=None)
    def test_three_engines_same_perfect_model(self, db):
        naive, naive_model = _model(db, engine="interpreted",
                                    semi_naive=False)
        semi, semi_model = _model(db, engine="interpreted")
        comp, comp_model = _model(db, engine="compiled")
        assert naive.engine == semi.engine == ENGINE_INTERPRETED
        assert comp.engine == ENGINE_COMPILED
        predicates = (set(naive_model.derived) | set(semi_model.derived)
                      | set(comp_model.derived))
        for predicate in predicates:
            rows = semi_model.extension(predicate)
            assert naive_model.extension(predicate) == rows
            assert comp_model.extension(predicate) == rows
        # facts_derived counts fresh rows -- engine-independent by design.
        assert comp.stats.facts_derived == semi.stats.facts_derived

    @given(db=positive_databases(),
           view=st.sampled_from(["V1", "V2"]),
           constant=st.sampled_from(CONSTANTS + [None]))
    @settings(max_examples=60, deadline=None)
    def test_magic_rewrite_through_compiled_engine(self, db, view, constant):
        if view == "V2" and not any(r.head.predicate == "V2"
                                    for r in db.rules):
            return
        goal = parse_atom(f"{view}({constant})" if constant else f"{view}(x)")
        _, full = _model(db, engine="compiled")
        expected = {
            row for row in full.extension(view)
            if constant is None or row[0] == Constant(constant)
        }
        rules = db.all_rules()
        assert magic_answers(db, rules, goal, engine="compiled") == expected
        assert magic_answers(db, rules, goal, engine="interpreted") == expected

    @given(db=databases())
    @settings(max_examples=40, deadline=None)
    def test_compiled_answers_match_interpreted(self, db):
        """Goal solving over the materialized model is engine-agnostic."""
        comp = BottomUpEvaluator(db, db.all_rules(), engine="compiled")
        interp = BottomUpEvaluator(db, db.all_rules(), engine="interpreted")
        for predicate in sorted(db.schema.derived):
            arity = db.schema.arity(predicate)
            goal = parse_atom(
                f"{predicate}({', '.join(f'x{i}' for i in range(arity))})"
                if arity else predicate)
            normalize = lambda answers: {  # noqa: E731 -- row-set view
                tuple(sorted((str(v), c) for v, c in subst.items()))
                for subst in answers}
            assert normalize(comp.answers(goal)) \
                == normalize(interp.answers(goal))


class TestMagicRepeatedVariables:
    """Regression: ``Self(x, x)`` must only admit rows with equal columns."""

    def test_repeated_variable_query(self):
        db = DeductiveDatabase.from_source("""
            E(A, B). E(C, C).
            Self(x, y) <- E(x, y).
        """)
        goal = parse_atom("Self(x, x)")
        expected = {(Constant("C"), Constant("C"))}
        full = BottomUpEvaluator(db, db.all_rules())
        assert {row for row in full.extension("Self")
                if row[0] == row[1]} == expected
        for engine in ENGINES:
            assert magic_answers(db, db.all_rules(), goal,
                                 engine=engine) == expected

    def test_repeated_variable_with_constant(self):
        """Mixed pattern: constants bind, repeated variables equate."""
        db = DeductiveDatabase.from_source("""
            T(A, A, B). T(A, B, B). T(B, A, A).
            V(x, y, z) <- T(x, y, z).
        """)
        goal = parse_atom("V(x, x, B)")
        # Only rows whose first two columns coincide and third is B.
        assert magic_answers(db, db.all_rules(), goal) == {
            (Constant("A"), Constant("A"), Constant("B"))}

    def test_recursive_repeated_variable_query(self):
        """The fix also holds on recursive programs (cycle detection)."""
        db = DeductiveDatabase.from_source("""
            E(A, B). E(B, A). E(B, C).
            Path(x, y) <- E(x, y).
            Path(x, y) <- E(x, z) & Path(z, y).
        """)
        goal = parse_atom("Path(x, x)")
        answers = magic_answers(db, db.all_rules(), goal)
        assert answers == {(Constant("A"), Constant("A")),
                           (Constant("B"), Constant("B"))}


class TestIncrementalRelationIndexes:
    """Regression: mutations must patch live indexes, not drop them."""

    def test_add_and_discard_keep_indexes(self):
        relation = Relation("B2", 2)
        a, b, c = Constant("A"), Constant("B"), Constant("C")
        relation.add((a, b))
        relation.add((b, c))
        x = Variable("x")
        assert set(relation.lookup((a, x))) == {(a, b)}
        assert relation.index_builds == 1
        # Insertions and deletions after the build must be visible through
        # the same index without a rebuild.
        relation.add((a, c))
        assert set(relation.lookup((a, x))) == {(a, b), (a, c)}
        relation.discard((a, b))
        assert set(relation.lookup((a, x))) == {(a, c)}
        assert set(relation.lookup((x, c))) == {(a, c), (b, c)}
        assert relation.index_builds == 2  # one per probed column, ever

    def test_commits_do_not_rebuild_indexes(self, tmp_path):
        """Engine-level: steady-state commits leave build counters flat."""
        from repro.events.events import parse_transaction
        from repro.server.engine import DatabaseEngine

        initial = DeductiveDatabase.from_source("""
            B1(A). B1(B). B2(A, B). B2(B, C).
            V1(x) <- B2(x, y) & B1(y).
            V2(x) <- B2(x, y) & V1(y).
        """)
        engine = DatabaseEngine.open(tmp_path / "db", initial=initial)
        try:
            # Warm-up round: reads are served from maintained state, so
            # it is each commit shape's first delta join that probes (and
            # builds, once) the columns it needs.
            engine.query("V2(x)")
            for source in ("{insert B2(C, B)}", "{delete B2(C, B)}",
                           "{insert B1(D)}", "{delete B1(D)}"):
                assert engine.commit(parse_transaction(source)).applied
            builds = engine.db.index_build_count()
            for source in ("{insert B2(C, A)}", "{delete B2(A, B)}",
                           "{insert B1(C)}", "{insert B2(A, C)}"):
                assert engine.commit(parse_transaction(source)).applied
                engine.query("V2(x)")
            assert engine.db.index_build_count() == builds, (
                "commits triggered from-scratch index rebuilds")
        finally:
            engine.close()


class TestArityGuards:
    """Regression: length mismatches raise instead of zip-truncating."""

    def test_extensional_store_add(self):
        store = ExtensionalStore()
        store.add("P", (Constant("A"), Constant("B")))
        with pytest.raises(ArityError):
            store.add("P", (Constant("A"),))

    def test_extensional_store_lookup(self):
        store = ExtensionalStore()
        store.add("P", (Constant("A"), Constant("B")))
        with pytest.raises(ArityError):
            list(store.lookup("P", (Constant("A"),)))
        # A short pattern used to zip-truncate and "match" the stored row.
        assert set(store.lookup("P", (Constant("A"), Variable("y")))) \
            == {(Constant("A"), Constant("B"))}

    def test_seeded_source_lookup(self):
        seed = ("magic$V@b", (Constant("A"),))
        source = _SeededSource(ExtensionalStore(), *seed)
        with pytest.raises(ArityError):
            list(source.lookup("magic$V@b", (Variable("x"), Variable("y"))))
        assert list(source.lookup("magic$V@b", (Variable("x"),))) \
            == [(Constant("A"),)]

    def test_magic_answer_filter(self):
        db = DeductiveDatabase.from_source("""
            B1(A).
            V1(x) <- B1(x).
        """)
        with pytest.raises(ArityError):
            magic_answers(db, db.all_rules(), parse_atom("V1(x, y)"))


class TestMaterializationSnapshot:
    """Regression: a held ``Materialization`` must not track live stats."""

    def test_stats_are_a_snapshot(self):
        db = DeductiveDatabase.from_source("""
            B1(A). B1(B). B2(A, B).
            V1(x) <- B2(x, y) & B1(y).
        """)
        evaluator = BottomUpEvaluator(db, db.all_rules())
        held = evaluator.materialize()
        counters = held.stats.to_counters()
        assert held.stats is not evaluator.stats
        # Goal solving keeps counting work on the evaluator's live stats...
        for _ in range(3):
            evaluator.answers(parse_atom("V1(x)"))
        assert evaluator.stats.literals_matched \
            > counters["literals_matched"]
        # ...while the held snapshot stays exactly where it was taken.
        assert held.stats.to_counters() == counters

    def test_extensions_are_frozen(self):
        db = DeductiveDatabase.from_source("""
            B1(A).
            V1(x) <- B1(x).
        """)
        evaluator = BottomUpEvaluator(db, db.all_rules())
        held = evaluator.materialize()
        assert isinstance(held.extension("V1"), frozenset)


class TestOrderBody:
    def test_tests_run_as_soon_as_bound(self):
        body = parse_rule("V(x) <- not B2(x, x) & B1(x).").body
        # The negative literal is unsafe until B1 binds x.
        assert order_body(body) == (1, 0)

    def test_builtin_after_binding_join(self):
        body = parse_rule("V(x, y) <- x != y & B2(x, y).").body
        assert order_body(body) == (1, 0)

    def test_size_estimates_break_ties(self):
        body = parse_rule("V(x) <- B1(x) & B3(x).").body
        sizes = {"B1": 100, "B3": 2}
        assert order_body(body, size_of=sizes.__getitem__) == (1, 0)
        sizes = {"B1": 2, "B3": 100}
        assert order_body(body, size_of=sizes.__getitem__) == (0, 1)

    def test_bound_variables_seed_the_order(self):
        body = parse_rule("V(x, y) <- B1(x) & B2(x, y).").body
        # With x pre-bound (a delta literal bound it), B1(x) is a pure
        # membership test and runs before the widening join.
        assert order_body(body, bound=[Variable("x")]) == (0, 1)

    def test_most_bound_literal_first(self):
        body = parse_rule("V(y, z) <- B2(y, z) & B2(x, y).").body
        order = order_body(body, bound=[Variable("x")])
        # B2(x, y) has one bound position, B2(y, z) none: join it first.
        assert order == (1, 0)

    def test_unsafe_body_raises(self):
        body = parse_rule("V(x) <- B1(x) & not B2(y, y).").body
        with pytest.raises(SafetyError):
            order_body(body)


class TestResolveEngine:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_ENGINE, raising=False)
        assert resolve_engine(None) == ENGINE_COMPILED
        assert resolve_engine("compiled") == ENGINE_COMPILED
        assert resolve_engine("interpreted") == ENGINE_INTERPRETED

    def test_naive_iteration_pins_the_interpreter(self):
        assert resolve_engine(None, semi_naive=False) == ENGINE_INTERPRETED
        # ...unless an engine is named explicitly.
        assert resolve_engine("compiled", semi_naive=False) == ENGINE_COMPILED

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("vectorized")

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(ENV_ENGINE, "interpreted")
        assert resolve_engine(None) == ENGINE_INTERPRETED
        assert resolve_engine("compiled") == ENGINE_COMPILED
        # The naive-iteration ablation only exists interpreted, so the
        # env var never overrides semi_naive=False either way.
        monkeypatch.setenv(ENV_ENGINE, "compiled")
        assert resolve_engine(None, semi_naive=False) == ENGINE_INTERPRETED

    def test_bad_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_ENGINE, "turbo")
        with pytest.raises(ValueError):
            resolve_engine(None)


class TestPlanStats:
    def test_compiled_run_populates_counters(self):
        db = DeductiveDatabase.from_source("""
            B1(A). B1(B). B2(A, B). B2(B, A). B2(A, C).
            V1(x) <- B2(x, y) & B1(y).
            V1(x) <- B1(x).
            V2(x) <- B2(x, y) & V1(y).
            V3(x) <- B2(x, y).
        """)
        evaluator = BottomUpEvaluator(db, db.all_rules(), engine="compiled")
        evaluator.materialize()
        stats = evaluator.plan_stats
        assert stats.rules_compiled >= 4
        assert stats.index_probes > 0
        # V3's projection of B2(A, B) and B2(A, C) collapses to one row
        # through the intern table within a single batch.
        assert stats.rows_interned >= 1
        counters = stats.to_counters()
        assert set(counters) == {"rules_compiled", "index_builds",
                                 "index_probes", "rows_interned"}

    def test_interpreted_run_leaves_counters_zero(self):
        db = DeductiveDatabase.from_source("""
            B1(A).
            V1(x) <- B1(x).
        """)
        evaluator = BottomUpEvaluator(db, db.all_rules(),
                                      engine="interpreted")
        evaluator.materialize()
        assert evaluator.plan_stats.to_counters() == {
            "rules_compiled": 0, "index_builds": 0,
            "index_probes": 0, "rows_interned": 0}

    def test_derived_predicates_are_indexed(self):
        """The planner indexes derived extensions like base ones.

        V2 joins the *derived* V1 on a bound column; the interpreter
        full-scans it, the compiled engine must build (and count) an
        index over it.
        """
        db = DeductiveDatabase.from_source("""
            B1(A). B1(B). B2(A, B). B2(B, A). B2(A, A).
            V1(x) <- B2(x, y) & B1(y).
            V2(x) <- B2(x, y) & V1(y).
        """)
        evaluator = BottomUpEvaluator(db, db.all_rules(), engine="compiled")
        evaluator.materialize()
        assert evaluator.plan_stats.index_builds >= 1
