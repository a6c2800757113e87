"""Unit tests for the DNF algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.errors import ComplexityLimitExceeded
from repro.datalog.rules import Atom, Literal
from repro.datalog.terms import Constant, Variable
from repro.events.dnf import Dnf, FALSE_DNF, TRUE_DNF


def lit(name, positive=True, *args):
    return Literal(Atom(name, tuple(Constant(a) for a in args)), positive)


IA = lit("ins$Q", True, "A")
DA = lit("del$Q", True, "A")
IB = lit("ins$Q", True, "B")
NIA = lit("ins$Q", False, "A")
DR = lit("del$R", True, "B")


class TestConstants:
    def test_true_false(self):
        assert TRUE_DNF.is_true and not TRUE_DNF.is_false
        assert FALSE_DNF.is_false and not FALSE_DNF.is_true

    def test_constructors(self):
        assert Dnf.of_literal(IA) == Dnf.of_disjuncts([[IA]])
        assert len(Dnf.of_conjunct([IA, DR])) == 1


class TestConjunction:
    def test_identity(self):
        d = Dnf.of_literal(IA)
        assert d.and_(TRUE_DNF) == d
        assert d.and_(FALSE_DNF).is_false

    def test_distribution(self):
        left = Dnf.of_disjuncts([[IA], [IB]])
        right = Dnf.of_literal(DR)
        combined = left.and_(right)
        assert len(combined) == 2
        assert frozenset({IA, DR}) in combined.disjuncts

    def test_complementary_pruned(self):
        left = Dnf.of_literal(IA)
        right = Dnf.of_literal(NIA)
        assert left.and_(right).is_false

    def test_contradictory_events_pruned(self):
        # ιQ(A) ∧ δQ(A) is unsatisfiable by definitions (1)/(2).
        assert Dnf.of_literal(IA).and_(Dnf.of_literal(DA)).is_false

    def test_different_args_not_contradictory(self):
        db_lit = lit("del$Q", True, "B")
        assert not Dnf.of_literal(IA).and_(Dnf.of_literal(db_lit)).is_false


class TestDisjunction:
    def test_union(self):
        combined = Dnf.of_literal(IA).or_(Dnf.of_literal(IB))
        assert len(combined) == 2

    def test_subsumption(self):
        small = Dnf.of_conjunct([IA])
        large = Dnf.of_conjunct([IA, DR])
        assert small.or_(large) == small

    def test_false_identity(self):
        d = Dnf.of_literal(IA)
        assert d.or_(FALSE_DNF) == d


class TestNegation:
    def test_de_morgan_single_conjunct(self):
        negated = Dnf.of_conjunct([IA, DR]).negated()
        assert len(negated) == 2
        assert frozenset({IA.negate()}) in negated.disjuncts
        assert frozenset({DR.negate()}) in negated.disjuncts

    def test_negate_disjunction(self):
        negated = Dnf.of_disjuncts([[IA], [DR]]).negated()
        # ¬(a ∨ b) = ¬a ∧ ¬b -- a single two-literal conjunct.
        assert negated == Dnf.of_conjunct([IA.negate(), DR.negate()])

    def test_constants(self):
        assert TRUE_DNF.negated().is_false
        assert FALSE_DNF.negated().is_true

    def test_double_negation_of_literal(self):
        d = Dnf.of_literal(IA)
        assert d.negated().negated() == d

    def test_size_bound(self):
        disjuncts = [[lit("ins$Q", True, f"C{i}"), lit("del$R", True, f"C{i}")]
                     for i in range(20)]
        big = Dnf.of_disjuncts(disjuncts)
        with pytest.raises(ComplexityLimitExceeded):
            big.negated(max_size=50)


class TestSimplified:
    def test_contradiction_removed(self):
        d = Dnf.of_disjuncts([[IA, NIA], [DR]])
        assert d.simplified() == Dnf.of_literal(DR)

    def test_subsumption_keeps_smaller(self):
        d = Dnf.of_disjuncts([[IA, DR], [IA]])
        assert d.simplified() == Dnf.of_literal(IA)

    def test_subsumption_runs_at_every_size(self):
        disjuncts = [[lit("ins$Q", True, f"C{i}")] for i in range(700)]
        disjuncts.append([lit("ins$Q", True, "C0"), DR])  # subsumed
        d = Dnf.of_disjuncts(disjuncts).simplified()
        assert len(d) == 700
        assert_minimal(d)


class TestSubstitutionAndInspection:
    def test_substitute(self):
        x = Variable("x")
        open_lit = Literal(Atom("ins$Q", (x,)), True)
        d = Dnf.of_literal(open_lit).substitute({x: Constant("A")})
        assert d == Dnf.of_literal(IA)

    def test_literals(self):
        d = Dnf.of_disjuncts([[IA], [DR]])
        assert d.literals() == {IA, DR}

    def test_is_ground(self):
        assert Dnf.of_literal(IA).is_ground()
        x = Variable("x")
        assert not Dnf.of_literal(Literal(Atom("ins$Q", (x,)), True)).is_ground()

    def test_str_rendering(self):
        assert str(TRUE_DNF) == "true"
        assert str(FALSE_DNF) == "false"
        assert "ιQ(A)" in str(Dnf.of_literal(IA))


# -- the algebra against a from-scratch reference ------------------------------
#
# Over a small alphabet with complementary pairs (``Q(A)`` / ``not Q(A)``)
# and ``ins$`` / ``del$`` twins, every algebra result must equal the naive
# construction -- cross product or union, then drop contradictory conjuncts,
# then drop subsumed ones -- compared as disjunct sets.

LITERALS = st.builds(
    lambda name, positive, arg: lit(name, positive, arg),
    st.sampled_from(["ins$Q", "del$Q", "Q"]), st.booleans(),
    st.sampled_from(["A", "B"]))
RAW = st.frozensets(st.frozensets(LITERALS, max_size=3), max_size=4)
WIDE = st.frozensets(st.frozensets(LITERALS, max_size=3), min_size=3,
                     max_size=4)
#: Hand-built formulas (never marked minimal) and algebra-built ones.
FORMULAS = st.one_of(
    RAW.map(Dnf),
    RAW.map(lambda raw: Dnf(raw).simplified()),
    st.tuples(RAW, RAW).map(lambda p: Dnf(p[0]).or_(Dnf(p[1]))),
    st.tuples(RAW, RAW).map(lambda p: Dnf(p[0]).and_(Dnf(p[1]))),
)


def reference_contradictory(conjunct):
    for literal in conjunct:
        if Literal(literal.atom, not literal.positive) in conjunct:
            return True
        name = literal.predicate
        if literal.positive and name.startswith("ins$"):
            twin = Literal(Atom("del$" + name[4:], literal.args), True)
            if twin in conjunct:
                return True
    return False


def reference_clean(conjuncts):
    viable = {c for c in conjuncts if not reference_contradictory(c)}
    return frozenset(c for c in viable if not any(o < c for o in viable))


def reference_product(left, right):
    return {a | b for a in left for b in right}


def reference_negated(conjuncts):
    result = {frozenset()}
    for conjunct in conjuncts:
        result = {r | {l.negate()} for r in result for l in conjunct}
    return reference_clean(result)


def assert_minimal(dnf):
    assert dnf.minimal
    assert dnf.simplified() is dnf


class TestAlgebraAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(FORMULAS, FORMULAS)
    def test_and(self, left, right):
        result = left.and_(right)
        assert result.disjuncts == reference_clean(
            reference_product(left.disjuncts, right.disjuncts))
        assert_minimal(result)

    @settings(max_examples=300, deadline=None)
    @given(FORMULAS, FORMULAS)
    def test_or(self, left, right):
        result = left.or_(right)
        assert result.disjuncts == reference_clean(
            left.disjuncts | right.disjuncts)
        assert_minimal(result)

    @settings(max_examples=300, deadline=None)
    @given(FORMULAS)
    def test_negated(self, formula):
        result = formula.negated()
        assert result.disjuncts == reference_negated(formula.disjuncts)
        assert_minimal(result)

    @settings(max_examples=300, deadline=None)
    @given(FORMULAS)
    def test_simplified(self, formula):
        result = formula.simplified()
        assert result.disjuncts == reference_clean(formula.disjuncts)
        assert_minimal(result)

    @settings(max_examples=200, deadline=None)
    @given(RAW)
    def test_minimal_flag_ignored_by_equality_and_hash(self, raw):
        built, cleaned = Dnf(raw), Dnf(raw).simplified()
        assert not built.minimal
        assert (built == cleaned) == (built.disjuncts == cleaned.disjuncts)
        assert hash(Dnf(cleaned.disjuncts)) == hash(cleaned)
        assert Dnf(cleaned.disjuncts) == cleaned

    @settings(max_examples=10, deadline=None)
    @given(WIDE, WIDE)
    def test_over_six_hundred_conjuncts(self, left, right):
        # The left formula is spread over 70 fresh constants, so every
        # product runs past 600 conjuncts before cleaning.
        left = Dnf(frozenset(conjunct | {lit("del$R", True, f"C{i}")}
                             for conjunct in left for i in range(70)))
        right = Dnf(right)
        assert len(left) * len(right) > 600
        product = left.and_(right)
        assert product.disjuncts == reference_clean(
            reference_product(left.disjuncts, right.disjuncts))
        assert_minimal(product)
        union = product.or_(left)
        assert union.disjuncts == reference_clean(
            product.disjuncts | left.disjuncts)
        assert_minimal(union)

    def test_bounded_conjunction_raises_before_subsumption(self, monkeypatch):
        from repro.events import dnf as dnf_module

        left = Dnf.of_disjuncts([[lit("ins$Q", True, f"C{i}")]
                                 for i in range(10)])
        right = Dnf.of_disjuncts([[lit("del$R", True, f"C{i}")]
                                  for i in range(10)])
        assert len(left.and_(right, max_size=100)) == 100
        passes = []
        monkeypatch.setattr(dnf_module, "_without_subsumed",
                            lambda conjuncts: passes.append(conjuncts))
        with pytest.raises(ComplexityLimitExceeded):
            left.and_(right, max_size=99)
        assert passes == []


class TestMinimality:
    def test_constants_are_minimal(self):
        assert_minimal(TRUE_DNF)
        assert_minimal(FALSE_DNF)

    def test_minimal_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            Dnf(frozenset(), minimal=True)  # type: ignore[call-arg]
        assert "minimal" not in repr(TRUE_DNF)

    def test_hand_built_formula_is_cleaned(self):
        # Neither input is trusted: a contradictory and a subsumed conjunct
        # built by hand are dropped by simplified() and by or_.
        dirty = Dnf.of_disjuncts([[IA, NIA], [IA, DR], [IA]])
        assert not dirty.minimal
        assert dirty.simplified() == Dnf.of_literal(IA)
        assert dirty.or_(FALSE_DNF) == Dnf.of_literal(IA)
        assert FALSE_DNF.or_(dirty) == Dnf.of_literal(IA)
        assert dirty.or_(Dnf.of_literal(IB)) == Dnf.of_disjuncts([[IA], [IB]])

    def test_hand_built_formula_is_cleaned_by_and(self):
        dirty = Dnf.of_disjuncts([[IA, DA], [DR, IA], [DR]])
        assert dirty.and_(TRUE_DNF) == Dnf.of_literal(DR)
        assert TRUE_DNF.and_(dirty) == Dnf.of_literal(DR)

    def test_large_hand_built_formula_is_cleaned_in_full(self):
        disjuncts = [[lit("ins$Q", True, f"C{i}")] for i in range(700)]
        disjuncts.append([lit("ins$Q", True, "C0"), DR])   # subsumed
        disjuncts.append([IA, NIA])                        # contradictory
        dirty = Dnf.of_disjuncts(disjuncts)
        widened = dirty.or_(Dnf.of_literal(IB))
        assert len(widened) == 701
        assert_minimal(widened)
