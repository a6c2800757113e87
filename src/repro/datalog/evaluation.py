"""Bottom-up evaluation with stratified negation (naive and semi-naive).

This is the query-processing substrate the paper assumes: given a database
state, compute the extension of every derived predicate.  It is used

- to answer the "old database literal" queries of both interpretations,
- by the *naive* change-computation oracle (materialise old and new states
  and diff them), against which the upward interpreter is cross-validated,
- to evaluate transition programs directly.

The evaluator is deliberately independent of :class:`DeductiveDatabase`: any
object with ``facts_of``/``lookup`` works as the extensional store, which is
how event facts are injected when evaluating transition rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from repro.datalog.builtins import evaluate_builtin, is_builtin
from repro.datalog.compile_plan import (
    ENGINE_COMPILED,
    PlanStats,
    ProgramPlan,
    resolve_engine,
)
from repro.datalog.errors import ArityError, SafetyError
from repro.obs import tracer as obs
from repro.datalog.rules import Atom, Literal, Rule
from repro.datalog.stratify import Stratification, stratify
from repro.datalog.terms import Constant, Term
from repro.datalog.unification import Substitution, match_tuple, resolve

Row = tuple[Constant, ...]


class FactSource(Protocol):
    """Anything that can enumerate and pattern-match stored base facts."""

    def facts_of(self, predicate: str) -> Iterable[Row]:
        """All tuples of *predicate* (empty when none)."""

    def lookup(self, predicate: str, pattern: Sequence[Term]) -> Iterator[Row]:
        """Tuples of *predicate* compatible with *pattern*."""


class ExtensionalStore:
    """A plain dict-backed :class:`FactSource`, used for transition states.

    The first tuple stored for a predicate fixes its arity; later
    mismatched inserts and mismatched lookup patterns raise
    :class:`ArityError` (mirroring :class:`~repro.datalog.database.
    Relation`) instead of silently truncating the comparison.
    """

    def __init__(self, facts: Mapping[str, Iterable[Row]] | None = None):
        self._facts: dict[str, set[Row]] = {}
        self._arities: dict[str, int] = {}
        if facts:
            for predicate, rows in facts.items():
                for row in rows:
                    self.add(predicate, row)

    def _check_arity(self, predicate: str, length: int) -> None:
        arity = self._arities.setdefault(predicate, length)
        if length != arity:
            raise ArityError(
                f"{predicate}: tuple of length {length}, arity is {arity}")

    def add(self, predicate: str, row: Row) -> bool:
        """Insert a tuple; True when new."""
        self._check_arity(predicate, len(row))
        rows = self._facts.setdefault(predicate, set())
        if row in rows:
            return False
        rows.add(row)
        return True

    def discard(self, predicate: str, row: Row) -> bool:
        """Remove a tuple; True when present."""
        rows = self._facts.get(predicate)
        if rows is None or row not in rows:
            return False
        rows.discard(row)
        return True

    def facts_of(self, predicate: str) -> frozenset[Row]:
        """All tuples of *predicate*."""
        return frozenset(self._facts.get(predicate, ()))

    def count_of(self, predicate: str) -> int:
        """Stored tuple count (join-order size estimates, no copying)."""
        return len(self._facts.get(predicate, ()))

    def lookup(self, predicate: str, pattern: Sequence[Term]) -> Iterator[Row]:
        """Linear filtered scan (these stores are small per-transition sets)."""
        rows = self._facts.get(predicate)
        if not rows:
            return
        self._check_arity(predicate, len(pattern))
        for row in rows:
            if all(not isinstance(t, Constant) or t == v
                   for t, v in zip(pattern, row)):
                yield row

    def predicates(self) -> list[str]:
        """Predicates with at least one tuple."""
        return [p for p, rows in self._facts.items() if rows]


@dataclass
class EvaluationStats:
    """Counters exposed for the benchmark harness and the ablation studies."""

    iterations: int = 0
    rule_firings: int = 0
    facts_derived: int = 0
    literals_matched: int = 0

    def merged_with(self, other: "EvaluationStats") -> "EvaluationStats":
        """Pointwise sum (used when aggregating per-stratum stats)."""
        return EvaluationStats(
            self.iterations + other.iterations,
            self.rule_firings + other.rule_firings,
            self.facts_derived + other.facts_derived,
            self.literals_matched + other.literals_matched,
        )

    def delta_since(self, earlier: "EvaluationStats") -> "EvaluationStats":
        """Pointwise difference against an earlier snapshot of this object."""
        return EvaluationStats(
            self.iterations - earlier.iterations,
            self.rule_firings - earlier.rule_firings,
            self.facts_derived - earlier.facts_derived,
            self.literals_matched - earlier.literals_matched,
        )

    def snapshot(self) -> "EvaluationStats":
        """A frozen copy (pair with :meth:`delta_since`)."""
        return EvaluationStats(self.iterations, self.rule_firings,
                               self.facts_derived, self.literals_matched)

    def to_counters(self) -> dict[str, int]:
        """The span-counter form used by the tracing subsystem."""
        return {
            "iterations": self.iterations,
            "rule_firings": self.rule_firings,
            "facts_derived": self.facts_derived,
            "literals_matched": self.literals_matched,
        }

    def record_to(self, span: "obs.Span") -> None:
        """Add these stats to a span's counters (the shared span model)."""
        for counter, amount in self.to_counters().items():
            if amount:
                span.add(counter, amount)


@dataclass
class Materialization:
    """The computed perfect model: every derived predicate's extension."""

    derived: dict[str, frozenset[Row]]
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    def extension(self, predicate: str) -> frozenset[Row]:
        """Extension of a derived predicate (empty when it derived nothing)."""
        return self.derived.get(predicate, frozenset())

    def holds(self, predicate: str, row: Row) -> bool:
        """Membership test against a derived extension."""
        return row in self.derived.get(predicate, frozenset())


class BottomUpEvaluator:
    """Evaluates a stratified program over a :class:`FactSource`.

    Parameters
    ----------
    facts:
        the extensional state (base predicates).
    rules:
        the intensional part; every head predicate is treated as derived.
    semi_naive:
        when True (default) use semi-naive (delta) iteration inside each
        recursive stratum; when False use naive fixpoint iteration.  Both
        compute the same perfect model; the difference is measured by the
        SYN6 ablation benchmark.
    engine:
        ``"compiled"`` materialises through
        :class:`~repro.datalog.compile_plan.ProgramPlan` (closure-chain
        join plans, indexed derived extensions, batched semi-naive);
        ``"interpreted"`` keeps the tuple-at-a-time AST walk and serves
        as the differential oracle.  ``None`` (default) resolves to
        compiled for semi-naive evaluation unless the
        ``REPRO_EVAL_ENGINE`` environment variable overrides it; naive
        iteration always runs interpreted (the compiled engine is
        inherently semi-naive).  Goal solving (:meth:`solve`,
        :meth:`answers`, :meth:`holds`) always runs over the
        materialised model, whichever engine produced it.
    """

    def __init__(self, facts: FactSource, rules: Sequence[Rule],
                 semi_naive: bool = True,
                 stratification: Stratification | None = None,
                 engine: str | None = None):
        self._facts = facts
        self._rules = list(rules)
        self._semi_naive = semi_naive
        self._engine = resolve_engine(engine, semi_naive)
        self._derived_predicates = {r.head.predicate for r in self._rules}
        self._stratification = stratification or stratify(self._rules)
        self._extensions: dict[str, set[Row]] | None = None
        self.stats = EvaluationStats()
        self.plan_stats = PlanStats()

    # -- public API ----------------------------------------------------------

    @property
    def engine(self) -> str:
        """The resolved evaluation engine (``"compiled"``/``"interpreted"``)."""
        return self._engine

    def materialize(self) -> Materialization:
        """Compute (and cache) the extension of every derived predicate.

        The returned :class:`Materialization` is a stable snapshot: its
        extensions are frozen and its stats are a copy taken now, not a
        live alias of :attr:`stats`.
        """
        if self._extensions is None:
            self._extensions = self._compute()
        return Materialization(
            {p: frozenset(rows) for p, rows in self._extensions.items()},
            self.stats.snapshot(),
        )

    def answers(self, query: Atom) -> list[Substitution]:
        """Distinct substitutions (over the query's variables) satisfying it."""
        seen: set[tuple] = set()
        results: list[Substitution] = []
        for bindings in self._answer_atom(query):
            key = tuple(sorted((v.name, t) for v, t in bindings.items()))
            if key not in seen:
                seen.add(key)
                results.append(bindings)
        return results

    def holds(self, literal: Literal, subst: Substitution | None = None) -> bool:
        """Truth of a ground (after *subst*) literal in the perfect model."""
        bindings = self.solve((literal,), subst)
        return next(iter(bindings), None) is not None

    def solve(self, conjunction: Sequence[Literal],
              subst: Substitution | None = None) -> Iterator[Substitution]:
        """All extensions of *subst* satisfying the conjunction.

        Literals are reordered dynamically so that negative literals run only
        once ground; a conjunction whose negatives can never become ground is
        rejected with :class:`SafetyError`.
        """
        self._ensure_materialized()
        yield from self._solve(list(conjunction), dict(subst or {}))

    def extension(self, predicate: str) -> frozenset[Row]:
        """Extension of a predicate: stored facts or computed derived rows."""
        self._ensure_materialized()
        assert self._extensions is not None
        if predicate in self._derived_predicates:
            return frozenset(self._extensions.get(predicate, ()))
        return frozenset(self._facts.facts_of(predicate))

    def apply_delta(self, predicate: str, inserted: Iterable[Row] = (),
                    deleted: Iterable[Row] = ()) -> None:
        """Adjust a derived extension in place after a known change.

        Used to *advance* a materialisation across a transaction whose
        induced events are already known (incremental maintenance), instead
        of recomputing from scratch.  The caller is responsible for the
        delta being correct; base facts are always read live from the fact
        source.  Only derived (rule-head) predicates can be patched.
        """
        if predicate not in self._derived_predicates:
            raise ValueError(
                f"apply_delta targets derived predicates only; "
                f"{predicate!r} has no rules here")
        self._ensure_materialized()
        assert self._extensions is not None
        rows = self._extensions.setdefault(predicate, set())
        rows.update(inserted)
        rows.difference_update(deleted)

    @property
    def materialized(self) -> bool:
        """Whether the derived extensions have been computed already."""
        return self._extensions is not None

    def live_extensions(self) -> Mapping[str, set[Row]]:
        """The internal derived-extensions mapping, materialising on demand.

        The returned mapping stays *live*: :meth:`apply_delta` patches are
        visible through it, which is what lets cached fact-source views
        (:class:`repro.interpretations.upward.OldStateView`) survive an
        advance without re-snapshotting.  Treat it as read-only.
        """
        self._ensure_materialized()
        assert self._extensions is not None
        return self._extensions

    # -- internals -------------------------------------------------------------

    def _ensure_materialized(self) -> None:
        if self._extensions is None:
            self._extensions = self._compute()

    def _answer_atom(self, query: Atom) -> Iterator[Substitution]:
        variables = set(query.variables())
        for bindings in self.solve((Literal(query, True),)):
            yield {v: t for v, t in bindings.items() if v in variables}

    def _rows_of(self, predicate: str,
                 extensions: Mapping[str, set[Row]]) -> Iterable[Row]:
        if predicate in self._derived_predicates:
            return extensions.get(predicate, ())
        return self._facts.facts_of(predicate)

    def _match_positive(self, literal: Literal, subst: Substitution,
                        extensions: Mapping[str, set[Row]],
                        restrict_to: Iterable[Row] | None = None) -> Iterator[Substitution]:
        pattern = tuple(resolve(t, subst) for t in literal.args)
        if restrict_to is not None:
            rows: Iterable[Row] = restrict_to
        elif literal.predicate in self._derived_predicates:
            rows = extensions.get(literal.predicate, ())
            if all(isinstance(t, Constant) for t in pattern):
                # A ground probe is one membership test, not a scan of
                # the extent (still one matched literal in the stats).
                self.stats.literals_matched += 1
                if pattern in rows:
                    yield subst if isinstance(subst, dict) else dict(subst)
                return
        else:
            rows = self._facts.lookup(literal.predicate, pattern)
        for row in rows:
            self.stats.literals_matched += 1
            bindings = match_tuple(pattern, row, subst)
            if bindings is not None:
                yield bindings if isinstance(bindings, dict) else dict(bindings)

    def _literal_ground(self, literal: Literal, subst: Substitution) -> bool:
        return all(isinstance(resolve(t, subst), Constant) for t in literal.args)

    def _solve(self, pending: list[Literal], subst: dict,
               extensions: Mapping[str, set[Row]] | None = None,
               delta_literal: Literal | None = None,
               delta_rows: Iterable[Row] | None = None) -> Iterator[Substitution]:
        """Backtracking join over *pending*, negatives delayed until ground."""
        if extensions is None:
            assert self._extensions is not None
            extensions = self._extensions
        if not pending:
            yield dict(subst)
            return
        # Choose the next literal: a ground one if available (cheap test),
        # otherwise the first positive non-built-in literal; never a
        # non-ground negative or a non-ground built-in (they only test).
        choice = None
        for index, literal in enumerate(pending):
            if self._literal_ground(literal, subst):
                choice = index
                break
        if choice is None:
            for index, literal in enumerate(pending):
                if literal.positive and not is_builtin(literal.predicate):
                    choice = index
                    break
        if choice is None:
            unresolved = " & ".join(str(lit) for lit in pending)
            raise SafetyError(
                f"cannot evaluate non-ground negative or built-in literals: "
                f"{unresolved}"
            )
        literal = pending[choice]
        rest = pending[:choice] + pending[choice + 1:]
        if is_builtin(literal.predicate):
            row = tuple(resolve(t, subst) for t in literal.args)
            if evaluate_builtin(literal.predicate, row) == literal.positive:
                yield from self._solve(rest, subst, extensions,
                                       delta_literal, delta_rows)
            return
        if literal.positive:
            restrict = delta_rows if literal is delta_literal else None
            for bindings in self._match_positive(literal, subst, extensions, restrict):
                yield from self._solve(rest, bindings, extensions,
                                       delta_literal, delta_rows)
        else:
            row = tuple(resolve(t, subst) for t in literal.args)
            if row not in self._rows_of(literal.predicate, extensions):
                yield from self._solve(rest, subst, extensions,
                                       delta_literal, delta_rows)

    def _fire_rule(self, r: Rule, extensions: dict[str, set[Row]],
                   delta_literal: Literal | None = None,
                   delta_rows: set[Row] | None = None) -> set[Row]:
        """All head rows derivable from one rule (optionally delta-restricted)."""
        self.stats.rule_firings += 1
        derived: set[Row] = set()
        for bindings in self._solve(list(r.body), {}, extensions,
                                    delta_literal, delta_rows):
            head_row = tuple(resolve(t, bindings) for t in r.head.args)
            if not all(isinstance(t, Constant) for t in head_row):
                raise SafetyError(f"derived a non-ground head from rule: {r}")
            derived.add(head_row)  # type: ignore[arg-type]
        return derived

    def _compute(self) -> dict[str, set[Row]]:
        """Stratum-by-stratum fixpoint computation of the perfect model."""
        extensions: dict[str, set[Row]] = {p: set() for p in self._derived_predicates}
        compiled = self._engine == ENGINE_COMPILED
        plan = None
        if compiled:
            # The plan shares (and indexes) the very extension sets above,
            # so live_extensions/apply_delta keep working unchanged.
            plan = ProgramPlan(self._rules, self._facts, extensions,
                               self.stats, self.plan_stats)
        if compiled:
            mode = "compiled"
        elif self._semi_naive:
            mode = "semi-naive"
        else:
            mode = "naive"
        with obs.span("eval.materialize") as root:
            for index, stratum in enumerate(self._stratification.strata):
                # Stratum 0 is normally rule-free (base predicates), but ground
                # bodiless rules land there and must fire.
                stratum_rules = [r for r in self._rules
                                 if r.head.predicate in stratum]
                if not stratum_rules:
                    continue
                with obs.span("eval.stratum") as span:
                    traced = obs.enabled()
                    if traced:
                        span.set(index=index, mode=mode,
                                 predicates=sorted(
                                     stratum & self._derived_predicates))
                        span.add("rules", len(stratum_rules))
                        before = self.stats.snapshot()
                    if compiled:
                        assert plan is not None
                        plan.evaluate_stratum(stratum, [
                            i for i, r in enumerate(self._rules)
                            if r.head.predicate in stratum])
                    elif self._semi_naive:
                        self._evaluate_stratum_semi_naive(
                            stratum_rules, stratum, extensions)
                    else:
                        self._evaluate_stratum_naive(stratum_rules, extensions)
                    if traced:
                        self.stats.delta_since(before).record_to(span)
                        span.add("rows", sum(
                            len(extensions.get(p, ()))
                            for p in stratum & self._derived_predicates))
            if obs.enabled():
                root.set(strata=len(self._stratification.strata),
                         rules=len(self._rules), engine=self._engine)
                self.stats.record_to(root)
                for counter, amount in self.plan_stats.to_counters().items():
                    if amount:
                        root.add(counter, amount)
        return extensions

    def _evaluate_stratum_naive(self, stratum_rules: list[Rule],
                                extensions: dict[str, set[Row]]) -> None:
        changed = True
        while changed:
            self.stats.iterations += 1
            changed = False
            for r in stratum_rules:
                for row in self._fire_rule(r, extensions):
                    if row not in extensions[r.head.predicate]:
                        extensions[r.head.predicate].add(row)
                        self.stats.facts_derived += 1
                        changed = True

    def _evaluate_stratum_semi_naive(self, stratum_rules: list[Rule],
                                     stratum: frozenset[str],
                                     extensions: dict[str, set[Row]]) -> None:
        # Round 0: fire every rule against the current (lower-strata) state.
        delta: dict[str, set[Row]] = {}
        self.stats.iterations += 1
        for r in stratum_rules:
            for row in self._fire_rule(r, extensions):
                if row not in extensions[r.head.predicate]:
                    extensions[r.head.predicate].add(row)
                    delta.setdefault(r.head.predicate, set()).add(row)
                    self.stats.facts_derived += 1
        recursive_rules = [
            r for r in stratum_rules
            if any(lit.positive and lit.predicate in stratum for lit in r.body)
        ]
        while delta:
            self.stats.iterations += 1
            if obs.enabled():
                delta_rows = sum(len(rows) for rows in delta.values())
                obs.add("delta_rounds")
                obs.add("delta_rows", delta_rows)
            next_delta: dict[str, set[Row]] = {}
            for r in recursive_rules:
                for literal in r.body:
                    if not literal.positive or literal.predicate not in stratum:
                        continue
                    delta_rows = delta.get(literal.predicate)
                    if not delta_rows:
                        continue
                    for row in self._fire_rule(r, extensions, literal, delta_rows):
                        if row not in extensions[r.head.predicate]:
                            extensions[r.head.predicate].add(row)
                            next_delta.setdefault(r.head.predicate, set()).add(row)
                            self.stats.facts_derived += 1
            delta = next_delta
