"""Compiled join plans: batched, closure-chain bottom-up evaluation.

The interpreted evaluator walks each rule body literal-at-a-time through a
backtracking ``_solve``, re-resolving every pending literal's argument
pattern at every choice point and threading dict substitutions per tuple.
That is the right shape for ad-hoc goal solving, but materialisation -- the
hot path under every upward/downward interpretation, IC check and IVM delta
-- evaluates the *same* rule bodies thousands of times over growing
extensions.  This module compiles each stratified rule body **once** into a
closure-chain *join plan* and runs a batched semi-naive fixpoint over sets
of tuples:

- **fixed join order** chosen statically by :func:`order_body`: ground
  literals and built-ins are pushed as early as their bindings allow,
  positive literals are ordered most-bound-first with relation-size
  tie-breaks from per-predicate index statistics;
- **slot registers** instead of dict substitutions: variables are assigned
  integer slots in binding order, a partial join result is a plain tuple,
  and each join step extends whole batches at a time;
- **indexed extensions everywhere**: derived predicates get lazily built,
  incrementally maintained hash indexes on the bound-column combinations
  the plans actually probe -- the same treatment
  :class:`~repro.datalog.database.Relation` gives base relations (the
  interpreter full-scans derived extensions even for bound patterns);
- **interned rows**: derived tuples are deduplicated through an intern
  table so repeated derivations share one tuple object and set membership
  stays cheap.

:class:`ProgramPlan` is the engine behind
``BottomUpEvaluator(engine="compiled")``; the tuple-at-a-time interpreter
remains available as ``engine="interpreted"`` and serves as the
differential-testing oracle (see ``tests/test_compiled_eval.py``).  The
same planner orders the counting maintainer's delta-rule bodies.  See
docs/EVALUATION.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.datalog.builtins import evaluate_builtin, is_builtin
from repro.datalog.errors import SafetyError
from repro.datalog.rules import Literal, Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.obs import tracer as obs

Row = tuple[Constant, ...]

#: Engine names accepted by :class:`~repro.datalog.evaluation.BottomUpEvaluator`.
ENGINE_COMPILED = "compiled"
ENGINE_INTERPRETED = "interpreted"
ENGINES = (ENGINE_COMPILED, ENGINE_INTERPRETED)

#: Environment override for the default engine (e.g. in CI ablations).
ENV_ENGINE = "REPRO_EVAL_ENGINE"


def resolve_engine(engine: str | None, semi_naive: bool = True) -> str:
    """Resolve an engine choice: explicit > naive-iteration > env > compiled.

    ``semi_naive=False`` pins the interpreter unless an engine is named
    explicitly -- the compiled engine is inherently batched semi-naive, so
    the naive-iteration ablation only exists interpreted.
    """
    if engine is None:
        if not semi_naive:
            return ENGINE_INTERPRETED
        engine = os.environ.get(ENV_ENGINE) or ENGINE_COMPILED
    if engine not in ENGINES:
        raise ValueError(
            f"unknown evaluation engine: {engine!r} (expected one of {ENGINES})")
    return engine


@dataclass
class PlanStats:
    """Planner/index counters, exposed as ``BottomUpEvaluator.plan_stats``."""

    #: Rule bodies compiled into closure chains.
    rules_compiled: int = 0
    #: Hash indexes built from scratch (a build is O(|extension|); steady
    #: state should probe and incrementally maintain, not rebuild).
    index_builds: int = 0
    #: Index probes served.
    index_probes: int = 0
    #: Derived rows deduplicated through the intern table.
    rows_interned: int = 0

    def to_counters(self) -> dict[str, int]:
        """Counter form for tracing/metrics surfaces."""
        return {
            "rules_compiled": self.rules_compiled,
            "index_builds": self.index_builds,
            "index_probes": self.index_probes,
            "rows_interned": self.rows_interned,
        }


# ---------------------------------------------------------------------------
# Join-order selection (shared with the counting maintainer's delta rules).
# ---------------------------------------------------------------------------


def _ready(literal: Literal, bound: set[Variable]) -> bool:
    return all(isinstance(t, Constant) or t in bound for t in literal.args)


def order_body(body: Sequence[Literal], bound: Iterable[Variable] = (),
               size_of: Callable[[str], int] | None = None) -> tuple[int, ...]:
    """A fixed evaluation order for a conjunction, as body-index permutation.

    Starting from the *bound* variables, repeatedly:

    - emit every built-in, negative or fully-bound positive literal whose
      arguments are ground under the current bindings (cheap tests first);
    - then pick the positive literal with the most bound argument
      positions, tie-breaking on the smaller estimated extension
      (``size_of``) and finally on source order, and bind its variables.

    Raises :class:`SafetyError` when negative or built-in literals can
    never become ground (the conjunction is unsafe).
    """
    bound_vars = set(bound)
    remaining = list(range(len(body)))
    order: list[int] = []

    def emit_tests() -> None:
        progressed = True
        while progressed:
            progressed = False
            for index in list(remaining):
                literal = body[index]
                if not _ready(literal, bound_vars):
                    continue
                order.append(index)
                remaining.remove(index)
                progressed = True

    while remaining:
        emit_tests()
        if not remaining:
            break
        best = None
        best_key = None
        for index in remaining:
            literal = body[index]
            if not literal.positive or is_builtin(literal.predicate):
                continue
            n_bound = sum(1 for t in literal.args
                          if isinstance(t, Constant) or t in bound_vars)
            size = size_of(literal.predicate) if size_of is not None else 0
            key = (-n_bound, size, index)
            if best_key is None or key < best_key:
                best, best_key = index, key
        if best is None:
            unresolved = " & ".join(str(body[i]) for i in remaining)
            raise SafetyError(
                f"cannot evaluate non-ground negative or built-in literals: "
                f"{unresolved}")
        order.append(best)
        remaining.remove(best)
        bound_vars.update(body[best].variables())
    return tuple(order)


# ---------------------------------------------------------------------------
# Indexed tuple stores.
# ---------------------------------------------------------------------------


class _Extension:
    """A set of rows plus lazily built, incrementally maintained indexes.

    ``rows`` may be a shared mutable set (derived predicates: the very set
    the evaluator exposes through ``live_extensions``) or a frozenset
    snapshot (base predicates).  Indexes are keyed by the probed position
    combination; single-column indexes use the bare constant as key, wider
    ones a tuple, so the per-probe key build stays minimal.
    """

    __slots__ = ("rows", "indexes")

    def __init__(self, rows):
        self.rows = rows
        self.indexes: dict[tuple[int, ...], dict] = {}

    def index_on(self, positions: tuple[int, ...], stats: PlanStats) -> dict:
        index = self.indexes.get(positions)
        if index is None:
            index = {}
            if len(positions) == 1:
                position = positions[0]
                for row in self.rows:
                    index.setdefault(row[position], []).append(row)
            else:
                for row in self.rows:
                    key = tuple(row[p] for p in positions)
                    index.setdefault(key, []).append(row)
            self.indexes[positions] = index
            stats.index_builds += 1
        return index

    def add_batch(self, fresh: Iterable[Row]) -> None:
        """Insert rows **not already present**, maintaining every index."""
        self.rows.update(fresh)
        for positions, index in self.indexes.items():
            if len(positions) == 1:
                position = positions[0]
                for row in fresh:
                    index.setdefault(row[position], []).append(row)
            else:
                for row in fresh:
                    key = tuple(row[p] for p in positions)
                    index.setdefault(key, []).append(row)


class _PlanSource:
    """Resolves predicates to :class:`_Extension` stores for the plans.

    Derived predicates share the evaluator's live extension sets; base
    predicates are snapshotted from the fact source on first touch (one
    ``facts_of`` per predicate per materialisation -- the same one-time
    cost the interpreter pays building a column index).
    """

    __slots__ = ("_facts", "_derived", "_base", "stats")

    def __init__(self, facts, derived: Mapping[str, set[Row]],
                 stats: PlanStats):
        self._facts = facts
        self._derived = {name: _Extension(rows)
                         for name, rows in derived.items()}
        self._base: dict[str, _Extension] = {}
        self.stats = stats

    def extension(self, predicate: str) -> _Extension:
        ext = self._derived.get(predicate)
        if ext is not None:
            return ext
        ext = self._base.get(predicate)
        if ext is None:
            ext = _Extension(frozenset(self._facts.facts_of(predicate)))
            self._base[predicate] = ext
        return ext

    def add_derived(self, predicate: str, fresh: Iterable[Row]) -> None:
        self._derived[predicate].add_batch(fresh)

    def size_of(self, predicate: str) -> int:
        """Best-effort extension size estimate for join-order tie-breaks."""
        ext = self._derived.get(predicate)
        if ext is not None:
            return len(ext.rows)
        counter = getattr(self._facts, "count_of", None)
        if counter is not None:
            return counter(predicate)
        return len(self.extension(predicate).rows)


# ---------------------------------------------------------------------------
# Step compilation.
# ---------------------------------------------------------------------------


def _literal_shape(literal: Literal, slot_of: dict[Variable, int],
                   bind: bool) -> tuple:
    """Dissect a literal's argument pattern against the current slot map.

    Returns ``(key_parts, out_positions, checks)``:

    - ``key_parts``: ``(position, slot_or_None, const_or_None)`` per bound
      argument (constant or already-slotted variable), ascending;
    - ``out_positions``: row positions whose (new) variable gets a fresh
      slot, in first-occurrence order -- assigned into ``slot_of`` when
      *bind* is set;
    - ``checks``: ``(position, first_position)`` pairs for repeated new
      variables inside the literal (row-internal equality).
    """
    key_parts: list[tuple[int, int | None, Constant | None]] = []
    out_positions: list[int] = []
    checks: list[tuple[int, int]] = []
    fresh: dict[Variable, int] = {}
    for position, term in enumerate(literal.args):
        if isinstance(term, Constant):
            key_parts.append((position, None, term))
        elif term in slot_of:
            key_parts.append((position, slot_of[term], None))
        elif term in fresh:
            checks.append((position, fresh[term]))
        else:
            fresh[term] = position
            out_positions.append(position)
    if bind:
        for variable in fresh:
            slot_of[variable] = len(slot_of)
    return key_parts, tuple(out_positions), tuple(checks)


def _key_builder(key_parts) -> Callable:
    """A ``regs -> index key`` closure for a step's bound positions."""
    if len(key_parts) == 1:
        _, slot, const = key_parts[0]
        if slot is None:
            return lambda regs, c=const: c
        return lambda regs, s=slot: regs[s]
    parts = tuple((slot, const) for _, slot, const in key_parts)
    return lambda regs, parts=parts: tuple(
        const if slot is None else regs[slot] for slot, const in parts)


def _row_builder(literal: Literal, slot_of: Mapping[Variable, int]) -> Callable:
    """A ``regs -> ground row`` closure for a fully bound literal."""
    parts = []
    for term in literal.args:
        if isinstance(term, Constant):
            parts.append((None, term))
        else:
            parts.append((slot_of[term], None))
    parts = tuple(parts)
    return lambda regs, parts=parts: tuple(
        const if slot is None else regs[slot] for slot, const in parts)


def _extend_builder(out_positions: tuple[int, ...]) -> Callable:
    """A ``(regs, row) -> extended regs`` closure (specialised small arities)."""
    if not out_positions:
        return lambda regs, row: regs
    if len(out_positions) == 1:
        o0 = out_positions[0]
        return lambda regs, row: regs + (row[o0],)
    if len(out_positions) == 2:
        o0, o1 = out_positions
        return lambda regs, row: regs + (row[o0], row[o1])
    return lambda regs, row, out=out_positions: regs + tuple(
        row[o] for o in out)


class _RulePlan:
    """One rule body compiled to a closure chain plus a head projection."""

    __slots__ = ("rule", "steps", "delta_scan", "project", "head_predicate")

    def __init__(self, rule: Rule, steps, delta_scan, project):
        self.rule = rule
        self.steps = steps
        self.delta_scan = delta_scan
        self.project = project
        self.head_predicate = rule.head.predicate

    def run(self, intern: dict, delta_rows: Iterable[Row] | None = None) -> set[Row]:
        """Execute the chain; *delta_rows* feeds the delta-restricted scan."""
        if self.delta_scan is not None:
            batch = self.delta_scan(delta_rows)
        else:
            batch = [()]
        for step in self.steps:
            if not batch:
                return set()
            batch = step(batch)
        return self.project(batch, intern)


def compile_rule(rule: Rule, source: _PlanSource, stats,
                 plan_stats: PlanStats,
                 delta_index: int | None = None) -> _RulePlan:
    """Compile one rule into a :class:`_RulePlan`.

    With *delta_index* the body literal at that index becomes the
    delta-restricted first step (semi-naive recursion); its rows are
    supplied at run time instead of read from the extension store.

    Raises :class:`SafetyError` for bodies whose negative/built-in
    literals can never become ground, and for heads the body cannot bind.
    """
    body = list(rule.body)
    slot_of: dict[Variable, int] = {}
    steps: list[Callable] = []
    delta_scan = None
    plan_stats.rules_compiled += 1

    if delta_index is not None:
        delta_literal = body[delta_index]
        key_parts, out_positions, checks = _literal_shape(
            delta_literal, slot_of, bind=True)
        const_checks = tuple((p, c) for p, s, c in key_parts if s is None)
        extend = _extend_builder(out_positions)

        def delta_scan(rows, const_checks=const_checks, checks=checks,
                       extend=extend, stats=stats):
            out = []
            append = out.append
            n = 0
            for row in rows:
                n += 1
                if const_checks and any(row[p] != c for p, c in const_checks):
                    continue
                if checks and any(row[a] != row[b] for a, b in checks):
                    continue
                append(extend((), row))
            stats.literals_matched += n
            return out

        ordered = [delta_index] + [
            i for i in order_body(
                [lit for j, lit in enumerate(body) if j != delta_index],
                bound=slot_of, size_of=source.size_of)
        ]
        # order_body returned indices into the delta-less body; map back.
        rest = [j for j in range(len(body)) if j != delta_index]
        ordered = [delta_index] + [rest[i] for i in ordered[1:]]
    else:
        ordered = list(order_body(body, size_of=source.size_of))

    for index in ordered:
        if delta_index is not None and index == delta_index:
            continue
        literal = body[index]
        predicate = literal.predicate
        if is_builtin(predicate):
            build_row = _row_builder(literal, slot_of)
            positive = literal.positive

            def step(batch, predicate=predicate, build_row=build_row,
                     positive=positive):
                return [regs for regs in batch
                        if evaluate_builtin(predicate, build_row(regs))
                        is positive]

            steps.append(step)
            continue
        if _ready(literal, set(slot_of)):
            # Fully bound: a (semi-)membership test against the extension.
            build_row = _row_builder(literal, slot_of)
            positive = literal.positive

            def step(batch, predicate=predicate, build_row=build_row,
                     positive=positive, source=source, stats=stats):
                rows = source.extension(predicate).rows
                stats.literals_matched += len(batch)
                if positive:
                    return [regs for regs in batch if build_row(regs) in rows]
                return [regs for regs in batch if build_row(regs) not in rows]

            steps.append(step)
            continue
        # Positive literal with free variables: an indexed join step.
        key_parts, out_positions, checks = _literal_shape(
            literal, slot_of, bind=True)
        extend = _extend_builder(out_positions)
        if not key_parts:
            def step(batch, predicate=predicate, extend=extend, checks=checks,
                     source=source, stats=stats):
                rows = source.extension(predicate).rows
                stats.literals_matched += len(rows) * len(batch)
                out = []
                append = out.append
                if checks:
                    rows = [row for row in rows
                            if all(row[a] == row[b] for a, b in checks)]
                for regs in batch:
                    for row in rows:
                        append(extend(regs, row))
                return out

            steps.append(step)
            continue
        positions = tuple(p for p, _, _ in key_parts)
        build_key = _key_builder(key_parts)
        consts_only = all(slot is None for _, slot, _ in key_parts)

        def step(batch, predicate=predicate, positions=positions,
                 build_key=build_key, extend=extend, checks=checks,
                 consts_only=consts_only, source=source, stats=stats,
                 plan_stats=plan_stats):
            index = source.extension(predicate).index_on(positions, plan_stats)
            out = []
            append = out.append
            matched = 0
            if consts_only:
                plan_stats.index_probes += 1
                bucket = index.get(build_key(()))
                if bucket:
                    matched = len(bucket) * len(batch)
                    for regs in batch:
                        for row in bucket:
                            if checks and any(row[a] != row[b]
                                              for a, b in checks):
                                continue
                            append(extend(regs, row))
            else:
                plan_stats.index_probes += len(batch)
                get = index.get
                for regs in batch:
                    bucket = get(build_key(regs))
                    if not bucket:
                        continue
                    matched += len(bucket)
                    for row in bucket:
                        if checks and any(row[a] != row[b] for a, b in checks):
                            continue
                        append(extend(regs, row))
            stats.literals_matched += matched
            return out

        steps.append(step)

    # Head projection: every head variable must have been bound.
    head_parts = []
    for term in rule.head.args:
        if isinstance(term, Constant):
            head_parts.append((None, term))
        elif term in slot_of:
            head_parts.append((slot_of[term], None))
        else:
            raise SafetyError(f"derived a non-ground head from rule: {rule}")
    head_parts = tuple(head_parts)

    def project(batch, intern, head_parts=head_parts, plan_stats=plan_stats):
        out: set[Row] = set()
        add = out.add
        setdefault = intern.setdefault
        for regs in batch:
            row = tuple(const if slot is None else regs[slot]
                        for slot, const in head_parts)
            add(setdefault(row, row))
        plan_stats.rows_interned += len(batch) - len(out)
        return out

    return _RulePlan(rule, tuple(steps), delta_scan, project)


# ---------------------------------------------------------------------------
# The batched semi-naive driver.
# ---------------------------------------------------------------------------


class ProgramPlan:
    """Compiled plans for a stratified program, sharing one extension map.

    ``extensions`` is the evaluator's own derived-extension mapping: the
    plans index and update those very sets, so the evaluator's public
    surface (``live_extensions``, ``apply_delta``) keeps working on the
    compiled engine without copying.
    """

    def __init__(self, rules: Sequence[Rule], facts,
                 extensions: Mapping[str, set[Row]], stats,
                 plan_stats: PlanStats | None = None):
        self.plan_stats = plan_stats if plan_stats is not None else PlanStats()
        self._stats = stats
        self._source = _PlanSource(facts, extensions, self.plan_stats)
        self._rules = list(rules)
        self._plans: dict[int, _RulePlan] = {}
        self._delta_plans: dict[tuple[int, int], _RulePlan] = {}
        self._intern: dict[Row, Row] = {}

    def _plan_for(self, rule_index: int) -> _RulePlan:
        plan = self._plans.get(rule_index)
        if plan is None:
            plan = compile_rule(self._rules[rule_index], self._source,
                                self._stats, self.plan_stats)
            self._plans[rule_index] = plan
        return plan

    def _delta_plan_for(self, rule_index: int, literal_index: int) -> _RulePlan:
        key = (rule_index, literal_index)
        plan = self._delta_plans.get(key)
        if plan is None:
            plan = compile_rule(self._rules[rule_index], self._source,
                                self._stats, self.plan_stats,
                                delta_index=literal_index)
            self._delta_plans[key] = plan
        return plan

    def evaluate_stratum(self, stratum: frozenset[str],
                         rule_indexes: Sequence[int]) -> None:
        """Batched semi-naive fixpoint of one stratum (in place)."""
        stats = self._stats
        source = self._source
        intern = self._intern
        stats.iterations += 1
        delta: dict[str, set[Row]] = {}
        for rule_index in rule_indexes:
            plan = self._plan_for(rule_index)
            stats.rule_firings += 1
            derived = plan.run(intern)
            fresh = derived - source.extension(plan.head_predicate).rows
            if fresh:
                source.add_derived(plan.head_predicate, fresh)
                delta.setdefault(plan.head_predicate, set()).update(fresh)
                stats.facts_derived += len(fresh)
        recursive: list[tuple[int, list[int]]] = []
        for rule_index in rule_indexes:
            rule = self._rules[rule_index]
            positions = [i for i, literal in enumerate(rule.body)
                         if literal.positive and literal.predicate in stratum]
            if positions:
                recursive.append((rule_index, positions))
        while delta:
            stats.iterations += 1
            if obs.enabled():
                obs.add("delta_rounds")
                obs.add("delta_rows",
                        sum(len(rows) for rows in delta.values()))
            next_delta: dict[str, set[Row]] = {}
            for rule_index, positions in recursive:
                rule = self._rules[rule_index]
                for literal_index in positions:
                    delta_rows = delta.get(rule.body[literal_index].predicate)
                    if not delta_rows:
                        continue
                    plan = self._delta_plan_for(rule_index, literal_index)
                    stats.rule_firings += 1
                    derived = plan.run(intern, delta_rows)
                    fresh = derived - source.extension(plan.head_predicate).rows
                    if fresh:
                        source.add_derived(plan.head_predicate, fresh)
                        next_delta.setdefault(plan.head_predicate,
                                              set()).update(fresh)
                        stats.facts_derived += len(fresh)
            delta = next_delta
