"""Insertion and deletion event rules (Section 3.3) and the transition program.

For every derived predicate ``P`` the event rules are::

    ιP(x) <-> Pn(x) ∧ ¬Po(x)          (6)
    δP(x) <-> Po(x) ∧ ¬Pn(x)          (7)

:class:`EventCompiler` compiles a deductive database into a
:class:`TransitionProgram` bundling

- the structured transition rules (used by the downward interpretation and
  for paper-style display),
- the event rules,
- a flat, stratified Datalog *upward program* over the ``new$``/``ins$``/
  ``del$`` namespaces whose bottom-up evaluation **is** the upward
  interpretation (old rules + base new-state rules + transition rules +
  event rules).

With ``simplify=True`` the compiler applies the sound [Oli91]-style
simplifications the paper mentions ("these rules can be intensively
simplified"):

- insertion event rules are inlined per transition disjunct and disjuncts
  with no positive event literal are dropped (their old-state part implies
  ``Po``, contradicting the ``¬Po`` conjunct of rule (6));
- disjuncts containing contradictory events (``ιQ(t) ∧ δQ(t)``) or a
  complementary literal pair are dropped.

Simplification never changes results (a property-tested invariant); it only
reduces the number of rules evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import StratificationError
from repro.datalog.rules import Atom, Literal, Rule
from repro.datalog.stratify import Stratification, stratify
from repro.datalog.terms import Constant, Variable
from repro.events.dnf import _is_contradictory
from repro.events.naming import (
    EventKind,
    del_name,
    display_atom,
    display_literal,
    ins_name,
    new_name,
)
from repro.events.shapes import Shapes
from repro.events.transition import (
    TransitionCompiler,
    TransitionRule,
    base_transition_rules,
    disjunct_has_positive_event,
)
from repro.obs import tracer as obs


@dataclass(frozen=True)
class EventRule:
    """One event rule (6)/(7) of a derived predicate."""

    kind: EventKind
    predicate: str
    head: Atom
    body: tuple[Literal, ...]

    def as_datalog_rule(self) -> Rule:
        """The rule with the left implication (upward) reading."""
        return Rule(self.head, self.body, label=f"event:{self.predicate}")

    def __str__(self) -> str:
        body = " ∧ ".join(display_literal(lit) for lit in self.body)
        return f"{display_atom(self.head)} <-> {body}"


def make_event_rules(predicate: str, arity: int) -> tuple[EventRule, EventRule]:
    """Build (insertion, deletion) event rules with fresh distinct head vars."""
    variables = tuple(Variable(f"x{i + 1}") for i in range(arity))
    old_atom = Atom(predicate, variables)
    new_atom = Atom(new_name(predicate), variables)
    insertion = EventRule(
        EventKind.INSERTION,
        predicate,
        Atom(ins_name(predicate), variables),
        (Literal(new_atom, True), Literal(old_atom, False)),
    )
    deletion = EventRule(
        EventKind.DELETION,
        predicate,
        Atom(del_name(predicate), variables),
        (Literal(old_atom, True), Literal(new_atom, False)),
    )
    return insertion, deletion


@dataclass
class TransitionProgram:
    """Everything compiled from one database snapshot's intensional part."""

    #: Derived predicates (including ``IcN`` and the global ``Ic``).
    derived: frozenset[str]
    #: Base predicates with their arities.
    base_arities: Mapping[str, int]
    #: Structured transition rules per derived predicate, in definition order.
    transition_rules: Mapping[str, tuple[TransitionRule, ...]]
    #: (insertion, deletion) event rules per derived predicate.
    event_rules: Mapping[str, tuple[EventRule, EventRule]]
    #: The flat Datalog program whose evaluation is the upward interpretation.
    upward_rules: tuple[Rule, ...]
    #: Stratification of :attr:`upward_rules`, or None when the flat program
    #: is not stratifiable (this happens exactly when derived predicates are
    #: recursive; the structured rules remain usable and the hybrid upward
    #: strategy handles such programs).
    stratification: Stratification | None
    #: Whether the [Oli91] simplifications were applied.
    simplified: bool
    #: The old-state rules the program was compiled from.
    source_rules: tuple[Rule, ...] = field(default=())
    #: Diagnostic carried when :attr:`stratification` is None.
    stratification_failure: str | None = None
    #: The downward interpreter's templates, per option set
    #: (:mod:`repro.events.shapes`); built lazily, they live as long as the
    #: program, across every fact-level change.
    downward_templates: dict[tuple, Shapes] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def constants(self) -> tuple[Constant, ...]:
        """Every constant the rules mention, in a fixed order."""
        return tuple(sorted(
            {term for rule in self.source_rules
             for atom in (rule.head, *(literal.atom for literal in rule.body))
             for term in atom.constants()},
            key=lambda constant: (type(constant.value).__name__,
                                  constant.value)))

    @cached_property
    def upward_templates(self) -> Shapes:
        """The counting engine's templates (:mod:`repro.events.shapes`),
        kept like :attr:`downward_templates`."""
        return Shapes(self.constants)

    def require_flat_program(self) -> Stratification:
        """Stratification of the flat program, or a descriptive error.

        Strategies that evaluate :attr:`upward_rules` directly call this; the
        error explains that recursion forces a different strategy.
        """
        if self.stratification is None:
            raise StratificationError(
                "the flat transition program is not stratifiable "
                "(recursively defined derived predicates put ¬δP inside the "
                "definition of new$P); use the hybrid upward strategy or the "
                f"naive oracle instead. Underlying: {self.stratification_failure}"
            )
        return self.stratification

    def event_rule(self, kind: EventKind, predicate: str) -> EventRule:
        """The event rule of *kind* for a derived predicate."""
        insertion, deletion = self.event_rules[predicate]
        return insertion if kind is EventKind.INSERTION else deletion

    def transition_rules_of(self, predicate: str) -> tuple[TransitionRule, ...]:
        """Structured transition rules of a derived predicate."""
        return self.transition_rules.get(predicate, ())

    def is_derived(self, predicate: str) -> bool:
        """True when *predicate* has a rule-defined extension."""
        return predicate in self.derived

    def describe(self) -> str:
        """A paper-style listing of every transition and event rule."""
        lines: list[str] = []
        for predicate in sorted(self.derived):
            insertion, deletion = self.event_rules[predicate]
            lines.append(str(insertion))
            lines.append(str(deletion))
            for transition in self.transition_rules[predicate]:
                lines.append(str(transition))
        return "\n".join(lines)


class EventCompiler:
    """Compiles a database into its :class:`TransitionProgram`.

    Parameters
    ----------
    simplify:
        apply the sound [Oli91]-style simplifications (see module docstring).
    include_global_ic:
        also synthesise and compile the global inconsistency predicate ``Ic``
        (needed by the Section 5 integrity-constraint problems).
    """

    def __init__(self, simplify: bool = False, include_global_ic: bool = True):
        self._simplify = simplify
        self._include_global_ic = include_global_ic
        self._transition_compiler = TransitionCompiler()

    def compile(self, db: DeductiveDatabase) -> TransitionProgram:
        """Compile the intensional part of *db* (facts are not consulted)."""
        with obs.span("compile.transition") as span:
            program = self._compile(db)
            if obs.enabled():
                span.set(simplified=self._simplify)
                span.add("derived", len(program.derived))
                span.add("upward_rules", len(program.upward_rules))
                span.add("disjuncts", sum(
                    len(t.disjuncts)
                    for items in program.transition_rules.values()
                    for t in items))
        return program

    def _compile(self, db: DeductiveDatabase) -> TransitionProgram:
        source_rules = (db.rules_with_global_ic() if self._include_global_ic
                        else db.all_rules())
        derived = {r.head.predicate for r in source_rules}
        occurring = set()
        for r in source_rules:
            occurring.update(r.predicates())
        from repro.datalog.builtins import is_builtin

        schema = db.schema
        base_arities: dict[str, int] = {}
        for predicate in (occurring - derived) | set(schema.base):
            if is_builtin(predicate):
                continue  # rigid: no facts, no events, no new-state rules
            if predicate in schema.arities:
                base_arities[predicate] = schema.arity(predicate)
        arities = dict(base_arities)
        for r in source_rules:
            arities.setdefault(r.head.predicate, r.head.arity)

        transition_rules = self._transition_compiler.compile_rules(source_rules)
        if self._simplify:
            transition_rules = {
                name: tuple(self._pruned(t) for t in items)
                for name, items in transition_rules.items()
            }
        event_rules = {
            predicate: make_event_rules(predicate, arities[predicate])
            for predicate in derived
        }
        upward_rules = self._upward_program(
            source_rules, base_arities, transition_rules, event_rules
        )
        # The source program itself must be stratifiable -- the framework
        # (and the perfect-model semantics behind it) requires that much.
        stratify(source_rules)
        event_predicates = {ins_name(p) for p in base_arities}
        event_predicates |= {del_name(p) for p in base_arities}
        stratification: Stratification | None
        failure: str | None = None
        try:
            stratification = stratify(
                upward_rules,
                base_predicates=set(base_arities) | event_predicates,
            )
        except StratificationError as error:
            stratification = None
            failure = str(error)
        return TransitionProgram(
            derived=frozenset(derived),
            base_arities=base_arities,
            transition_rules=transition_rules,
            event_rules=event_rules,
            upward_rules=tuple(upward_rules),
            stratification=stratification,
            simplified=self._simplify,
            source_rules=tuple(source_rules),
            stratification_failure=failure,
        )

    # -- internals ---------------------------------------------------------------

    def _pruned(self, transition: TransitionRule) -> TransitionRule:
        """Drop disjuncts that are contradictory under the event definitions."""
        viable = tuple(
            disjunct for disjunct in transition.disjuncts
            if not _is_contradictory(frozenset(disjunct))
        )
        return TransitionRule(
            transition.predicate,
            transition.index,
            transition.head,
            transition.source,
            viable,
        )

    def _upward_program(
        self,
        source_rules: Sequence[Rule],
        base_arities: Mapping[str, int],
        transition_rules: Mapping[str, tuple[TransitionRule, ...]],
        event_rules: Mapping[str, tuple[EventRule, EventRule]],
    ) -> list[Rule]:
        program: list[Rule] = list(source_rules)
        for predicate, arity in sorted(base_arities.items()):
            program.extend(base_transition_rules(predicate, arity))
        for predicate, transitions in transition_rules.items():
            for transition in transitions:
                program.extend(transition.as_datalog_rules())
        for predicate, (insertion, deletion) in event_rules.items():
            program.append(deletion.as_datalog_rule())
            if not self._simplify:
                program.append(insertion.as_datalog_rule())
                continue
            # Inline the insertion rule per transition disjunct, keeping only
            # disjuncts with a positive event literal ([Oli91] simplification).
            for transition in transition_rules[predicate]:
                old_head = Literal(
                    Atom(predicate, transition.head.args), False
                )
                for disjunct in transition.disjuncts:
                    if not disjunct_has_positive_event(disjunct):
                        continue
                    program.append(Rule(
                        Atom(ins_name(predicate), transition.head.args),
                        disjunct + (old_head,),
                        label=f"event-simplified:{predicate}",
                    ))
        return program
