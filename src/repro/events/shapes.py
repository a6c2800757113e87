"""Templates of the event rules, shared by both of their readings (§4).

Upward (:meth:`repro.interpretations.counting.CountingEngine.delta`) and
downward (:class:`repro.interpretations.downward.DownwardInterpreter`)
interpretation read one set of event rules, and in either only the ground
*probes* read the state or depend on which constants a request names.  So
both keep each request *shape* -- its events or request literals, each
constant replaced by a slot -- as a template: a trie over the outcomes of
the distinct probes an evaluation ran, whose leaf holds the result over
the slots.  A request of a known shape and branch runs only those probes
and renames the leaf back; an unseen branch is evaluated once more and
added.  This module holds what the two readings share; each keeps only how
it answers a probe and what its leaf holds.  A probe key is a tuple whose
last item is the probed row, the items before it say what to probe.
"""

from __future__ import annotations

from itertools import groupby, permutations, product
from math import factorial, prod
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

from repro.datalog.terms import Constant

#: The trie mark of a branch whose evaluation enumerates (a lookup with an
#: unbound argument, a domain instantiation): that branch stays untemplated.
_UNTEMPLATED = object()

#: Most shapes templated per store; further shapes stay untemplated, so
#: clients sending ever new shapes cannot grow the server without limit.
_MAX_SHAPES = 256

#: Most orders of one connected part's events tried for its least key
#: (four events of one predicate and kind, say); beyond it the request
#: stays untemplated.
_MAX_TIE_ORDERS = 24

ShapeKey = tuple[tuple[object, str, tuple[int, ...]], ...]

_kind_of = attrgetter("kind")


def _shape(events: Iterable, kind: Callable = _kind_of) \
        -> tuple[ShapeKey, dict[Constant, int]] | None:
    """The shape key of *events* and their constants' slots.

    *events* are a transaction's events, or request literals with
    ``kind=attrgetter("positive")``: anything with an orderable *kind*, a
    ``predicate`` and ``args``.  They are ordered by predicate and kind,
    and each constant is replaced by the slot of its first occurrence.
    Events tied on predicate and kind would keep the caller's order, so
    events with such ties are keyed by :func:`_parted_shape` instead;
    either way the key depends on the events' structure only, never on
    which constants they name or in which order they come.  None when a
    part has more than :data:`_MAX_TIE_ORDERS` orders.
    """
    slots: dict[Constant, int] = {}
    shape = []
    tied = False
    previous = None
    for event in sorted(events,
                        key=lambda event: (event.predicate, kind(event))):
        order = event.predicate, kind(event)
        tied = tied or order == previous
        previous = order
        shape.append((order[1], event.predicate,
                      tuple(slots.setdefault(arg, len(slots))
                            for arg in event.args)))
    if tied:
        return _parted_shape(shape, slots)
    return tuple(shape), slots


def _parted_shape(shape: list, slots: dict[Constant, int]) \
        -> tuple[ShapeKey, dict[Constant, int]] | None:
    """The shape key of events with ties, from one order's key and slots.

    Events sharing a constant form one connected part.  Each part is
    keyed on its own, by its least key over the orders of its tied
    events, and the parts are laid out in the order of their keys.  Parts
    with equal keys are alike up to renaming, so their order does not
    matter: two hires of any people, or facts whose constants occur
    nowhere else, take no search at all.
    """
    root = list(range(len(slots)))

    def find(number: int) -> int:
        while root[number] != number:
            root[number] = number = root[root[number]]
        return number

    for _, _, args in shape:
        for number in args[1:]:
            root[find(number)] = find(args[0])
    parts: dict[int, list] = {}
    for index, entry in enumerate(shape):
        parts.setdefault(find(entry[2][0]) if entry[2] else -1 - index,
                         []).append(entry)
    keyed = []
    for entries in parts.values():
        found = _least_part(entries)
        if found is None:
            return None
        keyed.append(found)
    keyed.sort(key=lambda part: [(predicate, kind, pattern)
                                 for kind, predicate, pattern in part[0]])
    key, order = [], []
    for part, numbers in keyed:
        key.extend((kind, predicate, tuple(len(order) + slot
                                           for slot in pattern))
                   for kind, predicate, pattern in part)
        order.extend(numbers)
    constants = list(slots)
    return tuple(key), {constants[number]: slot
                        for slot, number in enumerate(order)}


def _least_part(entries: list) -> tuple[ShapeKey, list[int]] | None:
    """The least key of one connected part over the orders of its events
    tied on predicate and kind, with its constants' numbers in slot
    order; None past :data:`_MAX_TIE_ORDERS` orders."""
    groups = [entries] if len(entries) == 1 else [
        list(group) for _, group in groupby(
            entries, lambda entry: (entry[1], entry[0]))]
    if len(groups) == len(entries):
        orderings = [groups]
    elif prod(map(factorial, map(len, groups))) > _MAX_TIE_ORDERS:
        return None
    else:
        orderings = product(*map(permutations, groups))
    best = None
    for orders in orderings:
        local: dict[int, int] = {}
        # The orders differ in their patterns only.
        key = tuple((kind, predicate,
                     tuple(local.setdefault(number, len(local))
                           for number in args))
                    for order in orders for kind, predicate, args in order)
        if best is None or key < best[0]:
            best = key, list(local)
    return best


class Probes(dict):
    """Probe key -> outcome, in the order one evaluation first ran each.

    A reading records into it through the same probe calls its untemplated
    evaluation makes; ``enumerated_at`` is how many probes came before the
    evaluation's first enumeration, if it enumerated.
    """

    enumerated_at: int | None = None

    def enumerate(self) -> None:
        if self.enumerated_at is None:
            self.enumerated_at = len(self)


class _Probe:
    """A trie node: one probe over slot rows, children by its outcome.

    A slot row holds indexes into the request's constants in slot order
    followed by the rule constants (:attr:`Shapes.constants`).
    """

    __slots__ = ("key", "children")

    def __init__(self, key: tuple, children: dict):
        self.key = key
        self.children = children


class Shapes(dict):
    """One reading's templates: shape key -> probe trie, for at most
    :data:`_MAX_SHAPES` shapes."""

    def __init__(self, constants: Iterable[Constant]):
        super().__init__()
        #: The rules' constants, in a fixed order.  A request naming one
        #: is never templated (a rule for that constant alone would be
        #: lost on renaming); slot rows index them after its own.
        self.constants = tuple(constants)

    def find(self, events: Iterable, answer: Callable,
             kind: Callable = _kind_of) -> Walk | None:
        """Walk *events*' trie, asking ``answer(*probe_key[:-1], row)``
        each probe on the way; None when the request stays untemplated
        (shape refused or ruled out, or no room for a new one)."""
        shape = _shape(events, kind)
        if shape is None or not shape[1].keys().isdisjoint(self.constants):
            return None
        key, slots = shape
        node = self.get(key)
        if node is None and len(self) >= _MAX_SHAPES:
            return None
        values = [*slots, *self.constants]
        get = values.__getitem__
        parent = outcome = None
        known = set()
        while type(node) is _Probe:
            probe = node.key
            outcome = answer(*probe[:-1], tuple(map(get, probe[-1])))
            known.add(probe)
            parent = node
            node = node.children.get(outcome)
        if node is _UNTEMPLATED:
            return None
        return Walk(self, key, slots, values, node, parent, outcome, known)


class Walk(NamedTuple):
    """One request's way through its shape's trie: the leaf it reached
    (None on a miss) and where a recorded evaluation hangs the branch."""

    shapes: Shapes
    key: ShapeKey
    slots: dict[Constant, int]
    #: The request's constants in slot order, then the rule constants.
    values: list[Constant]
    leaf: object
    parent: _Probe | None
    outcome: object
    #: The probes run on the way.
    known: set

    def record(self, probes: Probes,
               leaf: Callable[[dict[Constant, int]], object]) -> None:
        """Hang a recorded evaluation under the branch that missed: its
        probes not on the path, then ``leaf(slot of each constant)`` --
        or, if it enumerated, the probes before that and the untemplated
        mark, so only that branch is ruled out.  The branch is built apart
        and attached by one ``setdefault``, so concurrent recorders never
        interleave nodes."""
        width = len(self.slots)
        numbers = {constant: width + index
                   for index, constant in enumerate(self.shapes.constants)}
        numbers.update(self.slots)
        # Before the first enumeration, every row is built from the
        # request's constants and the rules' own.
        recorded = list(probes.items())
        if probes.enumerated_at is None:
            branch = leaf(numbers)
        else:
            branch = _UNTEMPLATED
            del recorded[probes.enumerated_at:]
        for probe, held in reversed(recorded):
            probe = (*probe[:-1], tuple(map(numbers.__getitem__, probe[-1])))
            if probe not in self.known:
                branch = _Probe(probe, {held: branch})
        if self.parent is None:
            # Recorders side by side may overshoot the bound by their
            # number, never more.
            if len(self.shapes) < _MAX_SHAPES:
                self.shapes.setdefault(self.key, branch)
        else:
            self.parent.children.setdefault(self.outcome, branch)
