"""A plain-Python model of the employment database (the answer oracle).

Three sets of person names stand for the base relations; the derived
predicates are recomputed naively from their definitions::

    Unemp(x) <- La(x) & not Works(x).
    Ic1(x)   <- Unemp(x) & not U_benefit(x).

Nothing here imports ``repro``: the model must not share code with the
system whose answers it checks.  An *event* is a ``(kind, predicate,
person)`` triple with kind ``"insert"`` or ``"delete"``.
"""

from __future__ import annotations

BASE = ("La", "Works", "U_benefit")


def event_text(events) -> str:
    """The transaction syntax the server parses."""
    return ", ".join(f"{kind} {pred}({person})"
                     for kind, pred, person in events)


def event_dicts(events) -> list[dict]:
    """The wire rendering of events (``Transaction.to_dict`` shape)."""
    return [{"kind": kind, "predicate": pred, "args": [person]}
            for kind, pred, person in events]


class Model:
    """The people one generator connection owns, as three sets."""

    def __init__(self, la=(), works=(), benefit=()):
        self.sets = {"La": set(la), "Works": set(works),
                     "U_benefit": set(benefit)}

    # -- derived predicates, from their definitions ----------------------------

    def unemp(self) -> set:
        return self.sets["La"] - self.sets["Works"]

    def ic1(self) -> set:
        return self.unemp() - self.sets["U_benefit"]

    def _derived_of(self, person: str, sets: dict) -> tuple[bool, bool]:
        unemp = person in sets["La"] and person not in sets["Works"]
        return unemp, unemp and person not in sets["U_benefit"]

    # -- transactions ----------------------------------------------------------

    def induced(self, events) -> tuple[dict, dict]:
        """Induced derived events of *events*, without applying them.

        Returns ``(insertions, deletions)``, each ``{predicate: [[row]]}``
        with empty predicates left out -- the ``upward`` wire shape.  The
        global ``Ic`` is 0-ary: its row is ``[]``.
        """
        people = sorted({person for _, _, person in events})
        after = {pred: {p for p in people if p in self.sets[pred]}
                 for pred in BASE}
        for kind, pred, person in events:
            (after[pred].add if kind == "insert"
             else after[pred].discard)(person)
        ins: dict = {"Unemp": [], "Ic1": []}
        dels: dict = {"Unemp": [], "Ic1": []}
        for person in people:
            old = self._derived_of(person, self.sets)
            new = self._derived_of(person, after)
            for name, was, now in zip(("Unemp", "Ic1"), old, new):
                if now and not was:
                    ins[name].append([person])
                elif was and not now:
                    dels[name].append([person])
        # The model only ever holds consistent states, so Ic flips with Ic1.
        if ins["Ic1"]:
            ins["Ic"] = [[]]
        return ({p: rows for p, rows in ins.items() if rows},
                {p: rows for p, rows in dels.items() if rows})

    def apply(self, events) -> None:
        for kind, pred, person in events:
            (self.sets[pred].add if kind == "insert"
             else self.sets[pred].discard)(person)
