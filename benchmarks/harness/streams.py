"""Seed-driven op streams and the check of every reply against the model.

One :class:`Stream` per generator connection.  The people of
``employment_database(n, seed)`` are split between the connections by index
(``P7`` belongs to connection ``7 % conns``; fresh hires carry their
connection in the name), so two connections never touch the same fact and
each keeps an exact :class:`~benchmarks.harness.model.Model` of its own
people without locking.  A stream depends only on ``(workload, n, seed,
conn)``: the model is advanced by the *expected* outcome when an op is
generated, never by what the server answered, so the same seed gives a
byte-identical stream (``gen`` writes it as JSONL).
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field

from repro.shard import RoutingTable
from repro.workloads import employment_database

from .catalogue import KIND_CLASS, Workload
from .model import Model, event_dicts, event_text

#: Replays re-send one of this many most recent stamped commits -- a retry
#: window well inside the server's 4096-entry dedup table.
REPLAY_WINDOW = 256


@dataclass
class Op:
    conn: int
    index: int
    kind: str
    op: str                      # wire op
    params: dict
    expect: dict = field(default_factory=dict)

    @property
    def cls(self) -> str:
        return KIND_CLASS[self.kind]

    @property
    def txn_id(self) -> str | None:
        return self.params.get("txn_id")

    def to_json(self) -> str:
        return json.dumps({"conn": self.conn, "i": self.index,
                           "kind": self.kind, "op": self.op,
                           "params": self.params, "expect": self.expect},
                          sort_keys=True, separators=(",", ":"))


def owner(person: str, conns: int) -> int:
    """The generator connection that owns *person*."""
    if person[0] == "P":
        return int(person[1:]) % conns
    return int(person[1:person.index("N")])


def initial_database(n: int, seed: int):
    """The served database: the paper's running example at *n* people."""
    return employment_database(n, seed=seed)


class Stream:
    """Connection *conn*'s endless op stream for one workload."""

    def __init__(self, workload: Workload, n: int, seed: int, conn: int,
                 db=None):
        db = db if db is not None else initial_database(n, seed)
        self.conn = conn
        self.conns = workload.conns
        self.rng = random.Random(seed * 7919 + conn)
        mine = [f"P{i}" for i in range(n) if i % self.conns == conn]
        self.employed = [p for p in mine if db.has_fact("Works", p)]
        self.unemployed = [p for p in mine if not db.has_fact("Works", p)]
        self.model = Model(mine, self.employed, self.unemployed)
        self.kinds = list(workload.mix)
        self.weights = list(workload.mix.values())
        self.index = 0
        self.fresh = 0
        self.recent: deque = deque(maxlen=REPLAY_WINDOW)
        self.routing = (RoutingTable.for_database(db, 2)
                        if workload.server == "shard-serve" else None)
        #: What the run must find in the server's own counters afterwards.
        self.issued = {"replay": 0, "xshard": 0, "applied": 0}

    # -- people ----------------------------------------------------------------

    def _pick(self, people: list, pop: bool = False) -> str:
        at = self.rng.randrange(len(people))
        if not pop:
            return people[at]
        people[at], people[-1] = people[-1], people[at]
        return people.pop()

    def _anyone(self) -> str:
        at = self.rng.randrange(len(self.employed) + len(self.unemployed))
        return (self.employed[at] if at < len(self.employed)
                else self.unemployed[at - len(self.employed)])

    def _fresh(self, prefix: str = "Q") -> str:
        self.fresh += 1
        return f"{prefix}{self.conn}N{self.fresh}"

    # -- transactions ----------------------------------------------------------

    def _hire(self, person: str) -> list:
        return [("insert", "La", person), ("insert", "Works", person)]

    def _dismiss(self, person: str) -> list:
        return [("delete", "Works", person), ("insert", "U_benefit", person)]

    def _rehire(self, person: str) -> list:
        return [("insert", "Works", person), ("delete", "U_benefit", person)]

    def _spanning_hires(self) -> list:
        """Three fresh hires whose facts really live on both shards."""
        people = [self._fresh() for _ in range(3)]
        while len({self.routing.shard_of("La", (p,)) for p in people}) < 2:
            people[-1] = self._fresh()
        return [event for p in people for event in self._hire(p)]

    def _applying(self, kind: str) -> list:
        """Events of a commit of *kind*; moves people between the lists."""
        if kind in ("toggle", "single"):
            options = ["dismiss"] * bool(self.employed) \
                + ["rehire"] * bool(self.unemployed)
            if kind == "single":
                options += ["hire"] * len(options)
            kind = self.rng.choice(options or ["hire"])
        if kind == "dismiss" and self.employed:
            person = self._pick(self.employed, pop=True)
            self.unemployed.append(person)
            return self._dismiss(person)
        if kind == "rehire" and self.unemployed:
            person = self._pick(self.unemployed, pop=True)
            self.employed.append(person)
            return self._rehire(person)
        if kind == "violate" and self.unemployed:
            return [("delete", "U_benefit", self._pick(self.unemployed))]
        if kind == "xshard":
            events = self._spanning_hires()
        else:
            events = self._hire(self._fresh())
        self.employed.extend(person for k, pred, person in events
                             if pred == "La")
        return events

    def _hypothetical(self) -> list:
        """Events of a non-applying what-if; the model does not move."""
        choice = self.rng.randrange(3)
        if choice == 0 and self.employed:
            return self._dismiss(self._pick(self.employed))
        if choice == 1 and self.unemployed:
            return [("delete", "U_benefit", self._pick(self.unemployed))]
        return self._hire(self._fresh("W"))

    # -- the stream ------------------------------------------------------------

    def __iter__(self):
        return self

    def __next__(self) -> Op:
        return self.make(self.rng.choices(self.kinds, self.weights)[0])

    def make(self, kind: str) -> Op:
        """The next op, of the given kind."""
        op = self._make(kind)
        self.index += 1
        return op

    def take(self, count: int) -> list[Op]:
        return [next(self) for _ in range(count)]

    def _op(self, kind: str, op: str, params: dict, expect: dict) -> Op:
        return Op(self.conn, self.index, kind, op, params, expect)

    def _make(self, kind: str) -> Op:
        cls = KIND_CLASS[kind]
        if cls in ("commit", "xshard", "replay"):
            return self._commit(kind)
        if cls == "query":
            return self._query(kind)
        if cls == "downward":
            employed = kind == "ins_unemp"
            people = self.employed if employed else self.unemployed
            request = (f"{'ins' if employed else 'del'} "
                       f"Unemp({self._pick(people)})")
            return self._op(kind, "downward", {"requests": [request]},
                            {"request": request})
        events = self._hypothetical()
        params = {"transaction": event_text(events)}
        ins, dels = self.model.induced(events)
        if kind == "check":
            bad = ins.get("Ic1", [])
            expect = {"ok": not bad, "violations": {"Ic1": bad} if bad else {}}
        elif kind == "upward":
            expect = {"insertions": ins, "deletions": dels}
        else:
            params["conditions"] = ["Unemp"]
            expect = {"activated": _only(ins, "Unemp"),
                      "deactivated": _only(dels, "Unemp")}
        return self._op(kind, kind, params, expect)

    def _commit(self, kind: str) -> Op:
        if kind == "replay" and self.recent:
            earlier = self.rng.choice(self.recent)
            self.issued["replay"] += 1
            return self._op(kind, "commit", earlier.params, earlier.expect)
        events = self._applying("hire" if kind == "replay" else kind)
        ins, dels = self.model.induced(events)
        bad = ins.get("Ic1", [])
        if not bad:
            self.model.apply(events)
        self.issued["applied"] += not bad
        self.issued["xshard"] += kind == "xshard"
        params = {"transaction": event_text(events),
                  "txn_id": f"c{self.conn}-{self.index}"}
        expect = {"applied": not bad,
                  "effective": [] if bad else event_dicts(events),
                  "violations": {"Ic1": bad} if bad else {},
                  # The delta frame an applied commit pushes to a subscriber.
                  "feed": None if bad else {
                      "inserted": ins.get("Unemp", []),
                      "deleted": dels.get("Unemp", [])}}
        op = self._op(kind, "commit", params, expect)
        if kind != "xshard":
            self.recent.append(op)
        return op

    def _query(self, kind: str) -> Op:
        if kind == "unbound":
            return self._op(kind, "query", {"goal": "Unemp(x)"},
                            {"own_rows": [[p] for p in
                                          sorted(self.model.unemp())]})
        person = self._anyone()
        predicate = "Works" if kind == "bound_base" else "Unemp"
        holds = (person in self.model.sets["Works"]) == (kind == "bound_base")
        return self._op(kind, "query", {"goal": f"{predicate}({person})"},
                        {"rows": [[]] if holds else []})


def _only(rows_by_predicate: dict, predicate: str) -> dict:
    return {p: rows for p, rows in rows_by_predicate.items()
            if p == predicate}


# -- checking replies ----------------------------------------------------------


def _rows(rows) -> list:
    return sorted(rows, key=str)


def _by_predicate(mapping: dict) -> dict:
    return {p: _rows(rows) for p, rows in mapping.items() if rows}


def _event_set(events) -> set:
    return {(e["kind"], e["predicate"], tuple(e["args"])) for e in events}


def verify(op: Op, result: dict, stream: Stream) -> str | None:
    """Why *result* is a wrong answer to *op*, or ``None`` when it is right."""
    expect = op.expect
    if op.op == "commit":
        if bool(result.get("applied")) != expect["applied"]:
            return f"applied={result.get('applied')}, model says " \
                   f"{expect['applied']}"
        if _event_set(result.get("effective", [])) != \
                _event_set(expect["effective"]):
            return "effective events differ from the model's"
        # A verdict replayed after a crash carries no check; any other must.
        check = result.get("check")
        if check is not None and _by_predicate(check["violations"]) != \
                _by_predicate(expect["violations"]):
            return "violations differ from the model's"
        return None
    if op.op == "query":
        answers = result["answers"]
        if "own_rows" in expect:
            answers = [row for row in answers
                       if owner(row[0], stream.conns) == stream.conn]
            return (None if _rows(answers) == expect["own_rows"]
                    else "Unemp(x) rows of this partition differ")
        return None if answers == expect["rows"] else f"answered {answers}"
    if op.op == "check":
        if result["ok"] != expect["ok"]:
            return f"verdict ok={result['ok']}"
        return (None if _by_predicate(result["violations"])
                == _by_predicate(expect["violations"])
                else "violations differ")
    if op.op in ("upward", "monitor"):
        for key in expect:
            if _by_predicate(result[key]) != _by_predicate(expect[key]):
                return f"{key} differ from the model's induced events"
        return None
    if op.op == "downward":
        return _verify_downward(expect["request"], result, stream.model)
    return f"no check for op {op.op!r}"


def _verify_downward(request: str, result: dict, model: Model) -> str | None:
    """Every translation, applied to the model, must induce the request."""
    if not result.get("satisfiable") or not result.get("translations"):
        return "request reported unsatisfiable"
    kind, _, atom = request.partition(" ")
    person = atom[atom.index("(") + 1:-1]
    wanted = 0 if kind == "ins" else 1
    for translation in result["translations"]:
        events = [(e["kind"], e["predicate"], e["args"][0])
                  for e in translation["transaction"]]
        if [person] not in model.induced(events)[wanted].get("Unemp", []):
            return f"translation {event_text(events)} does not induce " \
                   f"{request}"
    return None
