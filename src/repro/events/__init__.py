"""Events, transition rules and event rules (Section 3 of the paper).

This package turns a deductive database into its *transition program*:

- :mod:`repro.events.naming` -- the predicate namespaces ``P`` (old state),
  ``new$P`` (new state), ``ins$P`` (insertion event ``ιP``) and ``del$P``
  (deletion event ``δP``);
- :mod:`repro.events.events` -- ground events and transactions (§3.1);
- :mod:`repro.events.dnf` -- the disjunctive-normal-form algebra both
  interpretations manipulate;
- :mod:`repro.events.transition` -- transition rules (§3.2);
- :mod:`repro.events.event_rules` -- insertion/deletion event rules (§3.3)
  with the optional [Oli91]-style simplifications;
- :mod:`repro.events.shapes` -- the templates both readings of those rules
  keep per request shape (§4).
"""

from repro.events.naming import (
    DEL_PREFIX,
    INS_PREFIX,
    NEW_PREFIX,
    EventKind,
    del_name,
    event_atom,
    event_literal,
    ins_name,
    is_event_predicate,
    new_name,
    parse_prefixed,
    strip_prefix,
)
from repro.events.events import (Event, Transaction, delete, insert,
                                 parse_transaction, transaction_between)
from repro.events.requests import parse_request, parse_requests
from repro.events.dnf import Conjunct, Dnf, FALSE_DNF, TRUE_DNF
from repro.events.transition import TransitionRule, TransitionCompiler
from repro.events.event_rules import EventCompiler, EventRule, TransitionProgram

__all__ = [
    "Conjunct",
    "DEL_PREFIX",
    "Dnf",
    "Event",
    "EventCompiler",
    "EventKind",
    "EventRule",
    "FALSE_DNF",
    "INS_PREFIX",
    "NEW_PREFIX",
    "TRUE_DNF",
    "Transaction",
    "TransitionCompiler",
    "TransitionProgram",
    "TransitionRule",
    "del_name",
    "delete",
    "event_atom",
    "event_literal",
    "ins_name",
    "insert",
    "is_event_predicate",
    "new_name",
    "parse_prefixed",
    "parse_request",
    "parse_requests",
    "parse_transaction",
    "transaction_between",
    "strip_prefix",
]
