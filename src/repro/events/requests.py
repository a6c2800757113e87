"""Parsing of update *requests* (the downward interpretation's input).

A request is a literal over an event predicate: ``ins P(A)`` asks for a
translation that makes ``ιP(A)`` true, ``not del P(A)`` forbids ``δP(A)``.
This is the textual form used by the CLI, the REPL and the server protocol,
factored here so every entry point parses requests identically.
"""

from __future__ import annotations

from repro.datalog.errors import DatalogError
from repro.datalog.parser import parse_request_parts
from repro.datalog.rules import Atom, Literal
from repro.events.naming import del_name, ins_name, parse_prefixed


def parse_request(text: str) -> Literal:
    """Parse ``"ins P(A)"`` / ``"del P(A)"`` / ``"not ins P(A)"``."""
    positive, namespace, target = parse_request_parts(text)
    name_of = ins_name if namespace == "ins" else del_name
    return Literal(Atom(name_of(target.predicate), target.args), positive)


def parse_requests(text: str) -> list[Literal]:
    """Parse a ``;``-separated request set, e.g. ``"ins P(A); not del Q(B)"``."""
    return [parse_request(piece) for piece in text.split(";") if piece.strip()]


def request_text(literal: Literal) -> str:
    """The canonical textual form of a request literal.

    The exact inverse of :func:`parse_request`:
    ``parse_request(request_text(l)) == l`` for every event literal.
    """
    namespace, predicate = parse_prefixed(literal.predicate)
    if namespace not in ("ins", "del"):
        raise DatalogError(
            f"not a request literal (must be over ins$/del$): {literal}")
    rendered = f"{namespace} {Atom(predicate, literal.args)}"
    return rendered if literal.positive else f"not {rendered}"


def requests_text(literals) -> str:
    """Render a request set as the ``;``-separated textual form."""
    return "; ".join(request_text(literal) for literal in literals)
