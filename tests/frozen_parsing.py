"""A frozen copy of the transaction, atom and request readers as they
stood before the one-token-pass grammar replaced them.

``tests/test_parsing_differential.py`` runs the live readers against
these, so any input on which the two disagree is either a documented
divergence or a regression.  The bodies below are verbatim; only the
imports at the top are new.  Do not edit them to make a test pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.datalog.errors import DatalogError, ParseError
from repro.datalog.rules import Atom, Literal
from repro.datalog.terms import Constant, Term, term_from_name
from repro.events.events import Event, Transaction
from repro.events.naming import EventKind, del_name, ins_name


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<arrow><-|:-)
  | (?P<neg>not\b|~|¬)
  | (?P<op>!=|==|<=|>=|<|>)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>-?\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<punct>[(),.&])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position."""

    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens, raising :class:`ParseError` on unrecognised input."""
    line = 1
    line_start = 0
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise ParseError(
                f"unexpected character {source[position]!r}",
                line,
                position - line_start + 1,
            )
        kind = match.lastgroup or ""
        text = match.group()
        if kind not in ("ws", "comment"):
            yield Token(kind, text, line, match.start() - line_start + 1)
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + text.rfind("\n") + 1
        position = match.end()


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, source: str):
        self._tokens = list(tokenize(source))
        self._index = 0

    # -- token utilities ---------------------------------------------------

    def _peek(self) -> Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._index += 1
        return token

    def _expect(self, text: str) -> Token:
        token = self._next()
        if token.text != text:
            raise ParseError(
                f"expected {text!r}, found {token.text!r}", token.line, token.column
            )
        return token

    def _at(self, text: str) -> bool:
        token = self._peek()
        return token is not None and token.text == text

    def at_end(self) -> bool:
        """True when every token has been consumed."""
        return self._peek() is None

    # -- grammar -----------------------------------------------------------

    def parse_term(self) -> Term:
        token = self._next()
        if token.kind == "name":
            return term_from_name(token.text)
        if token.kind == "int":
            return Constant(int(token.text))
        if token.kind == "string":
            return Constant(token.text[1:-1])
        raise ParseError(f"expected a term, found {token.text!r}", token.line, token.column)

    def parse_atom(self) -> Atom:
        token = self._next()
        if token.kind != "name":
            raise ParseError(
                f"expected a predicate name, found {token.text!r}", token.line, token.column
            )
        predicate = token.text
        args: list[Term] = []
        if self._at("("):
            self._next()
            if self._at(")"):
                raise ParseError("empty argument list", token.line, token.column)
            args.append(self.parse_term())
            while self._at(","):
                self._next()
                args.append(self.parse_term())
            self._expect(")")
        return Atom(predicate, tuple(args))

    #: Infix comparison sugar -> built-in predicates.
    _OPERATORS = {"==": "Eq", "!=": "Neq", "<": "Lt", "<=": "Leq",
                  ">": "Gt", ">=": "Geq"}

    def parse_literal(self) -> Literal:
        positive = True
        if self._peek() is not None and self._peek().kind == "neg":
            self._next()
            positive = False
        head_token = self._peek()
        if head_token is not None and head_token.kind in ("int", "string"):
            # A literal starting with a non-name term must be a comparison.
            left = self.parse_term()
            operator_token = self._next()
            if operator_token.kind != "op":
                raise ParseError(
                    f"expected a comparison operator, found "
                    f"{operator_token.text!r}",
                    operator_token.line, operator_token.column)
            right = self.parse_term()
            return Literal(
                Atom(self._OPERATORS[operator_token.text], (left, right)),
                positive)
        atom_or_term = self.parse_atom()
        nxt = self._peek()
        if nxt is not None and nxt.kind == "op":
            # Infix comparison: the parsed "atom" was really a bare term.
            if atom_or_term.args:
                raise ParseError(
                    f"comparison operand must be a plain term, got "
                    f"{atom_or_term}", nxt.line, nxt.column)
            operator = self._next().text
            left = term_from_name(atom_or_term.predicate)
            right = self.parse_term()
            return Literal(Atom(self._OPERATORS[operator], (left, right)),
                           positive)
        return Literal(atom_or_term, positive)

    def parse_body(self) -> list[Literal]:
        literals = [self.parse_literal()]
        while self._at("&") or self._at(","):
            self._next()
            literals.append(self.parse_literal())
        return literals

    def parse_statement(self) -> tuple[Atom | None, list[Literal]]:
        """One statement up to '.'; head None means a denial."""
        if self._peek() is not None and self._peek().kind == "arrow":
            self._next()
            body = self.parse_body()
            self._expect(".")
            return None, body
        head = self.parse_atom()
        body: list[Literal] = []
        if self._peek() is not None and self._peek().kind == "arrow":
            self._next()
            body = self.parse_body()
        self._expect(".")
        return head, body


def _parse_single(source: str, production: str):
    parser = _Parser(source)
    result = getattr(parser, f"parse_{production}")()
    if parser._at("."):
        parser._next()
    if not parser.at_end():
        token = parser._peek()
        raise ParseError(f"trailing input {token.text!r}", token.line, token.column)
    return result


def parse_atom(source: str) -> Atom:
    """Parse a single atom, e.g. ``"P(x, A)"``."""
    return _parse_single(source, "atom")


_EVENT_RE = re.compile(
    r"^\s*(?P<op>insert|delete|ins|del|ι|δ)\s*(?P<atom>.+?)\s*$"
)

_INSERT_OPS = {"insert", "ins", "ι"}


def _split_outside_parens(text: str) -> list[str]:
    """Split on top-level ',' or ';' (commas inside '()' are argument commas)."""
    pieces: list[str] = []
    depth = 0
    start = 0
    for index, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char in ",;" and depth == 0:
            pieces.append(text[start:index])
            start = index + 1
    pieces.append(text[start:])
    return pieces


def parse_transaction(source: str) -> Transaction:
    """Parse ``"insert P(A), delete R(B)"`` (also ``ins``/``del``/``ι``/``δ``).

    Surrounding braces are ignored, so the paper's ``{δR(B)}`` notation works
    verbatim.
    """
    text = source.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1].strip()
    if not text:
        return Transaction()
    events: list[Event] = []
    for piece in _split_outside_parens(text):
        piece = piece.strip()
        if not piece:
            continue
        match = _EVENT_RE.match(piece)
        if match is None:
            raise ParseError(f"cannot parse transaction item: {piece!r}")
        kind = EventKind.INSERTION if match.group("op") in _INSERT_OPS \
            else EventKind.DELETION
        target = parse_atom(match.group("atom"))
        if not target.is_ground():
            raise ParseError(f"transaction events must be ground: {piece!r}")
        events.append(Event(kind, target.predicate, tuple(target.args)))  # type: ignore[arg-type]
    return Transaction(events)


def parse_request(text: str) -> Literal:
    """Parse ``"ins P(A)"`` / ``"del P(A)"`` / ``"not ins P(A)"``."""
    text = text.strip()
    positive = True
    if text.startswith("not "):
        positive = False
        text = text[4:].strip()
    if text.startswith("ins "):
        name_of = ins_name
        text = text[4:]
    elif text.startswith("del "):
        name_of = del_name
        text = text[4:]
    else:
        raise DatalogError(
            f"request must start with 'ins' or 'del' (optionally 'not'): {text!r}"
        )
    target = parse_atom(text.strip())
    return Literal(Atom(name_of(target.predicate), target.args), positive)
