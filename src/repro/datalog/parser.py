"""Concrete syntax for deductive databases.

The grammar follows the paper's notation as closely as plain text allows::

    % comment (also '#')
    Q(A).                          % fact (constants are capitalised)
    P(x) <- Q(x) & not R(x).      % deductive rule ('&' or ',', ':-' or '<-')
    <- P(x) & S(x).                % integrity constraint in denial form
    Ic2 <- P(x) & V(x).            % integrity rule with explicit head

    Strings: 'lower case constant', "also a constant"
    Integers: 42, -7
    Negation: 'not', '~' or '¬'
    Comparisons: infix sugar for the built-ins, e.g. ``x != y`` (Neq),
    ``n >= 5`` (Geq); also ``==  <  <=  >``

The text of the update operations reads through the same tokens::

    {insert P(A), delete R(B)}     % transaction: insert/ins/ι, delete/del/δ;
                                   % ',' or ';' between events; braces optional
    not del P(A)                   % downward request: ['not'] ins|del atom

Denial-form constraints are rewritten to integrity rules ``IcN <- body`` as
Section 2 prescribes, with ``N`` assigned in source order starting after any
explicitly named ``IcN`` heads.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass, field
from typing import Iterator

from repro.datalog.errors import DatalogError, ParseError
from repro.datalog.rules import Atom, Literal, Rule
from repro.datalog.terms import Constant, Term, Variable, term_from_name

#: Prefix that identifies integrity (inconsistency) predicates, per Section 2.
IC_PREFIX = "Ic"

#: One token per match, after skipping whitespace and comments.  Every
#: position is covered -- a character no token starts with comes back
#: alone and is refused by whichever production meets it -- and the input
#: ends in an empty match, so the list always closes with ``""``.  The
#: group therefore matches wherever the greedy skip stops, and the skip
#: never backtracks (plain quantifiers: possessive ones need Python 3.11).
_TOKEN_RE = re.compile(
    r"""(?:\s+|[%\#][^\n]*)*(
        <-|:-|!=|==|<=|>=|<|>
      | [A-Za-z_][A-Za-z0-9_]*
      | -?\d+
      | '[^']*'|"[^"]*"
      | .|\Z)""",
    re.VERBOSE,
)

_NAME_START = frozenset(string.ascii_letters + "_")

#: Infix comparison sugar -> built-in predicates.
_OPERATORS = {"==": "Eq", "!=": "Neq", "<": "Lt", "<=": "Leq",
              ">": "Gt", ">=": "Geq"}
_NEGATIONS = frozenset({"not", "~", "¬"})
_ARROWS = frozenset({"<-", ":-"})
_FIXED_KINDS = {
    **dict.fromkeys(_OPERATORS, "op"),
    **dict.fromkeys(_ARROWS, "arrow"),
    **dict.fromkeys(("~", "¬"), "neg"),
    **dict.fromkeys("(),.&;{}", "punct"),
    **dict.fromkeys("ιδ", "event"),
}

#: Transaction event markers; the first three insert.
_INSERT_MARKERS = frozenset({"insert", "ins", "ι"})
_EVENT_MARKERS = _INSERT_MARKERS | {"delete", "del", "δ"}


def _kind(text: str) -> str:
    """The lexical class of one token's text (``error`` for a stray char)."""
    first = text[0]
    if first in _NAME_START:
        return "neg" if text == "not" else "name"
    kind = _FIXED_KINDS.get(text)
    if kind is not None:
        return kind
    if first in "'\"" and len(text) > 1:
        return "string"
    if first.isdecimal() or (first == "-" and len(text) > 1):
        return "int"
    return "error"


def _match(source: str, index: int) -> re.Match:
    """The match of token *index*: positions are worked out only on the
    rare paths that need them."""
    return next(itertools.islice(_TOKEN_RE.finditer(source), index, None))


def _line_column(source: str, start: int) -> tuple[int, int]:
    return source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start)


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position."""

    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens, raising :class:`ParseError` on unrecognised input."""
    for match in _TOKEN_RE.finditer(source):
        text = match.group(1)
        if not text:
            return
        position = _line_column(source, match.start(1))
        kind = _kind(text)
        if kind == "error":
            raise ParseError(f"unexpected character {text!r}", *position)
        yield Token(kind, text, *position)


@dataclass
class ParsedProgram:
    """Result of :func:`parse_program`: facts, rules and integrity rules.

    ``constraints`` holds the integrity rules (explicit ``Ic*`` heads and
    rewritten denials); ``rules`` holds ordinary deductive rules; ``facts``
    holds ground bodiless rules.
    """

    facts: list[Rule] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    constraints: list[Rule] = field(default_factory=list)

    def all_rules(self) -> list[Rule]:
        """Facts, deductive rules and integrity rules, in that order."""
        return [*self.facts, *self.rules, *self.constraints]


class _Parser:
    """Recursive-descent parser over one token pass.

    Tokens are their bare texts, the list closed by ``""``; a token's
    position is worked out only when a production refuses it.
    """

    __slots__ = ("_source", "_texts", "_index")

    def __init__(self, source: str):
        self._source = source
        self._texts: list[str] = _TOKEN_RE.findall(source)
        self._index = 0

    # -- token utilities ---------------------------------------------------

    def _peek(self) -> str:
        return self._texts[self._index]

    def _next(self) -> str:
        text = self._texts[self._index]
        if not text:
            raise ParseError("unexpected end of input")
        self._index += 1
        return text

    def _error(self, message: str, index: int) -> ParseError:
        text = self._texts[index]
        if _kind(text) == "error":
            message = f"unexpected character {text!r}"
        return ParseError(message, *_line_column(
            self._source, _match(self._source, index).start(1)))

    def _expect(self, text: str) -> None:
        found = self._next()
        if found != text:
            raise self._error(f"expected {text!r}, found {found!r}",
                              self._index - 1)

    def _at(self, text: str) -> bool:
        return self._texts[self._index] == text

    def at_end(self) -> bool:
        """True when every token has been consumed."""
        return not self._texts[self._index]

    def expect_end(self) -> None:
        """Refuse whatever follows the production just parsed."""
        text = self._texts[self._index]
        if text:
            raise self._error(f"trailing input {text!r}", self._index)

    # -- grammar -----------------------------------------------------------

    def parse_term(self) -> Term:
        self._next()
        return self._term(self._index - 1)

    def _term(self, index: int) -> Term:
        text = self._texts[index]
        if not text:
            raise ParseError("unexpected end of input")
        first = text[0]
        if first in _NAME_START:
            if text != "not":
                # The paper's convention (see term_from_name).
                return Constant(text) if first.isupper() else Variable(text)
        elif first in "'\"":
            if len(text) > 1:
                return Constant(text[1:-1])
        elif first.isdecimal() or (first == "-" and len(text) > 1):
            return Constant(int(text))
        raise self._error(f"expected a term, found {text!r}", index)

    def _atom_parts(self) -> tuple[str, tuple[Term, ...]]:
        predicate = self._next()
        if predicate[0] not in _NAME_START or predicate == "not":
            raise self._error(
                f"expected a predicate name, found {predicate!r}",
                self._index - 1)
        texts = self._texts
        index = self._index
        if texts[index] != "(":
            return predicate, ()
        if texts[index + 1] == ")":
            raise self._error("empty argument list", index - 1)
        args = []
        while True:
            args.append(self._term(index + 1))
            index += 2
            if texts[index] != ",":
                break
        self._index = index
        self._expect(")")
        return predicate, tuple(args)

    def parse_atom(self) -> Atom:
        return Atom(*self._atom_parts())

    def parse_literal(self) -> Literal:
        positive = True
        if self._peek() in _NEGATIONS:
            self._index += 1
            positive = False
        head = self._peek()
        if head and _kind(head) in ("int", "string"):
            # A literal starting with a non-name term must be a comparison.
            left = self.parse_term()
            operator = self._next()
            if operator not in _OPERATORS:
                raise self._error(
                    f"expected a comparison operator, found {operator!r}",
                    self._index - 1)
            right = self.parse_term()
            return Literal(Atom(_OPERATORS[operator], (left, right)),
                           positive)
        atom_or_term = self.parse_atom()
        operator = self._peek()
        if operator in _OPERATORS:
            # Infix comparison: the parsed "atom" was really a bare term.
            if atom_or_term.args:
                raise self._error(
                    f"comparison operand must be a plain term, got "
                    f"{atom_or_term}", self._index)
            self._index += 1
            left = term_from_name(atom_or_term.predicate)
            right = self.parse_term()
            return Literal(Atom(_OPERATORS[operator], (left, right)),
                           positive)
        return Literal(atom_or_term, positive)

    def parse_body(self) -> list[Literal]:
        literals = [self.parse_literal()]
        while self._peek() in ("&", ","):
            self._index += 1
            literals.append(self.parse_literal())
        return literals

    def parse_statement(self) -> tuple[Atom | None, list[Literal]]:
        """One statement up to '.'; head None means a denial."""
        if self._peek() in _ARROWS:
            self._index += 1
            body = self.parse_body()
            self._expect(".")
            return None, body
        head = self.parse_atom()
        body: list[Literal] = []
        if self._peek() in _ARROWS:
            self._index += 1
            body = self.parse_body()
        self._expect(".")
        return head, body

    def parse_events(self) -> list[tuple[bool, str, tuple[Constant, ...]]]:
        """``['{'] [event] ((',' | ';') [event])* ['}']``, where an event is
        a marker (``insert``/``ins``/``ι`` or ``delete``/``del``/``δ``)
        before a ground atom with an optional ``'.'``; empty items are
        skipped.  Yields ``(is_insertion, predicate, args)`` per event."""
        braced = self._at("{")
        if braced:
            self._index += 1
        texts = self._texts
        events = []
        while True:
            marker = texts[self._index]
            if marker in _EVENT_MARKERS:
                self._index += 1
                start = self._index
                predicate, args = self._atom_parts()
                for term in args:
                    if type(term) is not Constant:
                        raise self._error(
                            f"transaction events must be ground: {term} in "
                            f"{Atom(predicate, args)}", start)
                if texts[self._index] == ".":
                    self._index += 1
                events.append((marker in _INSERT_MARKERS, predicate, args))
            if texts[self._index] not in (",", ";"):
                break
            self._index += 1
        if braced:
            self._expect("}")
        if texts[self._index]:
            raise self._error(
                f"expected an event such as 'insert P(A)' or 'delete P(A)', "
                f"found {texts[self._index]!r}", self._index)
        return events

    def parse_request(self) -> tuple[bool, str, Atom]:
        """``['not'] ('ins' | 'del') atom ['.']``: a downward request."""
        positive = not self._at("not")
        if not positive:
            self._index += 1
        namespace = self._peek()
        if namespace not in ("ins", "del") \
                or not self._stands_apart(self._index):
            raise DatalogError(
                f"request must start with 'ins' or 'del' (optionally "
                f"'not'): {self._source.strip()!r}")
        self._index += 1
        atom = self.parse_atom()
        if self._at("."):
            self._index += 1
        self.expect_end()
        return positive, namespace, atom

    def _stands_apart(self, index: int) -> bool:
        """Whether the keyword at *index* is followed by whitespace or a
        name: a request reads ``ins P(A)``, never ``ins(P)`` or ``ins``."""
        following = self._texts[index + 1]
        if following and following[0] in _NAME_START:
            return True
        if not following:
            return False
        end = _match(self._source, index).end(1)
        return self._source[end:end + 1].isspace()


def parse_program(source: str) -> ParsedProgram:
    """Parse a whole program; see the module docstring for the grammar."""
    parser = _Parser(source)
    program = ParsedProgram()
    used_ic_numbers: set[int] = set()
    pending_denials: list[list[Literal]] = []
    while not parser.at_end():
        head, body = parser.parse_statement()
        if head is None:
            pending_denials.append(body)
            continue
        statement = Rule(head, tuple(body))
        if head.predicate.startswith(IC_PREFIX) and head.predicate[len(IC_PREFIX):].isdigit():
            used_ic_numbers.add(int(head.predicate[len(IC_PREFIX):]))
            program.constraints.append(statement)
        elif not body:
            if not head.is_ground():
                raise ParseError(f"fact must be ground: {head}")
            program.facts.append(statement)
        else:
            program.rules.append(statement)
    next_number = 1
    for body in pending_denials:
        while next_number in used_ic_numbers:
            next_number += 1
        used_ic_numbers.add(next_number)
        # Give the inconsistency predicate the denial's variables as terms
        # (the paper: "with or without terms").  Parameterised heads let the
        # downward interpretation repair one violating instance at a time.
        seen_variables: list = []
        for literal in body:
            for variable in literal.variables():
                if variable not in seen_variables:
                    seen_variables.append(variable)
        head = Atom(f"{IC_PREFIX}{next_number}", tuple(seen_variables))
        program.constraints.append(Rule(head, tuple(body)))
    return program


def _parse_single(source: str, production: str):
    parser = _Parser(source)
    result = getattr(parser, f"parse_{production}")()
    if parser._at("."):
        parser._next()
    parser.expect_end()
    return result


def parse_atom(source: str) -> Atom:
    """Parse a single atom, e.g. ``"P(x, A)"``."""
    return _parse_single(source, "atom")


def parse_literal(source: str) -> Literal:
    """Parse a single literal, e.g. ``"not R(x)"``."""
    return _parse_single(source, "literal")


def parse_rule(source: str) -> Rule:
    """Parse a single rule or fact (trailing '.' optional)."""
    text = source.rstrip()
    if not text.endswith("."):
        text += "."
    parser = _Parser(text)
    head, body = parser.parse_statement()
    if head is None:
        raise ParseError("expected a rule, found a denial")
    parser.expect_end()
    return Rule(head, tuple(body))


def parse_events(source: str) -> list[tuple[bool, str, tuple[Constant, ...]]]:
    """The events of a transaction text, e.g. ``"insert P(A), δR(B)"``:
    ``(is_insertion, predicate, args)`` each, in source order.  See
    :func:`repro.events.events.parse_transaction`."""
    return _Parser(source).parse_events()


def parse_request_parts(source: str) -> tuple[bool, str, Atom]:
    """``(positive, "ins" | "del", atom)`` of a request such as
    ``"not del P(A)"``.  See :func:`repro.events.requests.parse_request`."""
    return _Parser(source).parse_request()
