"""Shared JSON (de)serialisation helpers for result and request types.

Every result class carries symmetric ``to_dict()`` / ``from_dict()``
methods; the row-mapping helpers here keep their wire shape identical
across the upward results, integrity checks and condition monitors:
``{"P": [["A"], ["B", "C"]]}`` -- predicate to sorted lists of constant
values.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping

from repro.datalog.terms import Constant

Row = tuple[Constant, ...]


def rows_to_lists(mapping: Mapping[str, frozenset[Row]]) -> dict:
    """``{predicate: rows}`` with constant rows as sorted JSON lists."""
    return {predicate: sorted([t.value for t in row] for row in rows)
            for predicate, rows in sorted(mapping.items())}


def rows_from_lists(payload: Mapping[str, list]) -> dict[str, frozenset[Row]]:
    """Inverse of :func:`rows_to_lists`."""
    return {predicate: frozenset(tuple(Constant(value) for value in row)
                                 for row in rows)
            for predicate, rows in payload.items()}


def dumps(value) -> str:
    """The wire's compact JSON text of *value*."""
    return json.dumps(value, separators=(",", ":"))


def answers_result(answers: Iterable[tuple]) -> Mapping:
    """The ``query`` reply result of answer rows: ``{"answers": [[...]]}``.

    An :class:`AnswerList` hands over the result its memo entry keeps.
    """
    if isinstance(answers, AnswerList):
        return answers.memo.result()
    return {"answers": [list(row) for row in answers]}


class AnswerMemo:
    """One state's memoised answer rows, and the JSON text of their
    ``query`` reply result once a reply needed it."""

    __slots__ = ("rows", "text")

    def __init__(self, rows: tuple[tuple, ...]):
        self.rows = rows
        self.text: str | None = None

    def result(self) -> EncodedResult:
        """The reply result; only the first reply of the state encodes it."""
        if self.text is not None:
            return EncodedResult(self.text)
        value = answers_result(self.rows)
        self.text = dumps(value)
        return EncodedResult(self.text, value)


class AnswerList(list):
    """A fresh list of an :class:`AnswerMemo`'s rows that keeps the memo,
    so a reply built from it reuses the memo's encoded result (the memo's
    rows, whatever the caller has since done to the list)."""

    __slots__ = ("memo",)

    def __init__(self, memo: AnswerMemo):
        super().__init__(memo.rows)
        self.memo = memo


class EncodedResult(Mapping):
    """A reply's result object whose wire text is already encoded.

    :meth:`repro.server.protocol.Response.to_json` puts :attr:`text` into
    the reply as it stands.  In-process readers see a mapping equal to
    the result dict: *value* when the encoder still has it, otherwise a
    fresh decode of the text on first access, so mutating what they read
    never reaches the text, nor any later reply sharing it.
    """

    __slots__ = ("text", "_value")

    def __init__(self, text: str, value: dict | None = None):
        self.text = text
        self._value = value

    def _decoded(self) -> dict:
        if self._value is None:
            self._value = json.loads(self.text)
        return self._value

    def __getitem__(self, key):
        return self._decoded()[key]

    def __iter__(self) -> Iterator:
        return iter(self._decoded())

    def __len__(self) -> int:
        return len(self._decoded())

    def __repr__(self) -> str:
        return f"EncodedResult({self._decoded()!r})"
