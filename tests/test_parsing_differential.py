"""The one-token-pass readers against the readers they replaced.

``tests/frozen_parsing.py`` keeps the regex-split transaction reader, the
prefix-stripping request reader and the atom reader exactly as they were.
On documented-grammar inputs the live readers must return equal results,
and on refusals raise the same error class; on mutated inputs they must
agree too, except on the divergences pinned at the bottom, each of which
is named in CHANGES.md.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.errors import DatalogError, ParseError
from repro.datalog.parser import parse_atom
from repro.events.events import Transaction, delete, insert, parse_transaction
from repro.events.requests import parse_request

from tests import frozen_parsing as frozen

READERS = {
    "transaction": (parse_transaction, frozen.parse_transaction),
    "request": (parse_request, frozen.parse_request),
    "atom": (parse_atom, frozen.parse_atom),
}


def outcome(read, text):
    """A reader's result, or the class of its refusal."""
    try:
        return "ok", read(text)
    except Exception as error:  # the class is what is compared
        return "refused", type(error)


# -- documented grammar --------------------------------------------------------

constants = st.one_of(
    st.from_regex(r"[A-Z][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.integers(-50, 500).map(str),
    st.from_regex(r"'[A-Za-z0-9 ]{0,4}'", fullmatch=True),
    st.from_regex(r'"[A-Za-z0-9 ]{0,4}"', fullmatch=True))
terms = st.one_of(constants, st.sampled_from(["x", "y", "_z"]))
predicates = st.sampled_from(["P", "Q", "La", "Works", "U_benefit", "R2"])
gaps = st.sampled_from(["", " ", "  ", "\n", "\t"])


@st.composite
def atoms(draw, arguments=constants):
    predicate = draw(predicates)
    if draw(st.booleans()) and draw(st.booleans()):
        return predicate
    args = draw(st.lists(arguments, min_size=1, max_size=3))
    return f"{predicate}({draw(st.sampled_from([', ', ','])).join(args)})"


@st.composite
def transaction_texts(draw):
    items = []
    for _ in range(draw(st.integers(0, 4))):
        marker = draw(st.sampled_from(
            ["insert ", "delete ", "ins ", "del ", "ι", "δ", "ι ", "δ ",
             "insert  ", "delete\t"]))
        atom = draw(atoms(terms if draw(st.integers(0, 9)) == 0
                          else constants))
        items.append(marker + atom + draw(st.sampled_from(["", "", "."])))
    text = ""
    for index, item in enumerate(items):
        if index:
            text += draw(gaps) + draw(st.sampled_from([",", ";"]))
        text += draw(gaps) + item
    if draw(st.booleans()):
        text = "{" + text + draw(gaps) + "}"
    return text


@st.composite
def request_texts(draw):
    return (draw(st.sampled_from(["", "not ", "not  "]))
            + draw(st.sampled_from(["ins ", "del "]))
            + draw(atoms(terms)) + draw(st.sampled_from(["", "."])))


@st.composite
def atom_texts(draw):
    return draw(atoms(terms)) + draw(st.sampled_from(["", "."]))


GENERATORS = {"transaction": transaction_texts, "request": request_texts,
              "atom": atom_texts}

# -- mutation ------------------------------------------------------------------

ALPHABET = list("(),;{}.'\" \t\n%#@~¬ιδ-_0aAzP") + [
    "insert", "delete", "not", "ins", "del"]


@st.composite
def mutated(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(["drop", "add", "repeat"]))
        if action == "drop":
            text = text[:at] + text[at + 1:]
        elif action == "add":
            text = text[:at] + draw(st.sampled_from(ALPHABET)) + text[at:]
        else:
            end = draw(st.integers(at, len(text)))
            text = text[:at] + text[at:end] * 2 + text[end:]
    return text


# -- the pinned divergences ----------------------------------------------------


def transaction_divergence(text: str) -> bool:
    """Where the transaction readers may disagree (see TestPinned)."""
    return bool(
        re.search(r"[%#\n]", text)                        # comments, newlines
        or re.search(r"'[^']*[()][^']*'|\"[^\"]*[()][^\"]*\"", text)
        or re.search(r"\b(?:insert|delete|ins|del)[A-Za-z0-9_]", text)
        or re.search(r"(?:^|[,;{])\s*(?:insert|delete)\s*(?=[,;}]|$)", text))


def request_divergence(text: str) -> bool:
    """Where the request readers may disagree (see TestPinned)."""
    return bool(re.search(r"[%#]", text)
                or re.search(r"[^\S ]", text.strip()))


DIVERGENCE = {"transaction": transaction_divergence,
              "request": request_divergence,
              "atom": lambda text: False}


class TestDifferential:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_documented_grammar_reads_alike(self, reader):
        live, old = READERS[reader]

        @given(GENERATORS[reader]())
        @settings(max_examples=100, deadline=None)
        def check(text):
            assert outcome(live, text) == outcome(old, text), text

        check()

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_mutated_inputs_read_alike_or_diverge_as_pinned(self, reader):
        live, old = READERS[reader]

        @given(mutated(GENERATORS[reader]()))
        @settings(max_examples=150, deadline=None)
        def check(text):
            if not DIVERGENCE[reader](text):
                assert outcome(live, text) == outcome(old, text), text

        check()


class TestPinned:
    """Inputs the two readers treat differently, on purpose."""

    @pytest.mark.parametrize("text, old_reading", [
        # A marker glued to a word: the old regex split inside the word.
        ("insertP(A)", Transaction([insert("P", "A")])),
        ("deleteP(A)", Transaction([delete("P", "A")])),
        ("insertion(A)", Transaction([insert("ion", "A")])),
        ("insert", Transaction([insert("ert")])),
        ("insert P(A), delete", Transaction([insert("P", "A"),
                                             delete("ete")])),
    ])
    def test_glued_markers_are_now_refused(self, text, old_reading):
        assert frozen.parse_transaction(text) == old_reading
        with pytest.raises(ParseError):
            parse_transaction(text)

    @pytest.mark.parametrize("text, reading", [
        # The old reader split inside quotes and across lines.
        ("insert P(')'), delete Q(B)", Transaction([insert("P", ")"),
                                                    delete("Q", "B")])),
        ("insert P('('); delete Q(B)", Transaction([insert("P", "("),
                                                    delete("Q", "B")])),
        ("insert P(A,\nB)", Transaction([insert("P", "A", "B")])),
        # A comment alone is an empty transaction.
        ("% nothing", Transaction()),
    ])
    def test_old_refusals_now_read(self, text, reading):
        with pytest.raises(ParseError):
            frozen.parse_transaction(text)
        assert parse_transaction(text) == reading

    def test_a_comment_runs_to_the_end_of_its_line(self):
        text = "insert P(A) % note, delete Q(B)"
        assert frozen.parse_transaction(text) == Transaction(
            [insert("P", "A"), delete("Q", "B")])
        assert parse_transaction(text) == Transaction([insert("P", "A")])

    @pytest.mark.parametrize("text", ["ins\tP(A)", "not\tins P(A)",
                                      "not % why\nins P(A)"])
    def test_requests_allow_any_whitespace(self, text):
        with pytest.raises(DatalogError):
            frozen.parse_request(text)
        spaced = "not ins P(A)" if text.startswith("not") else "ins P(A)"
        assert parse_request(text) == parse_request(spaced)
