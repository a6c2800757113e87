"""A query reply is encoded once per state and decoded once per call.

The engine's memo entry for a constant-free goal keeps the JSON text of
its reply result beside its rows, so a memo hit goes onto the wire as
that text; the client parses each line it reads once.  Every reply must
still be byte for byte what encoding the plain ``{"answers": ...}`` dict
gives, whatever the memo did, and no encoded answer may outlive its
state.
"""

from __future__ import annotations

import json
import socket
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import DeductiveDatabase
from repro.events.events import Transaction, delete, insert, parse_transaction
from repro.serde import AnswerList, EncodedResult
from repro.server import DatabaseClient, DatabaseEngine, ServerThread
from repro.server import protocol
from repro.server.client import ConnectionLostError
from repro.server.protocol import Request, dispatch
from repro.workloads import employment_database

SOURCE = """
    E(A, A). E(A, B). E(B, B). E(C, A). E(C, C). F(C).
    E('Zoë', 'Zoë'). E('Ñandú', 'Zoë'). E('日本', 'A').
    P(x, y) <- E(x, y) & not F(x).
    Loop <- E(x, x) & not F(x).
    Ic1(x) <- E(x, x) & F(x) & G(x).
"""

#: Shapes the memo keys apart (``P(x, x)`` vs ``P(x, y)``), renamed twins,
#: a propositional goal, unknown predicates, a base predicate with no
#: facts, a constraint with no violation, and bound goals beside them.
GOALS = ("P(x, x)", "P(x, y)", "P(y, x)", "P(u, v)", "E(x, y)", "E(x, x)",
         "F(x)", "G(x)", "Ic1(x)", "Loop", "Nope(x)", "Nope(x, x)",
         "P(A, y)", "E(x, 'Zoë')", "P('Ñandú', 'Zoë')")

CONSTANTS = ("A", "B", "C", "Zoë", "Ñandú", "日本")


def envelope(request_id, answers) -> str:
    """The reply a plain dict of *answers* encodes to."""
    return json.dumps({"v": 1, "id": request_id, "ok": True,
                       "result": {"answers": [list(row) for row in answers]}},
                      separators=(",", ":"))


def query(engine, goal: str, request_id=1) -> protocol.Response:
    return dispatch(engine, Request(op="query", params={"goal": goal},
                                    id=request_id))


def assert_reply_matches_oracle(engine, goal: str, request_id) -> str:
    text = query(engine, goal, request_id).to_json()
    assert text == envelope(request_id, engine.db.query(goal)), goal
    assert text.isascii(), "non-ASCII must stay \\u-escaped"
    return text


@pytest.fixture
def engine(tmp_path):
    engine = DatabaseEngine.open(tmp_path / "d",
                                 initial=DeductiveDatabase.from_source(SOURCE))
    yield engine
    engine.close(checkpoint=False)


def constants():
    return st.sampled_from(CONSTANTS)


def events():
    return st.one_of(
        st.builds(lambda kind, x, y: kind("E", x, y),
                  st.sampled_from((insert, delete)), constants(), constants()),
        st.builds(lambda kind, x: kind("F", x),
                  st.sampled_from((insert, delete)), constants()),
        st.builds(lambda x: insert("G", x), constants()),
    )


ACTIONS = st.one_of(
    st.tuples(st.just("query"), st.sampled_from(GOALS)),
    st.tuples(st.just("commit"),
              st.lists(events(), min_size=1, max_size=3,
                       unique_by=lambda event: (event.predicate, event.args))),
    st.tuples(st.just("checkpoint")),
)


class TestReplyBytes:
    @given(st.lists(ACTIONS, min_size=1, max_size=25),
           st.one_of(st.integers(-5, 10 ** 6), st.text(max_size=4),
                     st.none(), st.lists(st.integers(), max_size=2)))
    @settings(max_examples=60, deadline=None)
    def test_every_reply_encodes_like_the_plain_dict(self, actions, rid):
        """Misses, hits, and reads after applied and rejected commits and
        after a checkpoint: each reply equals the oracle's envelope."""
        with tempfile.TemporaryDirectory() as directory:
            engine = DatabaseEngine.open(
                Path(directory) / "d",
                initial=DeductiveDatabase.from_source(SOURCE))
            try:
                for action in actions:
                    if action[0] == "query":
                        for _ in range(2):  # the state's miss (or hit), a hit
                            assert_reply_matches_oracle(engine, action[1], rid)
                    elif action[0] == "commit":
                        engine.commit(Transaction(action[1]))
                    else:
                        engine.checkpoint()
            finally:
                engine.close(checkpoint=False)

    def test_each_write_kind_then_every_goal(self, engine):
        def commit(text: str, applied: bool):
            return lambda: engine.commit(
                parse_transaction(text)).applied == applied

        writes = [lambda: True,
                  commit("insert E(B, A)", True),
                  # G(C) makes Ic1(C) true: rejected, the state unchanged
                  commit("insert G(C)", False),
                  lambda: engine.checkpoint() is None,
                  commit("insert F('Zoë'), delete E(C, A)", True)]
        for write in writes:
            assert write()
            for goal in GOALS:
                assert_reply_matches_oracle(engine, goal, 7)
                assert_reply_matches_oracle(engine, goal, [8, "ë"])
        # Per state, 18 reads of 7 memo keys: at least 11 of them hit.
        assert engine.metrics.counter("query.memo_hits") >= 5 * 11

    def test_a_hit_sends_the_text_its_miss_kept(self, engine):
        miss = query(engine, "P(x, y)").result
        hit = query(engine, "P(x, y)").result
        assert isinstance(miss, EncodedResult)
        assert isinstance(hit, EncodedResult)
        assert hit.text is miss.text
        assert '"Zo\\u00eb"' in miss.text and "\\u65e5\\u672c" in miss.text

    def test_bound_and_unknown_goals_reply_with_a_plain_dict(self, engine):
        for goal in ("P(A, y)", "Nope(x)", "Loop", "E(x, 'Zoë')"):
            result = query(engine, goal).result
            assert type(result) is dict, goal

    def test_python_api_still_returns_fresh_lists(self, engine):
        first, second = engine.query("P(x, y)"), engine.query("P(x, y)")
        assert isinstance(first, list) and first == second
        assert first is not second
        assert first == engine.db.query("P(x, y)")
        assert isinstance(second, AnswerList)


class TestIsolation:
    def test_mutating_a_result_reaches_no_later_reply(self, engine):
        expected = [list(row) for row in engine.db.query("P(x, y)")]
        baseline = envelope(1, expected)
        for _ in range(3):  # the miss, then hits
            response = query(engine, "P(x, y)")
            answers = response.result["answers"]
            assert answers == expected
            assert response.result == {"answers": expected}
            answers[0][0] = "Intruder"
            answers.append(["Another"])
            assert query(engine, "P(x, y)").to_json() == baseline
        assert engine.query("P(x, y)") == [tuple(r) for r in expected]

    def test_mutating_the_python_answer_list_reaches_no_reply(self, engine):
        baseline = query(engine, "E(x, x)").to_json()
        answers = engine.query("E(x, x)")
        answers.clear()
        answers.append(("Intruder",))
        assert query(engine, "E(x, x)").to_json() == baseline

    def test_a_result_compares_like_the_dict(self, engine):
        expected = {"answers": [["A"], ["B"], ["C"], ["Zoë"]]}
        for _ in range(2):  # the miss's kept dict, then a hit's decode
            result = query(engine, "E(x, x)").result
            assert result == expected and expected == result
            assert dict(result) == expected and result != {"answers": []}
            assert len(result) == 1 and list(result) == ["answers"]


class TestStaleness:
    def test_once_a_commit_returns_the_next_reply_reflects_it(self, tmp_path):
        """Three readers keep ``Unemp(x)`` memoised and encoded (the text
        is made outside the read lock) while 60 toggles commit; after each
        ack the next reply shows that commit, and every reply is some
        committed state's answer, encoded as its plain dict would be."""
        workers = [f"W{i}" for i in range(6)]
        db = employment_database(20, seed=11)
        for worker in workers:
            db.add_fact("La", worker)
            db.add_fact("U_benefit", worker)
        engine = DatabaseEngine.open(tmp_path / "d", initial=db)
        employed: set[str] = set()
        others = {row[0] for row in db.query("Unemp(x)")} - set(workers)
        toggles, states = [], []
        for k in range(60):
            worker = workers[k % len(workers)]
            kind = delete if worker in employed else insert
            employed ^= {worker}
            toggles.append(Transaction([kind("Works", worker)]))
            states.append(others | (set(workers) - employed))
        committed = {frozenset(state) for state in states}
        committed.add(frozenset(others | set(workers)))
        stop = threading.Event()
        errors: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                text = query(engine, "Unemp(x)").to_json()
                rows = json.loads(text)["result"]["answers"]
                if {row[0] for row in rows} not in committed:
                    errors.append(f"no committed state answers {rows}")
                if text != envelope(1, rows):
                    errors.append(f"{text[:60]} is not its rows' encoding")

        readers = [threading.Thread(target=reader) for _ in range(3)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave inside the reads
        for thread in readers:
            thread.start()
        try:
            for toggle, state in zip(toggles, states):
                assert engine.commit(toggle).applied
                text = query(engine, "Unemp(x)", 3).to_json()
                rows = sorted(((person,) for person in state), key=str)
                assert text == envelope(3, rows)
        finally:
            sys.setswitchinterval(switch_interval)
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            engine.close(checkpoint=False)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors, errors[:3]


def _frozen_decode_response(line):
    """The response decoder as it was before lines were parsed once."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise protocol.ProtocolError(
            f"response is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or "ok" not in payload:
        raise protocol.ProtocolError("response must be a JSON object with 'ok'")
    return protocol.Response(ok=bool(payload["ok"]),
                             result=payload.get("result"),
                             error=payload.get("error"), id=payload.get("id"))


def _outcome(decode, line):
    try:
        return decode(line)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)


class ScriptedServer:
    """One connection that answers each request line with scripted bytes."""

    def __init__(self, replies: list[bytes]):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._replies = replies
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rb") as lines:
            for reply in self._replies:
                if not lines.readline():
                    return
                conn.sendall(reply)
            lines.readline()  # hold the connection until the client closes

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


@pytest.fixture
def scripted():
    servers: list[ScriptedServer] = []

    def start(*replies: bytes) -> DatabaseClient:
        server = ScriptedServer(list(replies))
        servers.append(server)
        return DatabaseClient(port=server.port, timeout=5, handshake=False)

    yield start
    for server in servers:
        server.close()


def frame(seq: int) -> bytes:
    return json.dumps({"v": 1, "feed": "sub-1", "seq": seq,
                       "frame": {"kind": "delta", "added": {}}}).encode() + b"\n"


class TestClientParsesOnce:
    LINES = ["not json", "", "[1, 2]", '"ok"', "null", '{"v": 1}',
             '{"feed": "sub-1"}', '{"ok": 0, "id": "x"}',
             '{"v": 1, "id": 3, "ok": true, "result": {"answers": [["A"]]}}',
             '{"v": 1, "id": 4, "ok": false, "error": {"type": "parse"}}',
             b'\xff\xfe', b'{"ok": true, "result": {"x": "\xc3\xa9"}}']

    @pytest.mark.parametrize("line", LINES)
    def test_decode_response_is_unchanged(self, line):
        assert _outcome(protocol.decode_response, line) == \
            _outcome(_frozen_decode_response, line)

    def test_frames_between_responses_queue_in_order(self, scripted,
                                                     monkeypatch):
        client = scripted(
            frame(1) + frame(2) + b'{"v":1,"id":1,"ok":true,"result":{}}\n',
            frame(3) + b'{"v":1,"id":2,"ok":true,"result":{"pong":true}}\n')
        loads = []
        real_loads = json.loads
        monkeypatch.setattr(protocol.json, "loads",
                            lambda text, **kw: loads.append(text)
                            or real_loads(text, **kw))
        try:
            assert client.call("ping") == {}
            assert client.pending_frames == 2
            assert client.call("ping") == {"pong": True}
            assert len(loads) == 5  # five lines read, each parsed once
            assert [client.next_frame()["seq"] for _ in range(3)] == [1, 2, 3]
        finally:
            client.close()

    @pytest.mark.parametrize("line,message", [
        (b"not json\n", "response is not valid JSON: Expecting value: "
                        "line 1 column 1 (char 0)"),
        (b"[1, 2]\n", "response must be a JSON object with 'ok'"),
        (b'{"v": 1, "id": 1}\n', "response must be a JSON object with 'ok'"),
    ])
    def test_bad_lines_raise_the_old_protocol_errors(self, scripted, line,
                                                     message):
        client = scripted(frame(1) + line)
        try:
            with pytest.raises(protocol.ProtocolError) as excinfo:
                client.call("ping")
            assert str(excinfo.value) == message
            assert client.pending_frames == 1
        finally:
            client.close()

    def test_a_response_while_waiting_for_a_frame_is_a_desync(self, scripted):
        client = scripted(b'{"v":1,"id":1,"ok":true,"result":{}}\n'
                          b"not json\n")
        try:
            assert client.call("ping") == {}
            with pytest.raises(ConnectionLostError, match="desynchronised"):
                client.next_frame(timeout=5)
        finally:
            client.close()


def test_the_wire_sends_a_hit_as_the_miss_sent_it(engine):
    with ServerThread(engine) as port:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
            stream = raw.makefile("rwb")
            lines = []
            for _ in range(3):
                stream.write(Request(op="query", params={"goal": "P(x, y)"},
                                     id=9).to_json().encode() + b"\n")
                stream.flush()
                lines.append(stream.readline())
            stream.close()
    expected = envelope(9, engine.db.query("P(x, y)")).encode() + b"\n"
    assert lines == [expected] * 3
    assert engine.metrics.counter("query.memo_hits") == 2
