"""Protocol fuzzing: malformed frames and payloads never traceback or hang.

Three layers, hostile input at each:

- the pure decoders (``decode_request`` / ``decode_response``) under
  hypothesis-generated garbage -- the only allowed failure is
  :class:`ProtocolError`;
- typed request deserialisation (``UpdateRequest.of``) under junk
  parameter payloads -- the only allowed failure is a
  :class:`~repro.datalog.errors.DatalogError` subclass (so the dispatcher
  maps it to a typed wire error, never ``"internal"``);
- a live server under raw-socket garbage -- every frame gets either a
  typed error response or a clean close, within a deadline, and the
  session (or at least the server) keeps working afterwards.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.errors import DatalogError
from repro.requests import REQUEST_TYPES, UpdateRequest
from repro.server import DatabaseEngine, ServerThread, protocol

#: Wire error types a fuzzed frame may legitimately produce.
TYPED_ERRORS = {name for _, name in protocol._ERROR_TYPES}


# -- the pure decoders ---------------------------------------------------------


class TestDecodeFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_decode_request_garbage_bytes(self, data):
        try:
            request = protocol.decode_request(data)
            assert isinstance(request.op, str) and request.op
        except protocol.ProtocolError:
            pass  # the only exception the server loop handles

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_decode_request_garbage_text(self, text):
        try:
            protocol.decode_request(text)
        except protocol.ProtocolError:
            pass

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=10))
    @settings(max_examples=200, deadline=None)
    def test_decode_request_arbitrary_json(self, payload):
        try:
            protocol.decode_request(json.dumps(payload))
        except protocol.ProtocolError:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_decode_response_garbage(self, data):
        try:
            protocol.decode_response(data)
        except (protocol.ProtocolError, UnicodeDecodeError):
            pass


# -- typed request deserialisation ---------------------------------------------


JUNK_PARAMS = [
    {},
    {"transaction": 42},
    {"transaction": ""},
    {"transaction": "insert (("},
    {"transaction": ["insert P(A)"]},
    {"goal": []},
    {"goal": ""},
    {"goal": "P(x"},
    {"goal": "Works(x, y)"},
    {"predicates": "Works", "transaction": "insert Works(A)"},
    {"predicates": [1, 2], "transaction": "insert Works(A)"},
    {"conditions": [], "transaction": "insert Works(A)"},
    {"conditions": "Unemp", "transaction": "insert Works(A)"},
    {"requests": []},
    {"requests": 7},
    {"requests": [{"op": "x"}]},
    {"on_violation": "explode", "transaction": "insert Works(A)"},
    {"timeout": "soon", "transaction": "insert Works(A)"},
    {"timeout": -1, "transaction": "insert Works(A)"},
    {"unexpected": object},
]


class TestTypedRequestFuzz:
    @pytest.mark.parametrize("op", sorted(REQUEST_TYPES))
    @pytest.mark.parametrize("params", JUNK_PARAMS,
                             ids=lambda p: repr(sorted(p))[:40])
    def test_junk_params_raise_typed_errors_only(self, op, params):
        """Either a valid typed request or a DatalogError -- nothing the
        dispatcher would report as 'internal'."""
        try:
            request = UpdateRequest.of(op, params)
        except DatalogError as error:
            assert protocol.error_type_of(error) != "internal"
        else:
            assert isinstance(request, UpdateRequest)

    def test_unknown_op_is_a_protocol_error(self):
        with pytest.raises(DatalogError) as excinfo:
            UpdateRequest.of("no-such-op", {})
        assert protocol.error_type_of(excinfo.value) == "protocol"


# -- the live server -----------------------------------------------------------


@pytest.fixture
def port(tmp_path, employment_db):
    engine = DatabaseEngine.open(tmp_path / "fuzz", initial=employment_db)
    with ServerThread(engine, max_line_bytes=4096) as bound:
        yield bound


def raw_exchange(port: int, frames: bytes, timeout: float = 10.0
                 ) -> list[bytes]:
    """Send raw bytes, return the response lines until the server closes.

    The socket timeout is the no-hang guarantee: a server that neither
    answers nor closes fails the test within *timeout*.
    """
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(frames)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            received += chunk
    return [line for line in received.split(b"\n") if line]


def assert_typed_error(line: bytes, expect: str | None = None) -> dict:
    response = json.loads(line)
    assert response["ok"] is False
    error = response["error"]
    assert error["type"] in TYPED_ERRORS | {"internal"}
    assert error["type"] != "internal", error
    assert "Traceback" not in error["message"]
    if expect is not None:
        assert error["type"] == expect, error
    return response


MALFORMED_FRAMES = [
    (b"{{{not json}}}\n", "protocol"),
    (b"[1, 2, 3]\n", "protocol"),
    (b'"just a string"\n', "protocol"),
    (b'{"v": 99, "op": "ping"}\n', "protocol"),
    (b'{"v": 1}\n', "protocol"),
    (b'{"v": 1, "op": 7}\n', "protocol"),
    (b'{"v": 1, "op": ""}\n', "protocol"),
    (b'{"v": 1, "op": "ping", "params": []}\n', "protocol"),
    (b'{"v": 1, "op": "frobnicate"}\n', "protocol"),
    (b"\xff\xfe\xfd garbage \xff\n", "protocol"),
    (b'{"v": 1, "op": "commit"}\n', "protocol"),
    (b'{"v": 1, "op": "commit", "params": {"transaction": 42}}\n',
     "protocol"),
    (b'{"v": 1, "op": "commit", "params": {"transaction": "insert (("}}\n',
     "parse"),
    (b'{"v": 1, "op": "query", "params": {"goal": "Unemp(x"}}\n',
     "parse"),
    (b'{"v": 1, "op": "query", "params": {"goal": "Works(x, y)"}}\n',
     "arity"),
    (b'{"v": 1, "op": "query", "params": {"goal": "Unemp(x, y)"}}\n',
     "arity"),
    (b'{"v": 1, "op": "commit", "params": {"transaction": "insert Unemp(A)"}}\n',
     "transaction"),
    (b'{"v": 1, "op": "downward", "params": {"requests": [3]}}\n',
     "protocol"),
]


class TestServerFuzz:
    @pytest.mark.parametrize("frame,expected",
                             MALFORMED_FRAMES,
                             ids=[f[:30].decode("latin-1")
                                  for f, _ in MALFORMED_FRAMES])
    def test_malformed_frame_gets_typed_error(self, port, frame, expected):
        lines = raw_exchange(port, frame)
        assert lines, "server closed without answering"
        assert_typed_error(lines[0], expected)

    def test_session_survives_a_burst_of_garbage(self, port):
        burst = b"".join(frame for frame, _ in MALFORMED_FRAMES)
        ping = b'{"v": 1, "op": "ping", "id": 99}\n'
        lines = raw_exchange(port, burst + ping)
        assert len(lines) == len(MALFORMED_FRAMES) + 1
        for line in lines[:-1]:
            assert_typed_error(line)
        final = json.loads(lines[-1])
        assert final["ok"] and final["id"] == 99
        assert final["result"] == {"pong": True}

    def test_oversized_line_is_refused_not_hung(self, port):
        huge = b'{"v": 1, "op": "ping", "padding": "' + b"x" * 8192 + b'"}\n'
        lines = raw_exchange(port, huge)
        assert lines, "server closed without answering"
        response = json.loads(lines[0])
        assert response["ok"] is False
        assert response["error"]["type"] == "protocol"
        assert "too long" in response["error"]["message"]

    def test_truncated_frame_at_eof(self, port):
        # No trailing newline: the client died mid-frame.  The server may
        # answer the fragment with a typed error or just close; both are
        # fine, hanging or dying is not.
        lines = raw_exchange(port, b'{"v": 1, "op": "pi')
        for line in lines:
            assert_typed_error(line)

    def test_empty_and_blank_lines_are_skipped(self, port):
        ping = b'{"v": 1, "op": "ping", "id": 5}\n'
        lines = raw_exchange(port, b"\n   \n\t\n" + ping)
        assert len(lines) == 1
        assert json.loads(lines[0])["ok"] is True

    def test_seeded_random_mutations(self, port):
        """Bit-flipped valid frames: every one answered or cleanly closed."""
        import random

        rng = random.Random(0xFA17)
        base = b'{"v": 1, "op": "query", "params": {"goal": "Unemp(x)"}}'
        for _ in range(30):
            mutated = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                position = rng.randrange(len(mutated))
                mutated[position] = rng.randrange(9, 127)
            lines = raw_exchange(port, bytes(mutated) + b"\n")
            for line in lines:
                response = json.loads(line)
                if not response["ok"]:
                    assert response["error"]["type"] in TYPED_ERRORS
                    assert "Traceback" not in response["error"]["message"]


# -- the subscription surface --------------------------------------------------


@pytest.fixture
def feed_server(tmp_path, employment_db):
    """A single-engine server plus its engine, for feed-state assertions."""
    engine = DatabaseEngine.open(tmp_path / "feedfuzz", initial=employment_db)
    with ServerThread(engine, max_line_bytes=4096) as bound:
        yield engine, bound


#: (params, expected wire error type; None = any typed error).
SUBSCRIBE_JUNK = [
    ({}, "protocol"),                             # goals missing entirely
    ({"goals": 7}, "protocol"),
    ({"goals": []}, "protocol"),
    ({"goals": [7]}, "protocol"),
    ({"goals": {"Unemp": 1}}, "protocol"),
    ({"goals": ["La"]}, "subscription"),          # base, not derived
    ({"goals": ["Works"]}, "subscription"),       # declared base
    ({"goals": ["Ghost"]}, "subscription"),       # unknown predicate
    ({"goals": ["Unemp("]}, None),                # malformed filter
    ({"goals": ["Unemp(x, y)"]}, "subscription"),  # wrong arity
    ({"goals": ["Unemp(A) & not Works(A)"]}, None),  # a rule, not a goal
    ({"goals": ["Unemp", "Ghost"]}, "subscription"),  # one bad spoils all
    ({"goals": ["\x00\xff"]}, None),
]


class TestSubscriptionFuzz:
    """Hostile subscribe/unsubscribe payloads: always a typed error, the
    session and every other subscriber keep working."""

    @pytest.mark.parametrize("params,expected", SUBSCRIBE_JUNK,
                             ids=lambda v: repr(v)[:40])
    def test_junk_subscribe_is_typed(self, feed_server, params, expected):
        engine, port = feed_server
        frame = (json.dumps({"v": 1, "op": "subscribe", "params": params})
                 + "\n").encode()
        lines = raw_exchange(port, frame)
        assert lines, "server closed without answering"
        assert_typed_error(lines[0], expected)
        assert engine.feed.active == 0, "rejected subscribe leaked state"

    @pytest.mark.parametrize("params", [
        {},
        {"subscription_id": ""},
        {"subscription_id": 7},
        {"subscription_id": ["sub-1"]},
        {"subscription_id": "sub-424242"},        # unknown id
        {"subscription_id": "../../etc/passwd"},
    ], ids=lambda p: repr(sorted(p.items()))[:40])
    def test_junk_unsubscribe_is_typed(self, feed_server, params):
        _, port = feed_server
        frame = (json.dumps({"v": 1, "op": "unsubscribe", "params": params})
                 + "\n").encode()
        lines = raw_exchange(port, frame)
        assert lines, "server closed without answering"
        assert_typed_error(lines[0])

    def test_unknown_unsubscribe_is_subscription_error(self, feed_server):
        _, port = feed_server
        frame = frame_of("unsubscribe", subscription_id="sub-424242")
        lines = raw_exchange(port, frame)
        assert_typed_error(lines[0], "subscription")

    def test_subscribe_then_flood_feed_survives(self, feed_server):
        """A subscriber whose session is flooded with garbage afterwards
        keeps its subscription: every junk frame answers typed, and a
        commit still pushes a delta down the same socket."""
        from repro.server.client import DatabaseClient

        engine, port = feed_server
        with DatabaseClient(port=port) as sub:
            info = sub.subscribe("Unemp")
            assert engine.feed.active == 1
            for params, _ in SUBSCRIBE_JUNK:
                with pytest.raises(DatalogError):
                    sub.call("subscribe", **params)
            with pytest.raises(DatalogError):
                sub.call("unsubscribe", subscription_id="sub-424242")
            assert engine.feed.active == 1, "flood killed the subscription"
            with DatabaseClient(port=port) as writer:
                writer.commit("insert La(Fz), insert U_benefit(Fz)")
            pushed = sub.next_frame(timeout=10)
            assert pushed["feed"] == info["subscription_id"]
            assert pushed["frame"]["kind"] == "delta"


# -- the sharded endpoint ------------------------------------------------------


@pytest.fixture
def group_port(tmp_path, employment_db):
    """A 3-shard EngineGroup behind the same wire protocol."""
    from repro.shard import EngineGroup

    group = EngineGroup.open(tmp_path / "fuzzgrp", employment_db, shards=3)
    with ServerThread(group, max_line_bytes=4096) as bound:
        yield bound


def frame_of(op: str, **params) -> bytes:
    return (json.dumps({"v": 1, "op": op, "params": params}) + "\n").encode()


class TestShardedEndpointFuzz:
    """The router surface: hostile routing keys get typed errors, never
    hangs, never 'internal'."""

    @pytest.mark.parametrize("frame,expected",
                             MALFORMED_FRAMES,
                             ids=[f[:30].decode("latin-1")
                                  for f, _ in MALFORMED_FRAMES])
    def test_malformed_frames_still_typed(self, group_port, frame, expected):
        # The sharded endpoint answers the shared malformed corpus with
        # typed errors too; routing-layer rejections may differ in type
        # from the single-engine answer but must never be 'internal'.
        lines = raw_exchange(group_port, frame)
        assert lines, "server closed without answering"
        assert_typed_error(lines[0])

    def test_commit_on_unknown_predicate_is_routing_error(self, group_port):
        lines = raw_exchange(group_port, frame_of(
            "commit", transaction="insert Ghost(A)"))
        assert_typed_error(lines[0], "routing")

    def test_commit_on_derived_predicate_is_routing_error(self, group_port):
        # No home shard for a derived predicate: the split itself refuses.
        lines = raw_exchange(group_port, frame_of(
            "commit", transaction="insert Unemp(A)"))
        assert_typed_error(lines[0], "routing")

    def test_single_state_op_is_routing_error(self, group_port):
        lines = raw_exchange(group_port, frame_of(
            "monitor", transaction="insert Works(A)", conditions=["Unemp"]))
        assert_typed_error(lines[0], "routing")

    @pytest.mark.parametrize("params", [
        {},
        {"transaction": "insert Works(A)"},              # no txn_id
        {"txn_id": "t"},                                  # no transaction
        {"transaction": 42, "txn_id": "t"},
        {"transaction": "insert ((", "txn_id": "t"},
        {"transaction": "insert Works(A)", "txn_id": 7},
    ], ids=lambda p: repr(sorted(p))[:40])
    def test_junk_prepare_params_are_typed(self, group_port, params):
        lines = raw_exchange(group_port, frame_of("prepare", **params))
        assert_typed_error(lines[0])

    @pytest.mark.parametrize("params", [
        {},
        {"txn_id": "t"},                                  # no decision
        {"decision": "commit"},                           # no txn_id
        {"txn_id": "t", "decision": "explode"},
        {"txn_id": "t", "decision": 1},
        {"txn_id": [], "decision": "abort"},
    ], ids=lambda p: repr(sorted(p))[:40])
    def test_junk_decide_params_are_typed(self, group_port, params):
        lines = raw_exchange(group_port, frame_of("decide", **params))
        assert_typed_error(lines[0])

    def test_participant_ops_against_the_group_are_routing_errors(
            self, group_port):
        # A multi-shard group is a coordinator, not a participant: wire
        # prepare/decide get typed routing errors, not a crash.
        lines = raw_exchange(group_port, frame_of(
            "decide", txn_id="never-prepared", decision="commit"))
        assert_typed_error(lines[0], "routing")
        lines = raw_exchange(group_port, frame_of(
            "prepare", transaction="insert Works(A)", txn_id="t-1"))
        assert_typed_error(lines[0], "routing")

    def test_session_survives_garbage_then_serves(self, group_port):
        burst = b"".join(frame for frame, _ in MALFORMED_FRAMES)
        burst += frame_of("commit", transaction="insert Ghost(A)")
        query = b'{"v": 1, "op": "query", "id": 7, ' \
                b'"params": {"goal": "Unemp(x)"}}\n'
        lines = raw_exchange(group_port, burst + query)
        assert len(lines) == len(MALFORMED_FRAMES) + 2
        for line in lines[:-1]:
            assert_typed_error(line)
        final = json.loads(lines[-1])
        assert final["ok"] and final["id"] == 7
        assert final["result"]["answers"] == [["Dolors"]]
