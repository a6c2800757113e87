"""Tests for the JSON-lines protocol: codec, versioning, dispatch."""

import json

import pytest

from repro.datalog import errors
from repro.problems.base import StateError
from repro.requests import WireFormatError
from repro.server import protocol
from repro.server.engine import (
    ConflictDeferralTimeout,
    DatabaseEngine,
    EngineClosedError,
    IdempotencyError,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    dispatch,
)


@pytest.fixture
def engine(tmp_path, employment_db):
    engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
    yield engine
    engine.close(checkpoint=False)


def call(engine, op, **params):
    response = dispatch(engine, Request(op=op, params=params, id=1))
    return response


class TestCodec:
    def test_request_roundtrip(self):
        request = Request(op="commit", params={"transaction": "insert P(A)"},
                          id=42)
        decoded = decode_request(request.to_json())
        assert decoded.op == "commit"
        assert decoded.params == {"transaction": "insert P(A)"}
        assert decoded.id == 42
        assert decoded.version == PROTOCOL_VERSION

    def test_response_roundtrip(self):
        response = Response(ok=True, result={"answers": [["A"]]}, id=7)
        decoded = decode_response(response.to_json())
        assert decoded.ok and decoded.id == 7
        assert decoded.result == {"answers": [["A"]]}

    def test_error_response_roundtrip(self):
        response = protocol.error_response(3, ProtocolError("nope"))
        decoded = decode_response(response.to_json())
        assert not decoded.ok
        assert decoded.error["type"] == "protocol"
        assert "nope" in decoded.error["message"]

    def test_bytes_accepted(self):
        decoded = decode_request(b'{"v": 1, "op": "ping"}')
        assert decoded.op == "ping"

    @pytest.mark.parametrize("line", [
        "not json at all",
        "[1, 2, 3]",
        '{"v": 1}',
        '{"v": 1, "op": ""}',
        '{"v": 1, "op": "ping", "params": [1]}',
        '{"v": 99, "op": "ping"}',
    ])
    def test_malformed_requests_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_malformed_response_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response('{"v": 1}')


class TestDispatch:
    def test_hello_lists_every_op(self, engine):
        result = call(engine, "hello").result
        assert result["version"] == PROTOCOL_VERSION
        assert "commit" in result["ops"] and "shutdown" in result["ops"]

    def test_ping(self, engine):
        assert call(engine, "ping").result == {"pong": True}

    def test_query(self, engine):
        response = call(engine, "query", goal="Unemp(x)")
        assert response.ok
        assert response.result["answers"] == [["Dolors"]]

    def test_commit_then_query(self, engine):
        response = call(engine, "commit", transaction="insert Works(Maria)")
        assert response.ok and response.result["applied"]
        assert call(engine, "query", goal="Works(x)").result["answers"] == [
            ["Maria"]]

    def test_commit_rejects_violation(self, engine):
        response = call(engine, "commit",
                        transaction="delete U_benefit(Dolors)")
        assert response.ok
        assert not response.result["applied"]
        assert "Ic1" in response.result["check"]["violations"]

    def test_check(self, engine):
        response = call(engine, "check", transaction="delete U_benefit(Dolors)")
        assert response.ok and not response.result["ok"]
        assert response.result["violations"]["Ic1"] == [[]]  # 0-ary Ic1 head

    def test_upward(self, engine):
        response = call(engine, "upward", transaction="insert Works(Dolors)")
        assert response.result["deletions"]["Unemp"] == [["Dolors"]]

    def test_upward_restricted_predicates(self, engine):
        response = call(engine, "upward", transaction="insert Works(Dolors)",
                        predicates=["Unemp"])
        assert response.ok

    def test_monitor(self, engine):
        response = call(engine, "monitor", transaction="insert Works(Dolors)",
                        conditions=["Unemp"])
        assert response.result["deactivated"]["Unemp"] == [["Dolors"]]

    def test_monitor_needs_conditions(self, engine):
        response = call(engine, "monitor", transaction="insert Works(Dolors)")
        assert not response.ok
        assert response.error["type"] == "protocol"

    def test_downward(self, engine):
        response = call(engine, "downward", requests=["del Unemp(Dolors)"])
        assert response.ok and response.result["satisfiable"]
        assert len(response.result["translations"]) == 2

    def test_downward_string_form(self, engine):
        response = call(engine, "downward",
                        requests="del Unemp(Dolors); not ins Ic")
        assert response.ok and response.result["satisfiable"]

    def test_repair_on_consistent_db_maps_state_error(self, engine):
        response = call(engine, "repair")
        assert not response.ok
        assert response.error["type"] == "state"

    def test_repair_on_inconsistent_db(self, tmp_path):
        from repro.datalog import DeductiveDatabase

        broken = DeductiveDatabase.from_source("""
            La(Dolors).
            Unemp(x) <- La(x) & not Works(x).
            Ic1 <- Unemp(x) & not U_benefit(x).
        """)
        engine = DatabaseEngine.open(tmp_path / "broken", initial=broken)
        try:
            response = call(engine, "repair")
            assert response.ok and response.result["repairable"]
        finally:
            engine.close(checkpoint=False)

    def test_stats(self, engine):
        call(engine, "query", goal="Unemp(x)")
        response = call(engine, "stats")
        assert response.result["engine"]["constraints"] == 1
        assert response.result["requests"]["query"]["count"] == 1

    def test_checkpoint(self, engine):
        call(engine, "commit", transaction="insert Works(Maria)")
        response = call(engine, "checkpoint")
        assert response.ok
        assert engine.store.log_length() == 0

    def test_unknown_op(self, engine):
        response = call(engine, "frobnicate")
        assert not response.ok and response.error["type"] == "protocol"
        assert "frobnicate" in response.error["message"]

    def test_parse_error_mapped(self, engine):
        response = call(engine, "commit", transaction="insert ((")
        assert not response.ok and response.error["type"] == "parse"

    def test_transaction_error_mapped(self, engine):
        response = call(engine, "commit", transaction="insert Unemp(Zoe)")
        assert not response.ok and response.error["type"] == "transaction"

    @pytest.mark.parametrize("goal", ["Works(x, y)", "Unemp(x, y)", "Unemp"])
    def test_arity_mismatched_goal_mapped(self, engine, goal):
        """Was a raw ``KeyError(Variable('y'))`` -> ``internal`` on the wire
        (and a zip-truncated guess for too few arguments)."""
        response = call(engine, "query", goal=goal)
        assert not response.ok and response.error["type"] == "arity"
        assert goal.split("(")[0] in response.error["message"]
        with pytest.raises(errors.ArityError):  # the library oracle too
            engine.db.query(goal)

    def test_missing_param_mapped(self, engine):
        response = call(engine, "commit")
        assert not response.ok and response.error["type"] == "protocol"

    def test_bad_policy_mapped(self, engine):
        response = call(engine, "commit", transaction="insert Works(Maria)",
                        on_violation="explode")
        assert not response.ok and response.error["type"] == "protocol"

    def test_closed_engine_mapped(self, tmp_path, employment_db):
        engine = DatabaseEngine.open(tmp_path / "c", initial=employment_db)
        engine.close(checkpoint=False)
        response = call(engine, "query", goal="Unemp(x)")
        assert not response.ok and response.error["type"] == "closed"

    def test_response_is_one_json_line(self, engine):
        text = call(engine, "query", goal="Unemp(x)").to_json()
        assert "\n" not in text
        assert json.loads(text)["ok"] is True


class TestErrorMapping:
    """Every engine/evaluation exception gets a stable wire error type."""

    @pytest.mark.parametrize("error,expected", [
        (ProtocolError("x"), "protocol"),
        (errors.ParseError("x"), "parse"),
        (errors.TransactionError("x"), "transaction"),
        (StateError("x"), "state"),
        (errors.UnknownPredicateError("x"), "unknown-predicate"),
        (errors.ArityError("x"), "arity"),
        (errors.SafetyError("x"), "safety"),
        (errors.StratificationError("x"), "stratification"),
        (errors.DomainError("x"), "domain"),
        (errors.ComplexityLimitExceeded("x"), "complexity"),
        (errors.DepthLimitExceeded("x"), "depth-limit"),
        (ConflictDeferralTimeout("x"), "conflict-timeout"),
        (IdempotencyError("x"), "idempotency"),
        (EngineClosedError("x"), "closed"),
        (errors.DatalogError("x"), "datalog"),
        (WireFormatError("x"), "protocol"),
        (RuntimeError("x"), "internal"),
    ])
    def test_error_type_of(self, error, expected):
        assert protocol.error_type_of(error) == expected

    def test_safety_error_over_the_wire(self, engine, monkeypatch):
        def raise_safety(goal):
            raise errors.SafetyError("unsafe rule: unbound head variable")

        monkeypatch.setattr(engine, "query", raise_safety)
        response = call(engine, "query", goal="P(x)")
        assert not response.ok and response.error["type"] == "safety"

    def test_stratification_error_over_the_wire(self, engine, monkeypatch):
        def raise_strat(transaction, predicates=None):
            raise errors.StratificationError("negative cycle through P")

        monkeypatch.setattr(engine, "upward", raise_strat)
        response = call(engine, "upward", transaction="insert Works(Maria)")
        assert not response.ok
        assert response.error["type"] == "stratification"

    def test_conflict_timeout_over_the_wire(self, engine):
        # Deterministic: while the batch lock is held, a bounded commit's
        # wait expires with the entry still queued (exact withdrawal).
        assert engine._batch_lock.acquire(timeout=5)
        try:
            response = call(engine, "commit",
                            transaction="insert Works(Maria)", timeout=0.05)
        finally:
            engine._batch_lock.release()
        assert not response.ok
        assert response.error["type"] == "conflict-timeout"
        assert "NOT applied" in response.error["message"]
        assert engine.metrics.counter("commit.deferral_timeouts") == 1

    def test_wire_format_error_maps_to_protocol(self, engine):
        response = call(engine, "commit", transaction="insert Works(Maria)",
                        timeout="soon")
        assert not response.ok and response.error["type"] == "protocol"
