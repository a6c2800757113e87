"""The versioned JSON-lines request/response protocol.

One request per line, one response per line, UTF-8 JSON.  Request::

    {"v": 1, "id": 7, "op": "commit", "params": {"transaction": "insert P(A)"}}

Response::

    {"v": 1, "id": 7, "ok": true, "result": {...}}
    {"v": 1, "id": 7, "ok": false, "error": {"type": "parse", "message": "..."}}

The request types map 1:1 onto the Table 4.1 problems exposed by
:class:`~repro.core.processor.UpdateProcessor`; each is a typed
:class:`~repro.requests.UpdateRequest` subclass (see :mod:`repro.requests`
for the op table).  ``shutdown`` is the one control op the server
intercepts before dispatch; ``subscribe``/``unsubscribe`` are typed
requests but also session-handled, because a subscription is bound to
the connection that registers it.  A connection holding subscriptions
additionally receives pushed *feed frames* -- lines carrying a ``feed``
key instead of ``ok``::

    {"v": 1, "feed": "sub-1", "seq": 3, "frame": {"kind": "delta", ...}}

(see docs/SUBSCRIPTIONS.md for frame kinds and ordering guarantees).

:func:`dispatch` deserialises one decoded request into its typed form and
executes it against a :class:`~repro.server.engine.DatabaseEngine`; the
server's session threads, the blocking client's tests and in-process
callers all share it, so wire semantics cannot drift from engine
semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from repro.datalog.errors import (
    ArityError,
    ComplexityLimitExceeded,
    DatalogError,
    DepthLimitExceeded,
    DomainError,
    ParseError,
    RoutingError,
    SafetyError,
    StratificationError,
    SubscriptionError,
    TransactionError,
    UnavailableError,
    UnknownPredicateError,
)
from repro.problems.base import StateError
from repro.requests import REQUEST_TYPES, UpdateRequest, WireFormatError
from repro.serde import EncodedResult, dumps
from repro.server.engine import (
    ConflictDeferralTimeout,
    DatabaseEngine,
    EngineClosedError,
    IdempotencyError,
    TxnConflictError,
    TxnStateError,
)

PROTOCOL_VERSION = 1

#: Ops the server intercepts before dispatch (they act on the server itself).
CONTROL_OPS = ("shutdown",)

#: Every op :func:`dispatch` understands.
REQUEST_OPS = tuple(sorted(REQUEST_TYPES))


def known_ops() -> list[str]:
    """Every op a server answers (dispatchable + control), sorted."""
    return sorted(REQUEST_OPS + CONTROL_OPS)


class ProtocolError(DatalogError):
    """A malformed or unsupported request."""


@dataclass
class Request:
    """One decoded protocol request."""

    op: str
    params: dict = field(default_factory=dict)
    id: int | str | None = None
    version: int = PROTOCOL_VERSION

    def to_json(self) -> str:
        payload = {"v": self.version, "op": self.op}
        if self.id is not None:
            payload["id"] = self.id
        if self.params:
            payload["params"] = self.params
        return dumps(payload)


@dataclass
class Response:
    """One protocol response.

    A successful *result* may be an :class:`~repro.serde.EncodedResult`,
    whose text goes into the reply as it stands: byte for byte what
    encoding the equal dict would give.
    """

    ok: bool
    result: Mapping | None = None
    error: dict | None = None
    id: int | str | None = None

    def to_json(self) -> str:
        if self.ok and type(self.result) is EncodedResult:  # no ABC check
            return (f'{{"v":{PROTOCOL_VERSION},"id":{dumps(self.id)},'
                    f'"ok":true,"result":{self.result.text}}}')
        payload: dict = {"v": PROTOCOL_VERSION, "id": self.id, "ok": self.ok}
        if self.ok:
            payload["result"] = self.result or {}
        else:
            payload["error"] = self.error or {}
        return dumps(payload)


def decode_request(line: str | bytes) -> Request:
    """Parse one request line; raises :class:`ProtocolError` when malformed."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"request is not valid UTF-8: {error}") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    version = payload.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks {PROTOCOL_VERSION})"
        )
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("request needs a non-empty string 'op'")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("request 'params' must be an object")
    return Request(op=op, params=params, id=payload.get("id"), version=version)


def decode_response(line: str | bytes) -> Response:
    """Parse one response line (the client side of the wire)."""
    return response_of(load_line(line))


def load_line(line: str | bytes):
    """The JSON value of one line from a server: a response or a feed frame."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        return json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"response is not valid JSON: {error}") from None


def is_feed_frame(payload) -> bool:
    """Whether a loaded line is a pushed feed frame rather than a response."""
    return (isinstance(payload, dict) and "feed" in payload
            and "ok" not in payload)


def response_of(payload) -> Response:
    """The :class:`Response` a loaded response line carries."""
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ProtocolError("response must be a JSON object with 'ok'")
    return Response(ok=bool(payload["ok"]), result=payload.get("result"),
                    error=payload.get("error"), id=payload.get("id"))


# -- error mapping -------------------------------------------------------------

_ERROR_TYPES: tuple[tuple[type[BaseException], str], ...] = (
    (ProtocolError, "protocol"),
    (WireFormatError, "protocol"),
    (ParseError, "parse"),
    (TransactionError, "transaction"),
    (StateError, "state"),
    (UnknownPredicateError, "unknown-predicate"),
    (ArityError, "arity"),
    (SafetyError, "safety"),
    (StratificationError, "stratification"),
    (DomainError, "domain"),
    (ComplexityLimitExceeded, "complexity"),
    (DepthLimitExceeded, "depth-limit"),
    (ConflictDeferralTimeout, "conflict-timeout"),
    (IdempotencyError, "idempotency"),
    (RoutingError, "routing"),
    (SubscriptionError, "subscription"),
    (UnavailableError, "unavailable"),
    (TxnConflictError, "txn-conflict"),
    (TxnStateError, "txn-state"),
    (EngineClosedError, "closed"),
    (DatalogError, "datalog"),
)


def error_type_of(error: BaseException) -> str:
    """The wire error type for an exception (most specific class wins).

    An exception carrying its own wire ``type`` string -- e.g. a
    :class:`~repro.server.client.ServerError` relayed through the shard
    router -- keeps it, so typed errors survive proxying.
    """
    carried = getattr(error, "type", None)
    if isinstance(carried, str) and carried:
        return carried
    for cls, name in _ERROR_TYPES:
        if isinstance(error, cls):
            return name
    return "internal"


def error_response(request_id, error: BaseException | str,
                   error_type: str | None = None,
                   extra: dict | None = None) -> Response:
    """Build a failure response from an exception or a message.

    *extra* keys (e.g. ``retry_after`` on an ``overloaded`` error) are
    merged into the error object next to ``type`` and ``message``.
    """
    if isinstance(error, BaseException):
        payload = {"type": error_type or error_type_of(error),
                   "message": str(error)}
    else:
        payload = {"type": error_type or "internal", "message": error}
    if extra:
        payload.update(extra)
    return Response(ok=False, id=request_id, error=payload)


# -- dispatch ------------------------------------------------------------------

#: Ops whose typed requests do not go through a self-metering engine method;
#: :func:`dispatch` times these itself so ``stats`` covers every request type.
_DISPATCH_METERED = frozenset({"hello", "ping", "stats", "health"})


def dispatch(engine: DatabaseEngine, request: Request) -> Response:
    """Execute one request against the engine, mapping errors to responses."""
    if request.op not in REQUEST_TYPES:
        return error_response(
            request.id,
            f"unknown op {request.op!r} (known: {', '.join(REQUEST_OPS)})",
            error_type="protocol")
    try:
        typed = UpdateRequest.of(request.op, request.params)
        if request.op in _DISPATCH_METERED:
            with engine.metrics.time(request.op):
                result = typed.execute(engine)
        else:  # engine ops meter themselves (query/commit/...)
            result = typed.execute(engine)
        return Response(ok=True, id=request.id, result=result)
    except DatalogError as error:
        return error_response(request.id, error)
    except Exception as error:  # noqa: BLE001 - the wire must answer
        return error_response(request.id, error, error_type="internal")
