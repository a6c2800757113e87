"""Typed update requests -- one hierarchy for CLI, wire protocol and library.

Historically the system had three parallel request representations: event
literals built by :mod:`repro.events.requests`, raw dict payloads decoded
by :mod:`repro.server.protocol`, and argparse namespaces in
:mod:`repro.cli`.  This module collapses them: every operation is an
:class:`UpdateRequest` subclass that

- serialises itself with :meth:`~UpdateRequest.to_wire` /
  :meth:`~UpdateRequest.from_wire` (the protocol's ``{"op", "params"}``
  shape, with legacy payload variants still accepted),
- executes against a server engine with :meth:`~UpdateRequest.execute`
  (returning the JSON-ready result dict the wire carries), and
- runs locally against an :class:`~repro.core.processor.UpdateProcessor`
  with :meth:`~UpdateRequest.run` (returning rich result objects).

The CLI builds typed requests from flags, the protocol dispatches by
deserialising into them, and embedders construct them directly -- one
validation path, so wire semantics cannot drift from library semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Mapping

from repro.datalog.errors import DatalogError
from repro.datalog.rules import Literal
from repro.events.events import Transaction, parse_transaction
from repro.events.requests import parse_request, request_text
from repro.serde import answers_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.processor import UpdateProcessor
    from repro.server.engine import DatabaseEngine


class WireFormatError(DatalogError):
    """A request payload that does not deserialise into a typed request."""


#: Registry of concrete request types by wire op (filled by subclassing).
REQUEST_TYPES: dict[str, type["UpdateRequest"]] = {}

_POLICIES = ("reject", "maintain", "ignore")


@dataclass
class UpdateRequest:
    """Base class of every typed request (see module docstring)."""

    #: The wire operation name; registered automatically on subclassing.
    op: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.op:
            REQUEST_TYPES[cls.op] = cls

    # -- wire form -------------------------------------------------------------

    def params(self) -> dict:
        """The JSON-ready parameter payload (no ``op``)."""
        return {}

    def to_wire(self) -> dict:
        """The protocol payload: ``{"op": ..., "params": {...}}``."""
        payload: dict = {"op": self.op}
        params = self.params()
        if params:
            payload["params"] = params
        return payload

    @classmethod
    def from_params(cls, params: dict) -> "UpdateRequest":
        """Build a request of this type from a parameter payload."""
        return cls()

    @staticmethod
    def of(op: str, params: dict | None = None) -> "UpdateRequest":
        """Deserialise one operation; the protocol dispatcher's entry point."""
        request_type = REQUEST_TYPES.get(op)
        if request_type is None:
            raise WireFormatError(
                f"unknown op {op!r} (known: {', '.join(sorted(REQUEST_TYPES))})")
        return request_type.from_params(params or {})

    @staticmethod
    def from_wire(payload: dict) -> "UpdateRequest":
        """Deserialise a full ``{"op", "params"}`` payload."""
        op = payload.get("op")
        if not isinstance(op, str) or not op:
            raise WireFormatError("payload needs a non-empty string 'op'")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise WireFormatError("payload 'params' must be an object")
        return UpdateRequest.of(op, params)

    # -- execution -------------------------------------------------------------

    def execute(self, engine: "DatabaseEngine") -> dict:
        """Execute against a serving engine; returns the wire result dict."""
        raise NotImplementedError

    def run(self, processor: "UpdateProcessor"):
        """Run locally against an update processor; returns result objects."""
        raise DatalogError(
            f"'{self.op}' is only meaningful against a server engine")


# -- parameter coercion helpers ------------------------------------------------


def _wire_string(params: dict, name: str) -> str:
    value = params.get(name)
    if not isinstance(value, str) or not value.strip():
        raise WireFormatError(f"'{name}' must be a non-empty string")
    return value


def _wire_transaction(params: dict) -> Transaction:
    return parse_transaction(_wire_string(params, "transaction"))


def _coerce_transaction(transaction: Transaction | str) -> Transaction:
    if isinstance(transaction, str):
        return parse_transaction(transaction)
    return transaction


def _coerce_requests(requests) -> tuple[Literal, ...]:
    if isinstance(requests, (Literal, str)):
        requests = [requests]
    coerced: list[Literal] = []
    for item in requests:
        if isinstance(item, str):
            coerced.extend(parse_request(piece)
                           for piece in item.split(";") if piece.strip())
        else:
            coerced.append(item)
    return tuple(coerced)


# -- concrete requests ---------------------------------------------------------


@dataclass
class HelloRequest(UpdateRequest):
    """Version/identity handshake."""

    op: ClassVar[str] = "hello"

    def execute(self, engine: "DatabaseEngine") -> dict:
        from repro.server.protocol import PROTOCOL_VERSION, known_ops

        return {"server": "repro", "version": PROTOCOL_VERSION,
                "ops": known_ops()}


@dataclass
class PingRequest(UpdateRequest):
    """Liveness probe."""

    op: ClassVar[str] = "ping"

    def execute(self, engine: "DatabaseEngine") -> dict:
        return {"pong": True}


@dataclass
class QueryRequest(UpdateRequest):
    """Evaluate a goal in the current state."""

    op: ClassVar[str] = "query"
    goal: str = ""

    def params(self) -> dict:
        return {"goal": self.goal}

    @classmethod
    def from_params(cls, params: dict) -> "QueryRequest":
        return cls(goal=_wire_string(params, "goal"))

    def execute(self, engine: "DatabaseEngine") -> Mapping:
        """``{"answers": [[value, ...], ...]}``.  A memoised goal's result
        comes already encoded (:func:`~repro.serde.answers_result`): a memo
        hit is neither rebuilt here nor re-encoded in the reply."""
        return answers_result(engine.query(self.goal))

    def run(self, processor: "UpdateProcessor"):
        return processor.db.query(self.goal)


@dataclass
class UpwardRequest(UpdateRequest):
    """Induced derived events of a transaction (Section 4 upward)."""

    op: ClassVar[str] = "upward"
    transaction: Transaction = field(default_factory=Transaction)
    predicates: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.transaction = _coerce_transaction(self.transaction)

    def params(self) -> dict:
        payload: dict = {"transaction": self.transaction.to_text()}
        if self.predicates is not None:
            payload["predicates"] = list(self.predicates)
        return payload

    @classmethod
    def from_params(cls, params: dict) -> "UpwardRequest":
        predicates = params.get("predicates")
        if predicates is not None and (
                not isinstance(predicates, list)
                or not all(isinstance(p, str) for p in predicates)):
            raise WireFormatError("'predicates' must be a list of strings")
        return cls(transaction=_wire_transaction(params),
                   predicates=tuple(predicates) if predicates is not None
                   else None)

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.upward(self.transaction, self.predicates).to_dict()

    def run(self, processor: "UpdateProcessor"):
        return processor.upward(self.transaction, self.predicates)


@dataclass
class CheckRequest(UpdateRequest):
    """Integrity constraint checking (5.1.1) without applying."""

    op: ClassVar[str] = "check"
    transaction: Transaction = field(default_factory=Transaction)

    def __post_init__(self) -> None:
        self.transaction = _coerce_transaction(self.transaction)

    def params(self) -> dict:
        return {"transaction": self.transaction.to_text()}

    @classmethod
    def from_params(cls, params: dict) -> "CheckRequest":
        return cls(transaction=_wire_transaction(params))

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.check(self.transaction).to_dict()

    def run(self, processor: "UpdateProcessor"):
        return processor.check(self.transaction)


@dataclass
class MonitorRequest(UpdateRequest):
    """Condition monitoring (5.1.2)."""

    op: ClassVar[str] = "monitor"
    transaction: Transaction = field(default_factory=Transaction)
    conditions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.transaction = _coerce_transaction(self.transaction)
        self.conditions = tuple(self.conditions)

    def params(self) -> dict:
        return {"transaction": self.transaction.to_text(),
                "conditions": list(self.conditions)}

    @classmethod
    def from_params(cls, params: dict) -> "MonitorRequest":
        conditions = params.get("conditions")
        if (not isinstance(conditions, list) or not conditions
                or not all(isinstance(c, str) for c in conditions)):
            raise WireFormatError(
                "'conditions' must be a non-empty list of strings")
        return cls(transaction=_wire_transaction(params),
                   conditions=tuple(conditions))

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.monitor(self.transaction, self.conditions).to_dict()

    def run(self, processor: "UpdateProcessor"):
        return processor.monitor(self.transaction, self.conditions)


@dataclass
class DownwardRequest(UpdateRequest):
    """View updating / the downward interpretation (5.2)."""

    op: ClassVar[str] = "downward"
    requests: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        self.requests = _coerce_requests(self.requests)

    def params(self) -> dict:
        return {"requests": [request_text(l) for l in self.requests]}

    @classmethod
    def from_params(cls, params: dict) -> "DownwardRequest":
        raw = params.get("requests")
        if isinstance(raw, str):  # legacy ';'-joined payload
            raw = [piece for piece in raw.split(";") if piece.strip()]
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(r, str) for r in raw)):
            raise WireFormatError(
                "'requests' must be a non-empty list of strings "
                "(e.g. [\"ins P(A)\", \"not del Q(B)\"])")
        return cls(requests=tuple(parse_request(piece) for piece in raw))

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.downward(list(self.requests)).to_dict()

    def run(self, processor: "UpdateProcessor"):
        return processor.downward(list(self.requests))


@dataclass
class RepairRequest(UpdateRequest):
    """Candidate repairs of an inconsistent database (5.2.3)."""

    op: ClassVar[str] = "repair"
    verify: bool = False

    def params(self) -> dict:
        return {"verify": self.verify} if self.verify else {}

    @classmethod
    def from_params(cls, params: dict) -> "RepairRequest":
        return cls(verify=bool(params.get("verify", False)))

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.repair(verify=self.verify).to_dict()

    def run(self, processor: "UpdateProcessor"):
        return processor.repair(verify=self.verify)


@dataclass
class CommitRequest(UpdateRequest):
    """Checked, durable, group-committed transaction execution."""

    op: ClassVar[str] = "commit"
    transaction: Transaction = field(default_factory=Transaction)
    on_violation: str | None = None
    #: Bound (seconds) on waiting for the commit's batch; expiry surfaces
    #: as a ``conflict-timeout`` wire error.
    timeout: float | None = None
    #: Idempotency key: retries carrying the same id get the recorded
    #: outcome of the first applied attempt instead of re-applying.
    txn_id: str | None = None

    def __post_init__(self) -> None:
        self.transaction = _coerce_transaction(self.transaction)

    def params(self) -> dict:
        payload: dict = {"transaction": self.transaction.to_text()}
        if self.on_violation is not None:
            payload["on_violation"] = self.on_violation
        if self.timeout is not None:
            payload["timeout"] = self.timeout
        if self.txn_id is not None:
            payload["txn_id"] = self.txn_id
        return payload

    @classmethod
    def from_params(cls, params: dict) -> "CommitRequest":
        policy = params.get("on_violation")
        if policy is not None and policy not in _POLICIES:
            raise WireFormatError(f"unknown on_violation policy: {policy!r}")
        timeout = params.get("timeout")
        if timeout is not None:
            if not isinstance(timeout, (int, float)) or timeout <= 0:
                raise WireFormatError("'timeout' must be a positive number")
            timeout = float(timeout)
        txn_id = params.get("txn_id")
        if txn_id is not None and (
                not isinstance(txn_id, str) or not txn_id.strip()):
            raise WireFormatError("'txn_id' must be a non-empty string")
        return cls(transaction=_wire_transaction(params),
                   on_violation=policy, timeout=timeout, txn_id=txn_id)

    def execute(self, engine: "DatabaseEngine") -> dict:
        outcome = engine.commit(self.transaction,
                                on_violation=self.on_violation,
                                timeout=self.timeout,
                                txn_id=self.txn_id)
        return outcome.to_dict()

    def run(self, processor: "UpdateProcessor"):
        return processor.execute(self.transaction,
                                 on_violation=self.on_violation or "reject")


@dataclass
class PrepareRequest(UpdateRequest):
    """2PC phase 1 (sharded serving): durably vote on one shard's slice.

    Only meaningful against a :class:`~repro.server.engine.DatabaseEngine`
    acting as a cross-shard-commit participant; see :mod:`repro.shard`.
    """

    op: ClassVar[str] = "prepare"
    transaction: Transaction = field(default_factory=Transaction)
    txn_id: str = ""

    def __post_init__(self) -> None:
        self.transaction = _coerce_transaction(self.transaction)

    def params(self) -> dict:
        return {"transaction": self.transaction.to_text(),
                "txn_id": self.txn_id}

    @classmethod
    def from_params(cls, params: dict) -> "PrepareRequest":
        return cls(transaction=_wire_transaction(params),
                   txn_id=_wire_string(params, "txn_id"))

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.prepare(self.transaction, self.txn_id)


@dataclass
class DecideRequest(UpdateRequest):
    """2PC phase 2 (sharded serving): deliver the coordinator's decision."""

    op: ClassVar[str] = "decide"
    txn_id: str = ""
    decision: str = "abort"

    def params(self) -> dict:
        return {"txn_id": self.txn_id, "decision": self.decision}

    @classmethod
    def from_params(cls, params: dict) -> "DecideRequest":
        decision = _wire_string(params, "decision")
        if decision not in ("commit", "abort"):
            raise WireFormatError(
                f"'decision' must be 'commit' or 'abort', not {decision!r}")
        return cls(txn_id=_wire_string(params, "txn_id"), decision=decision)

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.decide(self.txn_id, self.decision)


@dataclass
class SubscribeRequest(UpdateRequest):
    """Register a standing query; the server pushes change-feed frames.

    ``goals`` are derived-predicate goals, each a bare predicate name or
    an atom with constants at bound positions (``"Unemp(Maria)"``).  The
    subscription is bound to the *connection* that sent it: the server
    intercepts this op at the session layer and pushes frames down the
    same socket (see docs/SUBSCRIPTIONS.md), so executing it through the
    plain dispatcher -- which can only return one response -- is a typed
    error rather than a silently frame-less success.
    """

    op: ClassVar[str] = "subscribe"
    goals: tuple[str, ...] = ()
    #: Shard-internal: push a frame for every commit even when this
    #: subscription's restriction is empty, so a router's merger can tell
    #: a complete 2PC frame set from a still-incomplete one.
    emit_empty: bool = False

    def __post_init__(self) -> None:
        self.goals = tuple(self.goals)

    def params(self) -> dict:
        payload: dict = {"goals": list(self.goals)}
        if self.emit_empty:
            payload["emit_empty"] = True
        return payload

    @classmethod
    def from_params(cls, params: dict) -> "SubscribeRequest":
        from repro.server.feed import parse_goals

        raw = params.get("goals")
        if isinstance(raw, str):
            raw = [raw]
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(g, str) for g in raw)):
            raise WireFormatError(
                "'goals' must be a non-empty list of goal strings "
                "(e.g. [\"Unemp\", \"Emp(x, Sales)\"])")
        parse_goals(raw)  # malformed filters fail at decode, typed
        return cls(goals=tuple(raw),
                   emit_empty=bool(params.get("emit_empty", False)))

    def execute(self, engine: "DatabaseEngine") -> dict:
        from repro.datalog.errors import SubscriptionError

        # Validate eagerly so a non-streaming host still yields the most
        # specific error (unknown/base predicates beat transport shape).
        check_goals = getattr(engine, "_check_goals", None)
        if check_goals is not None:
            check_goals(list(self.goals))
        raise SubscriptionError(
            "subscribe is only available on a streaming server "
            "connection; this transport cannot deliver feed frames")


@dataclass
class UnsubscribeRequest(UpdateRequest):
    """Deregister a standing query by its subscription id."""

    op: ClassVar[str] = "unsubscribe"
    subscription_id: str = ""

    def params(self) -> dict:
        return {"subscription_id": self.subscription_id}

    @classmethod
    def from_params(cls, params: dict) -> "UnsubscribeRequest":
        return cls(subscription_id=_wire_string(params, "subscription_id"))

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.feed_unsubscribe(self.subscription_id)


@dataclass
class StatsRequest(UpdateRequest):
    """Engine + metrics (+ tracing aggregates, when enabled) snapshot."""

    op: ClassVar[str] = "stats"

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.stats()


@dataclass
class CheckpointRequest(UpdateRequest):
    """Fold the WAL into a fresh snapshot."""

    op: ClassVar[str] = "checkpoint"

    def execute(self, engine: "DatabaseEngine") -> dict:
        engine.checkpoint()
        return {"checkpointed": True}


@dataclass
class HealthRequest(UpdateRequest):
    """Liveness/readiness probe: WAL, cache epoch, dedup, shed counters.

    Unlike ``stats`` this stays answerable on a closed (draining) engine
    and takes no locks -- it is meant for load balancers and retrying
    clients, not dashboards.
    """

    op: ClassVar[str] = "health"

    def execute(self, engine: "DatabaseEngine") -> dict:
        return engine.health()


__all__ = [
    "CheckRequest",
    "CheckpointRequest",
    "CommitRequest",
    "DecideRequest",
    "DownwardRequest",
    "HealthRequest",
    "HelloRequest",
    "MonitorRequest",
    "PingRequest",
    "PrepareRequest",
    "QueryRequest",
    "REQUEST_TYPES",
    "RepairRequest",
    "StatsRequest",
    "SubscribeRequest",
    "UnsubscribeRequest",
    "UpdateRequest",
    "UpwardRequest",
    "WireFormatError",
]
