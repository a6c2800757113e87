"""A small blocking JSON-lines client for the repro server.

Used by tests, benchmarks, ``repro call`` and the examples.  One socket,
one outstanding request at a time; responses are matched to requests by
id.  Failures reported by the server raise :class:`ServerError` carrying
the wire error type.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Iterable

from repro.datalog.errors import DatalogError
from repro.events.events import Transaction
from repro.requests import UpdateRequest
from repro.server import protocol


class ServerError(DatalogError):
    """An error response from the server (``.type`` is the wire type).

    ``retry_after`` is the server's backoff hint in seconds (set on
    ``overloaded`` errors, ``None`` otherwise).
    """

    def __init__(self, error_type: str, message: str,
                 retry_after: float | None = None):
        super().__init__(message)
        self.type = error_type
        self.retry_after = retry_after


class ConnectionLostError(DatalogError, ConnectionError):
    """The connection died (or desynchronised) mid-call.

    Raised instead of letting a later call misparse a half-read response:
    once a read times out or the stream breaks, the reply boundary is
    unknowable, so the client closes the socket and every subsequent call
    fails fast with this error.  Inherits :class:`ConnectionError` so
    existing ``except ConnectionError`` call sites keep working.
    """


class DatabaseClient:
    """A blocking client for one server connection.

    >>> with DatabaseClient(port=port) as client:
    ...     client.commit("insert Works(Maria)")
    ...     client.query("Works(x)")
    [['Maria']]
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 30.0, handshake: bool = True):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._broken: str | None = None
        self._frames: deque[dict] = deque()
        self.server_info: dict | None = None
        if handshake:
            try:
                self.server_info = self.call("hello")
            except BaseException:
                self.close()
                raise

    # -- plumbing --------------------------------------------------------------

    def call(self, op: str, **params) -> dict:
        """Send one request and return the result dict (or raise).

        A timeout or socket error mid-call leaves the stream position
        unknowable (the response may arrive half-read later), so the
        connection is closed and this -- and every later -- call raises
        :class:`ConnectionLostError` rather than misparsing.
        """
        if self._broken is not None:
            raise ConnectionLostError(
                f"connection is unusable after an earlier failure "
                f"({self._broken}); open a new client")
        self._next_id += 1
        request = protocol.Request(op=op, params=params, id=self._next_id)
        try:
            self._file.write(request.to_json().encode("utf-8") + b"\n")
            self._file.flush()
            payload = self._read_response_payload()
        except ConnectionLostError:
            raise
        except OSError as error:  # timeouts (socket.timeout) included
            self._mark_broken(f"{type(error).__name__}: {error}")
            raise ConnectionLostError(
                f"connection lost mid-call ({op}): {error}") from error
        response = protocol.response_of(payload)
        if not response.ok:
            error = response.error or {}
            retry_after = error.get("retry_after")
            raise ServerError(error.get("type", "internal"),
                              error.get("message", "unknown server error"),
                              retry_after=(float(retry_after)
                                           if retry_after is not None
                                           else None))
        if response.id is not None and response.id != self._next_id:
            raise protocol.ProtocolError(
                f"response id {response.id!r} does not match "
                f"request id {self._next_id!r}")
        return response.result or {}

    def _read_response_payload(self):
        """Read lines until a response arrives, buffering pushed feed frames;
        returns the response line's JSON value, each line parsed once.

        A connection holding subscriptions can receive feed frames (lines
        with a ``feed`` key instead of ``ok``) interleaved with responses;
        they are queued for :meth:`next_frame` rather than misparsed.
        """
        while True:
            line = self._file.readline()
            if not line:
                self._mark_broken("server closed the connection")
                raise ConnectionLostError("server closed the connection")
            payload = protocol.load_line(line)
            if not protocol.is_feed_frame(payload):
                return payload
            self._frames.append(payload)

    def _mark_broken(self, reason: str) -> None:
        self._broken = reason
        try:
            self.close()
        except OSError:
            pass

    @property
    def broken(self) -> str | None:
        """Why the connection is unusable (``None`` while healthy)."""
        return self._broken

    def next_frame(self, timeout: float | None = None) -> dict:
        """Block until the server pushes the next feed frame.

        Returns the pushed payload, e.g. ``{"v": 1, "feed": "sub-1",
        "seq": 3, "frame": {"kind": "delta", ...}}``.  Frames that arrived
        interleaved with earlier responses are returned first.  *timeout*
        (seconds) overrides the connection timeout for this one wait; on
        expiry the stream position is unknowable, so the connection is
        marked broken, like any other mid-read failure.
        """
        if self._frames:
            return self._frames.popleft()
        if self._broken is not None:
            raise ConnectionLostError(
                f"connection is unusable after an earlier failure "
                f"({self._broken}); open a new client")
        previous = self._sock.gettimeout()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            line = self._file.readline()
        except OSError as error:
            self._mark_broken(f"{type(error).__name__}: {error}")
            raise ConnectionLostError(
                f"connection lost waiting for a feed frame: {error}"
            ) from error
        finally:
            if timeout is not None and self._broken is None:
                try:
                    self._sock.settimeout(previous)
                except OSError:
                    pass
        if not line:
            self._mark_broken("server closed the connection")
            raise ConnectionLostError("server closed the connection")
        try:
            frame = protocol.load_line(line)
        except (protocol.ProtocolError, UnicodeDecodeError):
            frame = None
        if not protocol.is_feed_frame(frame):  # no request in flight: desync
            self._mark_broken("unexpected response while waiting for a frame")
            raise ConnectionLostError(
                "received a response line while waiting for a feed frame; "
                "the stream is desynchronised")
        return frame

    @property
    def pending_frames(self) -> int:
        """Feed frames buffered and waiting for :meth:`next_frame`."""
        return len(self._frames)

    def send(self, request: UpdateRequest) -> dict:
        """Send one typed :class:`~repro.requests.UpdateRequest`."""
        wire = request.to_wire()
        return self.call(wire["op"], **wire.get("params", {}))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "DatabaseClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- convenience wrappers --------------------------------------------------

    @staticmethod
    def _transaction_text(transaction: Transaction | str) -> str:
        if isinstance(transaction, Transaction):
            return ", ".join(
                ("insert " if e.is_insertion else "delete ") + str(e.atom())
                for e in transaction)
        return transaction

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def query(self, goal: str) -> list[list]:
        return self.call("query", goal=goal)["answers"]

    def commit(self, transaction: Transaction | str,
               on_violation: str | None = None,
               txn_id: str | None = None) -> dict:
        params: dict = {"transaction": self._transaction_text(transaction)}
        if on_violation is not None:
            params["on_violation"] = on_violation
        if txn_id is not None:
            params["txn_id"] = txn_id
        return self.call("commit", **params)

    def check(self, transaction: Transaction | str) -> dict:
        return self.call("check",
                         transaction=self._transaction_text(transaction))

    def upward(self, transaction: Transaction | str,
               predicates: Iterable[str] | None = None) -> dict:
        params: dict = {"transaction": self._transaction_text(transaction)}
        if predicates is not None:
            params["predicates"] = list(predicates)
        return self.call("upward", **params)

    def monitor(self, transaction: Transaction | str,
                conditions: Iterable[str]) -> dict:
        return self.call("monitor",
                         transaction=self._transaction_text(transaction),
                         conditions=list(conditions))

    def translate(self, requests: str | Iterable[str]) -> dict:
        if isinstance(requests, str):
            requests = [r for r in requests.split(";") if r.strip()]
        return self.call("downward", requests=list(requests))

    def repair(self, verify: bool = False) -> dict:
        return self.call("repair", verify=verify)

    def stats(self) -> dict:
        return self.call("stats")

    def health(self) -> dict:
        return self.call("health")

    def subscribe(self, goals: str | Iterable[str], *,
                  emit_empty: bool = False) -> dict:
        """Register a standing query; frames arrive via :meth:`next_frame`."""
        if isinstance(goals, str):
            goals = [goals]
        params: dict = {"goals": list(goals)}
        if emit_empty:
            params["emit_empty"] = True
        return self.call("subscribe", **params)

    def unsubscribe(self, subscription_id: str) -> dict:
        return self.call("unsubscribe", subscription_id=subscription_id)

    def checkpoint(self) -> dict:
        return self.call("checkpoint")

    def shutdown(self) -> dict:
        """Ask the server to shut down gracefully."""
        return self.call("shutdown")
