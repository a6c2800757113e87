"""Threaded TCP server speaking the JSON-lines protocol.

One :class:`DatabaseEngine` serves any number of connections, each on its
own blocking **session thread**: it reads a line, decodes it, passes
admission, dispatches into the engine and writes the reply itself.  The
engine is thread-safe and blocking, so nothing is handed to another
thread on the way.  Beside the sessions run the **accept** loop (whoever
calls :meth:`DatabaseServer.serve_until_shutdown`), a per-connection
**feed writer** started by the first ``subscribe``, and one **watch**
thread for request timeouts: a request that outlives its timeout is
answered with a typed error by a *successor* session thread that takes
the connection over, while the overdue thread finishes the work
silently, still holding its in-flight slot.

Admission control sheds load the server cannot absorb: connections beyond
``max_connections`` and requests beyond ``max_inflight`` get a typed
``overloaded`` error carrying a ``retry_after`` hint (backpressure the
client can act on), counted in ``server.shed``.  A request whose
``deadline_ms`` budget is already spent is refused with a ``deadline``
error instead of doing work for a caller that stopped waiting.  Shutdown
-- whether from the ``shutdown`` request, a signal, or
:meth:`DatabaseServer.request_shutdown` -- stops accepting, wakes idle
sessions, lets in-flight requests finish and be answered, and checkpoints
the WAL.

Use :func:`run` for a foreground server (the ``repro serve`` command) and
:class:`ServerThread` to host a server inside another process (tests,
examples, notebooks).
"""

from __future__ import annotations

import collections
import contextlib
import json
import logging
import socket
import threading
import time
from pathlib import Path

from repro import faults
from repro.datalog.errors import DatalogError
from repro.obs import tracer as obs
from repro.requests import UpdateRequest
from repro.server import protocol
from repro.server.engine import DatabaseEngine
from repro.server.feed import closed_frame

logger = logging.getLogger("repro.server")

FP_PRE_DISPATCH = faults.register(
    "server.pre_dispatch",
    "on the session thread, before a request dispatches (a 'sleep' action "
    "deterministically triggers the per-request timeout)")
FP_SEND_FRAME = faults.register(
    "server.send_frame",
    "outbound response frame: 'drop' discards the ack, 'torn' sends a "
    "partial frame and closes -- a flaky network, simulated")
FP_FEED_FRAME = faults.register(
    "server.feed_frame",
    "outbound change-feed frame: 'drop' loses one pushed frame (the "
    "subscriber must detect the seq gap and resync), 'torn' sends a "
    "partial frame and closes")

#: Session-level ops: a subscription is bound to the connection that
#: registers it, so these never reach the engine dispatcher.
FEED_OPS = ("subscribe", "unsubscribe")

#: Backoff hint (seconds) carried by every ``overloaded`` error.
RETRY_AFTER = 0.05


def _through(failpoint: str, data: bytes, **context) -> bytes | None:
    """What an armed frame failpoint lets onto the wire.

    All of *data* normally, ``None`` when the frame is dropped, a proper
    prefix when it is torn (the sender then aborts the connection).
    """
    action = faults.failpoint(failpoint, **context)
    if action is None:
        return data
    if action.kind == "drop":
        return None
    if action.kind == "torn":
        fraction = action.param if action.param is not None else 0.5
        return data[:max(1, min(int(len(data) * fraction), len(data) - 1))]
    return data


class _Connection:
    """One accepted socket and what its threads share.

    The buffered reader outlives any one session thread (a successor
    after a timeout continues where the overdue thread stopped reading);
    the write lock keeps reply and feed frames whole on the way out.
    ``owner`` is the one session thread that may read, reply and close;
    ``expiry`` (with the id and deadline of the request it belongs to) is
    set while the owner has a request in the engine.  Both change only
    under the server's lock.
    """

    def __init__(self, server: "DatabaseServer", sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb", buffering=65536)
        self.write_lock = threading.Lock()
        self.channel = _FeedChannel(server, self)
        self.owner: threading.Thread | None = None
        self.expiry: float | None = None
        self.request_id = None
        self.deadline_s: float | None = None

    def send(self, data: bytes) -> None:
        with self.write_lock:
            self.sock.sendall(data)

    def abort(self) -> None:
        """Fail every blocked or later read and write: the owner sees EOF
        and tears down, a ``sendall`` stuck on a stalled peer ``EPIPE``."""
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)

    def close(self) -> None:
        """Owner only: stop the feed writer, then free the socket."""
        self.abort()
        self.channel.close()
        self.reader.close()
        self.sock.close()


class _SubState:
    """Per-subscription delivery state (wire id + monotone sequence)."""

    __slots__ = ("sub_id", "seq")

    def __init__(self) -> None:
        self.sub_id: str | None = None
        self.seq = 0


class _FeedChannel:
    """One connection's bounded change-feed queue and its writer thread.

    Commit threads enqueue frames through the engine's
    :class:`~repro.server.feed.FeedBus` callbacks; enqueueing is a lock,
    an append and a notify -- it never blocks, so the commit path cannot
    stall on a slow subscriber.  The writer thread (started by the first
    ``subscribe``) sends queued frames down the socket.  When the queue
    hits its capacity (the server's ``max_inflight`` admission budget) the
    subscriber is dropped: the queue is cleared, every subscription gets
    a terminal ``closed`` frame with ``error_type="feed_overflow"``, and
    the engine-side subscriptions are removed.
    """

    def __init__(self, server: "DatabaseServer", conn: _Connection):
        self._server = server
        self._conn = conn
        self._cond = threading.Condition()
        self._queue: collections.deque = collections.deque()
        self._writer: threading.Thread | None = None
        self._overflowed = False
        self._closed = False
        #: sub_id -> _SubState for every live subscription on this session.
        self.subs: dict[str, _SubState] = {}

    @property
    def capacity(self) -> int:
        return self._server.max_inflight

    # -- session-op handlers (session thread) ----------------------------------

    def subscribe(self, goals, emit_empty: bool = False) -> dict:
        engine = self._server.engine
        state = _SubState()
        # Registration takes the engine's read lock while committers
        # publish under its write lock and then need this channel's lock,
        # so the channel lock cannot be held across it.  A commit may
        # therefore enqueue frames before the id below is assigned; the
        # writer leaves them queued until it is.
        info = engine.feed_subscribe(
            list(goals), lambda frame: self._enqueue(state, frame),
            emit_empty=emit_empty)
        with self._cond:
            state.sub_id = info["subscription_id"]
            self.subs[state.sub_id] = state
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._drain, name="repro-feed", daemon=True)
                self._writer.start()
            self._cond.notify()
        engine.metrics.increment("feed.subscribed")
        return {**info, "capacity": self.capacity}

    def unsubscribe(self, subscription_id: str) -> dict:
        result = self._server.engine.feed_unsubscribe(subscription_id)
        with self._cond:
            self.subs.pop(subscription_id, None)
        self._server.engine.metrics.increment("feed.unsubscribed")
        return result

    def close(self) -> None:
        """Session teardown: deregister everything, join the writer
        (the connection is already aborted, so it cannot be stuck)."""
        with self._cond:
            self._closed = True
            self._queue.clear()
            subs = list(self.subs)
            self.subs.clear()
            self._cond.notify()
        for sub_id in subs:
            with contextlib.suppress(DatalogError):
                self._server.engine.feed_unsubscribe(sub_id)
        if self._writer is not None:
            self._writer.join()

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- delivery --------------------------------------------------------------

    def _enqueue(self, state: _SubState, frame: dict) -> None:
        """Bus callback; runs on committing threads.  Never blocks."""
        with self._cond:
            if self._closed or self._overflowed:
                return
            overflow = len(self._queue) >= self.capacity
            if overflow:
                self._overflowed = True
                self._queue.clear()
            else:
                state.seq += 1
                self._queue.append((state, state.seq, frame))
            depth = len(self._queue)
            self._cond.notify()
        metrics = self._server.engine.metrics
        metrics.set_gauge("feed.queue_depth", depth)
        if overflow:
            metrics.increment("feed.overflow")

    def _drain(self) -> None:
        """Writer thread: send queued frames until the channel closes."""
        try:
            while True:
                with self._cond:
                    while not (self._closed or self._overflowed
                               or (self._queue and
                                   self._queue[0][0].sub_id is not None)):
                        self._cond.wait()
                    if self._closed:
                        return
                    item = (None if self._overflowed
                            else self._queue.popleft())
                if item is None:
                    self._close_overflowed()
                else:
                    state, seq, frame = item
                    self._write_frame(state.sub_id, seq, frame)
        except OSError:
            pass  # the peer is gone; its session thread closes the channel

    def _close_overflowed(self) -> None:
        """Drop every subscription after an overflow (typed close)."""
        engine = self._server.engine
        final = closed_frame(
            "feed_overflow",
            f"subscriber fell more than {self.capacity} frames behind "
            "(the server's max_inflight budget); dropped -- resubscribe "
            "and re-pull")
        with self._cond:
            dropped = list(self.subs.items())
        for sub_id, state in dropped:
            with contextlib.suppress(DatalogError):
                engine.feed_unsubscribe(sub_id)
            state.seq += 1
            with contextlib.suppress(OSError):  # peer gone: still clean up
                self._write_frame(sub_id, state.seq, final)
        engine.metrics.increment("feed.dropped_subscribers")
        with self._cond:
            for sub_id, _ in dropped:
                self.subs.pop(sub_id, None)
            self._overflowed = False
            self._queue.clear()
        engine.metrics.set_gauge("feed.queue_depth", 0)

    def _write_frame(self, sub_id: str | None, seq: int,
                     frame: dict) -> None:
        payload = {"v": protocol.PROTOCOL_VERSION, "feed": sub_id,
                   "seq": seq, "frame": frame}
        data = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        out = _through(FP_FEED_FRAME, data, sub_id=sub_id, seq=seq)
        if out is None:
            return  # the frame is lost; the seq gap tells the client
        self._conn.send(out)
        if out is data:
            self._server.engine.metrics.increment("feed.frames_sent")
        else:
            self._conn.abort()


class DatabaseServer:
    """The threaded TCP front-end of one :class:`DatabaseEngine`.

    ``slow_op_threshold`` (seconds) turns on the slow-op log: any request
    whose dispatch exceeds it is logged at WARNING on the ``repro.server``
    logger -- with its span breakdown when tracing is enabled -- and
    counted in the ``server.slow_ops`` metric.
    """

    #: A ``deadline_ms`` below this (seconds) is refused outright -- the
    #: budget cannot cover even the dispatch overhead.
    MIN_DEADLINE_SECONDS = 0.001

    #: Default in-flight request budget.
    DEFAULT_MAX_INFLIGHT = 32

    def __init__(self, engine: DatabaseEngine, host: str = "127.0.0.1",
                 port: int = 0, *, max_connections: int = 64,
                 request_timeout: float = 30.0,
                 max_inflight: int | None = None,
                 max_line_bytes: int = 1 << 20,
                 checkpoint_on_shutdown: bool = True,
                 slow_op_threshold: float | None = None):
        self.engine = engine
        self.host = host
        self.port = port  # rebound to the real port by start()
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        #: In-flight request budget: dispatches beyond it are shed with an
        #: ``overloaded`` error instead of piling threads onto the engine's
        #: locks -- enough to keep the engine busy without hiding
        #: sustained overload from clients.
        self.max_inflight = (max_inflight if max_inflight is not None
                             else self.DEFAULT_MAX_INFLIGHT)
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.max_line_bytes = max_line_bytes
        self.checkpoint_on_shutdown = checkpoint_on_shutdown
        self.slow_op_threshold = slow_op_threshold
        self._listener: socket.socket | None = None
        self._watcher: threading.Thread | None = None
        self._shutdown_requested = False
        self._finished = False
        # One lock for everything the threads share below (and each
        # connection's owner/expiry); the watch thread sleeps on it.
        self._lock = threading.Lock()
        self._rearm = threading.Condition(self._lock)
        self._connections: set[_Connection] = set()
        self._threads: set[threading.Thread] = set()
        self._inflight = 0
        self._wake_at = float("inf")

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Bind and listen; sets :attr:`port`.

        Connections queue in the backlog until a thread runs
        :meth:`serve_until_shutdown`.
        """
        self._listener = socket.create_server(
            (self.host, self.port), backlog=128,
            family=socket.AF_INET6 if ":" in self.host else socket.AF_INET)
        self.port = self._listener.getsockname()[1]
        self._watcher = threading.Thread(
            target=self._watch, name="repro-watch", daemon=True)
        self._watcher.start()
        # Surface the admission-control view through the engine's health
        # payload without the engine importing the server layer.
        if self._health_extra not in self.engine.health_extras:
            self.engine.health_extras.append(self._health_extra)

    def _health_extra(self) -> dict:
        with self._lock:
            inflight = self._inflight
            sessions = len(self._threads)
            channels = [conn.channel for conn in self._connections]
        return {"server": {
            "active_connections": len(channels),
            "sessions": sessions,
            "max_connections": self.max_connections,
            "inflight": inflight,
            "max_inflight": self.max_inflight,
            "shed": self.engine.metrics.counter("server.shed"),
            "deadline_rejected":
                self.engine.metrics.counter("server.deadline_rejected"),
            "feed": {
                "subscriptions": sum(len(c.subs) for c in channels),
                "queue_depth": sum(c.queue_depth() for c in channels),
                "queue_capacity": self.max_inflight,
            },
        }}

    def serve_until_shutdown(self) -> None:
        """Accept on this thread until shutdown, then wind down gracefully."""
        try:
            while not self._shutdown_requested:
                try:
                    sock, _ = self._listener.accept()
                except OSError:
                    if self._shutdown_requested:
                        break
                    logger.exception("accept failed")
                    time.sleep(0.1)  # e.g. EMFILE: do not spin
                    continue
                self._on_connection(sock)
        finally:
            self._wind_down()

    def request_shutdown(self) -> None:
        """Flag the server to shut down (any thread, or a signal handler)."""
        self._shutdown_requested = True
        if self._listener is not None:
            # Wakes a blocked accept() (EINVAL on Linux); the accepting
            # thread closes the listener and winds down.
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)

    def _wind_down(self) -> None:
        """Stop accepting, let sessions finish, close the engine."""
        self._shutdown_requested = True
        self._listener.close()
        for conn in self._live_connections():
            # Idle sessions are parked in recv(): give them EOF.  Their
            # write side stays open, so a session busy in the engine
            # still answers its request before it sees the flag.
            with contextlib.suppress(OSError):
                conn.sock.shutdown(socket.SHUT_RD)
        # Work in the engine is waited for however long it takes; a reply
        # its peer will not read is cut after one request timeout, by
        # when every request in flight has been answered or timed out.
        cutter = threading.Timer(self.request_timeout, self._abort_all)
        cutter.daemon = True
        cutter.start()
        while True:
            with self._lock:
                threads = list(self._threads)
            if not threads:
                break
            for thread in threads:
                thread.join()
        cutter.cancel()
        with self._lock:
            self._finished = True
            self._rearm.notify()
        self._watcher.join()
        self.engine.close(checkpoint=self.checkpoint_on_shutdown)

    def _live_connections(self) -> list[_Connection]:
        with self._lock:
            return list(self._connections)

    def _abort_all(self) -> None:
        for conn in self._live_connections():
            conn.abort()

    # -- request timeouts ------------------------------------------------------

    def _watch(self) -> None:
        """Watch thread: hand each overdue request's connection over.

        Sleeps until the earliest expiry, and never longer than one
        ``request_timeout``: a request admitted later then cannot expire
        before the wake time, so only requests carrying a shorter
        ``deadline_ms`` ever have to notify this thread.
        """
        with self._lock:
            while not self._finished:
                now = time.monotonic()
                self._wake_at = now + self.request_timeout
                for conn in self._connections:
                    if conn.expiry is None:
                        continue
                    if conn.expiry > now:
                        self._wake_at = min(self._wake_at, conn.expiry)
                        continue
                    conn.expiry = None
                    # The successor owns conn from here: the overdue
                    # thread finds that out in _release and stays silent.
                    # Started under the lock so that wind-down never
                    # joins a registered but unstarted thread.
                    self._session_thread(
                        conn, self._overdue_response(conn)).start()
                self._rearm.wait(self._wake_at - now)

    def _admit(self, conn: _Connection, request_id,
               deadline_s: float | None) -> bool:
        """Take an in-flight slot and arm the timeout, or refuse."""
        timeout = (self.request_timeout if deadline_s is None
                   else min(self.request_timeout, deadline_s))
        with self._lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            conn.request_id, conn.deadline_s = request_id, deadline_s
            conn.expiry = time.monotonic() + timeout
            if conn.expiry < self._wake_at:
                self._wake_at = conn.expiry
                self._rearm.notify()
        return True

    def _release(self, conn: _Connection) -> bool:
        """Free the slot once the work truly ends; True if the reply is ours.

        An overdue request keeps its slot until its thread gets here --
        the session stopped waiting, the engine is still busy -- and by
        then the connection, and the reply with it, is its successor's.
        """
        with self._lock:
            self._inflight -= 1
            owned = conn.owner is threading.current_thread()
            if owned:
                conn.expiry = None
        return owned

    def _overdue_response(self, conn: _Connection) -> protocol.Response:
        deadline_s = conn.deadline_s
        if deadline_s is not None and deadline_s < self.request_timeout:
            self.engine.metrics.increment("server.deadline_rejected")
            return protocol.error_response(
                conn.request_id,
                f"request outlived its {deadline_s:g}s deadline budget",
                error_type="deadline")
        self.engine.metrics.increment("server.request_timeouts")
        return protocol.error_response(
            conn.request_id,
            f"request exceeded the {self.request_timeout}s server timeout",
            error_type="timeout")

    # -- sessions --------------------------------------------------------------

    def _overloaded(self, request_id, what: str) -> protocol.Response:
        self.engine.metrics.increment("server.shed")
        return protocol.error_response(
            request_id, f"{what}; retry after {RETRY_AFTER}s",
            error_type="overloaded", extra={"retry_after": RETRY_AFTER})

    def _on_connection(self, sock: socket.socket) -> None:
        """Accept thread: admit the connection and start its session."""
        # A reply followed by a feed frame must not wait out Nagle's
        # algorithm against the peer's delayed ACK (40 ms).
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(self, sock)
        thread = None
        with self._lock:
            if len(self._connections) < self.max_connections:
                self._connections.add(conn)
                thread = self._session_thread(conn)
        if thread is not None:
            self.engine.metrics.increment("server.connections")
            thread.start()
            return
        self.engine.metrics.increment("server.refused_connections")
        with contextlib.suppress(OSError):
            self._send(conn, self._overloaded(
                None, f"server at connection capacity "
                      f"({self.max_connections})"))
        conn.close()

    def _session_thread(self, conn: _Connection,
                        first: protocol.Response | None = None
                        ) -> threading.Thread:
        """A registered, unstarted owner thread for *conn* (lock held)."""
        thread = threading.Thread(target=self._session, args=(conn, first),
                                  name="repro-session", daemon=True)
        conn.owner = thread
        self._threads.add(thread)
        return thread

    def _session(self, conn: _Connection,
                 first: protocol.Response | None) -> None:
        """Serve *conn* until EOF, shutdown or a successor takes it over.

        A successor starts by sending *first*, the timeout error of the
        request its predecessor is still busy with.
        """
        me = threading.current_thread()
        try:
            if first is not None:
                self._send(conn, first)
            limit = self.max_line_bytes
            while not self._shutdown_requested:
                # A fragment cut short by EOF is served like a line: it
                # gets a typed error, and the next read ends the session.
                line = conn.reader.readline(limit + 1)
                if not line:
                    break  # client closed
                if len(line) > limit and not line.endswith(b"\n"):
                    self._send(conn, protocol.error_response(
                        None, "request line too long", error_type="protocol"))
                    break
                if line.strip() and not self._serve_one(line, conn):
                    break
        except OSError:
            pass  # the peer vanished mid-read or mid-write
        finally:
            with self._lock:
                owner = conn.owner is me
            try:
                if owner:
                    conn.close()
            finally:
                # Last, so that wind-down joins this thread before it
                # closes the engine the channel just unsubscribed from.
                with self._lock:
                    if owner:
                        self._connections.discard(conn)
                    self._threads.discard(me)

    def _serve_one(self, line: bytes, conn: _Connection) -> bool:
        """Handle one request line; False ends this thread's session."""
        try:
            request = protocol.decode_request(line)
        except protocol.ProtocolError as error:
            return self._send(conn, protocol.error_response(None, error))
        decoded = time.perf_counter()
        if request.op == "shutdown":
            self._send(conn, protocol.Response(
                ok=True, id=request.id, result={"shutting_down": True}))
            self.engine.metrics.increment("server.shutdown_requests")
            self.request_shutdown()
            return False
        if request.op in FEED_OPS:
            return self._send(conn, self._feed_op(request, conn.channel))
        # Retry/deadline metadata stamped by ResilientClient travels as
        # params but is the server's to consume, not the typed request's.
        deadline_s, meta_error = self._consume_meta(request)
        if meta_error is not None:
            return self._send(conn, meta_error)
        if not self._admit(conn, request.id, deadline_s):
            return self._send(conn, self._overloaded(
                request.id, f"server over its in-flight budget "
                            f"({self.max_inflight})"))
        try:
            response = self._dispatch(request)
        except Exception as error:
            # protocol.dispatch already maps engine errors to typed
            # responses, so anything landing here is infrastructure (an
            # injected fault).  One session must not take the server with
            # it -- but SimulatedCrash, a BaseException, still unwinds
            # this session by design.
            logger.exception("dispatch infrastructure failure")
            self.engine.metrics.increment("server.dispatch_failures")
            response = protocol.error_response(
                request.id, f"internal server error: {error}",
                error_type="internal")
        finally:
            owned = self._release(conn)
        if not owned:
            return False  # timed out: the successor has answered
        alive = self._send(conn, response)
        self.engine.metrics.observe("server.turnaround",
                                    time.perf_counter() - decoded)
        return alive

    def _feed_op(self, request: protocol.Request,
                 channel: _FeedChannel) -> protocol.Response:
        """Run subscribe/unsubscribe on the session's feed channel.

        Handled inline by the session thread (registration is a registry
        insert, not engine work, and takes no in-flight slot) so the
        subscription is live before the response is acked -- a commit
        racing the ack can only add frames *after* it, never in an
        unobservable gap.
        """
        try:
            typed = UpdateRequest.of(request.op, request.params)
            if request.op == "subscribe":
                result = channel.subscribe(typed.goals,
                                           emit_empty=typed.emit_empty)
            else:
                result = channel.unsubscribe(typed.subscription_id)
        except DatalogError as error:
            return protocol.error_response(request.id, error)
        except Exception as error:  # noqa: BLE001 - the wire must answer
            logger.exception("feed op failure")
            return protocol.error_response(
                request.id, f"internal server error: {error}",
                error_type="internal")
        return protocol.Response(ok=True, id=request.id, result=result)

    def _consume_meta(self, request: protocol.Request
                      ) -> tuple[float | None, protocol.Response | None]:
        """Peel ``deadline_ms``/``attempt`` off the params.

        Returns ``(deadline_seconds, error_response)``; a budget too small
        to cover even dispatch overhead is refused immediately (the caller
        has effectively stopped waiting already).
        """
        attempt = request.params.pop("attempt", None)
        if attempt is not None:
            self.engine.metrics.increment("retry.attempts")
        deadline_ms = request.params.pop("deadline_ms", None)
        if deadline_ms is None:
            return None, None
        if not isinstance(deadline_ms, (int, float)) or isinstance(
                deadline_ms, bool) or deadline_ms <= 0:
            return None, protocol.error_response(
                request.id, "'deadline_ms' must be a positive number",
                error_type="protocol")
        deadline_s = float(deadline_ms) / 1000.0
        if deadline_s < self.MIN_DEADLINE_SECONDS:
            self.engine.metrics.increment("server.deadline_rejected")
            return None, protocol.error_response(
                request.id,
                f"deadline budget of {deadline_ms:g}ms is below the "
                f"{self.MIN_DEADLINE_SECONDS * 1000:g}ms floor; refusing "
                "work the caller cannot wait for",
                error_type="deadline")
        return deadline_s, None

    def _dispatch(self, request: protocol.Request) -> protocol.Response:
        """Dispatch one request on this thread, watching for slow ops."""
        faults.failpoint(FP_PRE_DISPATCH, op=request.op)
        started = time.perf_counter()
        with obs.span(f"request.{request.op}") as span:
            response = protocol.dispatch(self.engine, request)
        elapsed = time.perf_counter() - started
        threshold = self.slow_op_threshold
        if threshold is not None and elapsed >= threshold:
            self.engine.metrics.increment("server.slow_ops")
            detail = ""
            if span is not obs.NULL_SPAN:
                detail = "\n" + obs.format_span(span)
            logger.warning("slow op %r took %.3fs (threshold %.3fs)%s",
                           request.op, elapsed, threshold, detail)
        return response

    @staticmethod
    def _send(conn: _Connection, response: protocol.Response) -> bool:
        """Write one reply; False once the connection is beyond use."""
        data = response.to_json().encode("utf-8") + b"\n"
        out = _through(FP_SEND_FRAME, data)
        if out is None:
            return True  # the work happened; only the ack is lost
        conn.send(out)
        if out is not data:
            conn.abort()
        return out is data


def run(engine: DatabaseEngine, *, host: str = "127.0.0.1", port: int = 0,
        port_file: str | Path | None = None, install_signal_handlers: bool = True,
        **server_kwargs) -> None:
    """Run a server in the foreground until shutdown (``repro serve``).

    ``port_file`` gets the bound port written to it once listening -- the
    scripting hook that makes ``--port 0`` usable.
    """
    server = DatabaseServer(engine, host, port, **server_kwargs)
    server.start()
    if install_signal_handlers:
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(ValueError):  # not the main thread
                signal.signal(signum,
                              lambda *_: server.request_shutdown())
    if port_file is not None:
        # Atomic write: pollers must never observe an empty file.
        target = Path(port_file)
        temporary = target.with_name(target.name + ".tmp")
        temporary.write_text(f"{server.port}\n")
        temporary.replace(target)
    served = getattr(engine, "description", None)
    if served is None:
        store = getattr(engine, "store", None)
        served = (str(store.directory) if store is not None
                  else type(engine).__name__)
    print(f"repro: serving {served} "
          f"on {server.host}:{server.port}", flush=True)
    server.serve_until_shutdown()


class ServerThread:
    """A server hosted on a background thread (tests and examples).

    >>> with ServerThread(engine) as port:
    ...     client = DatabaseClient(port=port)
    """

    def __init__(self, engine: DatabaseEngine, **server_kwargs):
        self._server = DatabaseServer(engine, **server_kwargs)
        self._thread: threading.Thread | None = None
        self.port: int | None = None

    def start(self) -> int:
        """Start serving; returns the bound port."""
        self._server.start()
        self.port = self._server.port
        self._thread = threading.Thread(
            target=self._server.serve_until_shutdown, name="repro-accept",
            daemon=True)
        self._thread.start()
        return self.port

    def stop(self, timeout: float = 10.0) -> None:
        """Request a graceful shutdown and join the thread."""
        self._server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> int:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
