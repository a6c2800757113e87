"""Tests for the threaded TCP server and the blocking client.

Most tests host the server on a background thread inside this process; the
end-to-end test at the bottom drives the real ``repro serve`` command in a
subprocess and checks the full lifecycle the acceptance criteria describe:
serve, commit, check, monitor, stats, graceful shutdown, recovery.
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.core.durable import DurableDatabase
from repro.server import DatabaseClient, DatabaseEngine, ServerError, ServerThread
from repro.server.server import FP_PRE_DISPATCH, FP_SEND_FRAME
from repro.workloads import employment_database

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def connect_with_deadline(port: int, deadline: float = 10.0,
                          **client_kwargs) -> DatabaseClient:
    """Connect, retrying refusals and capacity errors until *deadline*.

    Slow CI boxes free connection slots (and bind listening sockets) on
    their own schedule; retrying against a deadline instead of sleeping a
    fixed amount is what keeps these tests honest there.  Waiting runs on
    the fault clock, so tests can virtualise it.
    """
    end = faults.clock.monotonic() + deadline
    last: Exception | None = None
    while True:
        try:
            return DatabaseClient(port=port, **client_kwargs)
        except ServerError as error:
            if error.type != "overloaded":
                raise
            last = error
        except (ConnectionError, socket.timeout) as error:
            last = error
        if faults.clock.monotonic() >= end:
            raise AssertionError(
                f"could not connect to port {port} within {deadline}s"
            ) from last
        faults.clock.sleep(0.02)


@pytest.fixture
def engine(tmp_path, employment_db):
    return DatabaseEngine.open(tmp_path / "d", initial=employment_db)


@pytest.fixture
def server(engine):
    thread = ServerThread(engine)
    port = thread.start()
    yield port
    thread.stop()


class TestClientServer:
    def test_handshake_and_ping(self, server):
        with DatabaseClient(port=server) as client:
            assert client.server_info["version"] == 1
            assert client.ping()

    def test_commit_query_roundtrip(self, server):
        with DatabaseClient(port=server) as client:
            result = client.commit("insert Works(Maria), insert La(Maria)")
            assert result["applied"]
            assert client.query("Works(x)") == [["Maria"]]

    def test_transaction_object_accepted(self, server):
        from repro.events.events import Transaction, insert

        with DatabaseClient(port=server) as client:
            result = client.commit(Transaction([insert("Works", "Zoe")]))
            assert result["applied"]

    def test_check_monitor_translate(self, server):
        with DatabaseClient(port=server) as client:
            assert not client.check("delete U_benefit(Dolors)")["ok"]
            changes = client.monitor("insert Works(Dolors)", ["Unemp"])
            assert changes["deactivated"]["Unemp"] == [["Dolors"]]
            result = client.translate("del Unemp(Dolors)")
            assert result["satisfiable"]

    def test_server_error_carries_wire_type(self, server):
        with DatabaseClient(port=server) as client:
            with pytest.raises(ServerError) as excinfo:
                client.call("commit", transaction="insert ((")
            assert excinfo.value.type == "parse"

    def test_session_survives_bad_requests(self, server):
        with DatabaseClient(port=server) as client:
            with pytest.raises(ServerError):
                client.call("no-such-op")
            assert client.ping()  # connection still usable

    def test_stats_count_requests(self, server):
        with DatabaseClient(port=server) as client:
            client.commit("insert Works(Maria)")
            client.query("Works(x)")
            stats = client.stats()
            assert stats["requests"]["commit"]["count"] >= 1
            assert stats["requests"]["query"]["count"] >= 1
            assert stats["counters"]["server.connections"] >= 1
            # Cache lifecycle state rides the same payload.
            assert stats["engine"]["cache_mode"] == "counting"
            assert isinstance(stats["engine"]["cache_epoch"], int)

    def test_two_clients_interleave(self, server):
        with DatabaseClient(port=server) as one, \
                DatabaseClient(port=server) as two:
            one.commit("insert Works(A1)")
            two.commit("insert Works(A2)")
            assert one.query("Works(x)") == [["A1"], ["A2"]]
            assert two.query("Works(x)") == [["A1"], ["A2"]]

    def test_concurrent_clients_no_lost_updates(self, tmp_path):
        import threading

        engine = DatabaseEngine.open(
            tmp_path / "many", initial=employment_database(10, seed=2))
        errors: list[BaseException] = []
        with ServerThread(engine) as port:
            def worker(index: int) -> None:
                try:
                    with DatabaseClient(port=port) as client:
                        for j in range(5):
                            client.commit(f"insert Works(C{index}_{j})")
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            with DatabaseClient(port=port) as client:
                assert client.stats()["engine"]["log_length"] == 30


class TestBackpressureAndTimeouts:
    def test_capacity_refusal(self, tmp_path, employment_db):
        engine = DatabaseEngine.open(tmp_path / "cap", initial=employment_db)
        with ServerThread(engine, max_connections=1) as port:
            with DatabaseClient(port=port) as first:
                assert first.ping()
                with pytest.raises(ServerError) as excinfo:
                    DatabaseClient(port=port)
                assert excinfo.value.type == "overloaded"
                assert excinfo.value.retry_after is not None
                assert excinfo.value.retry_after > 0
                assert engine.metrics.counter("server.shed") >= 1
            # Slot freed: a new connection succeeds (the server releases
            # it asynchronously, so retry against a deadline).
            with connect_with_deadline(port) as again:
                assert again.ping()

    def test_request_timeout(self, tmp_path, employment_db):
        # A one-shot sleep on the dispatch failpoint makes the first
        # request deterministically slower than the server timeout -- no
        # monkeypatching, and the delay is bounded instead of flaky.
        faults.arm(FP_PRE_DISPATCH, "sleep", param=0.5, times=1)
        engine = DatabaseEngine.open(tmp_path / "slow", initial=employment_db)
        with ServerThread(engine, request_timeout=0.05) as port:
            with DatabaseClient(port=port, handshake=False) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query("Unemp(x)")
                assert excinfo.value.type == "timeout"

    def test_timed_out_connection_keeps_serving(self, tmp_path,
                                                employment_db):
        """After a timeout the *same* connection is served by a successor
        thread; the overdue op keeps its in-flight slot for exactly as
        long as it really runs, and its late reply is never written."""
        nap = 1.0
        faults.arm(FP_PRE_DISPATCH, "sleep", param=nap, times=1)
        engine = DatabaseEngine.open(tmp_path / "slow", initial=employment_db)
        with ServerThread(engine, request_timeout=0.05) as port:
            with DatabaseClient(port=port, handshake=False,
                                timeout=10.0) as client:
                started = time.monotonic()
                with pytest.raises(ServerError) as excinfo:
                    client.query("Unemp(x)")
                assert excinfo.value.type == "timeout"
                assert client.ping()
                busy = client.health()["server"]
                assert time.monotonic() - started < nap, (
                    "too slow a box: the overdue op already woke up")
                # The overdue query and this very health request.
                assert busy["inflight"] == 2
                assert busy["sessions"] == 2
                assert busy["active_connections"] == 1
                deadline = time.monotonic() + 10
                while client.health()["server"]["inflight"] != 1:
                    assert time.monotonic() < deadline, "slot never freed"
                    time.sleep(0.02)
                assert time.monotonic() - started >= nap, (
                    "slot freed before the overdue op ended")
                # call() matches reply ids: a late reply to the query
                # would be the next line on the wire and fail this ping.
                assert client.ping()
                assert client.health()["server"]["sessions"] == 1
        assert engine.metrics.counter("server.request_timeouts") == 1

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_crash_in_dispatch_ends_that_session_only(self, tmp_path,
                                                      employment_db):
        """SimulatedCrash is a BaseException: it unwinds the session
        thread, which must still give back its in-flight slot."""
        faults.arm(FP_PRE_DISPATCH, "crash", times=1)
        engine = DatabaseEngine.open(tmp_path / "crash",
                                     initial=employment_db)
        with ServerThread(engine) as port:
            with DatabaseClient(port=port, handshake=False,
                                timeout=5.0) as doomed:
                with pytest.raises(ConnectionError):
                    doomed.ping()
            with DatabaseClient(port=port) as client:
                view = client.health()["server"]
                assert view["inflight"] == 1  # this health request alone
                assert view["active_connections"] == 1


class TestSlowOpLog:
    def test_slow_ops_logged_and_counted(self, engine, caplog):
        import logging

        with ServerThread(engine, slow_op_threshold=0.0) as port:
            with caplog.at_level(logging.WARNING, logger="repro.server"):
                with DatabaseClient(port=port) as client:
                    client.query("Unemp(x)")
        assert engine.metrics.counter("server.slow_ops") >= 1
        messages = [r.getMessage() for r in caplog.records]
        assert any("slow op" in m and "query" in m for m in messages)

    def test_slow_op_log_includes_trace_when_enabled(self, tmp_path,
                                                     employment_db, caplog):
        import logging

        from repro.obs import tracer as obs
        from tests import faultkit

        # A recursive program: its advance maintainer materialises on the
        # first read, so the logged trace has an evaluation span in it.
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=faultkit.with_recursion(employment_db))
        with obs.use():
            with ServerThread(engine, slow_op_threshold=0.0) as port:
                with caplog.at_level(logging.WARNING, logger="repro.server"):
                    with DatabaseClient(port=port, handshake=False) as client:
                        client.query("Unemp(x)")
        messages = [r.getMessage() for r in caplog.records]
        assert any("request.query" in m and "eval.materialize" in m
                   for m in messages)

    def test_fast_ops_not_logged_without_threshold(self, engine, caplog):
        import logging

        with ServerThread(engine) as port:
            with caplog.at_level(logging.WARNING, logger="repro.server"):
                with DatabaseClient(port=port) as client:
                    client.ping()
        assert engine.metrics.counter("server.slow_ops") == 0
        assert not [r for r in caplog.records if "slow op" in r.getMessage()]


class TestProtocolFaults:
    """The two protocol-layer failpoints: lost and torn response frames."""

    def test_dropped_ack_commit_still_durable(self, tmp_path, employment_db):
        """The classic crash-recovery trap: the commit is durable but the
        ack never reached the client.  Recovery must keep it."""
        directory = tmp_path / "d"
        engine = DatabaseEngine.open(directory, initial=employment_db)
        thread = ServerThread(engine, checkpoint_on_shutdown=False)
        port = thread.start()
        try:
            faults.arm(FP_SEND_FRAME, "drop", times=1)
            with DatabaseClient(port=port, handshake=False,
                                timeout=0.5) as client:
                with pytest.raises((TimeoutError, ConnectionError)):
                    client.commit("insert Works(Maria)")
        finally:
            thread.stop()
        recovered = DurableDatabase.open(directory)
        assert recovered.db.has_fact("Works", "Maria")

    def test_torn_frame_fails_the_client_not_the_server(self, tmp_path,
                                                        employment_db):
        from repro.server import protocol

        engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
        with ServerThread(engine) as port:
            faults.arm(FP_SEND_FRAME, "torn", param=0.5, times=1)
            with DatabaseClient(port=port, handshake=False,
                                timeout=5.0) as client:
                with pytest.raises((protocol.ProtocolError, ConnectionError,
                                    ValueError)):
                    client.ping()
            # The server keeps serving fresh connections.
            with connect_with_deadline(port) as again:
                assert again.ping()


class TestShutdown:
    def test_shutdown_request_checkpoints_and_recovers(self, tmp_path,
                                                       employment_db):
        directory = tmp_path / "d"
        engine = DatabaseEngine.open(directory, initial=employment_db)
        thread = ServerThread(engine)
        port = thread.start()
        with DatabaseClient(port=port) as client:
            client.commit("insert Works(Maria)")
            assert client.shutdown()["shutting_down"]
        thread.stop()
        # Engine was closed with a checkpoint: the WAL is folded in.
        recovered = DurableDatabase.open(directory)
        assert recovered.db.has_fact("Works", "Maria")
        assert recovered.log_length() == 0

    def test_shutdown_answers_inflight_work_and_wakes_idle_sessions(
            self, tmp_path, employment_db):
        directory = tmp_path / "d"
        engine = DatabaseEngine.open(directory, initial=employment_db)
        thread = ServerThread(engine)
        port = thread.start()
        idle = [socket.create_connection(("127.0.0.1", port), timeout=10)
                for _ in range(8)]
        parked = DatabaseClient(port=port, handshake=False, timeout=10.0)
        admin = DatabaseClient(port=port, handshake=False, timeout=10.0)
        outcome: dict = {}
        try:
            deadline = time.monotonic() + 10
            while engine.health()["server"]["active_connections"] < 10:
                assert time.monotonic() < deadline, "never all accepted"
                time.sleep(0.01)
            faults.arm(FP_PRE_DISPATCH, "sleep", param=0.6, times=1)
            committer = threading.Thread(target=lambda: outcome.update(
                parked.commit("insert Works(Maria)")))
            committer.start()
            while engine.health()["server"]["inflight"] < 1:
                assert time.monotonic() < deadline, "commit never dispatched"
                time.sleep(0.01)
            assert admin.shutdown()["shutting_down"]
            for sock in idle:  # parked in recv() server-side: woken, closed
                assert sock.recv(1) == b""
            committer.join(timeout=10)
            assert outcome.get("applied"), (
                f"in-flight commit was not answered: {outcome}")
            answered = time.monotonic()
            thread.stop()
            assert time.monotonic() - answered < 2.0
            assert not thread._thread.is_alive()
        finally:
            for sock in idle:
                sock.close()
            parked.close()
            admin.close()
            thread.stop()
        recovered = DurableDatabase.open(directory)
        assert recovered.db.has_fact("Works", "Maria")
        assert recovered.log_length() == 0  # closed with a checkpoint

    def test_shutdown_cuts_a_reply_nobody_reads(self, tmp_path,
                                                many_unemployed_db):
        """A peer that floods requests and never reads parks its session
        in sendall(); shutdown gives it one request timeout, then cuts."""
        engine = DatabaseEngine.open(tmp_path / "stall",
                                     initial=many_unemployed_db)
        thread = ServerThread(engine, request_timeout=0.2)
        port = thread.start()
        query = (b'{"v": 1, "op": "query", "params": {"goal": "Unemp(x)"}}'
                 b"\n")
        with socket.create_connection(("127.0.0.1", port)) as deaf:
            deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            deaf.settimeout(0.0)
            flood = query * 4000
            # ~80 MB of replies against a few MB of socket buffers: the
            # server ends up blocked writing and stops reading.
            with contextlib.suppress(BlockingIOError):
                while flood:
                    flood = flood[deaf.send(flood):]

            def answered() -> int:
                queries = engine.metrics.snapshot()["requests"].get("query")
                return queries["count"] if queries else 0

            deadline = time.monotonic() + 20
            before = -1
            while answered() == 0 or answered() != before:
                assert time.monotonic() < deadline, "server never stalled"
                before = answered()
                time.sleep(0.3)
            started = time.monotonic()
            thread.stop()
            assert not thread._thread.is_alive()
            assert time.monotonic() - started < 5.0


class TestImports:
    def test_serving_stack_does_not_import_asyncio(self):
        """The front-end is plain threads: importing it (and the CLI)
        must not pay for the asyncio package."""
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        subprocess.run(
            [sys.executable, "-c",
             "import repro.server, repro.cli, sys; "
             "assert 'asyncio' not in sys.modules; "
             "assert 'concurrent.futures' not in sys.modules"],
            env=env, check=True, timeout=60)


@pytest.mark.slow
class TestServeCommandEndToEnd:
    """The scripted acceptance run: real process, real sockets."""

    def test_serve_commit_monitor_stats_shutdown_recover(self, tmp_path):
        db_file = tmp_path / "db.dl"
        db_file.write_text("""
            La(Dolors). U_benefit(Dolors). Works(Pere). La(Pere).
            Unemp(x) <- La(x) & not Works(x).
            Ic1 <- Unemp(x) & not U_benefit(x).
        """)
        data_dir = tmp_path / "data"
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(data_dir),
             "--init", str(db_file), "--port", "0",
             "--port-file", str(port_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if port_file.exists() and port_file.read_text().strip():
                    break
                assert process.poll() is None, (
                    f"server died early:\n"
                    f"{process.stdout.read().decode(errors='replace')}")
                time.sleep(0.05)
            port = int(port_file.read_text().strip())

            # The port file appears when the socket is bound, but a slow
            # box may still be a beat away from accepting: retry.
            with connect_with_deadline(port, deadline=30.0) as client:
                assert client.commit(
                    "insert Works(Maria), insert La(Maria)")["applied"]
                assert client.check("delete U_benefit(Dolors)")["ok"] is False
                monitored = client.monitor("delete Works(Pere)", ["Unemp"])
                assert monitored["activated"]["Unemp"] == [["Pere"]]
                stats = client.stats()
                assert stats["requests"]["commit"]["count"] > 0
                assert stats["requests"]["monitor"]["count"] > 0
                client.shutdown()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()

        # Reopening the data directory recovers the committed state.
        recovered = DurableDatabase.open(data_dir)
        assert recovered.db.has_fact("Works", "Maria")
        assert recovered.db.has_fact("La", "Maria")
        # Maria was committed as employed, so only Dolors stays unemployed.
        assert recovered.db.query("Unemp(x)") == [("Dolors",)]
