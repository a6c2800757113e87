"""Drive real servers over TCP and check everything they answer.

A :class:`Lifetime` is one server process with its generator connections:
spawn (timed: ``setup_s``) -> slices of load -> counters -> ``kill -9`` and
restart (timed: ``recovery_s``) -> the served state compared, predicate by
predicate, with the generator's model.  Load comes in short *slices* so the
caller can interleave several lifetimes: this machine's speed drifts by
tens of percent over seconds, and metrics measured side by side in time see
the same drift, where metrics measured one after the other would not.

A closed-loop slice runs one stream per connection (connection 0 on the
calling thread, the rest on one thread each) until its time is up; an
open-loop slice paces one connection at a fixed rate, times each request
from its due time, and the change feed is read on a second connection.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.server import ConnectionLostError, DatabaseClient, ServerError

from .catalogue import Workload
from .servers import Server
from .streams import Op, Stream, initial_database, verify

#: A subscriber that sees no frame for this long has lost the feed (its
#: lifetime may sit idle between slices for a few seconds).
FEED_TIMEOUT = 30.0
_MAX_REASONS = 5


@dataclass
class Tally:
    """What one connection observed."""

    samples: dict = field(default_factory=dict)     # class -> [seconds]
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    sched_lag: list = field(default_factory=list)

    def record(self, op: Op, seconds: float, why: str | None,
               timed: bool) -> None:
        self.attempted += 1
        if why is not None:
            self.fail(f"{op.kind}#{op.conn}.{op.index}: {why}")
        elif timed:
            self.samples.setdefault(op.cls, []).append(seconds)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < _MAX_REASONS:
            self.reasons.append(reason)

    def merge(self, other: "Tally") -> None:
        for key, values in other.samples.items():
            self.samples.setdefault(key, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[:_MAX_REASONS - len(self.reasons)])
        self.sched_lag.extend(other.sched_lag)


class Connection:
    """One client socket, its stream, and the commit replies it has seen."""

    def __init__(self, client: DatabaseClient, stream: Stream):
        self.client = client
        self.stream = stream
        self.tally = Tally()
        self._outcomes: dict[str, str] = {}

    def execute(self, op: Op) -> str | None:
        """Send *op*; returns why it failed, or ``None``."""
        try:
            result = self.client.call(op.op, **op.params)
        except ServerError as error:
            return f"server error {error.type}: {error}"
        why = verify(op, result, self.stream)
        if why is None and op.op == "commit":
            # A replayed txn_id must return its first outcome, byte for byte.
            outcome = json.dumps(result, sort_keys=True)
            first = self._outcomes.setdefault(op.txn_id, outcome)
            if first != outcome:
                return "replayed txn_id answered differently"
        return why

    def timed_call(self, op: Op, timed: bool) -> float:
        started = time.perf_counter()
        why = self.execute(op)
        seconds = time.perf_counter() - started
        self.tally.record(op, seconds, why, timed)
        return seconds

    def closed_loop(self, stop_at: float, timed: bool) -> None:
        """Next request only after the previous reply, until *stop_at*."""
        try:
            while time.perf_counter() < stop_at:
                self.timed_call(next(self.stream), timed)
        except (ConnectionLostError, OSError) as error:
            self.tally.attempted += 1
            self.tally.fail(f"transport: {error}")


class FeedWatch:
    """The subscriber connection: frame arrival times by ``txn_id``."""

    def __init__(self, client: DatabaseClient):
        self.client = client
        self.arrivals: dict[str, tuple[float, dict]] = {}
        self.resyncs = 0
        self.last: str | None = None
        client.subscribe("Unemp(x)")
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        try:
            while True:
                frame = self.client.next_frame(timeout=FEED_TIMEOUT)["frame"]
                now = time.perf_counter()
                if frame.get("kind") == "resync":
                    self.resyncs += 1
                elif frame.get("txn_id") is not None:
                    self.arrivals[frame["txn_id"]] = (now, frame)
                    if frame["txn_id"] == self.last:
                        return
        except ConnectionLostError:
            return

    def join(self) -> None:
        """Wait for the frame of ``self.last`` (set before that commit)."""
        self._thread.join(FEED_TIMEOUT + 1.0)
        self.client.close()


@dataclass
class FeedLedger:
    """What the feed owes: a frame per applied commit that moved ``Unemp``."""

    expected: dict = field(default_factory=dict)   # txn_id -> (due, frame,
    slice: int = 0                                 #           timed slice no.)
    acked: int = 0
    baseline: int = 0      # frames that had arrived before the first ack
    depth_max: int = 0


def open_loop(conn: Connection, rate: float, seconds: float, timed: bool,
              feed: FeedWatch, ledger: FeedLedger,
              clock=time.perf_counter, sleep=time.sleep) -> None:
    """Send on a fixed schedule; latency runs from each request's due time.

    A stall therefore charges every request that came due behind it.
    ``sched_lag`` is the lateness the generator itself caused: time past
    both the due time and the moment the connection became free.
    """
    start = clock()
    free_at = start
    if not ledger.acked:
        ledger.baseline = len(feed.arrivals)
    issued = 0
    while (due := start + issued / rate) < start + seconds:
        op = next(conn.stream)
        issued += 1
        if (wait := due - clock()) > 0:
            sleep(wait)
        sent = clock()
        if timed:
            conn.tally.sched_lag.append(max(0.0, sent - max(due, free_at)))
        why = conn.execute(op)
        free_at = clock()
        conn.tally.record(op, free_at - due, why, timed)
        if why is None and op.expect.get("feed"):
            ledger.acked += 1
            ledger.depth_max = max(
                ledger.depth_max,
                ledger.acked - (len(feed.arrivals) - ledger.baseline))
            if timed:
                ledger.expected[op.txn_id] = (due, op.expect["feed"],
                                              ledger.slice)


def _counters(stats: dict) -> dict:
    """Every counter of a ``stats`` reply; a group's shards are summed."""
    total = dict(stats.get("counters", {}))
    for shard in (stats.get("shards") or {}).values():
        for name, value in ((shard or {}).get("counters") or {}).items():
            total[name] = total.get(name, 0) + value
    return total


class Lifetime:
    """One server process over *n* people, and everything observed on it."""

    def __init__(self, workload: Workload, n: int, seed: int, workdir: Path):
        self.workload = workload
        self.n = n
        self.seed = seed
        self.workdir = Path(workdir)
        self.server = Server(workload.server, self.workdir)
        self.conns: list[Connection] = []
        self.feed: FeedWatch | None = None
        self.ledger = FeedLedger()
        self.tally = Tally()
        self.setup_s = 0.0
        self.rates: list[float] = []       # completions/s of each timed slice
        self.slices: list[dict] = []       # per timed slice: class -> [seconds]
        self.recoveries: list[float] = []
        self.peak_rss_mb = 0.0
        self.wal_bytes = 0
        self.applied = 0
        self.counters: dict = {}
        self.feed_counts: dict = {}
        self.wire_slice: dict = {}         # kind -> [seconds], one connection
        self.ping_rtt: list[float] = []
        self._control: DatabaseClient | None = None
        self._before: dict = {}
        self._health_before: dict = {}

    # -- spawn -----------------------------------------------------------------

    def start(self) -> None:
        """Spawn the server (timed), connect, subscribe."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        db = initial_database(self.n, self.seed)
        init = self.workdir / "db.dl"
        db.to_file(init)            # writing the input is not set-up time
        self.setup_s = self.server.start(init)
        self.conns = [
            Connection(self.server.connect(),
                       Stream(self.workload, self.n, self.seed, conn, db))
            for conn in range(self.workload.conns)]
        self._control = self.server.connect()
        if self.workload.loop == "open":
            self.feed = FeedWatch(self.server.connect())

    def replay(self, n_ops: int) -> None:
        """Connection 0 alone replays the first *n_ops* ops, each timed.

        These one-connection wire latencies are what the traced pass
        compares its in-process pipeline against; 200 pings follow.
        """
        first = self.conns[0]
        for op in first.stream.take(n_ops):
            seconds = first.timed_call(op, timed=False)
            self.wire_slice.setdefault(op.kind, []).append(seconds)
        for _ in range(200):
            started = time.perf_counter()
            self._control.ping()
            self.ping_rtt.append(time.perf_counter() - started)

    def mark(self) -> None:
        """Read the server's counters; :meth:`finish` reports the change."""
        self._before = _counters(self._control.stats())
        self._health_before = self._control.health().get("server", {})

    # -- load ------------------------------------------------------------------

    def drive(self, seconds: float, timed: bool) -> None:
        """One slice of this lifetime's workload."""
        before = [{cls: len(samples)
                   for cls, samples in conn.tally.samples.items()}
                  for conn in self.conns]
        started = time.perf_counter()
        if self.feed is not None:
            self.ledger.slice = len(self.slices)
            open_loop(self.conns[0], self.workload.rate, seconds, timed,
                      self.feed, self.ledger)
        else:
            stop_at = started + seconds
            threads = [threading.Thread(target=conn.closed_loop,
                                        args=(stop_at, timed))
                       for conn in self.conns[1:]]
            for thread in threads:
                thread.start()
            self.conns[0].closed_loop(stop_at, timed)
            for thread in threads:
                thread.join()
        if timed:
            elapsed = time.perf_counter() - started
            fresh: dict = {}
            for conn, lengths in zip(self.conns, before):
                for cls, samples in conn.tally.samples.items():
                    fresh.setdefault(cls, []).extend(
                        samples[lengths.get(cls, 0):])
            self.slices.append(fresh)
            self.rates.append(sum(map(len, fresh.values())) / elapsed)

    # -- the end ---------------------------------------------------------------

    def finish(self, kills: int, probe) -> None:
        """Counters, memory, *kills* crash recoveries, the state check.

        *probe* is called after every recovery (it samples the host's speed).
        """
        control, server = self._control, self.server
        self.peak_rss_mb = server.peak_rss_mb()
        after = _counters(control.stats())
        health = control.health().get("server", {})
        self.counters = {name: after[name] - self._before.get(name, 0)
                         for name in after}
        for name in ("shed", "deadline_rejected"):
            self.counters[f"server.{name}"] = \
                health.get(name, 0) - self._health_before.get(name, 0)
        issued = {key: sum(c.stream.issued[key] for c in self.conns)
                  for key in ("replay", "xshard", "applied")}
        self.applied = issued["applied"]
        for counter, key in (("dedup.hit", "replay"),
                             ("router.cross_shard_commits", "xshard")):
            if after.get(counter, 0) != issued[key]:
                self.tally.fail(
                    f"server counted {counter}={after.get(counter, 0)}, "
                    f"the generator issued {issued[key]}")
        self.wal_bytes = server.wal_bytes()
        if self.feed is not None:
            self._settle_feed()
        control.close()
        for conn in self.conns:
            self.tally.merge(conn.tally)
            conn.client.close()
        for _ in range(kills):
            server.kill()
            self.recoveries.append(server.recover())
            probe()
        with server.connect() as control:
            self._check_state(control)
        server.kill()

    def _settle_feed(self) -> None:
        """One last commit marks the end of the feed; then match each frame."""
        conn, feed = self.conns[0], self.feed
        marker = conn.stream.make("toggle")
        feed.last = marker.txn_id
        conn.timed_call(marker, timed=False)
        feed.join()
        for txn_id, (due, frame, slice_no) in self.ledger.expected.items():
            arrived = feed.arrivals.get(txn_id)
            if arrived is None:
                self.tally.fail(f"no feed frame for {txn_id}")
            elif any(sorted(arrived[1].get(side, {}).get("Unemp", []))
                     != sorted(frame[side])
                     for side in ("inserted", "deleted")):
                self.tally.fail(f"feed frame for {txn_id} differs from model")
            else:
                self.slices[slice_no].setdefault("feed_lag", []).append(
                    arrived[0] - due)
        self.feed_counts = {"frames_delivered": len(feed.arrivals),
                            "resyncs": feed.resyncs,
                            "queue_depth_max": self.ledger.depth_max}

    def _check_state(self, control: DatabaseClient) -> None:
        """The server must hold exactly what the models hold: every acked
        commit present, every rejected one absent -- after the kills, if
        any -- and the model itself must never have left consistency."""
        models = [conn.stream.model for conn in self.conns]
        for predicate in ("La", "Works", "U_benefit", "Unemp"):
            served = {row[0] for row in control.query(f"{predicate}(x)")}
            modelled = set()
            for model in models:
                modelled |= (model.unemp() if predicate == "Unemp"
                             else model.sets[predicate])
            self.tally.attempted += 1
            if served != modelled:
                self.tally.fail(f"served {predicate} differs from the model "
                                f"in {len(served ^ modelled)} rows")
        if any(model.ic1() for model in models):
            self.tally.fail("the model holds an Ic1 violation")
