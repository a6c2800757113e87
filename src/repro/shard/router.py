"""``ShardRouter``: the network face of a shard group.

Where :class:`~repro.shard.group.EngineGroup` holds its engines
in-process, the router fronts N *remote* shard servers (each a plain
``repro serve`` process) through one
:class:`~repro.server.resilient.ResilientClient` per shard -- reconnect,
jittered backoff and deadline budgets per backend.  It exposes the same
engine-shaped surface, so the existing :class:`DatabaseServer` serves it
unchanged (``repro route``): clients speak the ordinary JSON-lines
protocol to the router, the router speaks it onward to the shards.

Scatter-gather reads fan out over a thread pool (each backend call blocks
on its own socket, so shard servers evaluate genuinely in parallel);
cross-shard commits run the same 2PC as the in-process group, with
``prepare``/``decide`` travelling as wire ops.  Transport-level failures
surface as the retryable ``unavailable`` wire error; a shard's own typed
errors are relayed unchanged (see ``protocol.error_type_of``).

``stats``/``health`` degrade rather than fail when a shard is down: the
aggregate carries a typed ``degraded`` field naming the unreachable
shards, and ``ready`` goes false -- partial observability beats none
exactly when shards are flapping.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

from repro.datalog.errors import (
    DatalogError,
    RoutingError,
    SubscriptionError,
    UnavailableError,
)
from repro.events.events import Transaction
from repro.interpretations.upward import UpwardResult
from repro.problems import ICCheckResult
from repro.server.client import ConnectionLostError, DatabaseClient
from repro.server.engine import CommitOutcome
from repro.server.feed import FeedMerger, resync_frame
from repro.server.metrics import MetricsRegistry
from repro.server.resilient import (
    DeadlineExceeded,
    ResilientClient,
    RetriesExhausted,
)
from repro.shard.coordinator import (
    DecisionLog,
    Participant,
    TwoPhaseCoordinator,
)
from repro.shard.routing import RoutingTable


class _FeedTap:
    """One dedicated streaming connection to a shard server's feed.

    A tap holds its own :class:`DatabaseClient` (the router's pooled
    clients are strictly request/response) plus a daemon reader thread
    pumping pushed frames into the subscription's merger.  Backend ``seq``
    numbers are checked: a gap, a ``closed`` frame or a lost connection
    all surface as a ``resync`` on the merged stream -- the subscriber
    re-pulls, which is always safe.
    """

    def __init__(self, shard: int, host: str, port: int, goals,
                 merger: FeedMerger, *, timeout: float = 30.0):
        self.shard = shard
        self._merger = merger
        self._stopped = False
        self._client = DatabaseClient(host, port, timeout=timeout)
        try:
            self.info = self._client.subscribe(goals, emit_empty=True)
        except BaseException:
            self._client.close()
            raise
        self._sub_id = self.info["subscription_id"]
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"feed-tap-{shard}-{self._sub_id}")
        self._thread.start()

    def _run(self) -> None:
        expected = 1
        while not self._stopped:
            try:
                pushed = self._client.next_frame()
            except DatalogError:
                if not self._stopped:
                    self._merger.on_frame(
                        self.shard, resync_frame(0, "tap-lost"))
                return
            if pushed.get("feed") != self._sub_id:
                continue
            if pushed.get("seq") != expected:
                self._merger.on_frame(self.shard, resync_frame(0, "gap"))
            seq = pushed.get("seq")
            expected = (seq if isinstance(seq, int) else expected) + 1
            frame = pushed.get("frame") or {}
            if frame.get("kind") == "closed":
                self._merger.on_frame(
                    self.shard, resync_frame(0, "tap-closed"))
                return
            self._merger.on_frame(self.shard, frame)

    def close(self) -> None:
        self._stopped = True
        try:
            self._client.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)


class ShardRouter:
    """Scatter-gather front over remote shard servers (see module doc).

    Parameters
    ----------
    endpoints:
        ``(host, port)`` per shard, in shard-index order; must match the
        routing table's ``n_shards``.
    routing:
        the partition map (normally loaded from the group directory).
    decisions:
        the 2PC decision log; the router is the coordinator, so this must
        live on the router's own durable storage.
    client_options:
        extra :class:`ResilientClient` keyword arguments (``timeout``,
        ``max_attempts``, ``deadline``, ``seed`` ...).
    """

    def __init__(self, endpoints: list[tuple[str, int]],
                 routing: RoutingTable, decisions: DecisionLog, *,
                 metrics: MetricsRegistry | None = None,
                 **client_options):
        if len(endpoints) != routing.n_shards:
            raise RoutingError(
                f"routing table expects {routing.n_shards} shard(s), got "
                f"{len(endpoints)} endpoint(s)")
        self._endpoints = list(endpoints)
        self._routing = routing
        self.metrics = metrics or MetricsRegistry()
        self.health_extras: list[Callable[[], dict]] = []
        self._clients = [
            ResilientClient(host, port, **client_options)
            for host, port in self._endpoints
        ]
        # A ResilientClient owns one socket: serialise per-shard access.
        self._locks = [threading.Lock() for _ in self._clients]
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, len(self._clients)),
            thread_name_prefix="router-gather")
        self._coordinator = TwoPhaseCoordinator(decisions, self.metrics)
        self._participants = [
            Participant(
                f"shard-{index}",
                prepare=lambda t, txn_id, i=index: self._call(
                    i, "prepare", transaction=t.to_text(), txn_id=txn_id),
                decide=lambda txn_id, decision, i=index: self._call(
                    i, "decide", txn_id=txn_id, decision=decision),
            )
            for index in range(len(self._clients))
        ]
        self._feed_lock = threading.Lock()
        self._feeds: dict[str, dict] = {}
        self._feed_ids = itertools.count(1)
        self._client_timeout = float(client_options.get("timeout", 30.0))
        self._closed = False

    # -- backend plumbing ------------------------------------------------------

    def _call(self, index: int, op: str, **params) -> dict:
        """One backend call: per-shard lock, per-shard latency, typed errors."""
        try:
            with self._locks[index], \
                    self.metrics.time(f"shard.{index}.{op}"):
                return self._clients[index].call(op, **params)
        except (ConnectionLostError, RetriesExhausted, DeadlineExceeded,
                OSError) as error:
            host, port = self._endpoints[index]
            raise UnavailableError(
                f"shard {index} ({host}:{port}) is unavailable for "
                f"{op}: {error}") from error

    def _scatter(self, targets: list[int], op: str, **params) -> list[dict]:
        if len(targets) == 1:
            return [self._call(targets[0], op, **params)]
        self.metrics.increment("router.fanout", len(targets))
        futures = [self._pool.submit(self._call, index, op, **params)
                   for index in targets]
        return [future.result() for future in futures]

    def _gather_degraded(self, op: str
                         ) -> tuple[dict[int, dict], dict[int, BaseException]]:
        results: dict[int, dict] = {}
        errors: dict[int, BaseException] = {}
        futures = {
            index: self._pool.submit(self._call, index, op)
            for index in range(self.n_shards)
        }
        for index, future in futures.items():
            try:
                results[index] = future.result()
            except DatalogError as error:
                errors[index] = error
        return results, errors

    def _single_shard(self, op: str) -> int:
        if self.n_shards == 1:
            return 0
        raise RoutingError(
            f"'{op}' needs one consistent state and cannot run against a "
            f"{self.n_shards}-shard router; send it to a single shard")

    # -- introspection ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._clients)

    @property
    def routing(self) -> RoutingTable:
        return self._routing

    @property
    def decisions(self) -> DecisionLog:
        return self._coordinator.decisions

    @property
    def description(self) -> str:
        backends = ",".join(f"{host}:{port}"
                            for host, port in self._endpoints)
        return f"router over {backends}"

    def close(self, checkpoint: bool = True) -> None:
        """Close backend connections (never the shard servers themselves)."""
        if self._closed:
            return
        self._closed = True
        with self._feed_lock:
            feeds, self._feeds = dict(self._feeds), {}
        for entry in feeds.values():
            for tap in entry["taps"]:
                tap.close()
        try:
            for client in self._clients:
                client.close()
        finally:
            self._coordinator.decisions.close()
            self._pool.shutdown(wait=True)

    def checkpoint(self) -> None:
        for index in range(self.n_shards):
            self._call(index, "checkpoint")

    # -- reads -----------------------------------------------------------------

    def query(self, goal: str) -> list[tuple]:
        with self.metrics.time("query"):
            targets = self._routing.shards_for_goal(goal)
            results = self._scatter(targets, "query", goal=goal)
            if len(results) == 1:
                return [tuple(row) for row in results[0]["answers"]]
            merged = {tuple(row)
                      for result in results for row in result["answers"]}
            return sorted(merged, key=str)

    def upward(self, transaction: Transaction,
               predicates: Iterable[str] | None = None) -> UpwardResult:
        with self.metrics.time("upward"):
            parts = self._routing.split(transaction)
            if not parts:
                parts = {0: transaction}
            items = sorted(parts.items())
            extra = ({"predicates": list(predicates)}
                     if predicates is not None else {})
            self.metrics.increment("router.fanout", len(items))
            futures = [
                self._pool.submit(self._call, index, "upward",
                                  transaction=sub.to_text(), **extra)
                for index, sub in items
            ]
            results = [UpwardResult.from_dict(f.result()) for f in futures]
            if len(results) == 1:
                return results[0]
            insertions: dict[str, frozenset] = {}
            deletions: dict[str, frozenset] = {}
            for result in results:
                for predicate, rows in result.insertions.items():
                    insertions[predicate] = \
                        insertions.get(predicate, frozenset()) | rows
                for predicate, rows in result.deletions.items():
                    deletions[predicate] = \
                        deletions.get(predicate, frozenset()) | rows
            return UpwardResult(insertions, deletions, transaction)

    def check(self, transaction: Transaction) -> ICCheckResult:
        with self.metrics.time("check"):
            parts = self._routing.split(transaction)
            if not parts:
                parts = {0: transaction}
            items = sorted(parts.items())
            results = [
                ICCheckResult.from_dict(self._call(
                    index, "check", transaction=sub.to_text()))
                for index, sub in items
            ]
            if len(results) == 1:
                return results[0]
            violations: list = []
            for verdict in results:
                violations.extend(verdict.violations)
            return ICCheckResult(all(v.ok for v in results),
                                 tuple(violations), transaction)

    def monitor(self, transaction: Transaction,
                conditions: Iterable[str] | None = None):
        from repro.problems.monitoring import MonitorResult

        index = self._single_shard("monitor")
        return MonitorResult.from_dict(self._call(
            index, "monitor", transaction=transaction.to_text(),
            conditions=list(conditions or ())))

    def downward(self, requests):
        raise RoutingError(
            "'downward' is not routable; send it to a single shard")

    def repair(self, verify: bool = False):
        raise RoutingError(
            "'repair' is not routable; send it to a single shard")

    # -- aggregated stats/health -----------------------------------------------

    def stats(self) -> dict:
        results, errors = self._gather_degraded("stats")
        payload = {
            "engine": {
                "shards": self.n_shards,
                "facts": sum(r["engine"]["facts"]
                             for r in results.values()),
                "in_doubt": sum(r["engine"].get("in_doubt", 0)
                                for r in results.values()),
                "decisions": len(self.decisions),
            },
            "shards": {str(index): results.get(index)
                       for index in range(self.n_shards)},
            **self.metrics.snapshot(),
        }
        if errors:
            payload["degraded"] = self._degraded(errors)
        return payload

    def health(self) -> dict:
        results, errors = self._gather_degraded("health")
        ready = bool(results) and not errors and all(
            r.get("ready") for r in results.values())
        payload = {
            "live": True,
            "ready": ready and not self._closed,
            "shards": {str(index): results.get(index)
                       for index in range(self.n_shards)},
            "in_doubt": sorted(
                txn_id for r in results.values()
                for txn_id in r.get("in_doubt", ())),
        }
        if errors:
            payload["degraded"] = self._degraded(errors)
        for provider in list(self.health_extras):
            try:
                extra = provider()
            except Exception:
                continue
            if isinstance(extra, dict):
                payload.update(extra)
        return payload

    @staticmethod
    def _degraded(errors: dict[int, BaseException]) -> dict:
        from repro.server import protocol

        return {
            "shards": sorted(errors),
            "errors": {
                str(index): {"type": protocol.error_type_of(error),
                             "message": str(error)}
                for index, error in errors.items()
            },
        }

    # -- change-feed subscriptions ---------------------------------------------

    def feed_subscribe(self, goals, callback: Callable[[dict], None], *,
                       emit_empty: bool = False) -> dict:
        """Register one standing query across every shard server.

        Opens a dedicated streaming tap per shard (``emit_empty`` on the
        backend, so every coordinated commit yields a frame from every
        participant) and merges the per-shard frames into *callback*:
        exactly one frame per cross-shard commit, in decision order.  A
        tap that loses its backend degrades to a ``resync`` on the merged
        stream rather than silently missing deltas.
        """
        del emit_empty  # empty merged frames are always dropped
        merger = FeedMerger(callback)
        taps: list[_FeedTap] = []
        try:
            for shard, (host, port) in enumerate(self._endpoints):
                try:
                    taps.append(_FeedTap(shard, host, port, goals, merger,
                                         timeout=self._client_timeout))
                except (ConnectionLostError, OSError) as error:
                    raise UnavailableError(
                        f"shard {shard} ({host}:{port}) is unavailable "
                        f"for subscribe: {error}") from error
        except BaseException:
            for tap in taps:
                tap.close()
            raise
        with self._feed_lock:
            sub_id = f"sub-{next(self._feed_ids)}"
            self._feeds[sub_id] = {"merger": merger, "taps": taps}
        self.metrics.increment("feed.subscriptions")
        info = taps[-1].info
        return {"subscription_id": sub_id, "goals": info["goals"],
                "predicates": info["predicates"],
                "epoch": max(tap.info.get("epoch", 0) for tap in taps)}

    def feed_unsubscribe(self, subscription_id: str) -> dict:
        entry = None
        if isinstance(subscription_id, str) and subscription_id:
            with self._feed_lock:
                entry = self._feeds.pop(subscription_id, None)
        if entry is None:
            raise SubscriptionError(
                f"unknown subscription_id: {subscription_id!r}")
        for tap in entry["taps"]:
            tap.close()
        return {"unsubscribed": subscription_id}

    def _feed_mergers(self) -> list[FeedMerger]:
        with self._feed_lock:
            return [entry["merger"] for entry in self._feeds.values()]

    # -- writes ----------------------------------------------------------------

    def commit(self, transaction: Transaction,
               on_violation: str | None = None,
               timeout: float | None = None,
               txn_id: str | None = None) -> CommitOutcome:
        import uuid

        parts = self._routing.split(transaction)
        if len(parts) <= 1:
            index, sub = (next(iter(parts.items())) if parts
                          else (0, transaction))
            params: dict = {"transaction": sub.to_text()}
            if on_violation is not None:
                params["on_violation"] = on_violation
            if timeout is not None:
                params["timeout"] = timeout
            if txn_id is not None:
                params["txn_id"] = txn_id
            self.metrics.increment("router.single_shard_commits")
            return CommitOutcome.from_dict(
                self._call(index, "commit", **params))
        if on_violation not in (None, "reject"):
            raise RoutingError(
                f"cross-shard commits support only the 'reject' policy, "
                f"not {on_violation!r}")
        if txn_id is None:
            txn_id = uuid.uuid4().hex
        self.metrics.increment("router.cross_shard_commits")
        self.metrics.increment("router.fanout", len(parts))
        pairs = [(self._participants[index], sub)
                 for index, sub in sorted(parts.items())]
        # Mergers buffer frames the shards push while applying phase two,
        # then emit one merged frame per decided transaction.
        mergers = self._feed_mergers()
        shard_ids = sorted(parts)
        for merger in mergers:
            merger.begin(txn_id, shard_ids)
        try:
            with self.metrics.time("commit"):
                outcome = self._coordinator.commit(pairs, txn_id, transaction)
        except BaseException:
            for merger in mergers:
                merger.abort(txn_id)
            raise
        for merger in mergers:
            if outcome.applied:
                merger.commit(txn_id)
            else:
                merger.abort(txn_id)
        return outcome

    def prepare(self, transaction: Transaction, txn_id: str) -> dict:
        if self.n_shards == 1:
            return self._call(0, "prepare", transaction=transaction.to_text(),
                              txn_id=txn_id)
        raise RoutingError(
            "a router cannot itself be a 2PC participant; send 'prepare' "
            "to an individual shard")

    def decide(self, txn_id: str, decision: str) -> dict:
        if self.n_shards == 1:
            return self._call(0, "decide", txn_id=txn_id, decision=decision)
        raise RoutingError(
            "a router cannot itself be a 2PC participant; send 'decide' "
            "to an individual shard")
