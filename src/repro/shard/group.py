"""``EngineGroup``: N engines behind one engine-shaped front.

The group partitions the extensional database across N
:class:`~repro.server.engine.DatabaseEngine` instances (each with its own
WAL, dedup table and cache epoch) under one directory::

    group/
      routing.json     the partition map (repro.shard.routing)
      decisions.log    the 2PC decision log (repro.shard.coordinator)
      shard-0/ ...     one DurableDatabase directory per shard

It exposes the same surface :func:`repro.server.protocol.dispatch`
expects of an engine, so the existing :class:`DatabaseServer` serves a
group unchanged (``repro shard-serve``):

- **reads scatter-gather**: ``query`` fans out to the owning shards (one
  shard when the routing key is bound) and unions the answers; ``upward``
  and ``check`` split the transaction and merge per-shard results;
  ``stats``/``health`` aggregate all shards, degrading -- not failing --
  when a shard is down;
- **single-shard commits route directly** into that shard's group-commit
  machinery; **cross-shard commits run 2PC** through the coordinator;
- a 1-shard group is the degenerate case: every operation delegates
  straight to the single engine, so single-node behaviour is unchanged.

Operations that are only meaningful against one consistent state
(``monitor``, ``downward``, ``repair``) delegate on a 1-shard group and
raise a typed :class:`RoutingError` on a multi-shard one.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable

from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import DatalogError, RoutingError, SubscriptionError
from repro.events.events import Transaction
from repro.interpretations.upward import UpwardResult
from repro.problems import ICCheckResult
from repro.server.engine import CommitOutcome, DatabaseEngine
from repro.server.feed import FeedMerger
from repro.server.metrics import MetricsRegistry
from repro.shard.coordinator import (
    DECISIONS_NAME,
    DecisionLog,
    Participant,
    TwoPhaseCoordinator,
)
from repro.shard.routing import ROUTING_NAME, RoutingTable


def _error_payload(error: BaseException) -> dict:
    """The typed ``degraded`` entry for one unreachable shard."""
    from repro.server import protocol

    return {"type": protocol.error_type_of(error), "message": str(error)}


class EngineGroup:
    """A predicate/hash-partitioned group of engines (see module doc)."""

    def __init__(self, engines: list[DatabaseEngine], routing: RoutingTable,
                 decisions: DecisionLog, directory: Path | None = None,
                 metrics: MetricsRegistry | None = None):
        if len(engines) != routing.n_shards:
            raise RoutingError(
                f"routing table expects {routing.n_shards} shard(s), "
                f"got {len(engines)} engine(s)")
        self._engines = list(engines)
        self._routing = routing
        self._directory = Path(directory) if directory is not None else None
        self.metrics = metrics or MetricsRegistry()
        self.health_extras: list[Callable[[], dict]] = []
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, len(engines)),
            thread_name_prefix="shard-gather")
        self._coordinator = TwoPhaseCoordinator(decisions, self.metrics)
        self._participants = [
            Participant(f"shard-{index}", engine.prepare, engine.decide)
            for index, engine in enumerate(engines)
        ]
        self._feed_lock = threading.Lock()
        self._feeds: dict[str, dict] = {}
        self._feed_ids = itertools.count(1)
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(cls, directory, initial: DeductiveDatabase | None = None, *,
             shards: int | None = None,
             pinned: dict[str, int] | None = None,
             metrics: MetricsRegistry | None = None,
             **engine_kwargs) -> "EngineGroup":
        """Open (or create) a sharded database directory.

        A fresh directory partitions *initial* across ``shards`` engines
        and persists the routing table; an existing one reloads its table
        (``shards`` must then match, if given) and recovers every shard,
        resolving any in-doubt cross-shard transactions against the
        decision log.  *engine_kwargs* go to every member's
        :class:`DatabaseEngine`; ``cache_mode=`` / ``eval_engine=`` are
        accepted there and select nothing (each member's program picks
        its maintainer).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fresh = not (directory / ROUTING_NAME).exists()
        if fresh:
            base = initial if initial is not None else DeductiveDatabase()
            routing = RoutingTable.for_database(
                base, shards if shards is not None else 1, pinned=pinned)
            routing.save(directory)
        else:
            if initial is not None:
                raise RoutingError(
                    f"{directory} already holds a shard group; open it "
                    "without 'initial' or choose a fresh directory")
            routing = RoutingTable.load(directory)
            if shards is not None and shards != routing.n_shards:
                raise RoutingError(
                    f"{directory} is a {routing.n_shards}-shard group; "
                    f"cannot reopen it with {shards} shard(s)")
        engines = []
        for index in range(routing.n_shards):
            slice_db = (cls._partition(initial, routing, index)
                        if fresh else None)
            engine = DatabaseEngine.open(directory / f"shard-{index}",
                                         initial=slice_db, **engine_kwargs)
            cls._redeclare_schema(engine, routing)
            engines.append(engine)
        decisions = DecisionLog(directory / DECISIONS_NAME)
        group = cls(engines, routing, decisions, directory, metrics=metrics)
        group._resolve_in_doubt()
        return group

    @staticmethod
    def _partition(initial: DeductiveDatabase | None, routing: RoutingTable,
                   index: int) -> DeductiveDatabase:
        """Shard *index*'s slice: its facts, the full intensional part."""
        shard_db = DeductiveDatabase()
        if initial is None:
            return shard_db
        for rule in initial.rules:
            shard_db.add_rule(rule)
        for constraint in initial.constraints:
            shard_db.add_constraint(constraint)
        for predicate, row in initial.iter_facts():
            if routing.shard_of(predicate, row) == index:
                shard_db.add_fact(predicate, *row)
        return shard_db

    @staticmethod
    def _redeclare_schema(engine: DatabaseEngine,
                          routing: RoutingTable) -> None:
        # Snapshots only render facts and rules, so a base predicate with
        # no facts on this shard (and no mention in a rule) would vanish
        # across a reopen; the routing table is the durable schema record.
        for predicate, arity in routing.arities.items():
            engine.db.declare_base(predicate, arity)

    def _resolve_in_doubt(self) -> None:
        """Drive every recovered in-doubt vote to a decision (open time)."""
        for index, engine in enumerate(self._engines):
            for txn_id in engine.in_doubt:
                decision = self._coordinator.decisions.decision(txn_id)
                if decision is None:
                    # Presumed abort: the coordinator never reached its
                    # commit point, or we would have a record.  Record the
                    # abort so late-arriving shards resolve identically.
                    decision = self._coordinator.decisions.record(
                        txn_id, "abort")
                engine.decide(txn_id, decision)
                self.metrics.increment("twopc.recovered")

    def close(self, checkpoint: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            for engine in self._engines:
                engine.close(checkpoint=checkpoint)
        finally:
            self._coordinator.decisions.close()
            self._pool.shutdown(wait=True)

    def checkpoint(self) -> None:
        for engine in self._engines:
            engine.checkpoint()

    # -- introspection ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._engines)

    @property
    def engines(self) -> tuple[DatabaseEngine, ...]:
        return tuple(self._engines)

    @property
    def routing(self) -> RoutingTable:
        return self._routing

    @property
    def decisions(self) -> DecisionLog:
        return self._coordinator.decisions

    @property
    def description(self) -> str:
        where = self._directory if self._directory is not None else "memory"
        return f"{self.n_shards}-shard group at {where}"

    # -- scatter-gather plumbing -----------------------------------------------

    def _scatter(self, targets: list[int],
                 fn: Callable[[DatabaseEngine], object]) -> list:
        """Run *fn* on each target shard concurrently; raise the first error."""
        if len(targets) == 1:
            return [fn(self._engines[targets[0]])]
        self.metrics.increment("router.fanout", len(targets))
        futures = [self._pool.submit(self._timed, index, fn)
                   for index in targets]
        return [future.result() for future in futures]

    def _timed(self, index: int, fn: Callable[[DatabaseEngine], object]):
        with self.metrics.time(f"shard.{index}.request"):
            return fn(self._engines[index])

    def _gather_degraded(self, fn: Callable[[DatabaseEngine], dict]
                         ) -> tuple[dict[int, dict], dict[int, BaseException]]:
        """Scatter to every shard, collecting failures instead of raising."""
        results: dict[int, dict] = {}
        errors: dict[int, BaseException] = {}
        for index in range(self.n_shards):
            try:
                results[index] = fn(self._engines[index])
            except DatalogError as error:
                errors[index] = error
        return results, errors

    def _single_shard(self, op: str) -> DatabaseEngine:
        if self.n_shards == 1:
            return self._engines[0]
        raise RoutingError(
            f"'{op}' needs one consistent state and cannot run against a "
            f"{self.n_shards}-shard group; run it against a single shard")

    # -- reads -----------------------------------------------------------------

    def query(self, goal: str) -> list[tuple]:
        with self.metrics.time("query"):
            targets = self._routing.shards_for_goal(goal)
            results = self._scatter(targets, lambda e: e.query(goal))
            if len(results) == 1:
                return results[0]
            merged: set = set()
            for rows in results:
                merged.update(rows)
            return sorted(merged, key=str)

    def upward(self, transaction: Transaction,
               predicates: Iterable[str] | None = None) -> UpwardResult:
        with self.metrics.time("upward"):
            parts = self._routing.split(transaction)
            if not parts:
                parts = {0: transaction}
            predicates = (tuple(predicates)
                          if predicates is not None else None)
            items = sorted(parts.items())
            if len(items) == 1:
                index, sub = items[0]
                return self._engines[index].upward(sub, predicates)
            self.metrics.increment("router.fanout", len(items))
            futures = [
                self._pool.submit(
                    self._timed, index,
                    lambda e, t=sub: e.upward(t, predicates))
                for index, sub in items
            ]
            results = [future.result() for future in futures]
            insertions: dict[str, frozenset] = {}
            deletions: dict[str, frozenset] = {}
            covered = None
            for result in results:
                for predicate, rows in result.insertions.items():
                    insertions[predicate] = \
                        insertions.get(predicate, frozenset()) | rows
                for predicate, rows in result.deletions.items():
                    deletions[predicate] = \
                        deletions.get(predicate, frozenset()) | rows
                covered = (result.covered if covered is None
                           else (covered & result.covered
                                 if result.covered is not None else covered))
            return UpwardResult(insertions, deletions, transaction,
                                covered=covered)

    def check(self, transaction: Transaction) -> ICCheckResult:
        with self.metrics.time("check"):
            parts = self._routing.split(transaction)
            if not parts:
                parts = {0: transaction}
            items = sorted(parts.items())
            verdicts = [self._engines[index].check(sub)
                        for index, sub in items]
            if len(verdicts) == 1:
                return verdicts[0]
            violations: list = []
            for verdict in verdicts:
                violations.extend(verdict.violations)
            return ICCheckResult(all(v.ok for v in verdicts),
                                 tuple(violations), transaction)

    def monitor(self, transaction: Transaction,
                conditions: Iterable[str] | None = None):
        return self._single_shard("monitor").monitor(transaction, conditions)

    def downward(self, requests):
        return self._single_shard("downward").downward(requests)

    def repair(self, verify: bool = False):
        return self._single_shard("repair").repair(verify=verify)

    # -- aggregated stats/health (degraded, never failing) ---------------------

    def stats(self) -> dict:
        results, errors = self._gather_degraded(lambda e: e.stats())
        facts = sum(r["engine"]["facts"] for r in results.values())
        in_doubt = sum(r["engine"].get("in_doubt", 0)
                       for r in results.values())
        payload = {
            "engine": {
                "shards": self.n_shards,
                "directory": (str(self._directory)
                              if self._directory is not None else None),
                "facts": facts,
                "in_doubt": in_doubt,
                "decisions": len(self.decisions),
                "feed_subscriptions": len(self._feeds),
            },
            "shards": {str(index): results.get(index)
                       for index in range(self.n_shards)},
            **self.metrics.snapshot(),
        }
        if errors:
            payload["degraded"] = self._degraded(errors)
        return payload

    def health(self) -> dict:
        results, errors = self._gather_degraded(lambda e: e.health())
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
        return {
            "shards": sorted(errors),
            "errors": {str(index): _error_payload(error)
                       for index, error in errors.items()},
        }

    # -- change-feed subscriptions ---------------------------------------------

    def feed_subscribe(self, goals, callback: Callable[[dict], None], *,
                       emit_empty: bool = False) -> dict:
        """Register one standing query across every shard.

        Each shard engine gets an ``emit_empty`` subscription -- a
        coordinated commit then yields a frame from *every* participant,
        so the per-subscription :class:`FeedMerger` knows when a 2PC
        transaction's frame set is complete -- and the merger folds those
        per-shard frames into one subscriber stream: exactly one merged
        frame per cross-shard commit, emitted in commit decision order.
        (*emit_empty* on the merged stream itself is not supported; empty
        merged frames are dropped.)
        """
        del emit_empty
        merger = FeedMerger(callback)
        per_shard: list[tuple[DatabaseEngine, str]] = []
        epoch = 0
        info: dict = {}
        try:
            for index, engine in enumerate(self._engines):
                info = engine.feed_subscribe(
                    goals,
                    lambda frame, shard=index: merger.on_frame(shard, frame),
                    emit_empty=True)
                per_shard.append((engine, info["subscription_id"]))
                epoch = max(epoch, info.get("epoch", 0))
        except BaseException:
            for engine, shard_sub in per_shard:
                try:
                    engine.feed_unsubscribe(shard_sub)
                except DatalogError:
                    pass
            raise
        with self._feed_lock:
            sub_id = f"sub-{next(self._feed_ids)}"
            self._feeds[sub_id] = {"merger": merger, "per_shard": per_shard}
        self.metrics.increment("feed.subscriptions")
        return {"subscription_id": sub_id, "goals": info["goals"],
                "predicates": info["predicates"], "epoch": epoch}

    def feed_unsubscribe(self, subscription_id: str) -> dict:
        """Deregister a group subscription; unknown ids raise typed."""
        entry = None
        if isinstance(subscription_id, str) and subscription_id:
            with self._feed_lock:
                entry = self._feeds.pop(subscription_id, None)
        if entry is None:
            raise SubscriptionError(
                f"unknown subscription_id: {subscription_id!r}")
        for engine, shard_sub in entry["per_shard"]:
            try:
                engine.feed_unsubscribe(shard_sub)
            except DatalogError:
                pass
        return {"unsubscribed": subscription_id}

    def _feed_mergers(self) -> list[FeedMerger]:
        with self._feed_lock:
            return [entry["merger"] for entry in self._feeds.values()]

    # -- writes ----------------------------------------------------------------

    def commit(self, transaction: Transaction,
               on_violation: str | None = None,
               timeout: float | None = None,
               txn_id: str | None = None) -> CommitOutcome:
        parts = self._routing.split(transaction)
        if len(parts) <= 1:
            index, sub = (next(iter(parts.items())) if parts
                          else (0, transaction))
            self.metrics.increment("router.single_shard_commits")
            return self._engines[index].commit(
                sub, on_violation=on_violation, timeout=timeout,
                txn_id=txn_id)
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
        # Mergers must know the participant set *before* phase two: frames
        # a shard pushes while applying the decision are buffered against
        # the transaction, then emitted as one merged frame on commit (or
        # discarded on abort).
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

    def commit_many(self, transactions: Iterable[Transaction],
                    on_violation: str | None = None,
                    raise_errors: bool = True,
                    txn_ids: Iterable[str | None] | None = None
                    ) -> list[CommitOutcome]:
        transactions = list(transactions)
        ids = (list(txn_ids) if txn_ids is not None
               else [None] * len(transactions))
        if len(ids) != len(transactions):
            raise ValueError("txn_ids must pair 1:1 with transactions")
        outcomes: list[CommitOutcome] = []
        for transaction, txn_id in zip(transactions, ids):
            try:
                outcomes.append(self.commit(transaction,
                                            on_violation=on_violation,
                                            txn_id=txn_id))
            except DatalogError:
                if raise_errors:
                    raise
        return outcomes

    def prepare(self, transaction: Transaction, txn_id: str) -> dict:
        if self.n_shards == 1:
            return self._engines[0].prepare(transaction, txn_id)
        raise RoutingError(
            "a shard group cannot itself be a 2PC participant; send "
            "'prepare' to an individual shard")

    def decide(self, txn_id: str, decision: str) -> dict:
        if self.n_shards == 1:
            return self._engines[0].decide(txn_id, decision)
        raise RoutingError(
            "a shard group cannot itself be a 2PC participant; send "
            "'decide' to an individual shard")
