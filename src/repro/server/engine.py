"""A thread-safe serving engine over ``DurableDatabase`` + ``UpdateProcessor``.

:class:`DatabaseEngine` is the concurrency layer the paper's library never
needed: it serialises writers, lets readers run concurrently, and batches
pending commits into **group commits** -- one WAL fsync and one
transition-program integrity check cover a whole batch of non-conflicting
transactions instead of one each.

Concurrency model
-----------------
- *Single writer, multiple readers.*  A batch commit holds the write lock;
  ``query`` requests share the read lock and are answered from the state
  the maintainer already keeps (base facts through the store's indexes,
  derived predicates from the standing extensions), so a warm read fires
  no rule.  The upward what-ifs (``check``, ``upward``, ``monitor``) are
  projections of one ``maintainer.whatif(transaction)``; a maintainer
  whose what-ifs only read (``counting``: the delta rules over the
  standing counts) serves them under the read lock alone, beside each
  other and beside queries.  The interpreter mutex is left for what does
  search or memoise: ``downward`` and ``repair`` (whose old-state
  literals read the maintainer's extents, not a copy of their own), the
  what-ifs of the ``advance`` / ``invalidate`` maintainers (answered by
  the processor's memoising upward interpreter), and the one reader that
  finds the maintainer cold and re-materialises it once.
- *Group commit.*  ``commit`` enqueues the transaction and the first thread
  through the batch lock becomes the leader: it drains the queue, packs up
  to ``max_batch`` transactions with pairwise-disjoint fact sets into one
  batch, integrity-checks each member and their union against the shared
  old state, appends them to the WAL, fsyncs once, and only *then* wakes
  the waiters -- an acknowledged commit is always on disk.  Followers find
  their entry already committed by the time they acquire the lock.
- *Optimistic conflict handling.*  Two pending transactions that touch the
  same fact (overlapping event sets) never share a batch; the later one is
  deferred to the next batch and re-validated against the new state.
  Batch members commute (disjoint fact sets) and batches are sequential,
  so the *applied* history is serializable.  Reject semantics are enforced
  per member: a member that fails its own integrity check against the
  batch-start state is rejected with that verdict -- the serial order
  that runs it first rejects it too, so it is never smuggled in by its
  batch mates, and never checked twice -- and the others fast-commit when
  their merged transaction passes as well; if it does not (they
  interact), or a member asks for another policy, the slow path executes
  them serially.  (One theoretical gap remains: three or more
  transactions whose constraint interactions violate at every intermediate
  prefix but not at the endpoints can fast-commit together although a
  strictly serial execution would reject one -- see docs/SERVER.md.)
- *Exactly-once identity.*  A commit stamped with a ``txn_id`` is
  remembered: its outcome is written into the WAL alongside its events and
  kept in a bounded dedup table (:class:`repro.core.durable.TxnDedupTable`)
  that recovery rebuilds, so a retry -- after a dropped ack, a deferral
  timeout, or a crash between fsync and ack -- returns the original result
  instead of double-applying.  A duplicate arriving while the first
  attempt is still queued joins its wait instead of enqueuing again.
- *Warm derived state.*  The maintainer keeps the extension of every
  derived predicate standing.  A fast-path commit computes its integrity
  check as a *full-coverage* upward interpretation and, after applying the
  batch, **advances** the maintained extensions with the induced events
  instead of dropping them (``cache_mode="advance"`` patches the upward
  interpreter's memoised state, ``"counting"`` folds in derivation
  counts); readers interleaved with commits therefore keep hitting warm
  state.  Slow-path commits, unchecked commits, checkpoints and advance
  failures fall back to a full reset.  Surfaced as ``cache.advance`` /
  ``cache.invalidate`` / ``cache.rematerialize`` counters and a
  ``cache_epoch`` in ``stats``; see docs/SERVER.md for the lifecycle
  table.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro import faults
from repro.core.durable import DurableDatabase, transaction_digest
from repro.core.processor import UpdateProcessor
from repro.datalog.builtins import evaluate_builtin, is_builtin
from repro.datalog.compile_plan import resolve_engine
from repro.datalog.database import GLOBAL_IC, answer_rows
from repro.datalog.errors import DatalogError, SafetyError, TransactionError
from repro.datalog.parser import parse_atom
from repro.datalog.rules import Atom
from repro.events.events import Transaction
from repro.interpretations.counting import ExtentView
from repro.interpretations.downward import DownwardOptions
from repro.interpretations.upward import UpwardOptions
from repro.interpretations.maintainers import (
    CacheMode,
    CountingMaintainer,
    StateMaintainer,
    create_maintainer,
)
from repro.datalog.errors import SubscriptionError
from repro.obs import tracer as obs
from repro.problems import ICCheckResult
from repro.problems.base import StateError
from repro.problems.condition_monitoring import (
    check_conditions,
    condition_changes,
)
from repro.server.feed import BoundGoal, FeedBus, parse_goals
from repro.server.metrics import MetricsRegistry

logger = logging.getLogger("repro.server.engine")

FP_PRE_BATCH_MERGE = faults.register(
    "engine.pre_batch_merge",
    "group commit: batch claimed, before its transactions are merged or "
    "checked (crash loses the whole unacknowledged batch)")
FP_POST_CHECK_PRE_ACK = faults.register(
    "engine.post_check_pre_ack",
    "group commit: integrity checks passed, before anything reaches the "
    "WAL (crash: checked but never applied, nothing may survive)")
FP_MID_CACHE_ADVANCE = faults.register(
    "engine.mid_cache_advance",
    "group commit: batch appended (unfsynced), before the derived-state "
    "caches advance (crash: flushed-but-unacked, may or may not survive)")
FP_PRE_ACK = faults.register(
    "engine.pre_ack",
    "after the WAL fsync, before waiters are acknowledged (crash: the "
    "batch is durable but no client ever saw an ack)")
FP_FEED_PUBLISH = faults.register(
    "engine.feed_publish",
    "change feed: commit durable, before its frame is handed to the "
    "subscription bus (crash: the commit survives recovery but no "
    "subscriber ever saw a frame for it -- they must resync, never see "
    "a phantom or duplicate)")
FP_PREPARE_WRITTEN = faults.register(
    "twopc.prepare_written",
    "2PC participant: prepared line fsynced, before the yes-vote returns "
    "to the coordinator (crash: a durable in-doubt vote nobody counted)")
FP_DECIDE_PRE_ACK = faults.register(
    "twopc.decide_pre_ack",
    "2PC participant: decision applied and durable, before the ack returns "
    "to the coordinator (crash: the classic dropped-ack; a retried decide "
    "must replay the recorded outcome)")


class EngineClosedError(DatalogError):
    """Raised when a request reaches an engine after :meth:`close`."""


class ConflictDeferralTimeout(DatalogError):
    """A ``commit(timeout=...)`` expired before its batch acknowledged it.

    When the entry could be withdrawn from the pending queue the
    transaction was definitely **not** applied; when a batch leader had
    already claimed it, it *may still be applied* -- the message says
    which.  A commit stamped with a ``txn_id`` is safe to retry as-is in
    either case: the dedup table returns the recorded outcome if the first
    attempt went through.  Only unstamped commits need to re-query before
    retrying the ambiguous case.
    """


class IdempotencyError(DatalogError):
    """A ``txn_id`` was reused with a *different* transaction body.

    Retrying the same commit is the point of idempotency keys; submitting
    new work under an old key is always a client bug, and silently
    returning the old outcome would hide it.
    """


class TxnStateError(DatalogError):
    """A 2PC decision arrived for a transaction in the wrong state.

    A ``commit`` decision for a transaction this participant never
    prepared (or already aborted) is a protocol violation -- the
    coordinator only decides commit after counting *every* yes-vote, so a
    missing prepare means lost durability, which must fail loudly rather
    than silently apply.
    """


class TxnConflictError(DatalogError):
    """A commit or prepare touches fact keys locked by an in-flight 2PC vote.

    Between prepare and decision a participant must neither apply nor
    promise conflicting writes, or the coordinator's commit decision could
    become unappliable.  Safe to retry: the lock clears when the in-doubt
    transaction resolves.
    """


class RWLock:
    """A writer-preferring read-write lock (stdlib has none)."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._readers_ok = threading.Condition(self._mutex)
        self._writers_ok = threading.Condition(self._mutex)
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._mutex:
            while self._writer or self._writers_waiting:
                self._readers_ok.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._mutex:
                self._readers -= 1
                if not self._readers:
                    self._writers_ok.notify()

    @contextmanager
    def write(self):
        with self._mutex:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._writers_ok.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._mutex:
                self._writer = False
                self._writers_ok.notify()
                self._readers_ok.notify_all()


@dataclass
class CommitOutcome:
    """Result of one checked, durable commit."""

    applied: bool
    #: The transaction as requested.
    requested: Transaction
    #: The effective (normalised) events actually applied; empty on reject.
    effective: Transaction = field(default_factory=Transaction)
    #: The integrity verdict of this transaction's own check, when one ran
    #: (None when the database has no constraints, the policy is ``ignore``
    #: or the old state was already inconsistent).
    check: ICCheckResult | None = None
    #: Repair events added by the ``maintain`` policy.
    repairs: Transaction | None = None

    def to_dict(self) -> dict:
        """A JSON-ready representation (the ``commit`` wire shape)."""
        payload: dict = {
            "applied": self.applied,
            "effective": self.effective.to_dict(),
        }
        if self.check is not None:
            payload["check"] = self.check.to_dict()
        if self.repairs is not None:
            payload["repairs"] = self.repairs.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CommitOutcome":
        """Inverse of :meth:`to_dict`.

        The requested transaction is not carried on the wire; the effective
        one stands in for it.
        """
        effective = Transaction.from_dict(payload.get("effective", []))
        check = payload.get("check")
        repairs = payload.get("repairs")
        return cls(
            applied=bool(payload.get("applied")),
            requested=effective,
            effective=effective,
            check=ICCheckResult.from_dict(check) if check is not None else None,
            repairs=(Transaction.from_dict(repairs)
                     if repairs is not None else None),
        )

    def __bool__(self) -> bool:
        return self.applied


def checked_commit(processor: UpdateProcessor, transaction: Transaction,
                   apply: Callable[[Transaction], object],
                   on_violation: str = "reject") -> CommitOutcome:
    """The single checked-commit path shared by REPL, engine and server.

    Integrity-checks *transaction* against *processor*'s database, then
    durably applies it through the *apply* callback (``journal.commit``,
    ``durable.commit`` ...) and invalidates the processor's state caches.

    ``on_violation`` follows :meth:`UpdateProcessor.execute`: ``reject``
    refuses violating transactions, ``maintain`` extends them with the
    smallest repair, ``ignore`` skips the check.  When the *current* state
    is already inconsistent the check is skipped (the paper's methods
    require a consistent old state), matching the REPL's historic
    behaviour.
    """
    if on_violation not in ("reject", "maintain", "ignore"):
        raise ValueError(f"unknown on_violation policy: {on_violation!r}")
    db = processor.db
    transaction.check_base_only(db)
    check_result: ICCheckResult | None = None
    repairs: Transaction | None = None
    to_apply = transaction
    if on_violation != "ignore" and db.constraints:
        try:
            check_result = processor.check(transaction)
        except StateError:
            check_result = None  # inconsistent old state: nothing to protect
        if check_result is not None and not check_result.ok:
            if on_violation == "reject":
                return CommitOutcome(False, transaction, check=check_result)
            from repro.core.maintenance import maintain_iteratively

            chosen = maintain_iteratively(db, transaction).best()
            if chosen is None:
                return CommitOutcome(False, transaction, check=check_result)
            repairs = Transaction(chosen.events - transaction.events)
            to_apply = chosen
    effective = to_apply.normalized(db)
    apply(to_apply)
    processor.invalidate_state_caches()
    return CommitOutcome(True, transaction, effective, check_result, repairs)


class _Pending:
    """One queued commit awaiting its batch."""

    __slots__ = ("transaction", "policy", "done", "outcome", "error",
                 "txn_id", "digest", "check")

    def __init__(self, transaction: Transaction, policy: str,
                 txn_id: str | None = None, digest: str | None = None):
        self.transaction = transaction
        self.policy = policy
        self.txn_id = txn_id
        self.digest = digest
        self.done = threading.Event()
        self.outcome: CommitOutcome | None = None
        self.error: BaseException | None = None
        #: This member's own verdict against its batch-start state, once
        #: the group commit has computed one.
        self.check: ICCheckResult | None = None

    def fact_keys(self) -> frozenset:
        return frozenset((e.predicate, e.args) for e in self.transaction)

    def finish(self, outcome: CommitOutcome | None = None,
               error: BaseException | None = None) -> None:
        self.outcome = outcome
        self.error = error
        self.done.set()


@dataclass(frozen=True)
class _PreparedTxn:
    """A durable 2PC yes-vote held by this participant (keys are locked)."""

    transaction: Transaction
    digest: str
    keys: frozenset


class DatabaseEngine:
    """Concurrent, durable serving engine -- the server's core.

    Parameters
    ----------
    store:
        the durable database to serve.
    max_batch:
        group-commit width: at most this many pending transactions share
        one WAL fsync and one integrity check.
    on_violation:
        default commit policy (``reject`` / ``maintain`` / ``ignore``);
        individual commits may override it.
    cache_mode:
        the :class:`~repro.interpretations.maintainers.StateMaintainer`
        strategy (a :class:`CacheMode` or its string spelling) for the
        memoised derived state on a fast-path commit: ``advance``
        (default) patches it with the commit's own induced events (the
        upward interpretation the integrity check already computes), so
        interleaved readers keep a warm cache; ``invalidate`` always
        drops it, forcing the next read to re-materialise -- the
        pre-delta-maintenance behaviour, kept as a baseline and escape
        hatch; ``counting`` maintains per-tuple derivation counts
        incrementally *during* the commit, so check + maintenance cost
        scales with the transaction instead of the database (see
        docs/IVM.md; requires a non-recursive program).  Slow-path
        commits, unchecked commits and checkpoints always reset the
        maintainer, whatever the mode.
    eval_engine:
        evaluation engine for every bottom-up fixpoint the engine runs
        (integrity checks, upward/downward interpretations, query
        materialisation): ``"compiled"`` (closure-chain join plans, the
        default) or ``"interpreted"`` (the tuple-at-a-time oracle); see
        docs/EVALUATION.md.
    """

    def __init__(self, store: DurableDatabase, *, max_batch: int = 64,
                 on_violation: str = "reject", simplify: bool = True,
                 metrics: MetricsRegistry | None = None,
                 cache_mode: CacheMode | str = CacheMode.ADVANCE,
                 eval_engine: str | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if on_violation not in ("reject", "maintain", "ignore"):
            raise ValueError(f"unknown on_violation policy: {on_violation!r}")
        # Resolve now so a bad name fails at open, not mid-commit.
        self._eval_engine = resolve_engine(eval_engine)
        self._store = store
        self._processor = UpdateProcessor(
            store.db, simplify=simplify,
            upward_options=UpwardOptions(engine=eval_engine),
            downward_options=DownwardOptions(engine=eval_engine))
        self._max_batch = max_batch
        self._policy = on_violation
        self._cache_mode = CacheMode.of(cache_mode)
        #: Bumped on every full cache invalidation; readers can compare
        #: epochs across ``stats`` calls to see whether their reads stayed
        #: on warm state.
        self._cache_epoch = 0
        self.metrics = metrics or MetricsRegistry()
        #: Standing-query subscriptions over derived predicates; commits
        #: publish their induced deltas here (see docs/SUBSCRIPTIONS.md).
        self.feed = FeedBus(self.metrics)
        self._processor.on_cache_event = self._record_cache_event
        self._maintainer = create_maintainer(self._cache_mode,
                                             self._processor)
        self._maintainer.on_event = self._record_ivm_event
        if isinstance(self._maintainer, CountingMaintainer):
            # Eager bootstrap: pay the one-time count materialisation at
            # open (and fail fast on recursive programs), then record the
            # compiled delta-rule count for observability.
            self._maintainer.bootstrap()
            self.metrics.increment(
                "ivm.delta_rules",
                self._maintainer.counting_engine().n_delta_rules)
        self._rwlock = RWLock()
        #: Serialises the readers that search or memoise (``downward``,
        #: ``repair``, the processor-backed what-ifs) and the one that
        #: warms a cold maintainer.  Always taken *inside* the read lock,
        #: so a writer -- alone under the write lock -- never needs it.
        self._interp_lock = threading.Lock()
        self._batch_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: list[_Pending] = []
        #: txn_id -> its queued/in-batch entry; a duplicate arriving while
        #: the first attempt is still running joins it instead of enqueuing
        #: a second copy.  Guarded by ``_pending_lock``.
        self._inflight: dict[str, _Pending] = {}
        #: Extra ``health()`` payload providers (zero-arg callables
        #: returning dicts) -- the server layer registers its admission
        #: counters here without the engine importing it.
        self.health_extras: list[Callable[[], dict]] = []
        #: In-flight 2PC votes by ``txn_id``; guarded by the write lock.
        #: Seeded from the store's in-doubt set so recovered votes keep
        #: their fact keys locked until the coordinator resolves them.
        self._prepared: dict[str, _PreparedTxn] = {
            txn_id: _PreparedTxn(
                transaction, digest,
                frozenset((e.predicate, e.args) for e in transaction))
            for txn_id, (digest, transaction) in store.in_doubt.items()
        }
        self._closed = False

    def _record_cache_event(self, kind: str) -> None:
        """Processor cache-lifecycle hook -> metrics, tracing, epoch."""
        self.metrics.increment(f"cache.{kind}")
        obs.add(f"cache.{kind}")
        if kind == "invalidate":
            self._cache_epoch += 1

    def _record_ivm_event(self, kind: str) -> None:
        """Maintainer hook -> ``ivm.*`` metrics (bootstrap, rederive...)."""
        self.metrics.increment(f"ivm.{kind}")
        obs.add(f"ivm.{kind}")

    @classmethod
    def open(cls, directory, initial=None, *,
             dedup_capacity: int | None = None, **kwargs) -> "DatabaseEngine":
        """Open (or create) a durable database directory and wrap it."""
        store_kwargs = {}
        if dedup_capacity is not None:
            store_kwargs["dedup_capacity"] = dedup_capacity
        store = DurableDatabase.open(directory, initial=initial,
                                     **store_kwargs)
        return cls(store, **kwargs)

    # -- introspection ---------------------------------------------------------

    @property
    def store(self) -> DurableDatabase:
        """The underlying durable store."""
        return self._store

    @property
    def db(self):
        """The live in-memory database (do not mutate directly)."""
        return self._store.db

    @property
    def processor(self) -> UpdateProcessor:
        """The shared update processor (serialise access when threading)."""
        return self._processor

    @property
    def cache_mode(self) -> CacheMode:
        """The configured derived-state maintenance strategy."""
        return self._cache_mode

    @property
    def maintainer(self) -> StateMaintainer:
        """The state maintainer selected by ``cache_mode``."""
        return self._maintainer

    @property
    def eval_engine(self) -> str:
        """The resolved evaluation engine (``"compiled"``/``"interpreted"``)."""
        return self._eval_engine

    def _ensure_open(self) -> None:
        if self._closed:
            raise EngineClosedError("engine is closed")

    @property
    def in_doubt(self) -> tuple[str, ...]:
        """ids of 2PC votes awaiting a decision (their fact keys are locked)."""
        return tuple(sorted(self._prepared))

    # -- read requests ---------------------------------------------------------

    def query(self, goal: str) -> list[tuple]:
        """Answer a query from maintained state -- no rule fires per call.

        Same replies as :meth:`DeductiveDatabase.query` (its oracle), but
        a base goal is one indexed ``db.lookup`` and a derived or
        constraint goal reads the maintainer's standing extension: one
        membership test when ground, one pass over that predicate's
        extent otherwise.  Warm reads share the read lock and nothing
        else, so they run beside each other; after a maintainer reset
        (serial batch, checkpoint, unchecked commit, recovery, every
        commit in ``invalidate`` mode) the first reader re-materialises
        the state once under the interpreter mutex and every read until
        the next reset is served from that.
        """
        self._ensure_open()
        with self.metrics.time("query"), obs.span("engine.query") as span:
            target = parse_atom(goal)
            with self._rwlock.read():
                path, rows = self._goal_rows(target)
                answers = answer_rows(target, rows)
            if obs.enabled():
                span.set(path=path)
                span.add("answers", len(answers))
            return answers

    def _goal_rows(self, target: Atom) -> tuple[str, Iterable[tuple]]:
        """Candidate rows for a query goal and the path that found them.

        Call under the read lock, and consume the rows before releasing
        it: they are live views of state that only writers mutate.
        """
        predicate = target.predicate
        if is_builtin(predicate):
            if not target.is_ground():
                raise SafetyError(
                    "cannot evaluate non-ground negative or built-in "
                    f"literals: {target}")
            holds = evaluate_builtin(predicate, target.args)
            return "base", ((target.args,) if holds else ())
        db = self.db
        if not db.check_goal(target):
            return "base", ()  # unknown predicate: no rows, as in db.query
        if db.schema.is_base(predicate):
            return "base", db.lookup(predicate, target.args)
        path = ("warmup" if self._warm_maintainer("query.warmups")
                else "maintained")
        return path, self._maintainer.lookup(predicate, target.args)

    def _warm_maintainer(self, counter: str) -> bool:
        """Warm a cold maintainer exactly once; True for the caller who did.

        Call under the read lock.  The mutex keeps concurrent readers
        (and the interpreter ops) from materialising in parallel; whoever
        lost the race finds it warm.
        """
        maintainer = self._maintainer
        if maintainer.active:
            return False
        with self._interp_lock:
            if maintainer.active:
                return False
            maintainer.bootstrap()
            self.metrics.increment(counter)
            return True

    def _whatif(self, op: str, answer: Callable[[StateMaintainer], object]):
        """One upward what-if: *answer* projects the maintainer's upward
        interpretation of a hypothetical transaction onto the op's reply.

        A maintainer with pure what-ifs is read under the read lock alone
        (after the same warm-once as ``query``); the others answer
        through the processor's memoising interpreter, one at a time.
        """
        self._ensure_open()
        maintainer = self._maintainer
        with self.metrics.time(op), obs.span("engine.whatif") as span, \
                self._rwlock.read():
            if not maintainer.pure_whatifs:
                if obs.enabled():
                    span.set(op=op, path="processor")
                with self._interp_lock:
                    return answer(maintainer)
            warmed = self._warm_maintainer("whatif.warmups")
            if obs.enabled():
                span.set(op=op, path="warmup" if warmed else "maintained")
            return answer(maintainer)

    def check(self, transaction: Transaction) -> ICCheckResult:
        """Integrity checking (5.1.1) without applying."""
        return self._whatif("check", lambda m: m.check(transaction))

    def upward(self, transaction: Transaction,
               predicates: Iterable[str] | None = None):
        """Induced derived events of a hypothetical transaction."""
        def induced(maintainer: StateMaintainer):
            result = maintainer.whatif(transaction)
            return (result if predicates is None
                    else result.restricted_to(predicates))
        return self._whatif("upward", induced)

    def monitor(self, transaction: Transaction,
                conditions: Iterable[str] | None = None):
        """Condition monitoring (5.1.2)."""
        def changes(maintainer: StateMaintainer):
            watched = (list(conditions) if conditions is not None
                       else list(self._processor.conditions()))
            check_conditions(self.db, watched)
            return condition_changes(maintainer.whatif(transaction), watched)
        return self._whatif("monitor", changes)

    def _interpret(self, op: str, fn: Callable):
        self._ensure_open()
        with self.metrics.time(op), self._rwlock.read(), self._interp_lock:
            return fn()

    def downward(self, requests):
        """View updating / downward interpretation (5.2).

        A search, so it runs under the interpreter mutex; its old-state
        literals read the store's indexes and the maintainer's standing
        extents (the processor's downward interpreter is bound to them).
        """
        return self._interpret(
            "downward", lambda: self._processor.downward(requests))

    def repair(self, verify: bool = False):
        """Candidate repairs of an inconsistent database (5.2.3)."""
        return self._interpret(
            "repair", lambda: self._processor.repair(verify=verify))

    def stats(self) -> dict:
        """Engine + metrics snapshot (the ``stats`` protocol request)."""
        self._ensure_open()
        with self._rwlock.read():
            db = self.db
            engine = {
                "directory": str(self._store.directory),
                "facts": db.fact_count(),
                "rules": len(db.rules),
                "constraints": len(db.constraints),
                "log_length": self._store.log_length(),
                "max_batch": self._max_batch,
                "on_violation": self._policy,
                "cache_mode": self._cache_mode.value,
                "eval_engine": self._eval_engine,
                "cache_epoch": self._cache_epoch,
                "dedup_size": len(self._store.txns),
                "dedup_capacity": self._store.txns.capacity,
                "in_doubt": len(self._prepared),
                "feed_subscriptions": self.feed.active,
                "feed_sourcing": ("delta" if self._maintainer.sources_deltas
                                  else "diff"),
            }
        snapshot = {"engine": engine, **self.metrics.snapshot()}
        tracer = obs.get_tracer()
        if tracer is not None:
            snapshot["tracing"] = tracer.aggregates()
        return snapshot

    #: Counters worth repeating in the (cheap, always-answerable) health
    #: payload: the ones a load balancer or retrying client acts on.
    _HEALTH_COUNTERS = ("server.shed", "server.deadline_rejected",
                       "retry.attempts", "dedup.hit",
                       "commit.deferral_timeouts")

    def health(self) -> dict:
        """Liveness/readiness snapshot (the ``health`` protocol request).

        Deliberately lock-free and answerable on a closed engine: health
        must keep responding while the server drains or a writer is stuck,
        which is exactly when callers need it.  ``ready`` goes false once
        :meth:`close` ran.  The server layer appends its admission-control
        view through :attr:`health_extras`.
        """
        payload = {
            "live": True,
            "ready": not self._closed,
            "wal": {
                "directory": str(self._store.directory),
                "log_length": self._store.log_length(),
            },
            "cache": {"mode": self._cache_mode.value,
                      "epoch": self._cache_epoch},
            "dedup": {"size": len(self._store.txns),
                      "capacity": self._store.txns.capacity},
            "in_doubt": sorted(self._prepared),
            "feed": {"subscriptions": self.feed.active},
            "counters": {name: self.metrics.counter(name)
                         for name in self._HEALTH_COUNTERS},
        }
        for provider in list(self.health_extras):
            try:
                extra = provider()
            except Exception:  # health never fails on a broken provider
                logger.exception("health extras provider failed")
                continue
            if isinstance(extra, dict):
                payload.update(extra)
        return payload

    # -- change-feed subscriptions ---------------------------------------------

    def feed_subscribe(self, goals, callback: Callable[[dict], None], *,
                       emit_empty: bool = False) -> dict:
        """Register a standing query; *callback* receives each frame.

        *goals* is a list of goal strings -- bare derived predicate names
        or atoms with constants at bound positions (``"Unemp(Maria)"``).
        Goals over base or unknown predicates raise
        :class:`SubscriptionError`: the feed carries *induced* deltas, so
        only derived predicates can be watched.  Returns the subscription
        description (``subscription_id``, goals, predicates, the current
        cache epoch).

        The callback runs on committing threads and must be cheap and
        non-blocking; a callback that raises is silently unsubscribed.
        """
        self._ensure_open()
        parsed = self._check_goals(goals)
        sub = self.feed.subscribe(parsed, callback, emit_empty=emit_empty)
        return {**sub.describe(), "epoch": self._cache_epoch}

    def feed_unsubscribe(self, subscription_id: str) -> dict:
        """Deregister a subscription; unknown ids raise a typed error."""
        self._ensure_open()
        if not isinstance(subscription_id, str) or not subscription_id:
            raise SubscriptionError(
                "unsubscribe requires a subscription_id string")
        if not self.feed.unsubscribe(subscription_id):
            raise SubscriptionError(
                f"unknown subscription_id: {subscription_id!r}")
        return {"unsubscribed": subscription_id}

    def _check_goals(self, goals) -> tuple[BoundGoal, ...]:
        """Parse and validate goal strings against the live schema."""
        parsed = parse_goals(goals)
        with self._rwlock.read():
            schema = self.db.schema
            for goal in parsed:
                if schema.is_base(goal.predicate):
                    raise SubscriptionError(
                        f"cannot subscribe to base predicate "
                        f"{goal.predicate!r}: the change feed carries "
                        "induced deltas of derived predicates")
                if not schema.is_derived(goal.predicate):
                    raise SubscriptionError(
                        f"unknown predicate: {goal.predicate!r}")
                if (goal.arity is not None
                        and goal.arity != schema.arity(goal.predicate)):
                    raise SubscriptionError(
                        f"goal arity {goal.arity} does not match "
                        f"{goal.predicate!r} (arity "
                        f"{schema.arity(goal.predicate)})")
        return parsed

    def _feed_extents(self, predicates) -> dict[str, ExtentView] | None:
        """Live extents of the watched predicates, or None on failure.

        This is the diff-fallback sourcing path (``invalidate`` mode, and
        any commit whose maintainer produced no delta): it re-materialises
        through the maintainer's read path, so its cost scales with the
        database, not the transaction -- exactly why the counting-sourced
        feed exists (see benchmarks/test_bench_subscriptions.py).  The
        views are not copies; snapshot what must survive the next apply.
        """
        out: dict[str, ExtentView] = {}
        for predicate in predicates:
            try:
                out[predicate] = self._maintainer.extension(predicate)
            except DatalogError:
                return None
        return out

    def _feed_publish_delta(self, *, txn_id: str | None, result,
                            before: dict[str, frozenset] | None) -> None:
        """Push one frame for an applied commit (never fails the commit).

        Sourcing is maintainer-aware: when *result* (an ``UpwardResult``
        from the counting/advance fast path) is present its induced events
        are the frame; otherwise the *before* snapshot taken pre-apply is
        diffed against a fresh post-apply materialisation.  When neither
        is available the subscribers get a ``resync`` marker instead of a
        silently wrong delta.
        """
        if not self.feed.active:
            return
        faults.failpoint(FP_FEED_PUBLISH, txn_id=txn_id)
        epoch = self._cache_epoch
        try:
            if result is not None:
                covered = getattr(result, "covered", None)
                if (covered is not None
                        and not self.feed.watched_predicates() <= covered):
                    self.feed.publish_resync(epoch=epoch,
                                             reason="partial-coverage")
                    return
                self.feed.publish_delta(txn_id=txn_id, epoch=epoch,
                                        inserted=result.insertions,
                                        deleted=result.deletions)
                return
            if before is None:
                self.feed.publish_resync(epoch=epoch,
                                         reason="uncovered-commit")
                return
            after = self._feed_extents(before.keys())
            if after is None:
                self.feed.publish_resync(epoch=epoch,
                                         reason="rematerialise-failed")
                return
            self.feed.publish_delta(
                txn_id=txn_id, epoch=epoch,
                inserted={p: after[p].difference(before[p]) for p in before},
                deleted={p: before[p].difference(after[p]) for p in before})
        except Exception:
            logger.exception("change-feed publish failed")

    def _feed_before_snapshot(self, result) -> dict[str, frozenset] | None:
        """Pre-apply extents of the watched predicates, when a diff will
        be needed (no maintainer-sourced delta)."""
        if result is not None or not self.feed.active:
            return None
        predicates = self.feed.watched_predicates()
        if not predicates:
            return None
        extents = self._feed_extents(predicates)
        if extents is None:
            return None
        # The one copy: this snapshot must outlive the apply below.
        return {p: frozenset(rows) for p, rows in extents.items()}

    def _feed_resync(self, reason: str) -> None:
        """Tell subscribers delta coverage was lost (never raises)."""
        if not self.feed.active:
            return
        try:
            self.feed.publish_resync(epoch=self._cache_epoch, reason=reason)
        except Exception:
            logger.exception("change-feed resync publish failed")

    # -- write requests --------------------------------------------------------

    @staticmethod
    def _check_txn_id(txn_id: str) -> None:
        if (not isinstance(txn_id, str) or not txn_id or len(txn_id) > 128
                or any(c.isspace() for c in txn_id)):
            raise IdempotencyError(
                "txn_id must be a non-empty string of at most 128 "
                "non-whitespace characters")

    def _admit(self, transaction: Transaction, policy: str, txn_id: str
               ) -> "tuple[_Pending | CommitOutcome, bool]":
        """Resolve one txn-stamped commit against the dedup/in-flight state.

        Returns ``(slot, fresh)``: the recorded :class:`CommitOutcome` for
        a completed duplicate, the existing :class:`_Pending` for a running
        duplicate (the caller joins its wait), or a freshly enqueued entry
        (``fresh`` is True only then).  Must be called under
        ``_pending_lock``.
        """
        digest = transaction_digest(transaction)
        record = self._store.txns.get(txn_id)
        if record is not None:
            if record.digest != digest:
                raise IdempotencyError(
                    f"txn_id {txn_id!r} was already used for a different "
                    "transaction; idempotency keys must be unique per body")
            self.metrics.increment("dedup.hit")
            obs.add("dedup.hit")
            return CommitOutcome.from_dict(record.outcome), False
        existing = self._inflight.get(txn_id)
        if existing is not None:
            if existing.digest != digest:
                raise IdempotencyError(
                    f"txn_id {txn_id!r} is in flight for a different "
                    "transaction; idempotency keys must be unique per body")
            self.metrics.increment("dedup.join")
            return existing, False
        entry = _Pending(transaction, policy, txn_id=txn_id, digest=digest)
        self._inflight[txn_id] = entry
        self._pending.append(entry)
        return entry, True

    def commit(self, transaction: Transaction,
               on_violation: str | None = None,
               timeout: float | None = None,
               txn_id: str | None = None) -> CommitOutcome:
        """Durably commit a transaction; blocks until its batch is synced.

        Concurrent callers are batched automatically: whichever thread
        reaches the batch lock first commits every compatible pending
        transaction in one group.

        With a *timeout* (seconds), waiting for the batch is bounded:
        expiry raises :class:`ConflictDeferralTimeout`.  An entry still in
        the pending queue at expiry is withdrawn (definitely not applied);
        one already claimed by a batch leader may still be applied -- the
        exception message distinguishes the two cases.

        *txn_id* gives the commit a durable identity: if an earlier attempt
        with the same id and body already completed -- even before a crash
        -- the recorded outcome is returned instead of re-applying; if one
        is still running, this call joins its wait.  The same id with a
        *different* body raises :class:`IdempotencyError`.
        """
        self._ensure_open()
        with self.metrics.time("commit"):
            policy = on_violation or self._policy
            joined = False
            if txn_id is not None:
                self._check_txn_id(txn_id)
                with self._pending_lock:
                    admitted, fresh = self._admit(transaction, policy, txn_id)
                if isinstance(admitted, CommitOutcome):
                    return admitted
                entry = admitted
                # A duplicate joining a running attempt must not withdraw
                # the entry on its own timeout -- the original owns it.
                joined = not fresh
            else:
                entry = _Pending(transaction, policy)
                with self._pending_lock:
                    self._pending.append(entry)
            if timeout is None:
                with self._batch_lock:
                    if not entry.done.is_set():
                        self._drain()
                entry.done.wait()
            else:
                deadline = time.monotonic() + timeout
                if self._batch_lock.acquire(timeout=timeout):
                    try:
                        if not entry.done.is_set():
                            self._drain()
                    finally:
                        self._batch_lock.release()
                if not entry.done.wait(max(0.0, deadline - time.monotonic())):
                    if joined:
                        # The original caller owns the entry; a duplicate
                        # must not withdraw it out from under them.
                        self.metrics.increment("commit.deferral_timeouts")
                        raise ConflictDeferralTimeout(
                            f"duplicate commit for txn_id {txn_id!r} timed "
                            f"out after {timeout:g}s while the original "
                            "attempt is still running; retry with the same "
                            "txn_id")
                    self._withdraw(entry, timeout)
        if entry.error is not None:
            raise entry.error
        assert entry.outcome is not None
        return entry.outcome

    def _withdraw(self, entry: _Pending, timeout: float) -> None:
        """Give up on a timed-out pending commit (see :meth:`commit`)."""
        with self._pending_lock:
            withdrawn = not entry.done.is_set() and entry in self._pending
            if withdrawn:
                # Still queued: no leader owns it, withdrawal is exact.
                self._pending.remove(entry)
        if withdrawn:
            self.metrics.increment("commit.deferral_timeouts")
            retry_hint = ("retry with the same txn_id"
                          if entry.txn_id is not None else "safe to retry")
            self._finish(entry, error=ConflictDeferralTimeout(
                f"commit timed out after {timeout:g}s waiting for its "
                f"batch; the transaction was withdrawn and NOT applied "
                f"-- {retry_hint}"))
            return
        # A leader already claimed the entry; give it a short grace period
        # (it is usually mid-fsync), then report the undecided state.
        if not entry.done.wait(min(timeout, 0.05)):
            self.metrics.increment("commit.deferral_timeouts")
            retry_hint = ("retry with the same txn_id to learn the outcome"
                          if entry.txn_id is not None
                          else "re-query before retrying")
            raise ConflictDeferralTimeout(
                f"commit timed out after {timeout:g}s but a batch leader "
                "already claimed the transaction; it may still be applied "
                f"-- {retry_hint}")

    def commit_many(self, transactions: Iterable[Transaction],
                    on_violation: str | None = None,
                    raise_errors: bool = True,
                    txn_ids: Iterable[str | None] | None = None
                    ) -> list[CommitOutcome]:
        """Commit a sequence through the group-commit machinery.

        Deterministic counterpart of N threads calling :meth:`commit`
        (used by tests and benchmarks): transactions are enqueued in order
        and drained into batches of at most ``max_batch``.  *txn_ids*, when
        given, pairs each transaction with an idempotency key (``None``
        entries stay unstamped); recorded duplicates short-circuit to their
        remembered outcome exactly as in :meth:`commit`.
        """
        self._ensure_open()
        transactions = list(transactions)
        policy = on_violation or self._policy
        ids: list[str | None] = (list(txn_ids) if txn_ids is not None
                                 else [None] * len(transactions))
        if len(ids) != len(transactions):
            raise ValueError("txn_ids must pair 1:1 with transactions")
        for txn_id in ids:
            if txn_id is not None:
                self._check_txn_id(txn_id)
        # Each slot is a _Pending to wait on or an already-known outcome.
        slots: list[_Pending | CommitOutcome] = []
        mine: list[_Pending] = []  # entries this call enqueued
        with self._pending_lock:
            try:
                for transaction, txn_id in zip(transactions, ids):
                    if txn_id is None:
                        entry = _Pending(transaction, policy)
                        self._pending.append(entry)
                        mine.append(entry)
                        slots.append(entry)
                        continue
                    slot, is_fresh = self._admit(transaction, policy, txn_id)
                    if is_fresh:
                        mine.append(slot)
                    slots.append(slot)
            except IdempotencyError:
                # Unwind this call's own registrations; _admit already
                # appended them to the queue and the in-flight map.
                for entry in mine:
                    if entry in self._pending:
                        self._pending.remove(entry)
                    if entry.txn_id is not None:
                        self._inflight.pop(entry.txn_id, None)
                raise
        with self._batch_lock:
            self._drain()
        outcomes: list[CommitOutcome] = []
        for slot in slots:
            if isinstance(slot, CommitOutcome):
                outcomes.append(slot)
                continue
            slot.done.wait()
            if slot.error is not None and raise_errors:
                raise slot.error
            if slot.outcome is not None:
                outcomes.append(slot.outcome)
        return outcomes

    # -- two-phase commit (participant side) -----------------------------------

    def prepare(self, transaction: Transaction, txn_id: str) -> dict:
        """Phase 1 of a cross-shard commit: validate, persist a vote.

        Runs this shard's own admission checks (base-only events, the
        integrity check under the ``reject`` policy) and, when they pass,
        fsyncs a ``prepared`` WAL line and locks the transaction's fact
        keys until :meth:`decide` resolves it.  Returns a vote dict:

        - ``{"vote": "commit", "prepared": True}`` -- durable yes-vote;
        - ``{"vote": "abort", "decided": True, "outcome": ...}`` -- a
          unilateral, durable no (integrity violation), or a replay of an
          already-decided outcome (idempotent retry).

        A no-vote needs no decision round-trip: the participant may abort
        unilaterally before voting yes, and the durable rejection record
        makes the verdict survive a crash.  Conflicting in-flight state
        raises the retryable :class:`TxnConflictError`.
        """
        self._ensure_open()
        self._check_txn_id(txn_id)
        digest = transaction_digest(transaction)
        with self.metrics.time("prepare"), self._rwlock.write():
            existing = self._prepared.get(txn_id)
            if existing is not None:
                if existing.digest != digest:
                    raise IdempotencyError(
                        f"txn_id {txn_id!r} is prepared for a different "
                        "transaction body")
                return {"vote": "commit", "prepared": True}
            record = self._store.txns.get(txn_id)
            if record is not None:
                if record.digest != digest:
                    raise IdempotencyError(
                        f"txn_id {txn_id!r} was already used for a "
                        "different transaction body")
                if not record.outcome.get("aborted"):
                    # Definitive outcome (applied or rejected): replay it.
                    return {"vote": ("commit" if record.outcome.get("applied")
                                     else "abort"),
                            "decided": True, "outcome": record.outcome}
                # A past *abort decision* is provisional from the client's
                # point of view (a transient failure elsewhere aborted the
                # round, not this shard's own verdict): allow a fresh vote.
            transaction.check_base_only(self.db)
            keys = frozenset((e.predicate, e.args) for e in transaction)
            for other_id, other in self._prepared.items():
                if not keys.isdisjoint(other.keys):
                    self.metrics.increment("twopc.conflicts")
                    raise TxnConflictError(
                        f"prepare of {txn_id!r} conflicts with in-flight "
                        f"transaction {other_id!r}; retry after it resolves")
            check: ICCheckResult | None = None
            if self.db.constraints:
                try:
                    check = self._maintainer.check(transaction)
                except StateError:
                    check = None  # inconsistent old state: commit unchecked
            if check is not None and not check.ok:
                outcome = CommitOutcome(False, transaction, check=check)
                self._store.log_txn_outcome(txn_id, digest, applied=False,
                                            sync=True)
                self._store.txns.put(txn_id, digest, outcome.to_dict())
                self.metrics.increment("twopc.vetoed")
                return {"vote": "abort", "decided": True,
                        "outcome": outcome.to_dict()}
            self._store.log_prepare(txn_id, digest, transaction, sync=True)
            self._prepared[txn_id] = _PreparedTxn(transaction, digest, keys)
            self.metrics.increment("twopc.prepared")
            faults.failpoint(FP_PREPARE_WRITTEN, txn_id=txn_id)
            return {"vote": "commit", "prepared": True}

    def decide(self, txn_id: str, decision: str) -> dict:
        """Phase 2 of a cross-shard commit: apply or abort a prepared vote.

        Idempotent: a decision for an already-resolved transaction replays
        the recorded outcome (the dropped-ack case).  An ``abort`` for an
        unknown transaction is a no-op success -- presumed abort: the vote
        never became durable, so there is nothing to undo.  A ``commit``
        for an unknown transaction raises :class:`TxnStateError` (the
        coordinator counted a vote this shard does not hold -- that is
        lost durability, never something to paper over).
        """
        self._ensure_open()
        if decision not in ("commit", "abort"):
            raise TxnStateError(f"unknown 2PC decision: {decision!r}")
        self._check_txn_id(txn_id)
        with self.metrics.time("decide"), self._rwlock.write():
            prepared = self._prepared.get(txn_id)
            if prepared is None:
                record = self._store.txns.get(txn_id)
                if record is not None:
                    applied = bool(record.outcome.get("applied"))
                    if applied != (decision == "commit"):
                        raise TxnStateError(
                            f"decision {decision!r} for txn {txn_id!r} "
                            f"contradicts its recorded outcome "
                            f"(applied={applied})")
                    return {"resolved": True, "decision": decision,
                            "outcome": record.outcome}
                if decision == "abort":
                    return {"resolved": True, "decision": "abort",
                            "outcome": {"applied": False, "effective": [],
                                        "aborted": True}}
                raise TxnStateError(
                    f"commit decision for txn {txn_id!r}, but this shard "
                    "holds no prepared vote or recorded outcome for it")
            if decision == "commit":
                # Stage the induced deltas before the facts move, then let
                # the maintainer fold them in (counting applies counted
                # deltas; advance patches warm extensions; invalidate and
                # any staging failure reset).
                try:
                    staged_result = self._maintainer.interpret(
                        prepared.transaction)
                except DatalogError:
                    staged_result = None
                feed_before = self._feed_before_snapshot(staged_result)
                effective = self._store.commit(
                    prepared.transaction, sync=True,
                    txn=(txn_id, prepared.digest))
                outcome = CommitOutcome(True, prepared.transaction,
                                        effective).to_dict()
                if staged_result is not None:
                    self._maintainer.advance(staged_result)
                else:
                    self._maintainer.reset()
                self.metrics.increment("twopc.committed")
                self._feed_publish_delta(txn_id=txn_id, result=staged_result,
                                         before=feed_before)
            else:
                self._store.log_txn_outcome(txn_id, prepared.digest,
                                            applied=False, sync=True,
                                            status="aborted")
                outcome = {"applied": False, "effective": [],
                           "aborted": True}
                self.metrics.increment("twopc.aborted")
            del self._prepared[txn_id]
            self._store.txns.put(txn_id, prepared.digest, outcome)
            faults.failpoint(FP_DECIDE_PRE_ACK, txn_id=txn_id,
                             decision=decision)
            return {"resolved": True, "decision": decision,
                    "outcome": outcome}

    # -- group commit internals ------------------------------------------------

    def _finish(self, entry: _Pending, outcome: CommitOutcome | None = None,
                error: BaseException | None = None) -> None:
        """Record and acknowledge one entry -- the only path to ``finish``.

        A txn-stamped outcome enters the dedup table *before* the entry
        leaves the in-flight map, so a concurrent duplicate always finds at
        least one of the two.  Errors are not recorded: they are the
        retryable case.
        """
        if entry.txn_id is not None:
            if outcome is not None:
                self._store.txns.put(entry.txn_id, entry.digest,
                                     outcome.to_dict())
                self.metrics.increment("dedup.record")
            with self._pending_lock:
                if self._inflight.get(entry.txn_id) is entry:
                    del self._inflight[entry.txn_id]
        entry.finish(outcome=outcome, error=error)

    def _drain(self) -> None:
        """Leader loop: drain the pending queue batch by batch."""
        while True:
            with self._pending_lock:
                queue, self._pending = self._pending, []
            if not queue:
                return
            batch: list[_Pending] = []
            try:
                while queue:
                    batch, queue = self._take_batch(queue)
                    self._commit_batch(batch)
            except BaseException as error:
                # Storage-level failure: fail every commit this leader owns
                # rather than leaving waiters blocked forever.
                for entry in batch + queue:
                    if not entry.done.is_set():
                        self._finish(entry, error=error)
                raise

    def _take_batch(self, queue: list[_Pending]
                    ) -> tuple[list[_Pending], list[_Pending]]:
        """Pack a prefix of *queue* with pairwise-disjoint fact sets."""
        batch = [queue[0]]
        touched = set(queue[0].fact_keys())
        deferred: list[_Pending] = []
        for entry in queue[1:]:
            keys = entry.fact_keys()
            if len(batch) < self._max_batch and touched.isdisjoint(keys):
                batch.append(entry)
                touched |= keys
            else:
                if not touched.isdisjoint(keys):
                    self.metrics.increment("commit.conflicts_deferred")
                deferred.append(entry)
        return batch, deferred

    def _commit_batch(self, batch: list[_Pending]) -> None:
        self.metrics.increment("commit.batches")
        with obs.span("engine.commit_batch") as span:
            lock_start = time.perf_counter()
            with self._rwlock.write():
                if obs.enabled():
                    span.add("batch_size", len(batch))
                    span.add("lock_wait_seconds",
                             time.perf_counter() - lock_start)
                self._commit_batch_locked(batch, span)

    def _commit_batch_locked(self, batch: list[_Pending], span) -> None:
        db = self.db
        # Fact keys promised to in-doubt cross-shard transactions: a plain
        # commit touching one must wait (retryable) until the vote resolves,
        # or a commit decision could find its rows already changed.
        locked = frozenset(
            key for held in self._prepared.values() for key in held.keys)
        # Per-entry validation: one bad transaction must not sink its
        # batch mates.
        valid: list[_Pending] = []
        for entry in batch:
            try:
                entry.transaction.check_base_only(db)
            except TransactionError as error:
                self._finish(entry, error=error)
                continue
            if locked and not locked.isdisjoint(entry.fact_keys()):
                self.metrics.increment("twopc.conflicts")
                self._finish(entry, error=TxnConflictError(
                    "commit touches fact keys locked by an in-flight "
                    "cross-shard transaction; retry after it resolves"))
                continue
            valid.append(entry)
        if not valid:
            return
        if self._group_commit(valid):
            span.set(path="group")
            return
        span.set(path="serial")
        # Slow path: a non-reject policy somewhere in the batch, or
        # members that pass alone but not together -- process
        # sequentially through the shared checked path, still paying one
        # fsync for the whole batch.  A member the group commit already
        # rejected against the batch-start state keeps that verdict (the
        # serial order that runs it first agrees) and is not checked
        # again.  Entries whose events (or txn outcome markers) reached
        # the log are acknowledged only after sync_log(): waking a waiter
        # before the fsync would let the server confirm a commit -- or
        # remember a rejection -- a crash could still lose.  If sync_log
        # raises, _drain fails every unfinished entry.
        to_ack: list[tuple[_Pending, CommitOutcome]] = []
        applied_any = False
        for entry in valid:
            if entry.check is not None and not entry.check.ok:
                outcome = self._rejection(entry)
            else:
                try:
                    outcome = checked_commit(
                        self._processor, entry.transaction,
                        lambda t, e=entry: self._store.commit(
                            t, sync=False,
                            txn=((e.txn_id, e.digest)
                                 if e.txn_id is not None else None)),
                        on_violation=entry.policy)
                except DatalogError as error:
                    self._finish(entry, error=error)
                    continue
            applied_any = applied_any or outcome.applied
            if (outcome.applied and outcome.check is None
                    and entry.policy != "ignore" and db.constraints):
                # checked_commit skipped the check (inconsistent old state).
                self._note_unchecked(1)
            if outcome.applied:
                if outcome.effective.events or entry.txn_id is not None:
                    to_ack.append((entry, outcome))
                else:
                    self._finish(entry, outcome=outcome)
            elif entry.txn_id is not None:
                self._log_rejection(entry)
                to_ack.append((entry, outcome))
            else:
                self._finish(entry, outcome=outcome)
        if applied_any:
            # checked_commit invalidated the interpreter caches per entry;
            # stateful maintainers (counting) must drop their standing
            # state too, since facts moved without delta maintenance.
            self._maintainer.reset()
            # The feed has no per-commit deltas for a serial batch; tell
            # subscribers to re-pull rather than guess.
            self._feed_resync("slow-path")
        if to_ack:
            self._sync_log()
            faults.failpoint(FP_PRE_ACK)
        for entry, outcome in to_ack:
            self._finish(entry, outcome=outcome)

    def _rejection(self, entry: _Pending) -> CommitOutcome:
        """The outcome of a member its own batch-start verdict rejected:
        the maintainer's verdict is the reply, nothing is checked twice."""
        self.metrics.increment("commit.rejected_fast")
        return CommitOutcome(False, entry.transaction, check=entry.check)

    def _log_rejection(self, entry: _Pending) -> None:
        """Write a stamped rejection's outcome marker (unsynced).

        A rejection never reaches the log through commit(); the marker
        lets a post-crash retry replay the verdict instead of
        re-checking against a moved state.
        """
        self._store.log_txn_outcome(entry.txn_id, entry.digest,
                                    applied=False)

    def _sync_log(self) -> None:
        """One WAL fsync, traced and counted."""
        with obs.span("engine.fsync"):
            self._store.sync_log()
        self.metrics.increment("commit.wal_syncs")

    def _group_commit(self, batch: list[_Pending]) -> bool:
        """Fast path: shared-state checks, one fsync.  False -> slow path.

        Reject semantics are enforced per member: every transaction is
        checked on its *own* against the batch-start state, and one that
        fails is rejected with that verdict there and then -- a
        transaction each serial order would reject cannot hide behind its
        batch mates, and the maintainer's verdict is the reply (outcome
        marker, shared fsync, ack after the sync; no second check).  The
        members that pass must also pass merged (so the post-batch state
        is consistent); when they do not, they interact and the serial
        path decides between them.  All checks hit the same old state --
        that, plus the single fsync, is the amortisation group commit
        pays for.

        Derived-state maintenance is delegated to the configured
        :class:`StateMaintainer`: in ``advance`` mode the merged check
        runs with *full* predicate coverage and after the batch is
        applied its induced events patch the upward interpreter's
        memoised extensions in place
        (:meth:`UpdateProcessor.advance_state_caches`); in ``counting``
        mode the check itself *is* the delta-rule evaluation, and the
        derivation-count changes it carries are folded in after the
        batch is applied -- the view maintenance the paper reads out of
        the event rules, applied to our own serving state.  Unchecked
        commits (inconsistent old state) and any advance failure fall
        back to a full maintainer reset.
        """
        db = self.db
        if any(entry.policy != "reject" for entry in batch):
            return False
        faults.failpoint(FP_PRE_BATCH_MERGE, batch_size=len(batch))
        maintainer = self._maintainer
        checked = bool(db.constraints)
        if checked and maintainer.extension(GLOBAL_IC):
            # Inconsistent old state: commit unchecked (the paper's
            # methods need a consistent Do), but say so loudly.
            checked = False
            self._note_unchecked(len(batch))
        rejected: list[_Pending] = []
        if checked and len(batch) > 1:
            for entry in batch:
                entry.check = maintainer.check(entry.transaction)
            rejected = [entry for entry in batch if not entry.check.ok]
            batch = [entry for entry in batch if entry.check.ok]
        try:
            merged = Transaction(
                event for entry in batch for event in entry.transaction)
        except TransactionError:
            # Contradictory events across entries (insert vs delete of the
            # same fact) -- cannot happen for disjoint batches, but keep the
            # fast path honest.
            return False
        advance_result = None
        if checked and batch:
            merged_verdict, advance_result = maintainer.check_full(merged)
            if len(batch) == 1:
                batch[0].check = merged_verdict
            if not merged_verdict.ok:
                if len(batch) > 1:
                    return False  # they pass alone, not together
                rejected, batch, advance_result = rejected + batch, [], None
        elif not db.constraints:
            # No constraints, so no check ran -- a maintainer with warm
            # state still computes the batch's induced events so its
            # caches keep moving instead of resetting.
            try:
                advance_result = maintainer.interpret(merged)
            except DatalogError:
                advance_result = None
        faults.failpoint(FP_POST_CHECK_PRE_ACK, batch_size=len(batch))
        # Diff-fallback feed sourcing needs the pre-apply extents (the
        # maintainer produced no delta -- invalidate mode, unchecked
        # commits, cold caches); snapshot before any fact moves.
        feed_before = (self._feed_before_snapshot(advance_result)
                       if batch else None)
        outcomes: list[tuple[_Pending, CommitOutcome]] = []
        synced = False
        for entry in batch:
            effective = self._store.commit(
                entry.transaction, sync=False,
                txn=((entry.txn_id, entry.digest)
                     if entry.txn_id is not None else None))
            # A txn-stamped commit writes its identity line even when the
            # effective event set is empty -- that line must be fsynced
            # before the ack, like any other.
            synced = synced or bool(effective.events) \
                or entry.txn_id is not None
            outcomes.append((entry, CommitOutcome(
                True, entry.transaction, effective, entry.check)))
        for entry in rejected:
            if entry.txn_id is not None:
                self._log_rejection(entry)
                synced = True
            outcomes.append((entry, self._rejection(entry)))
        # State maintenance before the fsync: it depends only on the
        # in-memory state, and doing it here keeps maintained state and
        # database consistent even when sync_log fails below.
        if advance_result is not None:
            faults.failpoint(FP_MID_CACHE_ADVANCE)
            maintainer.advance(advance_result)
        elif batch:
            maintainer.reset()
        if synced:
            self._sync_log()
        # Publish strictly after the fsync: a frame for a commit a crash
        # could still lose would be a phantom.  A crash here (or inside
        # the publish failpoint) leaves the commit durable with its frame
        # unsent -- subscribers resync, they never see duplicates.
        if batch:
            self._feed_publish_delta(
                txn_id=(batch[0].txn_id if len(batch) == 1 else None),
                result=advance_result, before=feed_before)
        faults.failpoint(FP_PRE_ACK)
        # Acknowledge strictly after the fsync: a waiter woken earlier
        # could see a successful commit a crash then loses.  If sync_log
        # raised above, _drain fails every unfinished entry instead.
        for entry, outcome in outcomes:
            self._finish(entry, outcome=outcome)
        if batch:
            self.metrics.increment("commit.group_committed", len(batch))
        return True

    def _note_unchecked(self, n_transactions: int) -> None:
        """Count and log transactions committed without an integrity check."""
        self.metrics.increment("commit.unchecked", n_transactions)
        try:
            violated = ", ".join(sorted(
                self._processor.inconsistency_witnesses())) or "unknown"
        except DatalogError:
            violated = "unknown"
        logger.warning(
            "committing %d transaction(s) UNCHECKED: the current state "
            "already violates constraint(s) %s; integrity checking "
            "requires a consistent old state", n_transactions, violated)

    # -- maintenance -----------------------------------------------------------

    def checkpoint(self) -> None:
        """Fold the WAL into a fresh snapshot (write-locked)."""
        self._ensure_open()
        with self.metrics.time("checkpoint"), self._rwlock.write():
            self._store.checkpoint()
            # Snapshot/recovery boundaries rebuild from disk: conservative
            # full maintainer reset rather than trusting the warm state.
            self._maintainer.reset()
            self._feed_resync("checkpoint")

    def close(self, checkpoint: bool = True) -> None:
        """Refuse further requests; optionally checkpoint the WAL."""
        if self._closed:
            return
        with self._rwlock.write():
            self._closed = True
            if checkpoint:
                self._store.checkpoint()
