"""A thread-safe serving engine over ``DurableDatabase`` + ``UpdateProcessor``.

:class:`DatabaseEngine` is the concurrency layer the paper's library never
needed: it serialises writers, lets readers run concurrently, and lets
pending commits share one WAL fsync -- **group commit** -- while each is
still checked and applied on its own, one after the other.

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
  what-ifs of the ``advance`` maintainer (answered by the processor's
  memoising upward interpreter), and the one reader that finds the
  maintainer cold and re-materialises it once.
- *One commit step.*  Every commit -- any policy, any batch member, a 2PC
  ``decide`` -- is the paper's 5.1.1 for *one* transaction against *one*
  old state: validate (base-only events, no fact key locked by an
  in-doubt 2PC vote), integrity-check against the **current** state
  (``maintain`` then searches for the smallest repair), append to the
  WAL unsynced, apply, advance the maintained state with the commit's own
  induced events, and build its change-feed frame.  A failure before the
  first fact moves is that commit's own error; one after it fails the
  whole drain.
- *Group commit.*  ``commit`` enqueues the transaction and the first thread
  through the batch lock becomes the leader: it drains the queue and runs
  the commit step for up to ``max_batch`` entries, in queue order, under
  one write lock; then fsyncs once, publishes the frames in order, and
  only *then* wakes the waiters -- an acknowledged commit is always on
  disk.  Followers find their entry already committed by the time they
  acquire the lock.  The applied history is literally serial: a batch
  decides exactly what the same commits one at a time would, it just
  pays one fsync for them.
- *Exactly-once identity.*  A commit stamped with a ``txn_id`` is
  remembered: its outcome is written into the WAL alongside its events and
  kept in a bounded dedup table (:class:`repro.core.durable.TxnDedupTable`)
  that recovery rebuilds, so a retry -- after a dropped ack, a commit
  timeout, or a crash between fsync and ack -- returns the original result
  instead of double-applying.  A duplicate arriving while the first
  attempt is still queued joins its wait instead of enqueuing again.
- *Warm derived state.*  The program picks the maintainer: counting
  (derivation counts, [GMS93]) for every program it accepts, advance
  (the upward interpreter's memoised state, patched) for the recursive
  ones it refuses.  The integrity check is a *full-coverage* upward
  interpretation, so the applied commit **advances** the standing
  extensions with its induced events instead of dropping them, and
  interleaved readers keep hitting warm state.  Only a commit the
  maintainer has no interpretation for, a checkpoint and an advance
  failure reset it.  Surfaced as ``cache.advance`` / ``cache.invalidate``
  / ``cache.rematerialize`` and ``ivm.*`` counters and a ``cache_epoch``
  in ``stats``; see docs/SERVER.md for the lifecycle table.
- *One answer per state.*  A constant-free goal (``Unemp(x)``) is
  answered once per state: ``query`` keeps the answer beside the
  ``RWLock.writes`` count it was built at and serves it while the count
  stands.  Sound because every mutation of served state -- the commit
  step, 2PC ``prepare`` / ``decide``, ``checkpoint``, ``close``, and so
  every maintainer ``advance`` / ``reset`` -- runs under the write lock,
  whose writer bumps the count as it enters; no write site invalidates.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

from repro import faults
from repro.core.durable import DurableDatabase, transaction_digest
from repro.core.processor import UpdateProcessor
from repro.datalog.builtins import evaluate_builtin, is_builtin
from repro.datalog.database import answer_rows
from repro.datalog.errors import DatalogError, SafetyError
from repro.datalog.parser import parse_atom
from repro.datalog.rules import Atom
from repro.datalog.terms import Variable
from repro.events.events import Transaction
from repro.interpretations.counting import CountingUnsupportedError
from repro.interpretations.maintainers import (
    AdvancingMaintainer,
    CountingMaintainer,
    StateMaintainer,
)
from repro.datalog.errors import SubscriptionError
from repro.obs import tracer as obs
from repro.problems import ICCheckResult
from repro.problems.base import StateError
from repro.problems.condition_monitoring import (
    check_conditions,
    condition_changes,
)
from repro.serde import AnswerList, AnswerMemo
from repro.server.feed import BoundGoal, FeedBus, parse_goals
from repro.server.metrics import MetricsRegistry

logger = logging.getLogger("repro.server.engine")

FP_PRE_BATCH_MERGE = faults.register(
    "engine.pre_batch_merge",
    "group commit: batch claimed, before any member is checked or applied "
    "(crash loses the whole unacknowledged batch)")
FP_POST_CHECK_PRE_ACK = faults.register(
    "engine.post_check_pre_ack",
    "commit step: this member's integrity check passed, before it reaches "
    "the WAL (crash: checked but never applied; earlier members of the "
    "batch are appended but unfsynced and unacknowledged)")
FP_MID_CACHE_ADVANCE = faults.register(
    "engine.mid_cache_advance",
    "commit step: member appended (unfsynced), before the derived-state "
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
        #: Writers admitted so far; it cannot move under the read lock.
        self.writes = 0

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
            self.writes += 1
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
    _wire: dict | None = field(default=None, init=False, repr=False,
                               compare=False)

    def to_dict(self) -> dict:
        """A JSON-ready representation (the ``commit`` wire shape).

        Built once per outcome: the dedup record and the reply are the same
        dict, so treat it as read-only (replies are only serialised).
        """
        if self._wire is None:
            payload: dict = {
                "applied": self.applied,
                "effective": self.effective.to_dict(),
            }
            if self.check is not None:
                payload["check"] = self.check.to_dict()
            if self.repairs is not None:
                payload["repairs"] = self.repairs.to_dict()
            self._wire = payload  # published whole: waiters may share it
        return self._wire

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


def _fact_keys(transaction: Transaction) -> frozenset:
    """The ``(predicate, args)`` keys a transaction's events touch."""
    return frozenset((e.predicate, e.args) for e in transaction)


def _repair(db, transaction: Transaction, policy: str) -> Transaction | None:
    """What to apply in place of a violating *transaction*: under
    ``maintain`` its smallest consistency-preserving extension, otherwise
    (or when the search finds none) ``None`` -- reject."""
    if policy != "maintain":
        return None
    from repro.core.maintenance import maintain_iteratively

    return maintain_iteratively(db, transaction).best()


def checked_commit(processor: UpdateProcessor, transaction: Transaction,
                   apply: Callable[[Transaction], object],
                   on_violation: str = "reject") -> CommitOutcome:
    """The REPL's checked commit: the engine's commit step without an engine.

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
            to_apply = _repair(db, transaction, on_violation)
            if to_apply is None:
                return CommitOutcome(False, transaction, check=check_result)
            repairs = Transaction(to_apply.events - transaction.events)
    effective = to_apply.normalized(db)
    apply(to_apply)
    processor.invalidate_state_caches()
    return CommitOutcome(True, transaction, effective, check_result, repairs)


#: The engine counter of each ``DownwardStats.path``.
_DOWNWARD_PATHS = {"template": "downward.template_hits",
                   "unfold": "downward.template_misses",
                   "untemplated": "downward.untemplated"}

#: The engine counter of each ``CountedResult.path``.
_UPWARD_PATHS = {"template": "upward.template_hits",
                 "delta": "upward.template_misses",
                 "untemplated": "upward.untemplated"}


class _Pending:
    """One queued commit awaiting its batch."""

    __slots__ = ("transaction", "policy", "done", "outcome", "error",
                 "txn_id", "digest")

    def __init__(self, transaction: Transaction, policy: str,
                 txn_id: str | None = None, digest: str | None = None):
        self.transaction = transaction
        self.policy = policy
        self.txn_id = txn_id
        self.digest = digest
        self.done = threading.Event()
        self.outcome: CommitOutcome | None = None
        self.error: BaseException | None = None

    @property
    def txn(self) -> tuple[str, str] | None:
        """The ``(txn_id, digest)`` identity the WAL records, if stamped."""
        return None if self.txn_id is None else (self.txn_id, self.digest)

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
        one WAL fsync (each is still checked and applied on its own, in
        queue order).
    on_violation:
        default commit policy (``reject`` / ``maintain`` / ``ignore``);
        individual commits may override it.
    cache_mode, eval_engine:
        accepted for compatibility and ignored: they select nothing.  The
        program picks the :class:`~repro.interpretations.maintainers.StateMaintainer`
        -- :class:`CountingMaintainer` (per-tuple derivation counts kept
        *during* the commit, so check + maintenance cost scales with the
        transaction) for every program counting accepts,
        :class:`AdvancingMaintainer` (the upward interpreter's memoised
        state, patched with each commit's induced events) for the
        recursive programs it refuses; see docs/IVM.md.  A checkpoint
        always resets the maintainer.  Every fixpoint evaluates with the
        compiled join plans (``REPRO_EVAL_ENGINE`` pins the interpreter
        for a whole run; docs/EVALUATION.md).
    """

    def __init__(self, store: DurableDatabase, *, max_batch: int = 64,
                 on_violation: str = "reject", simplify: bool = True,
                 metrics: MetricsRegistry | None = None,
                 cache_mode: str | None = None,
                 eval_engine: str | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if on_violation not in ("reject", "maintain", "ignore"):
            raise ValueError(f"unknown on_violation policy: {on_violation!r}")
        self._store = store
        self._processor = UpdateProcessor(store.db, simplify=simplify)
        self._max_batch = max_batch
        self._policy = on_violation
        #: Bumped on every full cache invalidation; readers can compare
        #: epochs across ``stats`` calls to see whether their reads stayed
        #: on warm state.
        self._cache_epoch = 0
        self.metrics = metrics or MetricsRegistry()
        #: Standing-query subscriptions over derived predicates; commits
        #: publish their induced deltas here (see docs/SUBSCRIPTIONS.md).
        self.feed = FeedBus(self.metrics)
        self._processor.on_cache_event = self._record_cache_event
        self._maintainer = self._open_maintainer()
        self._rwlock = RWLock()
        #: ``(RWLock.writes, {memo key: AnswerMemo})`` -- see ``query``.
        self._memo: tuple[int, dict] = (0, {})
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
            txn_id: _PreparedTxn(transaction, digest, _fact_keys(transaction))
            for txn_id, (digest, transaction) in store.in_doubt.items()
        }
        self._closed = False

    def _open_maintainer(self) -> StateMaintainer:
        """Counting for every program it accepts, advance for the rest.

        Counting is bootstrapped eagerly: the one-time count
        materialisation is paid at open, and a recursive program is
        refused there, before any count is built.
        """
        counting = CountingMaintainer(self._processor)
        counting.on_event = self._record_ivm_event
        counting.on_upward = self._record_upward
        try:
            counting.bootstrap()
        except CountingUnsupportedError:
            return AdvancingMaintainer(self._processor)
        self.metrics.increment("ivm.delta_rules",
                               counting.counting_engine().n_delta_rules)
        return counting

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

    def _record_upward(self, path: str) -> None:
        """Maintainer hook -> ``upward.*`` metrics; names the path on the
        ``engine.whatif`` span when a what-if (not a commit) asked."""
        self.metrics.increment(_UPWARD_PATHS[path])
        span = obs.current_span()
        if span.name == "engine.whatif":
            span.set(path=path)

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
    def cache_mode(self) -> str:
        """The name of the maintainer the program picked."""
        return self._maintainer.name

    @property
    def maintainer(self) -> StateMaintainer:
        """The state maintainer the program picked."""
        return self._maintainer

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
        (checkpoint, recovery) the first reader re-materialises
        the state once under the interpreter mutex and every read until
        the next reset is served from that.

        A goal with no constant over a known predicate is answered once
        per state: the answer is memoised until the next writer enters,
        and each call returns a fresh list of it (each hit bumps
        ``query.memo_hits``), an :class:`~repro.serde.AnswerList` that
        carries the memo entry.  The entry also keeps the JSON text of the
        ``query`` reply's result (:func:`~repro.serde.answers_result`),
        encoded by the state's first reply; the same writer invalidates
        rows and text, and every later reply puts the text in as it
        stands, neither rebuilt nor re-encoded.
        """
        self._ensure_open()
        with self.metrics.time("query"), obs.span("engine.query") as span:
            target = parse_atom(goal)
            with self._rwlock.read():
                now, (writes, memo) = self._rwlock.writes, self._memo
                key = self._memo_key(target)
                memoised = memo.get(key) if writes == now else None
                if memoised is not None:
                    path, answers = "memo", memoised.rows
                    self.metrics.increment("query.memo_hits")
                else:
                    path, rows = self._goal_rows(target)
                    answers = answer_rows(target, rows)
                    if key is not None:
                        if writes != now:  # keep this state's answers only
                            memo = {}
                            self._memo = (now, memo)
                        memoised = memo[key] = AnswerMemo(tuple(answers))
            if obs.enabled():
                span.set(path=path)
                span.add("answers", len(answers))
            return answers if memoised is None else AnswerList(memoised)

    def _memo_key(self, target: Atom) -> tuple | None:
        """The memo key of a constant-free goal on a known predicate:
        ``(predicate, repeat-shape)``, so ``P(x, x)`` is not ``P(x, y)``."""
        args = target.args
        if (not args or not all(isinstance(a, Variable) for a in args)
                or is_builtin(target.predicate)
                or not self.db.check_goal(target)):
            return None
        return target.predicate, tuple(map(args.index, args))

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
        (after the same warm-once as ``query``), and its hook names the
        span's ``path`` (``template`` / ``delta`` / ``untemplated``); the
        others answer through the processor's memoising interpreter, one
        at a time, on ``path=processor``.
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
                span.set(op=op, warmup=warmed)
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
        Counts whether a template answered (``downward.template_hits``),
        was recorded (``downward.template_misses``) or was ruled out
        (``downward.untemplated``).
        """
        result = self._interpret(
            "downward", lambda: self._processor.downward(requests))
        self.metrics.increment(_DOWNWARD_PATHS[result.stats.path])
        return result

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
                "cache_mode": self._maintainer.name,
                "cache_epoch": self._cache_epoch,
                "dedup_size": len(self._store.txns),
                "dedup_capacity": self._store.txns.capacity,
                "in_doubt": len(self._prepared),
                "feed_subscriptions": self.feed.active,
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
            "cache": {"mode": self._maintainer.name,
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

    def _feed_frame(self, txn_id: str | None, result):
        """The frame of one just-applied commit, as a zero-argument publish
        call (None when nobody is subscribed).

        Built right after the apply -- the next batch member moves the
        extents again -- and run by :meth:`_feed_publish` once the fsync
        made the commit durable.  The frame is *result*, the
        ``UpwardResult`` the maintainer advanced by; a commit without one
        (or one that does not cover every watched predicate) gives the
        subscribers a ``resync`` marker instead of a silently wrong delta.
        """
        feed = self.feed
        if not feed.active:
            return None
        epoch = self._cache_epoch

        def resync(reason: str):
            return partial(feed.publish_resync, epoch=epoch, reason=reason)

        if result is None:
            return resync("uncovered-commit")
        covered = getattr(result, "covered", None)
        if covered is not None and not feed.watched_predicates() <= covered:
            return resync("partial-coverage")
        return partial(feed.publish_delta, txn_id=txn_id, epoch=epoch,
                       inserted=result.insertions, deleted=result.deletions)

    def _feed_publish(self, frames) -> None:
        """Publish durable commits' frames in order (never fails a commit).

        Strictly after the fsync: a frame for a commit a crash could
        still lose would be a phantom.  A crash here (or inside the
        failpoint) leaves the commits durable with their frames unsent --
        subscribers resync, they never see duplicates.
        """
        for publish in filter(None, frames):
            faults.failpoint(FP_FEED_PUBLISH)
            try:
                publish()
            except Exception:
                logger.exception("change-feed publish failed")

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

    def _admit(self, transaction: Transaction, policy: str,
               txn_id: str | None
               ) -> "tuple[_Pending | CommitOutcome, bool]":
        """Enqueue one commit, resolving a stamped one against the
        dedup/in-flight state first.

        Returns ``(slot, fresh)``: the recorded :class:`CommitOutcome` for
        a completed duplicate, the existing :class:`_Pending` for a running
        duplicate (the caller joins its wait), or a freshly enqueued entry
        (``fresh`` is True only then).  Must be called under
        ``_pending_lock``.
        """
        if txn_id is None:
            self._pending.append(_Pending(transaction, policy))
            return self._pending[-1], True
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
        reaches the batch lock first commits every pending transaction,
        in queue order, and they share its fsync.

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
            if txn_id is not None:
                self._check_txn_id(txn_id)
            with self._pending_lock:
                entry, fresh = self._admit(
                    transaction, on_violation or self._policy, txn_id)
            if isinstance(entry, CommitOutcome):
                return entry
            # A duplicate joining a running attempt must not withdraw
            # the entry on its own timeout -- the original owns it.
            joined = not fresh
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
            keys = self._validate(transaction)
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
                # The vote was checked at prepare and its keys have been
                # locked since: apply it like any batch member, durably.
                effective, frame = self._apply(
                    prepared.transaction,
                    self._induced(prepared.transaction),
                    (txn_id, prepared.digest), sync=True)
                outcome = CommitOutcome(True, prepared.transaction,
                                        effective).to_dict()
                self.metrics.increment("twopc.committed")
                self._feed_publish([frame])
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
        """Leader loop: drain the pending queue, ``max_batch`` at a time."""
        while True:
            with self._pending_lock:
                queue, self._pending = self._pending, []
            if not queue:
                return
            try:
                for start in range(0, len(queue), self._max_batch):
                    self._commit_batch(queue[start:start + self._max_batch])
            except BaseException as error:
                # Storage-level failure: fail every commit this leader owns
                # rather than leaving waiters blocked forever.
                for entry in queue:
                    if not entry.done.is_set():
                        self._finish(entry, error=error)
                raise

    def _commit_batch(self, batch: list[_Pending]) -> None:
        self.metrics.increment("commit.batches")
        with obs.span("engine.commit_batch") as span:
            lock_start = time.perf_counter()
            with self._rwlock.write():
                if obs.enabled():
                    span.add("batch_size", len(batch))
                    span.add("lock_wait_seconds",
                             time.perf_counter() - lock_start)
                self._commit_batch_locked(batch)

    def _commit_batch_locked(self, batch: list[_Pending]) -> None:
        """The commit step for each member in queue order, then one fsync.

        A member that fails before its first fact moves (validation,
        check, repair search) fails alone; anything raised from its apply
        onward propagates and :meth:`_drain` fails every unfinished
        entry.  Nobody is acknowledged before :meth:`_sync_log`: waking a
        waiter earlier would let the server confirm a commit, or remember
        a rejection, that a crash could still lose.
        """
        faults.failpoint(FP_PRE_BATCH_MERGE, batch_size=len(batch))
        acks: list[tuple[_Pending, CommitOutcome]] = []
        frames = []  # one per applied member (None when nobody listens)
        logged = False
        for entry in batch:
            try:
                to_apply, result, verdict, repairs = self._check(
                    entry.transaction, entry.policy)
            except DatalogError as error:
                self._finish(entry, error=error)
                continue
            if to_apply is None:
                # The maintainer's verdict is the reply.  A stamped one
                # leaves a marker, so a post-crash retry replays it
                # instead of re-checking against a moved state.
                self.metrics.increment("commit.rejected_fast")
                outcome = CommitOutcome(False, entry.transaction,
                                        check=verdict)
                if entry.txn_id is not None:
                    self._store.log_txn_outcome(entry.txn_id, entry.digest,
                                                applied=False)
                    logged = True
            else:
                faults.failpoint(FP_POST_CHECK_PRE_ACK)
                effective, frame = self._apply(to_apply, result, entry.txn)
                outcome = CommitOutcome(True, entry.transaction, effective,
                                        verdict, repairs)
                frames.append(frame)
                # A stamped commit logs its identity line even when its
                # effective event set is empty.
                logged = (logged or bool(effective.events)
                          or entry.txn_id is not None)
            acks.append((entry, outcome))
        if logged:
            self._sync_log()
        self._feed_publish(frames)
        if acks:
            faults.failpoint(FP_PRE_ACK)
        for entry, outcome in acks:
            self._finish(entry, outcome=outcome)
        if frames:
            self.metrics.increment("commit.group_committed", len(frames))

    def _check(self, transaction: Transaction, policy: str):
        """Everything that can refuse a commit, before any fact moves.

        Validation, then the integrity check against the *current* state;
        ``maintain`` extends a violating transaction with its smallest
        repair.  Returns ``(to_apply, result, verdict, repairs)``:
        ``to_apply`` is None for a rejection, ``result`` the full-coverage
        upward interpretation of ``to_apply`` for :meth:`_apply` (None
        when the maintainer has none).
        """
        db = self.db
        self._validate(transaction)
        to_apply = transaction
        verdict = result = repairs = None
        if policy != "ignore" and db.constraints:
            try:
                verdict, result = self._maintainer.check_full(transaction)
            except StateError:
                # Inconsistent old state: commit unchecked (the paper's
                # methods need a consistent Do), but say so loudly.
                self._note_unchecked()
            if verdict is not None and not verdict.ok:
                to_apply = _repair(db, transaction, policy)
                if to_apply is None:
                    return None, None, verdict, None
                repairs = Transaction(to_apply.events - transaction.events)
                result = None
        if result is None:
            result = self._induced(to_apply)
        return to_apply, result, verdict, repairs

    def _validate(self, transaction: Transaction) -> frozenset:
        """Refuse derived events and fact keys promised to an in-doubt 2PC
        vote (a commit decision must find its rows unchanged; retryable --
        the lock clears when the vote resolves).  Returns the keys."""
        transaction.check_base_only(self.db)
        keys = _fact_keys(transaction)
        for other_id, other in self._prepared.items():
            if not keys.isdisjoint(other.keys):
                self.metrics.increment("twopc.conflicts")
                raise TxnConflictError(
                    "transaction touches fact keys locked by in-flight "
                    f"cross-shard transaction {other_id!r}; retry after it "
                    "resolves")
        return keys

    def _induced(self, transaction: Transaction):
        """Full-coverage induced events of a commit no check computed them
        for, or None when the maintainer's interpretation fails."""
        try:
            return self._maintainer.interpret(transaction)
        except DatalogError:
            return None

    def _apply(self, transaction: Transaction, result,
               txn: tuple[str, str] | None, *, sync: bool = False):
        """Move the facts of one checked commit: ``(effective, frame)``.

        WAL append, in-memory apply, then the maintained state follows --
        advanced by *result*, the upward interpretation of *transaction*
        over the state it is applied to, or reset when there is none --
        so facts and derived state agree even if the fsync later fails.
        From here on a failure is not this commit's alone: facts moved.
        """
        effective = self._store.commit(transaction, sync=sync, txn=txn)
        if result is not None:
            faults.failpoint(FP_MID_CACHE_ADVANCE)
            self._maintainer.advance(result)
        else:
            self._maintainer.reset()
        return effective, self._feed_frame(txn[0] if txn else None, result)

    def _sync_log(self) -> None:
        """One WAL fsync, traced and counted."""
        with obs.span("engine.fsync"):
            self._store.sync_log()
        self.metrics.increment("commit.wal_syncs")

    def _note_unchecked(self) -> None:
        """Count and log a transaction committed without an integrity check."""
        self.metrics.increment("commit.unchecked")
        try:
            violated = ", ".join(sorted(
                self._processor.inconsistency_witnesses())) or "unknown"
        except DatalogError:
            violated = "unknown"
        logger.warning(
            "committing a transaction UNCHECKED: the current state already "
            "violates constraint(s) %s; integrity checking requires a "
            "consistent old state", violated)

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
        """Refuse further requests; optionally checkpoint the WAL; close
        the store's log descriptor."""
        if self._closed:
            return
        with self._rwlock.write():
            self._closed = True
            if checkpoint:
                self._store.checkpoint()
            self._store.close()
