"""Durable storage: snapshot plus write-ahead event log, with recovery.

Events are the natural unit of durability for a deductive database: the
intensional part changes rarely (snapshot it), the extensional part changes
through transactions (log their events).  :class:`DurableDatabase` wraps a
:class:`~repro.datalog.database.DeductiveDatabase` with

- a **snapshot** file in the parser's concrete syntax,
- an **event log** with one committed transaction per line
  (``insert P(A), delete Q(B)`` -- the transaction parser's own syntax),
- crash recovery: load the snapshot, replay the log, dropping a torn final
  line (a crash mid-append);
- :meth:`checkpoint`: fold the log into a fresh snapshot and truncate it.

Durability contract: :meth:`commit` fsyncs the log before returning, so an
acknowledged commit survives a crash.  The group-commit path of
:class:`repro.server.engine.DatabaseEngine` amortises that cost by
appending a whole batch with ``sync=False`` and calling :meth:`sync_log`
once.

Both logs of the system -- ``events.log`` here, ``decisions.log`` of
:class:`repro.shard.coordinator.DecisionLog` -- are an :class:`AppendLog`:
one ``O_APPEND`` descriptor opened with the log and kept until its owner's
``close()``, so a record is one ``os.write`` and a sync one ``os.fsync``.
Whenever the file is rewritten (checkpoint truncation, torn-tail repair)
it is replaced atomically and the descriptor re-opened on the new file.

Exactly-once identity
---------------------
A commit stamped with a ``txn_id`` writes a *self-identifying* WAL line::

    #txn <id> <digest> applied :: insert P(A), delete Q(B)
    #txn <id> <digest> applied ::               (applied, no net effect)
    #txn <id> <digest> rejected ::              (definitive rejection)
    #txn <id> <digest> prepared :: insert P(A)  (2PC vote, not yet applied)
    #txn <id> <digest> aborted ::               (2PC abort decision)

The header travels on the same line as the events, so the record is as
atomic as the append itself: a torn write loses the whole commit *and* its
identity together, never one without the other.  Recovery rebuilds the
bounded :class:`TxnDedupTable` from these headers (plus the ``txns.json``
checkpoint sidecar, which preserves the table across log truncation), which
is what lets a retried commit whose first attempt survived the crash return
the original outcome instead of double-applying.  Legacy logs without
headers replay unchanged.

Two-phase commit markers
------------------------
A ``prepared`` line is a shard's durable yes-vote in a cross-shard commit
(:mod:`repro.shard`): it carries the *requested* events but replay does not
apply them.  The vote is resolved by a later line for the same ``txn_id``
-- ``applied`` (the commit decision, carrying the effective events) or
``aborted`` (the abort decision, eventless).  A prepared line with no
resolution at recovery time is **in doubt**: replay collects these into
:attr:`DurableDatabase.in_doubt` so the engine can re-lock their fact keys
and the coordinator can resolve them against its decision log.  Checkpoints
re-append unresolved prepared lines after truncating the log, so an
in-doubt vote survives any number of checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import ParseError, TransactionError
from repro.events.events import Transaction, parse_transaction

logger = logging.getLogger("repro.core.durable")

SNAPSHOT_NAME = "snapshot.dl"
LOG_NAME = "events.log"
TXN_SIDECAR_NAME = "txns.json"

#: WAL lines carrying a transaction identity start with this marker.
TXN_LINE_PREFIX = "#txn "
#: Separates the txn header from the (possibly empty) event payload.
TXN_SEPARATOR = " :: "
#: Default bound on remembered transaction outcomes (FIFO eviction).
DEFAULT_DEDUP_CAPACITY = 4096
#: Valid statuses in a ``#txn`` WAL header (see the module docstring).
TXN_STATUSES = ("applied", "rejected", "prepared", "aborted")

FP_WAL_MID_APPEND = faults.register(
    "wal.mid_append",
    "inside a WAL append, before the payload is complete; a 'torn' action "
    "writes only param of the line then crashes (the torn-tail signature)")
FP_WAL_PRE_FSYNC = faults.register(
    "wal.pre_fsync",
    "after WAL bytes reach the file, before the fsync that makes them "
    "durable (both the per-commit and the group sync_log path)")
FP_CHECKPOINT_PRE_RENAME = faults.register(
    "checkpoint.pre_rename",
    "checkpoint: new snapshot synced to its temp file, before the atomic "
    "rename over the old one (crash leaves old snapshot + full log)")
FP_CHECKPOINT_PRE_TRUNCATE = faults.register(
    "checkpoint.pre_truncate",
    "checkpoint: new snapshot in place, before the log truncate (crash "
    "leaves new snapshot + stale log; replay must be idempotent)")


def transaction_digest(transaction: Transaction) -> str:
    """A stable fingerprint of a transaction's *requested* body.

    Retries resend the same body, so the digest lets the dedup table
    distinguish a legitimate retry (same ``txn_id``, same digest) from a
    ``txn_id`` reuse bug (same id, different body).  Sorted rendering makes
    it independent of event order.
    """
    text = ",".join(sorted(
        ("insert " if e.is_insertion else "delete ") + str(e.atom())
        for e in transaction))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TxnRecord:
    """One remembered commit outcome: body fingerprint plus wire result."""

    digest: str
    #: The ``CommitOutcome.to_dict()`` shape (recovered records carry only
    #: ``applied``/``effective`` plus ``"recovered": True`` -- the integrity
    #: check verdict does not survive a crash, the outcome does).
    outcome: dict


class TxnDedupTable:
    """A bounded, thread-safe map of ``txn_id`` -> :class:`TxnRecord`.

    Insertion-ordered with FIFO eviction at *capacity*: the oldest
    remembered outcome is forgotten first.  A retry arriving after its
    record was evicted re-executes -- the bound is the explicit limit of
    the exactly-once window, sized so that any sane retry policy lands
    well inside it.
    """

    def __init__(self, capacity: int = DEFAULT_DEDUP_CAPACITY):
        if capacity < 1:
            raise ValueError("dedup capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: OrderedDict[str, TxnRecord] = OrderedDict()

    def get(self, txn_id: str) -> TxnRecord | None:
        with self._lock:
            return self._records.get(txn_id)

    def put(self, txn_id: str, digest: str, outcome: dict) -> None:
        with self._lock:
            if txn_id in self._records:
                self._records.move_to_end(txn_id)
            self._records[txn_id] = TxnRecord(digest, outcome)
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def snapshot(self) -> list[list]:
        """Insertion-ordered ``[id, digest, outcome]`` rows (the sidecar)."""
        with self._lock:
            return [[txn_id, record.digest, record.outcome]
                    for txn_id, record in self._records.items()]


def parse_log_line(text: str) -> tuple[tuple[str, str, str] | None, str]:
    """Split one WAL line into ``((txn_id, digest, status) | None, body)``.

    Raises :class:`~repro.datalog.errors.ParseError` on a malformed txn
    header, so replay treats a torn header exactly like a torn payload.
    """
    if not text.startswith(TXN_LINE_PREFIX):
        return None, text
    # Partition on " ::" (not " :: ") so a no-payload line, whose trailing
    # space was stripped, still splits; the header never contains "::".
    header, separator, body = text.partition(TXN_SEPARATOR.rstrip())
    if not separator:
        raise ParseError(f"txn log line has no '{TXN_SEPARATOR.strip()}' "
                         f"separator: {text!r}")
    parts = header.split()
    if len(parts) != 4 or parts[3] not in TXN_STATUSES:
        raise ParseError(f"malformed txn log header: {header!r}")
    return (parts[1], parts[2], parts[3]), body.strip()


def _render_events(transaction: Transaction) -> str:
    """The WAL rendering of a transaction body (sorted, parseable)."""
    return ", ".join(sorted(
        ("insert " if e.is_insertion else "delete ") + str(e.atom())
        for e in transaction))


def _txn_line(txn_id: str, digest: str, status: str, body: str = "") -> str:
    """A self-identifying WAL line (no newline; see the module docstring)."""
    return (f"{TXN_LINE_PREFIX}{txn_id} {digest} {status}"
            f"{TXN_SEPARATOR}{body}").rstrip()


def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_directory(directory: Path) -> None:
    # A rename is only durable once the containing directory is synced.
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class AppendLog:
    """An append-only UTF-8 text log written through one kept descriptor.

    The file is opened ``O_WRONLY | O_APPEND | O_CREAT`` once, so an append
    is one ``os.write`` and a sync one ``os.fsync`` -- nothing is re-opened
    per record.  The owner (:class:`DurableDatabase` for ``events.log``,
    :class:`repro.shard.coordinator.DecisionLog` for ``decisions.log``)
    serialises access and calls :meth:`close`; a ``weakref.finalize``
    closes the descriptor of a log that is abandoned instead (a test, a
    simulated crash).
    """

    def __init__(self, path: Path):
        self.path = path
        self._open()

    def _open(self) -> None:
        self._fd = os.open(self.path,
                           os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        self._closer = weakref.finalize(self, os.close, self._fd)

    def close(self) -> None:
        """Close the descriptor (idempotent); later appends raise."""
        self._closer()
        self._fd = -1

    def read(self) -> str:
        return self.path.read_text(encoding="utf-8")

    def append(self, text: str) -> None:
        """Write *text* (whole newline-terminated lines; the torn-write
        failpoint passes a strict prefix) at the end of the file."""
        view = memoryview(text.encode("utf-8"))
        while view:  # one write, unless the kernel took only part of it
            view = view[os.write(self._fd, view):]

    def sync(self) -> None:
        os.fsync(self._fd)

    def replace(self, lines: list[str]) -> None:
        """Atomically make *lines* the whole log, then re-open on it.

        Temp file + fsync + rename + directory fsync: a crash at any point
        leaves the old log or the new one, never a truncated mix.  The kept
        descriptor still names the old, now unlinked file, so it is closed
        and a fresh one opened on the new file before anything is appended.
        """
        temporary = self.path.with_suffix(".tmp")
        with temporary.open("w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
            _fsync_file(fh)
        os.replace(temporary, self.path)
        _fsync_directory(self.path.parent)
        self.close()
        self._open()


class DurableDatabase:
    """A deductive database persisted under a directory.

    Open (or create) with :meth:`open`; route all fact updates through
    :meth:`commit`.  Rule changes require :meth:`checkpoint` (they rewrite
    the snapshot).

    The store holds one descriptor on ``events.log`` from construction to
    :meth:`close` (:meth:`repro.server.engine.DatabaseEngine.close` calls
    it); a store that is dropped without it -- a test, a simulated crash
    -- gives the descriptor back when it is collected.  Callers serialise
    writes (the engine's write lock).
    """

    def __init__(self, db: DeductiveDatabase, directory: Path,
                 txns: TxnDedupTable | None = None,
                 in_doubt: dict[str, tuple[str, Transaction]] | None = None):
        self._db = db
        self._directory = directory
        self._log = AppendLog(directory / LOG_NAME)
        #: Commit records in the log, counted as they are appended and
        #: replayed so that :meth:`log_length` never reads the file.
        self._log_length = 0
        #: Remembered commit outcomes by ``txn_id`` (the dedup table).
        self.txns = txns if txns is not None else TxnDedupTable()
        #: Unresolved 2PC votes: ``txn_id -> (digest, requested events)``.
        #: Maintained by :meth:`log_prepare` / :meth:`commit` /
        #: :meth:`log_txn_outcome`; rebuilt from the log on :meth:`open`.
        self.in_doubt: dict[str, tuple[str, Transaction]] = \
            dict(in_doubt) if in_doubt else {}

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, directory, initial: DeductiveDatabase | None = None, *,
             dedup_capacity: int = DEFAULT_DEDUP_CAPACITY
             ) -> "DurableDatabase":
        """Open a durable database, recovering from snapshot + log.

        For a fresh directory, ``initial`` (or an empty database) becomes
        the first snapshot.  A torn final log line -- the signature of a
        crash between append and fsync -- is dropped and the durable prefix
        recovered; corruption anywhere *before* the final line still
        raises, since silently skipping acknowledged commits would be worse
        than failing loudly.  The transaction dedup table is rebuilt from
        the ``txns.json`` sidecar (checkpoint-era records) plus the ``#txn``
        headers in the log, newest record winning.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        snapshot_path = directory / SNAPSHOT_NAME
        txns = TxnDedupTable(dedup_capacity)
        if snapshot_path.exists():
            if initial is not None:
                raise TransactionError(
                    f"{directory} already holds a database; open it without "
                    f"'initial' or choose a fresh directory"
                )
            db = DeductiveDatabase.from_source(snapshot_path.read_text())
            cls._load_txn_sidecar(directory, txns)
            store = cls(db, directory, txns)
            store._replay_log()
            return store
        db = initial.copy() if initial is not None else DeductiveDatabase()
        snapshot_path.write_text(str(db) + "\n")
        (directory / LOG_NAME).write_text("")
        return cls(db, directory, txns)

    @staticmethod
    def _load_txn_sidecar(directory: Path, txns: TxnDedupTable) -> None:
        path = directory / TXN_SIDECAR_NAME
        if not path.exists():
            return
        try:
            payload = json.loads(path.read_text())
            entries = payload["entries"]
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            # The sidecar is written atomically, so corruption means disk
            # trouble.  Dedup metadata is an availability feature: degrade
            # (retries inside the lost window may re-execute) rather than
            # refusing to serve the data at all -- but say so.
            logger.warning("ignoring unreadable txn sidecar %s: %s",
                           path, error)
            return
        for txn_id, digest, outcome in entries:
            txns.put(txn_id, digest, outcome)

    def _replay_log(self) -> None:
        """Apply the log to the snapshot state, in one pass over its lines;
        fills :attr:`txns` and :attr:`in_doubt` and counts the commits."""
        db, in_doubt = self._db, self.in_doubt
        raw = self._log.read()
        lines = [line.strip() for line in raw.splitlines()]
        # Appends always end with a newline, so a file that does not is
        # missing the tail of its final write: treat that line as torn even
        # if the fragment happens to parse.
        torn_tail = bool(raw) and not raw.endswith("\n")
        last = max((i for i, text in enumerate(lines) if text), default=-1)
        good: list[str] = []
        torn = False
        for index, text in enumerate(lines):
            if not text:
                continue
            is_last = index == last
            if is_last and torn_tail:
                torn = True
                break
            try:
                header, body = parse_log_line(text)
                events = parse_transaction(body) if body else Transaction()
            except ParseError:
                if not is_last:
                    raise
                torn = True
                break
            status = header[2] if header is not None else "applied"
            if status == "prepared":
                # A durable yes-vote: remember it, apply nothing.  A later
                # applied/aborted line for the same id resolves it; a vote
                # still here at the end of the log is in doubt.
                txn_id, digest, _ = header
                in_doubt[txn_id] = (digest, events)
                good.append(text)
                continue
            if status == "applied":
                for event in events:
                    if event.is_insertion:
                        db.add_fact(event.predicate, *event.args)
                    else:
                        db.remove_fact(event.predicate, *event.args)
            if header is not None:
                txn_id, digest, _ = header
                in_doubt.pop(txn_id, None)
                outcome = {
                    "applied": status == "applied",
                    "effective": (events.to_dict()
                                  if status == "applied" else []),
                    "recovered": True,
                }
                if status == "aborted":
                    outcome["aborted"] = True
                self.txns.put(txn_id, digest, outcome)
            self._log_length += bool(body)
            good.append(text)
        if torn:
            # Atomically, not in place: truncating would open a window
            # where a second crash loses the whole durable prefix this
            # method exists to recover.
            self._log.replace(good)

    @property
    def db(self) -> DeductiveDatabase:
        """The live in-memory database."""
        return self._db

    @property
    def directory(self) -> Path:
        """The storage directory."""
        return self._directory

    # -- writes ---------------------------------------------------------------

    def commit(self, transaction: Transaction, sync: bool = True,
               txn: tuple[str, str] | None = None) -> Transaction:
        """Durably apply a transaction; returns the effective events.

        The effective (normalised) transaction is appended to the log
        *before* being applied in memory, so a crash between the two leaves
        a replayable log.  Replaying an already-applied effective event is
        idempotent under set semantics, so recovery is safe either way.

        With ``sync=True`` (the default) the append is fsynced before the
        in-memory apply, so the commit is durable once this returns.
        ``sync=False`` skips the fsync -- the group-commit path uses it to
        append a whole batch and pay for one :meth:`sync_log` instead.

        *txn* is an optional ``(txn_id, digest)`` identity: the WAL line is
        prefixed with a ``#txn`` header (one line, so identity and events
        are torn or durable together), and a line is written even when the
        effective event set is empty -- an acked no-op must be remembered
        too, or a post-crash retry could re-run it against a changed state.
        """
        transaction.check_base_only(self._db)
        effective = transaction.normalized(self._db)
        if effective.events or txn is not None:
            rendered = _render_events(effective)
            if txn is not None:
                rendered = _txn_line(*txn, "applied", rendered)
            self._append(rendered, sync)
            self._log_length += bool(effective.events)
        for event in effective:
            if event.is_insertion:
                self._db.add_fact(event.predicate, *event.args)
            else:
                self._db.remove_fact(event.predicate, *event.args)
        if txn is not None:
            self.in_doubt.pop(txn[0], None)
        return effective

    def _append(self, line: str, sync: bool) -> None:
        """Append one WAL line -- the only way one is written.

        A ``torn`` action on ``wal.mid_append`` writes a strict prefix of
        the line and dies: ``action.param`` is the fraction that reaches
        the file (default one half); the newline never makes it, which is
        exactly the signature :meth:`_replay_log` recovers from.
        """
        payload = line + "\n"
        action = faults.failpoint(FP_WAL_MID_APPEND, payload=line)
        if action is not None and action.kind == "torn":
            fraction = action.param if action.param is not None else 0.5
            cut = max(0, min(int(len(payload) * fraction), len(payload) - 1))
            self._log.append(payload[:cut])
            raise faults.SimulatedCrash(
                f"torn WAL append: {cut} of {len(payload)} bytes written")
        self._log.append(payload)
        if sync:
            self.sync_log()

    def log_prepare(self, txn_id: str, digest: str,
                    transaction: Transaction, sync: bool = True) -> None:
        """Durably record a 2PC yes-vote: a ``prepared`` WAL line.

        The line carries the *requested* events (the effective set is
        computed at decide time, against whatever state holds then), but
        replay never applies them -- see the module docstring.  The vote is
        registered in :attr:`in_doubt` until a decision resolves it.
        """
        self._append(_txn_line(txn_id, digest, "prepared",
                               _render_events(transaction)), sync)
        self.in_doubt[txn_id] = (digest, transaction)

    def log_txn_outcome(self, txn_id: str, digest: str,
                        applied: bool, sync: bool = False,
                        status: str | None = None) -> None:
        """Append a marker line recording a definitive eventless outcome.

        Used for **rejected** commits (no events ever reach the log, but
        the rejection itself must be remembered so a retry returns it
        instead of re-running the check against a moved state) and for 2PC
        **abort** decisions (``status="aborted"``, which also releases the
        in-doubt vote).  Applied commits -- effectful or not -- are
        recorded by :meth:`commit`.
        """
        if status is None:
            status = "applied" if applied else "rejected"
        if status not in TXN_STATUSES:
            raise ValueError(f"unknown txn status: {status!r}")
        self._append(_txn_line(txn_id, digest, status), sync)
        if status != "prepared":
            self.in_doubt.pop(txn_id, None)

    def sync_log(self) -> None:
        """fsync the event log; makes prior ``sync=False`` commits durable."""
        faults.failpoint(FP_WAL_PRE_FSYNC)
        self._log.sync()

    def close(self) -> None:
        """Close the log descriptor; the store accepts no further writes."""
        self._log.close()

    def _write_txn_sidecar(self) -> None:
        """Persist the dedup table atomically (temp + fsync + rename)."""
        target = self._directory / TXN_SIDECAR_NAME
        temporary = target.with_suffix(".tmp")
        payload = {"v": 1, "capacity": self.txns.capacity,
                   "entries": self.txns.snapshot()}
        with temporary.open("w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            _fsync_file(fh)
        os.replace(temporary, target)

    def checkpoint(self) -> None:
        """Fold the event log into a fresh snapshot and truncate the log.

        The new snapshot is synced before it replaces the old one and the
        fresh log atomically replaces the full one (:meth:`AppendLog.replace`),
        so a crash at any point leaves either the old snapshot + full log,
        the new snapshot + full log or the new snapshot + fresh log.  The
        txn dedup table is written to its sidecar *first*:
        truncating the log destroys the ``#txn`` records it holds, so the
        sidecar must already carry them -- a crash before the truncate
        merely leaves both, and sidecar-then-log replay is idempotent.
        """
        snapshot_path = self._directory / SNAPSHOT_NAME
        self._write_txn_sidecar()
        temporary = snapshot_path.with_suffix(".tmp")
        with temporary.open("w") as fh:
            fh.write(str(self._db) + "\n")
            _fsync_file(fh)
        faults.failpoint(FP_CHECKPOINT_PRE_RENAME)
        temporary.replace(snapshot_path)
        faults.failpoint(FP_CHECKPOINT_PRE_TRUNCATE)
        # The snapshot only holds *applied* state; unresolved 2PC votes
        # must outlive the truncation, so their prepared lines are the one
        # thing the fresh log starts with.
        self._log.replace([
            _txn_line(txn_id, digest, "prepared", _render_events(transaction))
            for txn_id, (digest, transaction) in self.in_doubt.items()])
        self._log_length = 0

    def log_length(self) -> int:
        """Number of committed transactions since the last checkpoint.

        Marker-only txn lines (rejections, acked no-ops) carry no events
        and are not counted; neither are ``prepared`` votes, which are not
        commits until a decision lands.  Counted as lines are appended
        and replayed, never read back from the file.
        """
        return self._log_length
