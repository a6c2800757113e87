"""The cross-shard commit coordinator: decision log + 2PC choreography.

A cross-shard commit is a lightweight two-phase commit built on the
participants' exactly-once machinery (PR 5): *prepare* is a durable,
idempotent yes-vote keyed by ``txn_id`` (a ``prepared`` WAL line on the
shard), *decide* is an idempotent apply-or-abort.  The coordinator's only
own state is the **decision log** -- an append-only, fsynced file of
``<txn_id> <decision>`` lines.  The protocol is presumed-abort:

1. send ``prepare`` to every participating shard;
2. all voted yes -> durably record ``commit`` in the decision log
   (the atomic commit point), else record ``abort``;
3. send ``decide`` to every participant; each applies or releases its
   vote and acks with the recorded outcome.

Recovery is the decision log's reason to exist: a shard that crashes
after voting yes reboots with an **in-doubt** transaction (fact keys
locked, nothing applied).  The group resolves it by consulting the
decision log -- a recorded decision is replayed; no record means the
coordinator never reached the commit point, so the vote aborts (presumed
abort).  Crash coverage at every arrow of the diagram is driven through
the failpoints below plus the participant-side ones in
:mod:`repro.server.engine`.

A *transient* phase-1 failure (a shard unreachable, a key conflict) must
not consume the ``txn_id``: the coordinator releases any collected votes
with ``decide(abort)`` but records **no** decision, and participants
treat a bare abort decision as re-preparable -- so a client retry of the
same ``txn_id`` runs a fresh round instead of replaying a spurious
rejection.  Only integrity *rejections* (a shard's own durable no-vote)
and decisions actually reached are final.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import faults
from repro.core.durable import AppendLog
from repro.datalog.errors import DatalogError
from repro.events.events import Transaction
from repro.obs import tracer as obs
from repro.problems import ICCheckResult
from repro.server.engine import CommitOutcome
from repro.server.metrics import MetricsRegistry

DECISIONS_NAME = "decisions.log"

FP_PRE_DECISION = faults.register(
    "twopc.pre_decision",
    "2PC coordinator: all votes counted, before the decision record is "
    "durable (crash: no decision exists; in-doubt votes resolve to abort)")
FP_DECISION_WRITTEN = faults.register(
    "twopc.decision_written",
    "2PC coordinator: decision durable in the decision log, before any "
    "phase-2 decide goes out (crash: recovery must drive the decision to "
    "every participant)")


class DecisionLog:
    """Append-only, fsynced ``txn_id -> commit|abort`` record.

    The first recorded decision for an id wins -- :meth:`record` returns
    the winner, so two racing coordinators for the same ``txn_id``
    converge.  A torn final line (crash mid-append) is dropped on load:
    an unrecorded decision is simply no decision.

    The file is held open through one
    :class:`~repro.core.durable.AppendLog` descriptor from construction
    (which creates the file and its directory) until :meth:`close`, which
    the owning group or router calls; recording is one write and one fsync.
    """

    def __init__(self, path: Path):
        self._lock = threading.Lock()
        self._decisions: dict[str, str] = {}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._log = AppendLog(path)
        raw = self._log.read()
        lines = raw.splitlines()
        if raw and not raw.endswith("\n"):
            lines = lines[:-1]  # torn tail: the append never finished
            self._log.replace(lines)  # or the next record would join it
        for line in lines:
            parts = line.split()
            if len(parts) == 2 and parts[1] in ("commit", "abort"):
                self._decisions.setdefault(parts[0], parts[1])

    @property
    def path(self) -> Path:
        return self._log.path

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def decision(self, txn_id: str) -> str | None:
        with self._lock:
            return self._decisions.get(txn_id)

    def record(self, txn_id: str, decision: str) -> str:
        """Durably record a decision; returns the winning one."""
        if decision not in ("commit", "abort"):
            raise ValueError(f"unknown decision: {decision!r}")
        with self._lock:
            existing = self._decisions.get(txn_id)
            if existing is not None:
                return existing
            self._log.append(f"{txn_id} {decision}\n")
            self._log.sync()
            self._decisions[txn_id] = decision
            return decision

    def __len__(self) -> int:
        with self._lock:
            return len(self._decisions)


@dataclass
class Participant:
    """One shard's 2PC surface, however it is reached (in-process/remote)."""

    name: str
    prepare: Callable[[Transaction, str], dict]
    decide: Callable[[str, str], dict]


class TwoPhaseCoordinator:
    """Drives prepare/decide rounds against a set of participants."""

    def __init__(self, decisions: DecisionLog,
                 metrics: MetricsRegistry | None = None):
        self.decisions = decisions
        self.metrics = metrics or MetricsRegistry()

    def commit(self, parts: list[tuple[Participant, Transaction]],
               txn_id: str, requested: Transaction) -> CommitOutcome:
        """Run one cross-shard commit; returns the merged outcome.

        *parts* pairs each participant with its slice of the transaction;
        *requested* is the full transaction (for the outcome's benefit).
        Raises the underlying (retryable) error when a phase-1 call fails
        transiently; a retry with the same ``txn_id`` resumes safely.
        """
        with obs.span("twopc.commit") as span:
            decision = self.decisions.decision(txn_id)
            abort_check: dict | None = None
            if decision is None:
                decision, abort_check = self._phase_one(parts, txn_id)
            else:
                self.metrics.increment("twopc.redriven")
                if obs.enabled():
                    span.add("redriven", 1)
            outcomes = self._phase_two(parts, txn_id, decision)
            if obs.enabled():
                span.set(decision=decision, participants=len(parts))
        if decision == "abort":
            self.metrics.increment("twopc.aborts")
            return CommitOutcome(
                False, requested,
                check=(ICCheckResult.from_dict(abort_check)
                       if abort_check is not None else None))
        self.metrics.increment("twopc.commits")
        effective: list = []
        for outcome in outcomes:
            effective.extend(outcome.get("effective", []))
        return CommitOutcome(True, requested,
                             Transaction.from_dict(effective))

    def _phase_one(self, parts: list[tuple[Participant, Transaction]],
                   txn_id: str) -> tuple[str, dict | None]:
        """Collect votes; returns ``(durable decision, veto check dict)``."""
        voted_yes: list[Participant] = []
        abort_check: dict | None = None
        decision = "commit"
        error: DatalogError | None = None
        for participant, sub in parts:
            try:
                vote = participant.prepare(sub, txn_id)
            except DatalogError as exc:
                error = exc
                break
            if vote.get("vote") == "commit":
                voted_yes.append(participant)
                continue
            # A durable no-vote (integrity rejection or replayed abort).
            decision = "abort"
            outcome = vote.get("outcome") or {}
            if outcome.get("check") is not None:
                abort_check = outcome["check"]
            break
        if error is not None:
            # Transient failure: release the collected votes but record no
            # decision, so a retry of the same txn_id can run fresh.
            self._release(voted_yes, txn_id)
            raise error
        faults.failpoint(FP_PRE_DECISION, txn_id=txn_id)
        decision = self.decisions.record(txn_id, decision)
        faults.failpoint(FP_DECISION_WRITTEN, txn_id=txn_id,
                         decision=decision)
        return decision, abort_check

    def _release(self, voted_yes: list[Participant], txn_id: str) -> None:
        for participant in voted_yes:
            try:
                participant.decide(txn_id, "abort")
            except DatalogError:
                # The vote stays in doubt on that shard; presumed abort
                # resolves it at the next group open.
                self.metrics.increment("twopc.release_failures")

    def _phase_two(self, parts: list[tuple[Participant, Transaction]],
                   txn_id: str, decision: str) -> list[dict]:
        """Deliver the decision everywhere; returns the acked outcomes.

        Every participant is attempted even when an earlier one fails --
        a durable decision must reach as many shards as possible -- and
        the first failure is re-raised afterwards so the caller retries
        (the decision log makes the retry a pure re-drive).
        """
        outcomes: list[dict] = []
        first_error: DatalogError | None = None
        for participant, _ in parts:
            try:
                ack = participant.decide(txn_id, decision)
            except DatalogError as exc:
                if first_error is None:
                    first_error = exc
                continue
            outcomes.append(ack.get("outcome") or {})
        if first_error is not None:
            raise first_error
        return outcomes
