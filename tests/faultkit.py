"""The crash-recovery test kit: run a workload, crash it, check invariants.

The harness drives a :class:`DatabaseEngine` through a generated workload
with a failpoint schedule armed (:mod:`repro.faults`), catches the
:class:`~repro.faults.SimulatedCrash` that unwinds the engine, **abandons**
the in-memory state -- no ``close()``, no checkpoint, exactly what a dead
process leaves behind -- and re-opens the directory through recovery.
Three invariants are then checked (``check_invariants``):

1. **Acked commits survive.**  Replaying the acknowledged effective
   transactions over the initial facts gives the expected base state; every
   acked change must be present in the recovered state.
2. **No partial batch.**  The recovered state must be the expected state
   plus an *order-preserving subsequence* of the in-flight (submitted,
   never acked) transactions: each WAL line is atomic, so an in-flight
   transaction is wholly present or wholly absent, and a member may be
   legally absent mid-batch because its own integrity check rejected it
   on the serial path.  Half-applied transactions, reordered effects and
   phantom events all land outside the allowed set.  (Unacked lines may
   survive at all: an in-process "crash" cannot lose flushed bytes,
   mirroring a machine that loses power after the page cache drained.)
3. **Derived state is exactly the naive rebuild.**  Every derived
   predicate queried through the recovered engine must equal a fresh
   bottom-up materialisation over the recovered base facts -- the
   differential oracle that catches stale caches and half-applied batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.core.processor import UpdateProcessor
from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import DatalogError
from repro.datalog.parser import parse_rule
from repro.events.events import Transaction, delete, insert
from repro.interpretations.downward import (
    DownwardInterpreter,
    want_delete,
    want_insert,
)
from repro.server.engine import DatabaseEngine
from repro.workloads.generators import random_transaction

FactSet = frozenset  # of (predicate, args) pairs


def with_recursion(db: DeductiveDatabase) -> DeductiveDatabase:
    """Add a recursive view to *db* in place, and return it.

    ``Above`` is the transitive closure of ``Manages``, seeded as a chain
    over the first four people in labour age, and ``Ic2`` forbids a
    management cycle.  Counting refuses the recursion, so an engine
    serves the result with the advancing maintainer: the recursive twin
    of an employment fixture, for the tests of that path.
    """
    db.declare_base("Manages", 2)
    db.add_rule(parse_rule("Above(x, y) <- Manages(x, y)."))
    db.add_rule(parse_rule("Above(x, y) <- Manages(x, z) & Above(z, y)."))
    db.add_constraint(parse_rule("Ic2(x) <- Above(x, x)."))
    people = sorted(row[0].value for row in db.facts_of("La"))[:4]
    for boss, report in zip(people, people[1:]):
        db.add_fact("Manages", boss, report)
    return db


def base_facts(db: DeductiveDatabase) -> FactSet:
    """The extensional state as a comparable set of (predicate, args)."""
    return frozenset((predicate, row) for predicate, row in db.iter_facts())


def apply_transaction(facts: set, transaction: Transaction) -> None:
    """Apply *transaction* to a fact set under set semantics (in place)."""
    for event in transaction:
        key = (event.predicate, event.args)
        if event.is_insertion:
            facts.add(key)
        else:
            facts.discard(key)


@dataclass
class CrashReport:
    """What a :func:`run_workload` observed before the crash."""

    initial: FactSet
    #: Effective transactions in acknowledgement order.
    acked: list[Transaction] = field(default_factory=list)
    #: Submitted-but-unacked transactions, in submission order.
    inflight: list[Transaction] = field(default_factory=list)
    crash: faults.SimulatedCrash | None = None
    #: How many workload steps ran (committed or crashed) before stopping.
    steps: int = 0

    @property
    def crashed(self) -> bool:
        return self.crash is not None

    def expected_facts(self) -> FactSet:
        """The base state every acked commit promises to reconstruct."""
        facts = set(self.initial)
        for transaction in self.acked:
            apply_transaction(facts, transaction)
        return frozenset(facts)

    def allowed_facts(self) -> set[FactSet]:
        """Every legal post-recovery base state.

        Acked state plus any order-preserving subsequence of the in-flight
        transactions (2^n states; in-flight batches are small).
        """
        states = {self.expected_facts()}
        for transaction in self.inflight:
            extended = set()
            for state in states:
                facts = set(state)
                apply_transaction(facts, transaction)
                extended.add(frozenset(facts))
            states |= extended
        return states


def run_workload(engine: DatabaseEngine, *, steps: int = 20,
                 n_events: int = 3, seed: int = 0,
                 batch: int = 1,
                 checkpoint_every: int | None = None) -> CrashReport:
    """Drive *engine* through a generated workload until done or crashed.

    Each step builds ``batch`` random transactions against the engine's
    *current* state (seeded deterministically from *seed* and the step
    number) and commits them -- through :meth:`DatabaseEngine.commit` when
    ``batch == 1``, through :meth:`DatabaseEngine.commit_many` otherwise,
    which exercises group commit.  ``checkpoint_every``
    interleaves checkpoints, putting the checkpoint failpoints in reach.

    The armed failpoint schedule decides where (and whether) the crash
    happens; the report captures everything the invariants need.
    """
    report = CrashReport(initial=base_facts(engine.db))
    for step in range(steps):
        # Pairwise-disjoint fact sets: the chunk is one group-commit
        # batch either way (members run in queue order), but disjoint
        # members commute, which keeps ``allowed_facts`` -- any
        # subsequence of the in-flight ones may have survived -- exact.
        transactions: list[Transaction] = []
        touched: set = set()
        bump = 0
        while len(transactions) < batch and bump < batch * 20:
            candidate = random_transaction(
                engine.db, n_events=n_events,
                seed=seed * 100003 + step * 31 + len(transactions) + bump)
            bump += 1
            keys = {(e.predicate, e.args) for e in candidate}
            if keys and touched.isdisjoint(keys):
                transactions.append(candidate)
                touched |= keys
        report.steps = step + 1
        try:
            if batch == 1:
                outcome = engine.commit(transactions[0])
                outcomes = [outcome]
            else:
                outcomes = engine.commit_many(transactions,
                                              raise_errors=False)
        except faults.SimulatedCrash as crash:
            report.inflight.extend(transactions)
            report.crash = crash
            return report
        for outcome in outcomes:
            if outcome.applied:
                report.acked.append(outcome.effective)
        if checkpoint_every and (step + 1) % checkpoint_every == 0:
            try:
                engine.checkpoint()
            except faults.SimulatedCrash as crash:
                report.crash = crash
                return report
    return report


def recover(directory: Path | str, **engine_kwargs) -> DatabaseEngine:
    """Open a fresh engine over the (possibly crash-scarred) directory."""
    return DatabaseEngine.open(directory, **engine_kwargs)


@dataclass
class RetryReport:
    """What :func:`run_workload_with_retries` observed across crashes.

    Unlike :class:`CrashReport` there is no in-flight ambiguity left to
    allow for: every step was retried with the same ``txn_id`` until an
    outcome came back, so the recovered state must be *exactly* the acked
    replay -- that is the exactly-once claim under test.
    """

    initial: FactSet
    #: Applied effective transactions in acknowledgement order.
    acked: list[Transaction] = field(default_factory=list)
    #: ``txn_id -> transaction`` for every step, in commit order.
    transactions: dict[str, Transaction] = field(default_factory=dict)
    #: ``txn_id -> outcome.to_dict()`` as the workload observed it.
    outcomes: dict[str, dict] = field(default_factory=dict)
    crashes: int = 0
    retries: int = 0
    steps: int = 0

    def expected_facts(self) -> FactSet:
        """The one legal final base state: initial + every acked commit."""
        facts = set(self.initial)
        for transaction in self.acked:
            apply_transaction(facts, transaction)
        return frozenset(facts)


def run_workload_with_retries(
        engine: DatabaseEngine, directory: Path | str, *,
        steps: int = 20, n_events: int = 3, seed: int = 0,
        max_attempts: int = 5,
        rearm=None,
        **engine_kwargs) -> tuple[RetryReport, DatabaseEngine]:
    """Drive a txn-stamped workload, retrying each commit *through* crashes.

    Every step stamps its transaction with a deterministic ``txn_id`` and
    commits it.  On :class:`~repro.faults.SimulatedCrash` the engine is
    abandoned mid-call -- the ambiguous-ack window: the attempt may or may
    not have reached the WAL -- the failpoint schedule is cleared, the
    directory re-opened through recovery, and the *same* transaction
    retried with the *same* ``txn_id``.  The durable dedup table makes the
    retry safe: a first attempt that did apply short-circuits to its
    recorded outcome, one that did not applies exactly once now.

    ``rearm(crash_count)``, when given, runs after each recovery so a test
    can schedule the next crash.  Returns ``(report, engine)`` -- the
    final engine (post the last recovery, if any); the caller closes it.
    """
    report = RetryReport(initial=base_facts(engine.db))
    for step in range(steps):
        transaction = random_transaction(
            engine.db, n_events=n_events, seed=seed * 100003 + step * 31)
        txn_id = f"w{seed}-{step}"
        outcome = None
        for attempt in range(max_attempts):
            if attempt:
                report.retries += 1
            try:
                outcome = engine.commit(transaction, txn_id=txn_id)
                break
            except faults.SimulatedCrash:
                report.crashes += 1
                faults.reset()  # recovery must run clean
                engine = recover(directory, **engine_kwargs)
                if rearm is not None:
                    rearm(report.crashes)
        else:
            raise AssertionError(
                f"step {step} got no outcome after {max_attempts} attempts")
        report.steps = step + 1
        report.transactions[txn_id] = transaction
        report.outcomes[txn_id] = outcome.to_dict()
        if outcome.applied:
            report.acked.append(outcome.effective)
    return report, engine


def check_exactly_once(report: RetryReport,
                       recovered: DatabaseEngine) -> None:
    """Assert the exactly-once invariants after a retried workload.

    1. The base state is *exactly* initial + acked effectives -- retries
       resolved every ambiguous ack, so no subsequence slack is allowed.
    2. Derived state equals the naive bottom-up oracle rebuild.
    3. Replaying every stamped commit is a pure dedup hit: the original
       ``applied``/``effective`` comes back, the ``dedup.hit`` counter
       grows by exactly one per replay, and the state does not move.
    """
    observed = base_facts(recovered.db)
    expected = report.expected_facts()
    assert observed == expected, (
        "exactly-once violated: recovered base state diverges from the "
        "acked replay:\n"
        f"  missing: {sorted(map(str, expected - observed))}\n"
        f"  extra:   {sorted(map(str, observed - expected))}")
    check_derived_oracle(recovered)

    hits_before = recovered.metrics.counter("dedup.hit")
    for txn_id, transaction in report.transactions.items():
        replay = recovered.commit(transaction, txn_id=txn_id)
        original = report.outcomes[txn_id]
        assert replay.applied == original["applied"], (
            f"replay of {txn_id} flipped applied="
            f"{original['applied']} to {replay.applied}")
        assert replay.effective.to_dict() == original["effective"], (
            f"replay of {txn_id} returned a different effective "
            f"transaction")
    hits = recovered.metrics.counter("dedup.hit") - hits_before
    assert hits == len(report.transactions), (
        f"{len(report.transactions) - hits} replayed commit(s) were not "
        "dedup hits -- they re-applied")
    assert base_facts(recovered.db) == expected, (
        "replaying recorded commits moved the base state")


def check_invariants(report: CrashReport, recovered: DatabaseEngine) -> None:
    """Assert the three crash-recovery invariants (see module docstring)."""
    observed = base_facts(recovered.db)
    expected = report.expected_facts()
    allowed = report.allowed_facts()

    # 1 + 2. Every acked commit survives, and nothing beyond an in-flight
    # prefix is visible: both reduce to membership in the allowed states.
    missing = expected - observed
    extra = observed - expected
    assert observed in allowed, (
        "recovered base state is not acked-state + an in-flight prefix:\n"
        f"  missing vs acked state: {sorted(map(str, missing))}\n"
        f"  extra vs acked state:   {sorted(map(str, extra))}\n"
        f"  in-flight transactions: {len(report.inflight)}")

    # 3. Derived state is exactly the naive oracle rebuild.
    check_derived_oracle(recovered)


def _goal(predicate: str, terms: list[str]) -> str:
    return f"{predicate}({', '.join(terms)})" if terms else predicate


def query_goals(db: DeductiveDatabase) -> list[str]:
    """Goals of every shape over every base, derived and constraint
    predicate of *db*: unbound, ground (one that holds when any row
    does, one that cannot), constant-bound and repeated-variable."""
    goals: list[str] = []
    schema = db.schema
    for predicate in sorted(schema.arities):
        arity = schema.arity(predicate)
        variables = [f"x{i}" for i in range(arity)]
        unbound = _goal(predicate, variables)
        goals.append(unbound)
        if not arity:
            continue
        rows = db.query(unbound)
        witness = ([str(v) if isinstance(v, int) else f'"{v}"'
                    for v in rows[0]] if rows else ["Nobody"] * arity)
        goals.append(_goal(predicate, witness))
        goals.append(_goal(predicate, ["Nobody"] * arity))
        if arity > 1:
            goals.append(_goal(predicate, [witness[0], *variables[1:]]))
            goals.append(_goal(predicate, ["x0", "x0", *variables[2:]]))
    return goals


def whatif_probes(db: DeductiveDatabase) -> list[Transaction]:
    """Hypothetical transactions of every shape, over every base predicate:
    a new fact (the hire), the removal of a stored one (the dismissal --
    a violation wherever a constraint protects it), the insertion of a
    stored one (a no-op, normalised away), and all of them at once."""
    probes: list[Transaction] = []
    together = []
    schema = db.schema
    for predicate in sorted(schema.base):
        fresh = insert(predicate, *["Nobody"] * schema.arity(predicate))
        probes.append(Transaction([fresh]))
        together.append(fresh)
        rows = sorted(db.facts_of(predicate), key=str)
        if rows and rows[0] != fresh.args:
            probes.append(Transaction([delete(predicate, *rows[0])]))
            probes.append(Transaction([insert(predicate, *rows[0])]))
            together.append(delete(predicate, *rows[0]))
    probes.append(Transaction(together))
    return probes


def _outcome(call) -> tuple:
    """What a request came to: its wire reply, or the type of its error."""
    try:
        return "reply", call().to_dict()
    except DatalogError as error:
        return "error", type(error)


def check_whatifs_match_oracle(engine: DatabaseEngine) -> None:
    """The non-applying Table 4.1 ops ≡ a from-scratch processor.

    ``check`` / ``upward`` / ``monitor`` served from the maintainer must
    give the byte-identical reply -- or raise the same typed error: an
    inconsistent old state, a derived-predicate event, an unknown
    monitored condition -- as a fresh :class:`UpdateProcessor` over the
    same facts, and ``downward`` the same translations as a fresh
    :class:`DownwardInterpreter` that materialises its own old state.
    (Fresh per call: both oracles are built here, from the facts as they
    stand, and thrown away.)
    """
    db = engine.db
    oracle = UpdateProcessor(db)
    derived = sorted(db.schema.derived)
    probes = whatif_probes(db)
    # Three projections of every probe; the plumbing around them -- a
    # ``predicates=`` restriction, an unknown condition, a derived event
    # -- once, on the probe that moves the most.
    calls = [(op, arguments, probe) for probe in probes
             for op, arguments in (("check", ()), ("upward", ()),
                                   ("monitor", (derived,)))]
    calls.append(("upward", (derived[:1],), probes[-1]))
    calls.append(("monitor", (["NoSuchCondition"],), probes[-1]))
    if derived:
        arity = db.schema.arity(derived[0])
        on_a_view = Transaction([insert(derived[0], *["Nobody"] * arity)])
        calls.extend((op, (), on_a_view) for op in ("check", "upward"))
    for op, arguments, probe in calls:
        served = _outcome(lambda: getattr(engine, op)(probe, *arguments))
        expected = _outcome(lambda: getattr(oracle, op)(probe, *arguments))
        assert served == expected, (
            f"{op}({probe}, {arguments}): engine says {served}, a fresh "
            f"processor {expected} ({engine.cache_mode} maintainer)")
    interpreter = DownwardInterpreter(db, program=oracle.program)
    constraints = {rule.head.predicate for rule in db.constraints}
    for view in derived:
        if view in constraints:
            continue
        arity = db.schema.arity(view)
        requests = [want_insert(view, *["Nobody"] * arity)]
        rows = sorted(engine.maintainer.extension(view), key=str)
        if rows:
            requests.append(want_delete(view, *rows[0]))
        for request in requests:
            served = _outcome(lambda: engine.downward([request]))
            expected = _outcome(lambda: interpreter.interpret([request]))
            assert served == expected, (
                f"downward {request}: engine says {served}, a fresh "
                f"interpreter {expected} ({engine.cache_mode} maintainer)")


def check_reads_match_oracle(host) -> None:
    """Everything served from maintained state ≡ its from-scratch oracle:
    ``query`` against ``db.query``, the what-ifs and ``downward`` against
    fresh interpreters (:func:`check_whatifs_match_oracle`).

    *host* is an engine or an :class:`EngineGroup`; a group is checked
    member by member and then through its scatter-gather merge.
    """
    engines = getattr(host, "engines", (host,))
    for engine in engines:
        for goal in query_goals(engine.db):
            assert engine.query(goal) == engine.db.query(goal), (
                f"{goal}: engine.query diverges from db.query "
                f"({engine.cache_mode} maintainer)")
        check_whatifs_match_oracle(engine)
    if len(engines) > 1:
        for goal in query_goals(engines[0].db):
            merged = {row for engine in engines
                      for row in engine.db.query(goal)}
            assert host.query(goal) == sorted(merged, key=str), (
                f"{goal}: scatter-gather diverges from the shards' oracles")


def check_derived_oracle(recovered: DatabaseEngine) -> None:
    """Every derived predicate must equal a fresh bottom-up rebuild.

    The first read below meets whatever state recovery left the
    maintainer in (cold, for the lazy strategies) and every read goes
    through it, so its maintained extensions are checked against the
    oracle too: crash recovery must rebuild state that agrees with the
    naive semantics, in every goal shape ``query`` serves.
    """
    check_reads_match_oracle(recovered)
    oracle = DeductiveDatabase.from_source(str(recovered.db))
    schema = recovered.db.schema
    for predicate in sorted(schema.derived):
        goal = _goal(predicate,
                     [f"x{i}" for i in range(schema.arity(predicate))])
        answers = oracle.query(goal)
        assert recovered.query(goal) == answers, (
            f"derived predicate {predicate} diverges from the naive "
            f"rebuild after recovery")
        extension = {tuple(constant.value for constant in row)
                     for row in recovered.maintainer.extension(predicate)}
        assert extension == set(map(tuple, answers)), (
            f"maintained extension of {predicate} diverges from the "
            f"naive rebuild after recovery")


def derived_arities(host) -> dict[str, int]:
    """Every derived predicate of an engine-shaped host, with arity."""
    db = getattr(host, "db", None)
    if db is None:  # an EngineGroup: all shards share the schema
        db = host.engines[0].db
    schema = db.schema
    return {predicate: schema.arity(predicate)
            for predicate in sorted(schema.derived)}


class SubscriptionOracle:
    """Differential subscription oracle: the feed must rebuild the state.

    Maintains a *shadow* extension of the watched derived predicates by
    applying delta frames as they arrive; a ``resync`` frame re-pulls the
    materialised state instead, exactly as a real subscriber must.
    :meth:`check` then asserts the shadow equals a fresh materialisation
    pull -- i.e. the feed's frames compose to precisely the before/after
    diff of every commit, with no duplicate, missing or phantom rows
    (duplicate inserts and phantom deletes fail eagerly in
    :meth:`drain`).  Call it at quiescence (no in-flight commits).

    Pass ``subscribe=False`` to drive the oracle from an external frame
    source (a wire stream) via :meth:`observe`; *host* is then only used
    to pull materialised state through ``host.query``.
    """

    def __init__(self, host, predicates: dict[str, int] | None = None, *,
                 subscribe: bool = True):
        self.host = host
        self.arities = (dict(predicates) if predicates is not None
                        else derived_arities(host))
        self.frames: list[dict] = []
        self.deltas = 0
        self.resyncs = 0
        self.info: dict | None = None
        if subscribe:
            self.info = host.feed_subscribe(
                sorted(self.arities), self.observe)
        self.shadow = self.pull()

    def observe(self, frame: dict) -> None:
        """Receive one frame (the subscription callback)."""
        self.frames.append(frame)

    def goal(self, predicate: str) -> str:
        arity = self.arities[predicate]
        if not arity:
            return predicate
        return f"{predicate}({', '.join(f'x{i}' for i in range(arity))})"

    def pull(self) -> dict[str, set[tuple]]:
        """The host's materialised extensions of the watched predicates."""
        return {predicate: {tuple(row)
                            for row in self.host.query(self.goal(predicate))}
                for predicate in self.arities}

    def drain(self) -> None:
        """Fold every buffered frame into the shadow state."""
        while self.frames:
            frame = self.frames.pop(0)
            kind = frame.get("kind")
            if kind == "delta":
                self.deltas += 1
                self._apply(frame)
            elif kind == "resync":
                # Coverage was lost; buffered successors are already
                # reflected in the state a re-pull sees, so drop them.
                self.resyncs += 1
                self.frames.clear()
                self.shadow = self.pull()
            elif kind == "closed":
                raise AssertionError(f"feed unexpectedly closed: {frame}")
            else:
                raise AssertionError(f"unknown frame kind: {frame}")

    def _apply(self, frame: dict) -> None:
        for predicate, rows in (frame.get("inserted") or {}).items():
            target = self.shadow.setdefault(predicate, set())
            for row in rows:
                row = tuple(row)
                assert row not in target, (
                    f"feed delivered a duplicate insert of "
                    f"{predicate}{row}")
                target.add(row)
        for predicate, rows in (frame.get("deleted") or {}).items():
            target = self.shadow.setdefault(predicate, set())
            for row in rows:
                row = tuple(row)
                assert row in target, (
                    f"feed delivered a phantom delete of {predicate}{row}")
                target.discard(row)

    def check(self) -> None:
        """Drain and assert shadow == a fresh materialisation pull."""
        self.drain()
        actual = self.pull()
        assert self.shadow == actual, (
            "subscription feed diverges from the materialised state:\n"
            + "\n".join(
                f"  {predicate}: feed-only="
                f"{sorted(self.shadow.get(predicate, set()) - rows)} "
                f"state-only="
                f"{sorted(rows - self.shadow.get(predicate, set()))}"
                for predicate, rows in sorted(actual.items())
                if self.shadow.get(predicate, set()) != rows))


def crash_and_recover(engine: DatabaseEngine, directory: Path | str,
                      engine_kwargs: dict | None = None,
                      **workload_kwargs) -> tuple[CrashReport, DatabaseEngine]:
    """Run a workload, then recover and check invariants.  Returns both.

    The caller arms the failpoint schedule first; this drives the engine,
    abandons it (crashed or not), re-opens the directory and asserts the
    invariants.  The recovered engine is returned for further probing --
    the caller closes it.  ``engine_kwargs`` are forwarded to the
    recovery :meth:`DatabaseEngine.open` (e.g. ``max_batch``).
    """
    report = run_workload(engine, **workload_kwargs)
    faults.reset()  # the recovery path itself must run clean
    recovered = recover(directory, **(engine_kwargs or {}))
    check_invariants(report, recovered)
    return report, recovered
