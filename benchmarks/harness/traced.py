"""The traced pass: where one request's time goes, layer by layer.

The first ops of connection 0's stream are replayed serially, in process,
without sockets, over twin engines opened exactly as the server opens them:

- engine **A**, the *pipeline*, takes each op through ``decode_request ->
  dispatch -> Response.to_json``.  Ops rotate through three modes: spans off
  (the untraced baseline ``harness.trace_overhead_pct`` compares against),
  spans around those three calls, and an *opened* dispatch -- the two public
  calls ``dispatch`` itself makes, ``UpdateRequest.of`` and
  ``typed.execute(engine)``, each in its own span -- which is how the engine
  call is timed apart from protocol work;
- engine **B**, the *shadow*, is driven through the public calls the engine
  makes, in the engine's order (``maintainer.check_full -> store.commit(
  sync=False) -> maintainer.advance -> store.sync_log ->
  feed.publish_delta`` for a commit, ``db.query`` for a query,
  ``processor.check/upward/monitor/downward`` for a what-if,
  ``EngineGroup.*`` for the sharded stream).

After every op A and B must hold the same number of facts and the same
``Unemp`` extension, so the shadow provably did the same work.  A layer
table row is a median; the rows of one op kind add up to ``decode +
dispatch + encode`` by construction, and ``harness.closure_error_pct`` is
how far that sum of medians lies from the median of the whole pipeline.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

from repro.core.durable import DurableDatabase, transaction_digest
from repro.datalog.evaluation import BottomUpEvaluator
from repro.datalog.parser import parse_atom
from repro.events.events import parse_transaction
from repro.events.requests import parse_request
from repro.requests import UpdateRequest
from repro.server import CommitOutcome, DatabaseEngine
from repro.server.protocol import Request, Response, decode_request, dispatch
from repro.shard import DecisionLog, EngineGroup

from .catalogue import Workload
from .spans import Recorder
from .stats import median
from .streams import Stream, initial_database, verify

#: Commit kinds that apply on the engine's fast path.
_APPLYING = ("hire", "dismiss", "rehire", "toggle", "single")
_COMMIT_CHILDREN = ("interpretations.maintainers.check_full",
                    "core.durable.append",
                    "interpretations.maintainers.advance",
                    "core.durable.fsync", "server.feed.publish")
_PARSE_SPANS = ("events.events.parse_txn", "datalog.parser.parse_goal",
                "events.requests.parse")
_MIN_ROW_OPS = 3


def _open(workload: Workload, directory: Path, db):
    """An engine over *db*, with the server's own open arguments."""
    options = dict(max_batch=64, on_violation="reject",
                   cache_mode="counting", eval_engine=None,
                   dedup_capacity=None)
    if workload.server == "shard-serve":
        return EngineGroup.open(directory, initial=db, shards=2, pinned={},
                                **options)
    return DatabaseEngine.open(directory, initial=db, **options)


def _engines(engine) -> tuple:
    return getattr(engine, "engines", (engine,))


def _state(engine) -> tuple:
    """What A and B must agree on after every op."""
    parts = _engines(engine)
    return (sum(e.db.fact_count() for e in parts),
            [e.maintainer.extension("Unemp") for e in parts])


class Shadow:
    """Engine B, driven layer by layer."""

    def __init__(self, engine, recorder: Recorder, workdir: Path):
        self.engine = engine
        self.rec = recorder
        self.sharded = isinstance(engine, EngineGroup)
        self._outcomes: dict[str, dict] = {}
        self._decisions = DecisionLog(workdir / "probe-decisions.log")
        self.counts = {"induced": [], "translations": [], "unsatisfiable": 0,
                       "downward": 0, "facts_derived": [],
                       "literals_matched": []}

    def run(self, op, op_id: int) -> dict:
        with self.rec.span("shadow", op_id):
            if op.op == "commit":
                return self._commit(op, op_id)
            if op.op == "query":
                return self._query(op, op_id)
            if op.op == "downward":
                return self._downward(op, op_id)
            return self._whatif(op, op_id)

    # -- commits ---------------------------------------------------------------

    def _commit(self, op, op_id: int) -> dict:
        span = self.rec.span
        with span("events.events.parse_txn", op_id):
            txn = parse_transaction(op.params["transaction"])
        txn_id = op.params["txn_id"]
        if txn_id in self._outcomes:       # the engine's dedup table
            return self._outcomes[txn_id]
        if self.sharded:
            name = ("shard.group.xshard_commit" if op.kind == "xshard"
                    else "shard.group.single_commit")
            with span(name, op_id):
                outcome = self.engine.commit(txn, txn_id=txn_id)
        else:
            outcome = self._engine_commit(txn, txn_id, op_id)
        self._outcomes[txn_id] = outcome.to_dict()
        return self._outcomes[txn_id]

    def _engine_commit(self, txn, txn_id: str, op_id: int) -> CommitOutcome:
        """A batch of one, by the calls ``DatabaseEngine._group_commit`` makes."""
        span, engine = self.rec.span, self.engine
        maintainer, store = engine.maintainer, engine.store
        digest = transaction_digest(txn)
        with span("interpretations.maintainers.check_full", op_id):
            verdict, result = maintainer.check_full(txn)
        if not verdict.ok:
            # The engine's slow path: re-check through the processor, log
            # the rejection marker, fsync it.
            with span("core.processor.check", op_id):
                verdict = engine.processor.check(txn)
            with span("core.durable.append", op_id):
                store.log_txn_outcome(txn_id, digest, applied=False)
            with span("core.durable.fsync", op_id):
                store.sync_log()
            return CommitOutcome(False, txn, check=verdict)
        with span("core.durable.append", op_id):
            effective = store.commit(txn, sync=False, txn=(txn_id, digest))
        with span("interpretations.maintainers.advance", op_id):
            maintainer.advance(result)
        with span("core.durable.fsync", op_id):
            store.sync_log()
        if engine.feed.active:
            with span("server.feed.publish", op_id):
                engine.feed.publish_delta(
                    txn_id=txn_id, epoch=0, inserted=result.insertions,
                    deleted=result.deletions)
        return CommitOutcome(True, txn, effective, verdict)

    # -- reads and what-ifs ----------------------------------------------------

    def _query(self, op, op_id: int) -> dict:
        span, goal = self.rec.span, op.params["goal"]
        with span("datalog.parser.parse_goal", op_id):
            parse_atom(goal)
        if self.sharded:
            name = ("shard.group.routed_query" if op.kind == "bound_base"
                    else "shard.group.scatter_query")
            with span(name, op_id):
                rows = self.engine.query(goal)
        else:
            with span("datalog.evaluation.query", op_id):
                rows = self.engine.db.query(goal)
        return {"answers": [list(row) for row in rows]}

    def _whatif(self, op, op_id: int) -> dict:
        span = self.rec.span
        with span("events.events.parse_txn", op_id):
            txn = parse_transaction(op.params["transaction"])
        if self.sharded:
            with span("shard.group.check", op_id):
                return self.engine.check(txn).to_dict()
        processor = self.engine.processor
        if op.op == "check":
            with span("core.processor.check", op_id):
                return processor.check(txn).to_dict()
        if op.op == "upward":
            with span("interpretations.upward.interpret", op_id):
                result = processor.upward(txn, None)
            self.counts["induced"].append(
                sum(len(rows) for rows in result.insertions.values())
                + sum(len(rows) for rows in result.deletions.values()))
            return result.to_dict()
        with span("core.processor.monitor", op_id):
            return processor.monitor(txn, op.params["conditions"]).to_dict()

    def _downward(self, op, op_id: int) -> dict:
        span = self.rec.span
        with span("events.requests.parse", op_id):
            requests = [parse_request(text)
                        for text in op.params["requests"]]
        with span("interpretations.downward.interpret", op_id):
            result = self.engine.processor.downward(requests).to_dict()
        self.counts["downward"] += 1
        self.counts["unsatisfiable"] += not result["satisfiable"]
        self.counts["translations"].append(len(result["translations"]))
        return result

    # -- probes: timed on their own, outside any request's span tree ----------

    def probe(self, op, op_id: int, every: int) -> None:
        span = self.rec.span
        if op.op == "query" and not self.sharded and op_id % every == 0:
            db = self.engine.db
            with span("probe.materialize", op_id):
                BottomUpEvaluator(db, db.all_rules()).materialize()
            evaluator = BottomUpEvaluator(db, db.all_rules())
            list(evaluator.answers(parse_atom(op.params["goal"])))
            self.counts["facts_derived"].append(evaluator.stats.facts_derived)
            self.counts["literals_matched"].append(
                evaluator.stats.literals_matched)
        if not self.sharded and op_id % every == 0:
            with span("probe.extension", op_id):
                self.engine.maintainer.extension("Unemp")
        if self.sharded and op.op == "commit":
            txn = parse_transaction(op.params["transaction"])
            with span("probe.route", op_id):
                self.engine.routing.split(txn)
            if op.kind == "xshard":
                with span("probe.decision_log", op_id):
                    self._decisions.record(f"probe-{op_id}", "commit")


def _pipeline(engine, line: str, op, op_id: int, mode: int,
              rec: Recorder, timings: dict) -> dict | None:
    """Engine A: one op through the request pipeline; returns the result."""
    if mode == 0:
        rec.enabled = False
        started = time.perf_counter()
    root = "pipeline" if mode < 2 else "pipeline.opened"
    with rec.span(root, op_id):
        with rec.span("server.protocol.decode", op_id):
            request = decode_request(line)
        if mode < 2:
            with rec.span("server.protocol.dispatch", op_id):
                response = dispatch(engine, request)
        else:
            with rec.span("requests.parse", op_id):
                typed = UpdateRequest.of(request.op, request.params)
            with rec.span("server.engine.call", op_id):
                result = typed.execute(engine)
            response = Response(ok=True, id=request.id, result=result)
        encode_started = time.perf_counter()
        with rec.span("server.protocol.encode", op_id):
            response.to_json()
        encode_s = time.perf_counter() - encode_started
    if mode == 0:
        timings.setdefault(op.kind, []).append(time.perf_counter() - started)
        rec.enabled = True
    if op.kind == "unbound" and response.ok:
        rows = len(response.result["answers"])
        if rows:
            timings.setdefault("_encode_per_row", []).append(encode_s / rows)
    return response.result if response.ok else None


def traced_pass(workload: Workload, n: int, seed: int, n_ops: int,
                workdir: Path, spans_path: Path | None = None):
    """Replay *n_ops* ops over twin engines; returns ``(layers, tables,
    failures)``: layer metrics this pass can supply, one layer table per op
    kind, and the reasons of any wrong answer or A/B divergence."""
    workdir.mkdir(parents=True, exist_ok=True)
    db = initial_database(n, seed)
    rec = Recorder()
    engine_a = _open(workload, workdir / "a", db)
    engine_b = _open(workload, workdir / "b", db)
    failures: list[str] = []
    untraced: dict = {}
    kind_of: dict[int, str] = {}
    try:
        if workload.loop == "open":          # the live workload's subscriber
            for engine in (engine_a, engine_b):
                engine.feed_subscribe(["Unemp"], lambda frame: None)
        shadow = Shadow(engine_b, rec, workdir)
        if not shadow.sharded:
            with rec.span("probe.bootstrap"):
                engine_b.maintainer.bootstrap()
        stream = Stream(workload, n, seed, 0, db)
        every = max(1, n_ops // 20)
        for op_id, op in enumerate(itertools.islice(stream, n_ops)):
            kind_of[op_id] = op.kind
            line = Request(op=op.op, params=op.params, id=op_id).to_json()
            answers = (_pipeline(engine_a, line, op, op_id, op_id % 3, rec,
                                 untraced),
                       shadow.run(op, op_id))
            for side, result in zip("AB", answers):
                why = ("error response" if result is None
                       else verify(op, result, stream))
                if why is not None:
                    failures.append(f"traced {side} {op.kind}#{op_id}: {why}")
            if _state(engine_a) != _state(engine_b):
                failures.append(f"traced {op.kind}#{op_id}: engines A and B "
                                "hold different states")
            shadow.probe(op, op_id, every)
        layers = _layer_metrics(rec, kind_of, untraced, shadow)
        if not shadow.sharded:
            layers.update(_durable_probes(engine_b))
        tables = _layer_tables(rec, kind_of)
        closures = [t["closure_error_pct"] for t in tables.values()]
        if closures:
            layers["harness.closure_error_pct"] = max(closures)
    finally:
        engine_a.close(checkpoint=False)
        engine_b.close(checkpoint=False)
        if spans_path is not None:
            rec.dump(spans_path)
    return layers, tables, failures


def _durable_probes(engine) -> dict:
    """Recovery and checkpoint cost of the directory the shadow just wrote."""
    directory = engine.store.directory
    lines = sum(1 for _ in (directory / "events.log").open())
    started = time.perf_counter()
    DurableDatabase.open(directory)
    opened = time.perf_counter() - started
    started = time.perf_counter()
    engine.store.checkpoint()
    return {"core.durable.open_s": opened,
            "core.durable.log_lines": lines,
            "core.durable.checkpoint_s": time.perf_counter() - started}


class _Medians:
    """Median span durations, by span name and optionally by op kind."""

    def __init__(self, rec: Recorder, kind_of: dict):
        self._values: dict = {}
        for (name, _, _, _, op_id), seconds in zip(rec.spans,
                                                   rec.durations()):
            for key in ((name, None), (name, kind_of.get(op_id))):
                self._values.setdefault(key, []).append(seconds)

    def count(self, name: str, kind=None) -> int:
        return len(self._values.get((name, kind), ()))

    def get(self, name: str, kind=None, kinds=None) -> float | None:
        if kinds is not None:
            values = [v for k in kinds
                      for v in self._values.get((name, k), ())]
        else:
            values = self._values.get((name, kind), ())
        return median(values) if values else None

    def names(self, kind) -> list[str]:
        return sorted({name for name, k in self._values if k == kind})


def _layer_tables(rec: Recorder, kind_of: dict) -> dict:
    """One table per op kind: rows (ms) that add up to the request."""
    med = _Medians(rec, kind_of)
    tables = {}
    for kind in sorted(set(kind_of.values())):
        if min(med.count("pipeline", kind),
               med.count("pipeline.opened", kind)) < _MIN_ROW_OPS:
            continue
        decode = med.get("server.protocol.decode", kind)
        dispatched = med.get("server.protocol.dispatch", kind)
        encode = med.get("server.protocol.encode", kind)
        parse = med.get("requests.parse", kind)
        call = med.get("server.engine.call", kind)
        children = {name: med.get(name, kind) for name in med.names(kind)
                    if "." in name and not name.startswith(
                        ("pipeline", "probe.", "server.protocol.",
                         "server.engine.call", "requests."))
                    and name not in _PARSE_SPANS}
        rows = {"server.protocol.decode": decode, "requests.parse": parse,
                "server.protocol.dispatch_self": dispatched - parse - call,
                "server.engine.self": call - sum(children.values()),
                **children, "server.protocol.encode": encode}
        pipeline = med.get("pipeline", kind)
        tables[kind] = {
            "ops": sum(1 for k in kind_of.values() if k == kind),
            "pipeline_ms": pipeline * 1e3,
            "rows_ms": {name: value * 1e3 for name, value in rows.items()},
            "closure_error_pct":
                abs(sum(rows.values()) - pipeline) / pipeline * 100,
        }
    return tables


def _layer_metrics(rec: Recorder, kind_of: dict, untraced: dict,
                   shadow: Shadow) -> dict:
    """Every layer metric this pass has samples for."""
    med = _Medians(rec, kind_of)
    out: dict = {}

    def put(name: str, value, scale: float = 1.0) -> None:
        if value is not None:
            out[name] = value * scale

    put("server.protocol.decode_us", med.get("server.protocol.decode"), 1e6)
    put("server.protocol.encode_us", med.get("server.protocol.encode"), 1e6)
    per_row = untraced.pop("_encode_per_row", None)
    put("server.protocol.encode_us_per_row",
        median(per_row) if per_row else None, 1e6)
    dispatched = med.get("server.protocol.dispatch")
    parse, call = med.get("requests.parse"), med.get("server.engine.call")
    if None not in (dispatched, parse, call):
        out["server.protocol.dispatch_self_us"] = \
            (dispatched - parse - call) * 1e6
    put("events.events.parse_txn_us", med.get("events.events.parse_txn"), 1e6)
    put("datalog.parser.parse_goal_us",
        med.get("datalog.parser.parse_goal"), 1e6)
    commit_call = med.get("server.engine.call", kinds=_APPLYING)
    if commit_call is not None and not shadow.sharded:
        children = [med.get(name, kinds=_APPLYING) or 0.0
                    for name in _COMMIT_CHILDREN]
        out["server.engine.commit_ms"] = commit_call * 1e3
        out["server.engine.commit_self_ms"] = \
            (commit_call - sum(children)) * 1e3
    queries = ("bound_derived", "bound_base", "unbound")
    query_call = med.get("server.engine.call", kinds=queries)
    evaluated = med.get("datalog.evaluation.query", kinds=queries)
    if None not in (query_call, evaluated):
        out["server.engine.query_self_ms"] = (query_call - evaluated) * 1e3
    for name, span, scale in (
            ("interpretations.maintainers.check_full_ms",
             "interpretations.maintainers.check_full", 1e3),
            ("interpretations.maintainers.advance_ms",
             "interpretations.maintainers.advance", 1e3),
            ("interpretations.maintainers.extension_ms",
             "probe.extension", 1e3),
            ("interpretations.maintainers.bootstrap_s",
             "probe.bootstrap", 1.0),
            ("core.processor.check_ms", "core.processor.check", 1e3),
            ("interpretations.upward.interpret_ms",
             "interpretations.upward.interpret", 1e3),
            ("core.processor.monitor_ms", "core.processor.monitor", 1e3),
            ("interpretations.downward.interpret_ms",
             "interpretations.downward.interpret", 1e3),
            ("datalog.evaluation.materialize_ms", "probe.materialize", 1e3),
            ("core.durable.append_us", "core.durable.append", 1e6),
            ("core.durable.fsync_us", "core.durable.fsync", 1e6),
            ("server.feed.publish_us", "server.feed.publish", 1e6),
            ("shard.group.single_commit_ms",
             "shard.group.single_commit", 1e3),
            ("shard.group.xshard_commit_ms",
             "shard.group.xshard_commit", 1e3),
            ("shard.group.scatter_query_ms",
             "shard.group.scatter_query", 1e3),
            ("shard.group.routed_query_ms", "shard.group.routed_query", 1e3),
            ("shard.coordinator.decision_log_us",
             "probe.decision_log", 1e6),
            ("shard.routing.route_us", "probe.route", 1e6)):
        put(name, med.get(span), scale)
    put("datalog.evaluation.query_bound_ms",
        med.get("datalog.evaluation.query",
                kinds=("bound_derived", "bound_base")), 1e3)
    put("datalog.evaluation.query_unbound_ms",
        med.get("datalog.evaluation.query", "unbound"), 1e3)
    counts = shadow.counts
    for name, values in (
            ("interpretations.upward.induced_events_per_op",
             counts["induced"]),
            ("interpretations.downward.translations_per_request",
             counts["translations"]),
            ("datalog.evaluation.facts_derived_per_answer",
             counts["facts_derived"]),
            ("datalog.evaluation.literals_matched_per_answer",
             counts["literals_matched"])):
        if values:
            out[name] = sum(values) / len(values)
    if counts["downward"]:
        out["interpretations.downward.unsatisfiable_share"] = \
            100.0 * counts["unsatisfiable"] / counts["downward"]
    # Spans on versus off, over the ops the two modes share a kind on.
    on = [med.get("pipeline", kind) for kind in untraced]
    off = [median(values) for values in untraced.values()]
    pairs = [(a, b) for a, b in zip(on, off) if a is not None]
    if pairs:
        out["harness.trace_overhead_pct"] = 100.0 * (
            sum(a for a, _ in pairs) / sum(b for _, b in pairs) - 1.0)
    out["_untraced_s"] = untraced      # kind -> [seconds], for wire overhead
    return out
