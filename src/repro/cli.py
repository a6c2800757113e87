"""Command-line driver for the update-processing system.

Usage (after ``pip install -e .``)::

    python -m repro table                         # print Table 4.1
    python -m repro describe db.dl                # transition & event rules
    python -m repro check db.dl -t "delete R(B)"  # integrity checking
    python -m repro upward db.dl -t "delete R(B)" # induced derived events
    python -m repro translate db.dl -r "ins P(B)" # view updating
    python -m repro repair db.dl                  # repair an inconsistent db
    python -m repro monitor db.dl -t "..." -c Cond1,Cond2
    python -m repro serve data/ --init db.dl      # TCP update server
    python -m repro call query "Unemp(x)" --port 7407

Database files use the parser grammar (see ``repro.datalog.parser``);
transactions use ``insert P(A), delete Q(B)``; requests use
``ins P(A)`` / ``del P(A)``, prefixed with ``not`` for negative requests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core import UpdateProcessor, repair_to_consistency
from repro.datalog.database import DeductiveDatabase
from repro.datalog.errors import DatalogError
from repro.datalog.parser import parse_atom
from repro.events.event_rules import EventCompiler
from repro.events.events import parse_transaction
from repro.events.requests import parse_request  # noqa: F401 - re-exported API
from repro.problems import render_table_4_1
from repro.requests import UpdateRequest


def _load(path: str) -> DeductiveDatabase:
    return DeductiveDatabase.from_source(Path(path).read_text())


def _cmd_table(_: argparse.Namespace) -> int:
    print(render_table_4_1())
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    db = _load(args.database)
    program = EventCompiler(simplify=args.simplify).compile(db)
    print(program.describe())
    return 0


def _cmd_upward(args: argparse.Namespace) -> int:
    db = _load(args.database)
    processor = UpdateProcessor(db)
    transaction = parse_transaction(args.transaction)
    result = processor.upward(transaction)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"transaction {transaction} induces {result}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    db = _load(args.database)
    processor = UpdateProcessor(db)
    transaction = parse_transaction(args.transaction)
    result = processor.check(transaction)
    print(result)
    return 0 if result.ok else 1


def _cmd_translate(args: argparse.Namespace) -> int:
    db = _load(args.database)
    processor = UpdateProcessor(db)
    requests = [parse_request(piece) for piece in args.request]
    result = processor.downward(requests)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.is_satisfiable else 1
    if result.dnf.is_true:
        print("already satisfied")
        return 0
    if not result.is_satisfiable:
        print("no translation")
        return 1
    for index, translation in enumerate(result.translations, start=1):
        print(f"{index}. {translation}")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    db = _load(args.database)
    result = repair_to_consistency(db, granularity=args.granularity)
    if not result.consistent:
        print(f"gave up after {result.rounds} rounds")
        return 1
    for index, transaction in enumerate(result.applied, start=1):
        print(f"round {index}: {transaction}")
    print(f"consistent after {result.rounds} round(s)")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    db = _load(args.database)
    processor = UpdateProcessor(db)
    transaction = parse_transaction(args.transaction)
    conditions = [c.strip() for c in args.conditions.split(",") if c.strip()]
    changes = processor.monitor(transaction, conditions)
    print(changes)
    return 0


REPL_HELP = """commands:
  ? <atom>                 query, e.g. ? Unemp(x)
  + <atom>                 insert a base fact (integrity-checked)
  - <atom>                 delete a base fact (integrity-checked)
  apply <transaction>      e.g. apply insert A(X), delete B(Y)
  check <transaction>      integrity-check without applying
  translate <request>      e.g. translate del Unemp(Dolors)
  undo                     roll back the last applied transaction
  rules | facts | table    inspect the database / the classification
  help | quit
"""


def _cmd_repl(args: argparse.Namespace) -> int:
    """An interactive session over a database file."""
    from repro.core.history import Journal
    from repro.events.events import Event, Transaction
    from repro.events.naming import EventKind
    from repro.server.engine import checked_commit

    db = _load(args.database)
    processor = UpdateProcessor(db)
    journal = Journal(db)
    print(f"loaded {args.database}: {db.fact_count()} facts, "
          f"{len(db.rules)} rules, {len(db.constraints)} constraints")
    print("type 'help' for commands")

    def apply_checked(transaction: Transaction) -> None:
        # The same checked-commit path the server protocol uses, so REPL
        # and server semantics cannot drift.
        outcome = checked_commit(processor, transaction, journal.commit)
        if outcome.applied:
            print(f"applied {outcome.effective}")
        else:
            print(f"rejected: {outcome.check}")

    while True:
        try:
            line = input("repro> ").strip()
        except EOFError:
            break
        if not line:
            continue
        try:
            if line in ("quit", "exit"):
                break
            elif line == "help":
                print(REPL_HELP, end="")
            elif line == "table":
                print(render_table_4_1())
            elif line == "rules":
                for rule_ in db.all_rules():
                    print(f"  {rule_}")
            elif line == "facts":
                for predicate, row in sorted(db.iter_facts(),
                                             key=lambda p: (p[0], str(p[1]))):
                    rendered = ", ".join(str(t) for t in row)
                    print(f"  {predicate}({rendered})" if row else f"  {predicate}")
            elif line.startswith("?"):
                for row in db.query(line[1:].strip()):
                    print(f"  {row}")
            elif line.startswith("+") or line.startswith("-"):
                target = parse_atom(line[1:].strip())
                kind = EventKind.INSERTION if line[0] == "+" \
                    else EventKind.DELETION
                apply_checked(Transaction(
                    [Event(kind, target.predicate, tuple(target.args))]))
            elif line.startswith("apply "):
                apply_checked(parse_transaction(line[len("apply "):]))
            elif line.startswith("check "):
                print(processor.check(parse_transaction(line[len("check "):])))
            elif line.startswith("translate "):
                pieces = line[len("translate "):].split(";")
                result = processor.downward(
                    [parse_request(piece) for piece in pieces])
                if result.dnf.is_true or not result.is_satisfiable:
                    print(result)  # "already satisfied" / "no translation"
                else:
                    for index, translation in enumerate(
                            result.translations, 1):
                        print(f"  {index}. {translation}")
            elif line == "undo":
                undone = journal.undo()
                processor.refresh()
                print(f"undid {undone[0].transaction}")
            else:
                print(f"unknown command: {line!r} (try 'help')")
        except DatalogError as error:
            print(f"error: {error}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the TCP update server over a durable data directory."""
    from repro.obs import tracer as obs
    from repro.server import DatabaseEngine
    from repro.server.server import run

    if args.trace:
        obs.enable()
    initial = _load(args.init) if args.init else None
    engine = DatabaseEngine.open(args.directory, initial=initial,
                                 max_batch=args.max_batch,
                                 on_violation=args.on_violation,
                                 dedup_capacity=args.dedup_capacity)
    if args.routing:
        # A shard of a partitioned group: the routing table is the durable
        # schema record (this shard's snapshot only renders predicates it
        # holds facts or rules for), so redeclare every routed predicate.
        from repro.shard import RoutingTable

        for predicate, arity in RoutingTable.load(args.routing).arities.items():
            engine.db.declare_base(predicate, arity)
    run(engine, host=args.host, port=args.port, port_file=args.port_file,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight,
        request_timeout=args.timeout,
        checkpoint_on_shutdown=not args.no_checkpoint,
        slow_op_threshold=args.slow_op_threshold)
    return 0


def _add_ignored_knobs(parser: argparse.ArgumentParser) -> None:
    """``--cache-mode`` / ``--eval-engine``: accepted, select nothing."""
    parser.add_argument("--cache-mode",
                        choices=["advance", "invalidate", "counting"],
                        help="accepted for compatibility; selects nothing: "
                             "the program picks the maintainer (counting, "
                             "or advance when recursive; docs/IVM.md)")
    parser.add_argument("--eval-engine", choices=["compiled", "interpreted"],
                        help="accepted for compatibility; selects nothing: "
                             "the server evaluates with compiled join plans "
                             "(docs/EVALUATION.md)")


def _parse_pins(pins: list[str] | None) -> dict[str, int]:
    """Parse repeated ``--pin PRED=SHARD`` flags into a placement map."""
    placements: dict[str, int] = {}
    for piece in pins or ():
        name, _, index = piece.partition("=")
        if not name or not index.isdigit():
            raise DatalogError(
                f"--pin expects PREDICATE=SHARD_INDEX, got {piece!r}")
        placements[name] = int(index)
    return placements


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    """Serve an in-process shard group (scatter-gather + 2PC) over TCP."""
    from repro.obs import tracer as obs
    from repro.server.server import run
    from repro.shard import EngineGroup

    if args.trace:
        obs.enable()
    initial = _load(args.init) if args.init else None
    group = EngineGroup.open(args.directory, initial=initial,
                             shards=args.shards,
                             pinned=_parse_pins(args.pin),
                             max_batch=args.max_batch,
                             on_violation=args.on_violation,
                             dedup_capacity=args.dedup_capacity)
    run(group, host=args.host, port=args.port, port_file=args.port_file,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight,
        request_timeout=args.timeout,
        checkpoint_on_shutdown=not args.no_checkpoint,
        slow_op_threshold=args.slow_op_threshold)
    return 0


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise DatalogError(f"--shard expects HOST:PORT, got {text!r}")
    return host, int(port)


def _cmd_route(args: argparse.Namespace) -> int:
    """Serve a scatter-gather router over running shard servers."""
    from repro.server.server import run
    from repro.shard import (
        DECISIONS_NAME,
        ROUTING_NAME,
        DecisionLog,
        RoutingTable,
        ShardRouter,
    )

    directory = Path(args.directory)
    routing = RoutingTable.load(directory / ROUTING_NAME)
    decisions = DecisionLog(directory / DECISIONS_NAME)
    router = ShardRouter([_parse_endpoint(piece) for piece in args.shard],
                         routing, decisions,
                         timeout=args.timeout,
                         max_attempts=args.retries)
    run(router, host=args.host, port=args.port, port_file=args.port_file,
        max_connections=args.max_connections,
        request_timeout=args.timeout,
        checkpoint_on_shutdown=False,
        slow_op_threshold=args.slow_op_threshold)
    return 0


def _request_params(args: argparse.Namespace) -> dict:
    """Build the wire params of one op from ``call``/``trace`` flags."""
    params: dict = {}
    if args.op == "query":
        if not args.argument:
            raise DatalogError("query needs a goal, e.g.: repro call query 'P(x)'")
        params["goal"] = args.argument
    elif args.op == "prepare":
        transaction = args.transaction or args.argument
        if not transaction or not getattr(args, "txn_id", None):
            raise DatalogError("prepare needs a transaction (-t) and --txn-id")
        params["transaction"] = transaction
        params["txn_id"] = args.txn_id
    elif args.op == "decide":
        if not args.argument or not getattr(args, "txn_id", None):
            raise DatalogError("decide needs --txn-id and a decision "
                               "('commit' or 'abort'), e.g.: "
                               "repro call decide commit --txn-id ID")
        params["txn_id"] = args.txn_id
        params["decision"] = args.argument
    elif args.op in ("commit", "check", "upward", "monitor"):
        transaction = args.transaction or args.argument
        if not transaction:
            raise DatalogError(f"{args.op} needs a transaction (-t or positional)")
        params["transaction"] = transaction
        if args.op == "monitor":
            if not args.conditions:
                raise DatalogError("monitor needs -c CONDITIONS")
            params["conditions"] = [c.strip() for c in args.conditions.split(",")
                                    if c.strip()]
        if args.op == "commit" and getattr(args, "on_violation", None):
            params["on_violation"] = args.on_violation
        if args.op == "commit" and getattr(args, "txn_id", None):
            params["txn_id"] = args.txn_id
    elif args.op == "downward":
        requests = args.request or (
            [r for r in args.argument.split(";") if r.strip()]
            if args.argument else [])
        if not requests:
            raise DatalogError("downward needs requests (-r or positional, "
                               "';'-separated)")
        params["requests"] = requests
    elif args.op == "subscribe":
        goals = list(getattr(args, "goals", None) or [])
        if args.argument:
            goals.append(args.argument)
        if not goals:
            raise DatalogError("subscribe needs goals (-g or positional), "
                               "e.g.: repro call subscribe Unemp")
        params["goals"] = goals
    elif args.op == "unsubscribe":
        if not args.argument:
            raise DatalogError("unsubscribe needs a subscription id, e.g.: "
                               "repro call unsubscribe sub-1")
        params["subscription_id"] = args.argument
    return params


def _cmd_call_follow(args: argparse.Namespace, params: dict,
                     resilient: bool) -> int:
    """``repro call subscribe --follow``: stream frames as JSON lines.

    The resilient path re-subscribes across reconnects and surfaces seq
    gaps as synthetic resync frames; the plain path prints the raw pushed
    payloads (including ``seq``) until the limit or the connection ends.
    """
    goals = params["goals"]
    limit = args.max_frames
    printed = 0
    try:
        if resilient:
            from repro.server.resilient import ResilientClient

            with ResilientClient(
                    args.host, args.port,
                    max_attempts=(args.retries if args.retries is not None
                                  else 5),
                    deadline=args.deadline) as client:
                for frame in client.subscribe(goals):
                    print(json.dumps(frame), flush=True)
                    printed += 1
                    if limit is not None and printed >= limit:
                        break
        else:
            from repro.server.client import DatabaseClient

            with DatabaseClient(args.host, args.port,
                                handshake=False) as client:
                info = client.subscribe(goals)
                print(json.dumps(info), flush=True)
                while limit is None or printed < limit:
                    print(json.dumps(client.next_frame()), flush=True)
                    printed += 1
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    """Send one request to a running server and print the JSON result."""
    params = _request_params(args)
    resilient = (args.retries is not None or args.deadline is not None
                 or args.router)
    if args.op == "subscribe" and getattr(args, "follow", False):
        return _cmd_call_follow(args, params, resilient)
    if resilient:
        # The self-healing path: reconnects, jittered backoff, a deadline
        # budget the server enforces too, and auto txn_id stamping so
        # retried commits are exactly-once.
        from repro.server.resilient import ResilientClient

        client_cm = ResilientClient(
            args.host, args.port,
            max_attempts=args.retries if args.retries is not None else 5,
            deadline=args.deadline)
    else:
        from repro.server.client import DatabaseClient

        client_cm = DatabaseClient(args.host, args.port, handshake=False)
    with client_cm as client:
        if args.op == "shutdown":  # control op: the server intercepts it
            result = client.call("shutdown")
        else:
            result = client.send(UpdateRequest.of(args.op, params))
    print(json.dumps(result, indent=2))
    if args.op == "check":
        return 0 if result.get("ok") else 1
    if args.op == "commit":
        return 0 if result.get("applied") else 1
    if args.op == "downward":
        return 0 if result.get("satisfiable") else 1
    if args.op == "health":
        return 0 if result.get("ready") else 1
    return 0


def _trace_result_payload(result) -> object:
    """A JSON-ready rendering of one traced op's result."""
    if hasattr(result, "to_dict"):
        return result.to_dict()
    if isinstance(result, list):  # query answers (rows of constants)
        return [[getattr(value, "value", value) for value in row]
                for row in result]
    return str(result)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one op locally under a scoped tracer and print the breakdown."""
    from repro.obs import tracer as obs

    db = _load(args.database)
    processor = UpdateProcessor(db)
    request = UpdateRequest.of(args.op, _request_params(args))
    with obs.use() as tracer:
        with tracer.span(f"request.{args.op}"):
            result = request.run(processor)
    root = tracer.last_root
    if args.json:
        print(json.dumps({
            "result": _trace_result_payload(result),
            "trace": root.to_dict() if root is not None else {},
            "aggregates": tracer.aggregates(),
        }, indent=2))
    else:
        print(result)
        if root is not None:
            print()
            print(obs.format_span(root))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deductive database updating problems via event rules "
                    "(Teniente & Urpí, ICDE 1995).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("table", help="print Table 4.1").set_defaults(run=_cmd_table)

    describe = commands.add_parser("describe",
                                   help="print transition and event rules")
    describe.add_argument("database")
    describe.add_argument("--simplify", action="store_true")
    describe.set_defaults(run=_cmd_describe)

    upward = commands.add_parser("upward", help="induced derived events")
    upward.add_argument("database")
    upward.add_argument("-t", "--transaction", required=True)
    upward.add_argument("--json", action="store_true",
                        help="machine-readable output")
    upward.set_defaults(run=_cmd_upward)

    check = commands.add_parser("check", help="integrity checking (5.1.1)")
    check.add_argument("database")
    check.add_argument("-t", "--transaction", required=True)
    check.set_defaults(run=_cmd_check)

    translate = commands.add_parser(
        "translate", help="view updating / downward interpretation")
    translate.add_argument("database")
    translate.add_argument("-r", "--request", action="append", required=True,
                           help="e.g. 'ins P(B)' (repeatable)")
    translate.add_argument("--json", action="store_true",
                           help="machine-readable output")
    translate.set_defaults(run=_cmd_translate)

    repair = commands.add_parser("repair", help="repair an inconsistent database")
    repair.add_argument("database")
    repair.add_argument("--granularity", choices=["violation", "global"],
                        default="violation")
    repair.set_defaults(run=_cmd_repair)

    monitor = commands.add_parser("monitor", help="condition monitoring (5.1.2)")
    monitor.add_argument("database")
    monitor.add_argument("-t", "--transaction", required=True)
    monitor.add_argument("-c", "--conditions", required=True,
                         help="comma-separated condition predicates")
    monitor.set_defaults(run=_cmd_monitor)

    repl = commands.add_parser("repl", help="interactive session")
    repl.add_argument("database")
    repl.set_defaults(run=_cmd_repl)

    serve = commands.add_parser(
        "serve", help="serve a durable database over TCP (JSON lines)")
    serve.add_argument("directory", help="durable data directory")
    serve.add_argument("--init", metavar="DB_FILE",
                       help="seed a fresh directory from a database file")
    serve.add_argument("--routing", metavar="ROUTING_JSON",
                       help="serve as one shard of a partitioned group: "
                            "redeclare every predicate in this routing "
                            "table so sparsely-populated shards keep the "
                            "full schema")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7407)
    serve.add_argument("--port-file", metavar="PATH",
                       help="write the bound port here once listening "
                            "(use with --port 0)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="group-commit width (default 64)")
    serve.add_argument("--max-connections", type=int, default=64)
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="in-flight request budget before shedding with "
                            "'overloaded' (default: 32)")
    serve.add_argument("--dedup-capacity", type=int, default=None,
                       help="bound on remembered txn_id outcomes "
                            "(exactly-once window; default 4096)")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-request timeout in seconds")
    serve.add_argument("--on-violation", default="reject",
                       choices=["reject", "maintain", "ignore"],
                       help="default commit policy")
    _add_ignored_knobs(serve)
    serve.add_argument("--no-checkpoint", action="store_true",
                       help="skip the WAL checkpoint on shutdown")
    serve.add_argument("--trace", action="store_true",
                       help="enable execution tracing (span aggregates show "
                            "up in 'stats')")
    serve.add_argument("--slow-op-threshold", type=float, metavar="SECONDS",
                       help="log requests slower than this at WARNING")
    serve.set_defaults(run=_cmd_serve)

    shard_serve = commands.add_parser(
        "shard-serve",
        help="serve a partitioned engine group (scatter-gather + 2PC)")
    shard_serve.add_argument("directory", help="group data directory "
                             "(one subdirectory per shard)")
    shard_serve.add_argument("--shards", type=int, default=2,
                             help="number of shards for a fresh group "
                                  "(reopen reads routing.json; default 2)")
    shard_serve.add_argument("--init", metavar="DB_FILE",
                             help="seed a fresh group from a database file")
    shard_serve.add_argument("--pin", action="append", metavar="PRED=SHARD",
                             help="pin a predicate to one shard instead of "
                                  "hash partitioning (repeatable)")
    shard_serve.add_argument("--host", default="127.0.0.1")
    shard_serve.add_argument("--port", type=int, default=7407)
    shard_serve.add_argument("--port-file", metavar="PATH",
                             help="write the bound port here once listening "
                                  "(use with --port 0)")
    shard_serve.add_argument("--max-batch", type=int, default=64)
    shard_serve.add_argument("--max-connections", type=int, default=64)
    shard_serve.add_argument("--max-inflight", type=int, default=None)
    shard_serve.add_argument("--dedup-capacity", type=int, default=None)
    shard_serve.add_argument("--timeout", type=float, default=30.0)
    shard_serve.add_argument("--on-violation", default="reject",
                             choices=["reject", "maintain", "ignore"])
    _add_ignored_knobs(shard_serve)
    shard_serve.add_argument("--no-checkpoint", action="store_true")
    shard_serve.add_argument("--trace", action="store_true")
    shard_serve.add_argument("--slow-op-threshold", type=float,
                             metavar="SECONDS")
    shard_serve.set_defaults(run=_cmd_shard_serve)

    route = commands.add_parser(
        "route", help="serve a scatter-gather router over shard servers")
    route.add_argument("directory",
                       help="directory holding routing.json; the 2PC "
                            "decision log lives here too")
    route.add_argument("--shard", action="append", required=True,
                       metavar="HOST:PORT",
                       help="shard server endpoint, one per shard in "
                            "shard-index order (repeatable)")
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=7408)
    route.add_argument("--port-file", metavar="PATH")
    route.add_argument("--max-connections", type=int, default=64)
    route.add_argument("--timeout", type=float, default=30.0,
                       help="per-request timeout, also used toward shards")
    route.add_argument("--retries", type=int, default=5,
                       help="attempts per shard call (resilient client)")
    route.add_argument("--slow-op-threshold", type=float, metavar="SECONDS")
    route.set_defaults(run=_cmd_route)

    call = commands.add_parser(
        "call", help="send one request to a running server")
    call.add_argument("op", choices=[
        "ping", "hello", "query", "upward", "check", "monitor", "downward",
        "repair", "commit", "prepare", "decide", "stats", "checkpoint",
        "health", "shutdown", "subscribe", "unsubscribe"])
    call.add_argument("argument", nargs="?",
                      help="query goal / transaction / ';'-separated requests")
    call.add_argument("--host", default="127.0.0.1")
    call.add_argument("--port", type=int, required=True)
    call.add_argument("-t", "--transaction")
    call.add_argument("-r", "--request", action="append",
                      help="downward request, e.g. 'ins P(B)' (repeatable)")
    call.add_argument("-c", "--conditions",
                      help="comma-separated condition predicates (monitor)")
    call.add_argument("--on-violation",
                      choices=["reject", "maintain", "ignore"])
    call.add_argument("--txn-id", dest="txn_id", metavar="ID",
                      help="idempotency key for commit (retries with the "
                           "same id return the recorded outcome)")
    call.add_argument("--retries", type=int, default=None, metavar="N",
                      help="retry through the resilient client, at most N "
                           "attempts (commits are auto-stamped with txn_ids)")
    call.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="per-call deadline budget, propagated to the "
                           "server (implies the resilient client)")
    call.add_argument("--router", action="store_true",
                      help="the target is a shard router: use the resilient "
                           "client so transient 'unavailable' shards are "
                           "retried")
    call.add_argument("-g", "--goals", action="append", metavar="GOAL",
                      help="subscription goal, a derived predicate or bound "
                           "atom like 'Unemp(Maria)' (repeatable)")
    call.add_argument("--follow", action="store_true",
                      help="with subscribe: keep the connection open and "
                           "print each pushed frame as a JSON line")
    call.add_argument("--max-frames", type=int, default=None, metavar="N",
                      help="with --follow: exit after N frames")
    call.set_defaults(run=_cmd_call)

    trace = commands.add_parser(
        "trace", help="run one op locally with execution tracing")
    trace.add_argument("op", choices=[
        "query", "upward", "check", "monitor", "downward", "repair",
        "commit"])
    trace.add_argument("database")
    trace.add_argument("argument", nargs="?",
                       help="query goal / transaction / ';'-separated requests")
    trace.add_argument("-t", "--transaction")
    trace.add_argument("-r", "--request", action="append",
                       help="downward request, e.g. 'ins P(B)' (repeatable)")
    trace.add_argument("-c", "--conditions",
                       help="comma-separated condition predicates (monitor)")
    trace.add_argument("--on-violation",
                       choices=["reject", "maintain", "ignore"])
    trace.add_argument("--json", action="store_true",
                       help="machine-readable result + trace + aggregates")
    trace.set_defaults(run=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (DatalogError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
