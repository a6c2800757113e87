"""The benchmark's vocabulary: workloads, end-to-end metrics, layer metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(:func:`manifest`; a self-test keeps the two equal), so a name, unit, bound
or direction is written down exactly once.

Every metric has a *home* workload: the one whose op mix exercises it at
full scale.  A run of any other workload still has to print the metric (the
driver's contract wants every metric from every run), so it takes it from a
*reference lifetime* of the home workload at ``REFERENCE_N`` people, driven
beside its own servers -- see README.md, "Native and reference metrics".
"""

from __future__ import annotations

from dataclasses import dataclass

#: Base size of the reference lifetimes that supply foreign metrics.
REFERENCE_N = 1000
#: Share of ``--seconds`` the named workload's own servers take load for;
#: the rest is split evenly between the reference lifetimes it needs.  The
#: driver holds every (workload, metric) pair to the same test, so load is
#: shared out to make a reference metric about as steady as a native one.
MAIN_SHARE = 0.4
#: Server processes (each with its own data directory) per workload run.
REPEATS = 3
#: ``kill -9`` + restart cycles at the end of each of those lifetimes.
KILLS = 3
#: Load is applied in slices of about this long, interleaved between all the
#: servers of a run, so every metric samples the same stretch of time.
SLICE_SECONDS = 0.4
#: Untimed share at the start of every timed phase's budget.
WARMUP_SHARE = 0.1
DEFAULT_SEED = 1995
RUN_SECONDS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    server: str          # "serve" | "shard-serve"
    n: int               # people in employment_database(n, seed)
    loop: str            # "closed" | "open"
    conns: int           # request connections (the open loop adds a subscriber)
    mix: dict            # op kind -> weight
    trace_ops: int       # ops of connection 0's stream the traced pass replays
    reports: tuple       # end-to-end metrics it supplies itself, besides ALWAYS
    rate: float = 0.0    # open loop only: requests per second


WORKLOADS = {w.name: w for w in (
    Workload(
        "commit_stream",
        "Write path only (dedup, group commit, counting IC check, WAL, fsync);"
        " serve n=5000, closed loop, 2 connections; an evaluator change must"
        " not move it.",
        "serve", 5000, "closed", 2,
        {"hire": 88, "dismiss": 5, "violate": 5, "replay": 2}, 600,
        ("commit_p50_ms", "commit_p99_ms", "wal_bytes_per_commit")),
    Workload(
        "query_serving",
        "Read path only: db.query re-materialises per call, so the evaluator"
        " does all the work; serve n=5000, closed loop, 2 connections; a WAL"
        " change must not move it.",
        "serve", 5000, "closed", 2,
        {"bound_derived": 70, "bound_base": 20, "unbound": 10}, 120,
        ("query_p50_ms", "query_p99_ms")),
    Workload(
        "whatif_table41",
        "The paper's non-applying Table 4.1 ops (check, upward, monitor,"
        " downward) under the interpreter mutex; serve n=5000, closed loop,"
        " 2 connections; no WAL, no from-scratch evaluation.",
        "serve", 5000, "closed", 2,
        {"check": 40, "upward": 25, "monitor": 10,
         "ins_unemp": 12.5, "del_unemp": 12.5}, 600,
        ("whatif_p50_ms", "downward_p50_ms")),
    Workload(
        "live_mixed",
        "Reads beside writes beside a push feed: serve n=1000, open loop at"
        " 250 ops/s on 1 connection plus 1 subscriber on Unemp; latency is"
        " timed from the due time.",
        "serve", 1000, "open", 1,
        {"toggle": 50, "bound_derived": 30, "check": 20}, 250,
        ("commit_p50_ms", "query_p50_ms", "feed_lag_p50_ms",
         "wal_bytes_per_commit"), rate=250.0),
    Workload(
        "sharded_mix",
        "Router, 2PC and merge path: shard-serve --shards 2, n=5000, closed"
        " loop, 2 connections; single-node optimisations should move it"
        " less, a shard/ change only it.",
        "shard-serve", 5000, "closed", 2,
        {"single": 45, "xshard": 20, "bound_base": 10, "bound_derived": 10,
         "unbound": 5, "check": 10}, 300,
        ("commit_p50_ms", "commit_p99_ms", "query_p50_ms", "query_p99_ms",
         "wal_bytes_per_commit")),
)}

#: End-to-end metrics every workload measures on its own server.
ALWAYS = ("setup_s", "throughput_ops_s", "recovery_s", "peak_rss_mb")

#: Op kind -> the latency class its samples are pooled under.
KIND_CLASS = {
    "hire": "commit", "dismiss": "commit", "rehire": "commit",
    "violate": "commit", "toggle": "commit", "single": "commit",
    "replay": "replay", "xshard": "xshard",
    "bound_derived": "query", "bound_base": "query", "unbound": "query",
    "check": "whatif", "upward": "whatif", "monitor": "whatif",
    "ins_unemp": "downward", "del_unemp": "downward",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    home: str            # workload that supplies it when the run's own cannot
    bound: float = 0.0   # end-to-end only: tolerated worsening (share)
    what: str = ""


#: Bounds.  Back-to-back runs of one commit on the 2-core sandbox this was
#: built on differ by 10-20 % in *every* timing at once (the host's speed
#: drifts over tens of seconds; README.md, "Noise"), so every timing gets
#: the largest bound the contract allows; only the byte and memory counts,
#: which repeat, are held tighter.
_TIMING = 0.25

E2E = (
    Metric("setup_s", "s", "lower", "commit_stream", _TIMING,
           "server spawn -> first hello reply; median of the lifetimes"),
    Metric("throughput_ops_s", "1/s", "higher", "commit_stream", _TIMING,
           "correct completed ops / wall time, per timed slice"),
    Metric("commit_p50_ms", "ms", "lower", "commit_stream", _TIMING,
           "send -> post-fsync ack of single-shard commits"),
    Metric("commit_p99_ms", "ms", "lower", "commit_stream", _TIMING),
    Metric("query_p50_ms", "ms", "lower", "query_serving", _TIMING,
           "query ops, all shapes"),
    Metric("query_p99_ms", "ms", "lower", "query_serving", _TIMING),
    Metric("whatif_p50_ms", "ms", "lower", "whatif_table41", _TIMING,
           "check / upward / monitor"),
    Metric("downward_p50_ms", "ms", "lower", "whatif_table41", _TIMING),
    Metric("feed_lag_p50_ms", "ms", "lower", "live_mixed", _TIMING,
           "commit due time -> matching delta frame on the subscriber"),
    Metric("recovery_s", "s", "lower", "commit_stream", _TIMING,
           "after kill -9: restart -> health ready, replaying the run's WAL"),
    Metric("wal_bytes_per_commit", "B", "lower", "commit_stream", 0.10,
           "log bytes on disk / applied commits"),
    Metric("peak_rss_mb", "MB", "lower", "commit_stream", 0.05,
           "server VmHWM at the end of the timed slices"),
)


def _layer(name: str, unit: str, home: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, home)


LAYER = (
    # Three latencies taken over the wire like the end-to-end metrics, but
    # too unsteady here to carry a bound.  The two tails spread 45-95 % and
    # 20-25 % over 10 runs, against the 25 % the contract allows at most.  A
    # cross-shard commit's latencies fall into two clusters (about 5 ms alone,
    # 20 ms beside the other connection's query) with the median in the thin
    # stretch between them, where it moves 30 % for ten percentile points:
    # the driver measured spreads of 21-31 % and refused the bound.
    _layer("feed_lag_p99_ms", "ms", "live_mixed"),
    _layer("whatif_p99_ms", "ms", "whatif_table41"),
    _layer("xshard_commit_p50_ms", "ms", "sharded_mix"),
    _layer("server.server.wire_overhead_ms", "ms", "commit_stream"),
    _layer("server.server.ping_rtt_ms", "ms", "commit_stream"),
    _layer("server.server.shed", "count", "commit_stream"),
    _layer("server.server.deadline_rejected", "count", "commit_stream"),
    _layer("server.protocol.decode_us", "us", "commit_stream"),
    _layer("server.protocol.dispatch_self_us", "us", "commit_stream"),
    _layer("server.protocol.encode_us", "us", "commit_stream"),
    _layer("server.protocol.encode_us_per_row", "us", "query_serving"),
    _layer("events.events.parse_txn_us", "us", "commit_stream"),
    _layer("datalog.parser.parse_goal_us", "us", "query_serving"),
    _layer("server.engine.commit_ms", "ms", "commit_stream"),
    _layer("server.engine.commit_self_ms", "ms", "commit_stream"),
    _layer("server.engine.query_self_ms", "ms", "query_serving"),
    _layer("server.engine.batch_size_mean", "count", "commit_stream",
           "higher"),
    _layer("server.engine.wal_syncs_per_commit", "count", "commit_stream"),
    _layer("server.engine.conflicts_deferred", "count", "commit_stream"),
    _layer("server.engine.dedup_hits", "count", "commit_stream", "higher"),
    _layer("server.engine.slow_path_commits", "count", "commit_stream"),
    _layer("interpretations.maintainers.check_full_ms", "ms",
           "commit_stream"),
    _layer("interpretations.maintainers.advance_ms", "ms", "commit_stream"),
    _layer("interpretations.maintainers.extension_ms", "ms", "commit_stream"),
    _layer("interpretations.maintainers.bootstrap_s", "s", "commit_stream"),
    _layer("interpretations.maintainers.rederives", "count", "commit_stream"),
    _layer("interpretations.maintainers.bootstraps", "count",
           "commit_stream"),
    _layer("core.processor.check_ms", "ms", "whatif_table41"),
    _layer("interpretations.upward.interpret_ms", "ms", "whatif_table41"),
    _layer("core.processor.monitor_ms", "ms", "whatif_table41"),
    _layer("interpretations.upward.induced_events_per_op", "count",
           "whatif_table41"),
    _layer("interpretations.downward.interpret_ms", "ms", "whatif_table41"),
    _layer("interpretations.downward.translations_per_request", "count",
           "whatif_table41"),
    _layer("interpretations.downward.unsatisfiable_share", "%",
           "whatif_table41"),
    _layer("datalog.evaluation.query_bound_ms", "ms", "query_serving"),
    _layer("datalog.evaluation.query_unbound_ms", "ms", "query_serving"),
    _layer("datalog.evaluation.materialize_ms", "ms", "query_serving"),
    _layer("datalog.evaluation.facts_derived_per_answer", "count",
           "query_serving"),
    _layer("datalog.evaluation.literals_matched_per_answer", "count",
           "query_serving"),
    _layer("core.durable.append_us", "us", "commit_stream"),
    _layer("core.durable.fsync_us", "us", "commit_stream"),
    _layer("core.durable.open_s", "s", "commit_stream"),
    _layer("core.durable.log_lines", "count", "commit_stream"),
    _layer("core.durable.checkpoint_s", "s", "commit_stream"),
    _layer("server.feed.publish_us", "us", "live_mixed"),
    _layer("server.feed.frames_delivered", "count", "live_mixed", "higher"),
    _layer("server.feed.resyncs", "count", "live_mixed"),
    _layer("server.feed.queue_depth_max", "count", "live_mixed"),
    _layer("shard.group.single_commit_ms", "ms", "sharded_mix"),
    _layer("shard.group.xshard_commit_ms", "ms", "sharded_mix"),
    _layer("shard.group.scatter_query_ms", "ms", "sharded_mix"),
    _layer("shard.group.routed_query_ms", "ms", "sharded_mix"),
    _layer("shard.coordinator.decision_log_us", "us", "sharded_mix"),
    _layer("shard.routing.route_us", "us", "sharded_mix"),
    _layer("shard.group.cross_shard_commits", "count", "sharded_mix"),
    _layer("shard.group.fanout", "count", "sharded_mix"),
    _layer("harness.host_slowdown", "ratio", "commit_stream"),
    _layer("harness.trace_overhead_pct", "%", "commit_stream"),
    _layer("harness.sched_lag_p99_ms", "ms", "live_mixed"),
    _layer("harness.closure_error_pct", "%", "commit_stream"),
)


def manifest() -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/harness/run.py"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in E2E],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in LAYER],
    }
