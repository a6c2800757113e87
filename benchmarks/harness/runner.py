"""One benchmark run: a workload's own lifetimes beside the reference ones.

``end_to_end`` returns every end-to-end metric for one workload and
seed.  The metrics the workload reports itself come from ``REPEATS`` server
lifetimes at its own size; every other metric comes from one *reference*
lifetime of that metric's home workload at ``REFERENCE_N`` people.  All the
servers are started first and then driven in interleaved slices (see
:mod:`benchmarks.harness.loadgen` for why), with the host's speed probed in
between, and every timing is reported at nominal host speed (see
:mod:`benchmarks.harness.hostspeed`).  ``per_layer`` does the same
for the layer metrics, adding the in-process traced pass
(:mod:`benchmarks.harness.traced`).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .catalogue import (ALWAYS, E2E, KILLS, LAYER, MAIN_SHARE, REFERENCE_N,
                        REPEATS, SLICE_SECONDS, WARMUP_SHARE, WORKLOADS,
                        Workload)
from .hostspeed import Pace
from .loadgen import Lifetime
from .stats import fast_half, median, percentile
from .traced import traced_pass

#: Scratch space for server data directories: inside the benchmark's own
#: directory, so a run reads and writes only inside its checkout.
WORK_ROOT = Path(__file__).resolve().parent / ".work"

_CLASS_OF = {"commit": "commit", "query": "query", "whatif": "whatif",
             "downward": "downward", "xshard_commit": "xshard",
             "feed_lag": "feed_lag"}


@dataclass
class Outcome:
    """Metrics plus the failure share of every server lifetime behind them."""

    pace: Pace                                    # the host's, while it ran
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    table: dict = field(default_factory=dict)     # traced pass layer tables

    def count(self, lifetimes: list[Lifetime]) -> None:
        for lifetime in lifetimes:
            self.attempted += lifetime.tally.attempted
            self.failed += lifetime.tally.failed
            self.reasons.extend(lifetime.tally.reasons)


#: A slice with fewer samples of a class than this says nothing about it.
_MIN_SLICE_SAMPLES = 5


def measured(lifetimes: list[Lifetime], pace: Pace) -> dict:
    """Every end-to-end metric these lifetimes can supply.

    Timings are divided by the slowdown of the phase they were taken in, a
    closed loop's throughput is multiplied by it (an open loop's is the rate
    it was paced at, whatever the host's speed).

    Each figure is computed per timed slice (a percentile of the slice's
    latencies, its completion rate) and the metric is the mean of the better
    half of the slices of all the lifetimes (:func:`~.stats.fast_half`), so
    a slow stretch of the machine moves the slices it covers and not the
    metric.  A ``p99`` is therefore the 99th percentile of an *undisturbed
    slice*, not of the pooled run.
    """
    slices = [s for l in lifetimes for s in l.slices]
    loading = pace.loading.factor
    closed = lifetimes[0].workload.loop == "closed"
    out = {
        "setup_s": median(l.setup_s for l in lifetimes)
        / pace.starting.factor,
        "peak_rss_mb": median(l.peak_rss_mb for l in lifetimes),
        "throughput_ops_s": fast_half(
            (rate for l in lifetimes for rate in l.rates), "higher")
        * (loading if closed else 1.0),
    }
    recoveries = [s for l in lifetimes for s in l.recoveries]
    if recoveries:
        out["recovery_s"] = median(recoveries) / pace.finishing.factor
    for prefix, cls in _CLASS_OF.items():
        usable = [s[cls] for s in slices
                  if len(s.get(cls, ())) >= _MIN_SLICE_SAMPLES]
        for q in (50, 99):
            if usable:
                out[f"{prefix}_p{q}_ms"] = 1e3 / loading * fast_half(
                    percentile(samples, q) for samples in usable)
    if all(l.applied for l in lifetimes):
        out["wal_bytes_per_commit"] = median(
            l.wal_bytes / l.applied for l in lifetimes)
    return out


def interleave(budgets: dict) -> list:
    """Spread each key's slices evenly over one schedule.

    *budgets* maps a key to its seconds of load; the result lists ``(key,
    seconds)`` slices of about ``SLICE_SECONDS`` so that every key's slices
    are evenly spaced from the first to the last.
    """
    order = {key: position for position, key in enumerate(budgets)}
    schedule = []
    for key, seconds in budgets.items():
        count = max(1, round(seconds / SLICE_SECONDS))
        schedule += [((index + 0.5) / count, order[key], key, seconds / count)
                     for index in range(count)]
    schedule.sort(key=lambda item: item[:2])
    return [(key, seconds) for _, _, key, seconds in schedule]


def run_lifetimes(groups: dict, seed: int, trace_ops: dict | None = None
                  ) -> tuple[dict, Pace]:
    """Start, drive and finish several groups of lifetimes side by side.

    *groups* maps a name to ``(workload, n, lifetimes, seconds, kills)``;
    returns ``name -> [Lifetime, ...]`` and the host's pace meanwhile.  With
    *trace_ops* (``name -> ops``) each lifetime first replays that many ops
    on one connection.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    started: dict[str, list[Lifetime]] = {name: [] for name in groups}
    budgets = {}
    pace = Pace()
    try:
        pace.starting.probe()
        for name, (workload, n, count, seconds, _) in groups.items():
            for index in range(count):
                lifetime = Lifetime(workload, n, seed + index,
                                    root / f"{name}-{index}")
                started[name].append(lifetime)
                lifetime.start()
                pace.starting.probe()
                budgets[lifetime] = seconds / count
        for lifetime, budget in budgets.items():
            if trace_ops:
                lifetime.replay(trace_ops[lifetime.workload.name])
            else:
                lifetime.drive(budget * WARMUP_SHARE, timed=False)
            lifetime.mark()
        pace.loading.probe()
        for lifetime, seconds in interleave(
                {l: s * (1 - WARMUP_SHARE) for l, s in budgets.items()}):
            lifetime.drive(seconds, timed=True)
            pace.loading.probe()
        pace.finishing.probe()
        for name, lifetimes in started.items():
            for lifetime in lifetimes:
                lifetime.finish(groups[name][4], pace.finishing.probe)
    finally:
        for lifetimes in started.values():
            for lifetime in lifetimes:
                lifetime.server.kill()
        shutil.rmtree(root, ignore_errors=True)
    return started, pace


def plan(workload: Workload) -> list[str]:
    """Home workloads whose reference lifetime this workload's run needs."""
    own = set(ALWAYS) | set(workload.reports)
    homes = {m.home for m in E2E if m.name not in own}
    return [name for name in WORKLOADS if name in homes - {workload.name}]


def _scaled(n: int, scale: float) -> int:
    return max(50, int(n * scale))


def end_to_end(name: str, seed: int, seconds: float,
               scale: float = 1.0) -> Outcome:
    """All end-to-end metrics of one run (see module doc).

    *scale* shrinks the base sizes (the smoke run uses it).
    """
    workload = WORKLOADS[name]
    references = plan(workload)
    groups = {name: (workload, _scaled(workload.n, scale), REPEATS,
                     seconds * MAIN_SHARE, KILLS)}
    for home in references:
        groups[home] = (WORKLOADS[home], _scaled(REFERENCE_N, scale), 1,
                        seconds * (1 - MAIN_SHARE) / len(references), 0)
    done, pace = run_lifetimes(groups, seed)
    outcome = Outcome(pace)
    supplied = {}
    for group, lifetimes in done.items():
        outcome.count(lifetimes)
        supplied[group] = measured(lifetimes, pace)
    reported = set(ALWAYS) | set(workload.reports)
    for metric in E2E:
        source = name if metric.name in reported else metric.home
        outcome.metrics[metric.name] = supplied[source][metric.name]
    return outcome


E2E_UNITS = {m.name: m.unit for m in E2E}
LAYER_UNITS = {m.name: m.unit for m in LAYER}


def _wire_layers(lifetime: Lifetime, untraced: dict, pace: Pace) -> dict:
    """Layer metrics read off the wire run: counters, pings, feed counts,
    the host's slowdown under load."""
    counters = lifetime.counters
    wire = [s for values in lifetime.wire_slice.values() for s in values]
    in_process = [s for values in untraced.values() for s in values]
    out = {
        "server.server.wire_overhead_ms":
            (median(wire) - median(in_process)) * 1e3,
        "server.server.ping_rtt_ms": median(lifetime.ping_rtt) * 1e3,
        "server.server.shed": counters["server.shed"],
        "server.server.deadline_rejected":
            counters["server.deadline_rejected"],
        "server.engine.conflicts_deferred":
            counters.get("commit.conflicts_deferred", 0),
        "server.engine.dedup_hits": counters.get("dedup.hit", 0),
        "interpretations.maintainers.rederives":
            counters.get("ivm.rederive", 0),
        "interpretations.maintainers.bootstraps":
            counters.get("ivm.bootstrap", 0),
        "harness.host_slowdown": pace.loading.factor,
    }
    if counters.get("commit.batches"):
        out["server.engine.batch_size_mean"] = \
            counters.get("commit.group_committed", 0) \
            / counters["commit.batches"]
    if recorded := counters.get("dedup.record"):
        out["server.engine.wal_syncs_per_commit"] = \
            counters.get("commit.wal_syncs", 0) / recorded
        out["server.engine.slow_path_commits"] = \
            recorded - counters.get("commit.group_committed", 0)
    for metric, counter in (
            ("shard.group.cross_shard_commits", "router.cross_shard_commits"),
            ("shard.group.fanout", "router.fanout")):
        if counter in counters:
            out[metric] = counters[counter]
    for key, value in lifetime.feed_counts.items():
        out[f"server.feed.{key}"] = value
    over_the_wire = measured([lifetime], pace)
    for unbounded in ("feed_lag_p99_ms", "whatif_p99_ms",
                      "xshard_commit_p50_ms"):
        if unbounded in over_the_wire:
            out[unbounded] = over_the_wire[unbounded]
    if lifetime.tally.sched_lag:
        out["harness.sched_lag_p99_ms"] = \
            percentile(lifetime.tally.sched_lag, 99) * 1e3
    return out


def per_layer(name: str, seed: int, seconds: float,
              scale: float = 1.0) -> Outcome:
    """All per-layer metrics of one run.

    One lifetime of the named workload at full size and one of every other
    workload at reference size: each replays its traced slice over the wire
    on one connection, then takes load (for the server's counters); the
    same slices are then replayed in process over twin engines.  A layer
    metric the named workload's own pass has samples for is its own; the
    rest come from the metric's home workload.
    """
    groups, n_ops = {}, {}
    for other, workload in WORKLOADS.items():
        own = other == name
        groups[other] = (
            workload, _scaled(workload.n if own else REFERENCE_N, scale), 1,
            seconds * (MAIN_SHARE if own else
                       (1 - MAIN_SHARE) / (len(WORKLOADS) - 1)), 0)
        # Never so few that an op kind lacks the samples for a table row.
        n_ops[other] = max(30, int(workload.trace_ops * scale
                                   * (1 if own else 0.25)))
    done, pace = run_lifetimes(groups, seed, trace_ops=n_ops)
    outcome = Outcome(pace)
    layers = {}
    for other, (workload, n, *_) in groups.items():
        lifetime = done[other][0]
        outcome.count([lifetime])
        workdir = Path(tempfile.mkdtemp(prefix=f"traced-{other}-",
                                        dir=WORK_ROOT))
        try:
            found, tables, failures = traced_pass(
                workload, n, seed, n_ops[other], workdir,
                spans_path=WORK_ROOT / f"spans-{other}.jsonl")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        outcome.attempted += 2 * n_ops[other]
        outcome.failed += len(failures)
        outcome.reasons.extend(failures[:5])
        untraced = found.pop("_untraced_s")
        found.update(_wire_layers(lifetime, untraced, pace))
        for kind, table in tables.items():
            if kind in lifetime.wire_slice and kind in untraced:
                table["wire_overhead_ms"] = 1e3 * (
                    median(lifetime.wire_slice[kind])
                    - median(untraced[kind]))
        outcome.table[other] = tables
        layers[other] = found
    for metric in LAYER:
        source = name if metric.name in layers[name] else metric.home
        outcome.metrics[metric.name] = layers[source][metric.name]
    return outcome
