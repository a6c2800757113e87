"""Command lines: the driver's ``bench`` and the human ``run|gen|compare``.

A *result line* is one JSON object per (workload, seed) run, the single
schema shared by ``run --out``, ``run --record`` (which appends to
``BENCH.jsonl``, the trajectory file) and ``compare``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from .catalogue import DEFAULT_SEED, E2E, RUN_SECONDS, WORKLOADS
from .runner import (E2E_UNITS, LAYER_UNITS, WORK_ROOT, end_to_end,
                     per_layer)
from .servers import FLUSH_POLICY
from .stats import quartiles, verdict
from .streams import Stream, initial_database

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "BENCH.jsonl"


def result_line(outcome, units: dict) -> str:
    """The JSON object the driver reads from the last line of stdout."""
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    })


def print_metrics(title: str, outcome, units: dict) -> None:
    print(f"== {title}: {outcome.attempted} ops attempted, "
          f"{outcome.failed} failed")
    for reason in outcome.reasons:
        print(f"   FAILED {reason}")
    pace = outcome.pace
    print("   host slowdown while starting / loading / finishing: "
          f"{pace.starting.factor:.3f} / {pace.loading.factor:.3f} / "
          f"{pace.finishing.factor:.3f} (timings below are divided by it)")
    for name, value in outcome.metrics.items():
        print(f"   {name:52s} {value:14.4f} {units[name]}")


def print_tables(outcome) -> None:
    """One layer table per workload and op kind; rows sum to the request."""
    for workload, tables in outcome.table.items():
        for kind, table in tables.items():
            wire = table.get("wire_overhead_ms")
            print(f"-- {workload} / {kind}: {table['ops']} ops, pipeline "
                  f"p50 {table['pipeline_ms']:.4f} ms, closure error "
                  f"{table['closure_error_pct']:.1f} %"
                  + (f", wire overhead {wire:.4f} ms" if wire is not None
                     else ""))
            for name, value in table["rows_ms"].items():
                print(f"   {name:44s} {value:10.4f} ms "
                      f"{100 * value / table['pipeline_ms']:6.1f} %")


def bench(argv) -> int:
    """``run.py``: the contract's one workload, one seed, one result line."""
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The generator must not be the noise it measures: no collector pauses.
    gc.disable()
    if args.trace:
        outcome, units = per_layer(args.workload, args.seed,
                                   args.seconds), LAYER_UNITS
        print_tables(outcome)
    else:
        outcome, units = end_to_end(args.workload, args.seed,
                                    args.seconds), E2E_UNITS
    print_metrics(f"{args.workload} seed {args.seed}", outcome, units)
    print(result_line(outcome, units))
    return 0


# -- run -----------------------------------------------------------------------


def _git(*args: str) -> str:
    try:
        return subprocess.run(("git", *args), cwd=HERE, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def environment() -> dict:
    """Where a result line was measured."""
    WORK_ROOT.mkdir(exist_ok=True)
    mount = subprocess.run(("df", "--output=fstype", str(WORK_ROOT)),
                           capture_output=True, text=True).stdout.split()
    return {
        "sha": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "data_fs": mount[-1] if mount else "unknown",
        "flush_policy": FLUSH_POLICY,
    }


def _run(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scale, seconds = (0.04, 3.0) if args.smoke else (1.0, args.seconds)
    gc.disable()
    env = environment()
    failed = 0
    for name in names:
        e2e = end_to_end(name, args.seed, seconds, scale)
        print_metrics(f"{name} seed {args.seed} end to end", e2e, E2E_UNITS)
        layers = per_layer(name, args.seed, seconds, scale)
        print_tables(layers)
        print_metrics(f"{name} seed {args.seed} per layer", layers,
                      LAYER_UNITS)
        failed += e2e.failed + layers.failed
        line = json.dumps({
            "workload": name, "seed": args.seed, "seconds": seconds,
            "smoke": args.smoke, **env,
            "attempted": e2e.attempted + layers.attempted,
            "failed": e2e.failed + layers.failed,
            "host_slowdown": e2e.pace.loading.factor,
            "e2e": e2e.metrics, "layers": layers.metrics,
            "layer_table": layers.table.get(name, {}),
        }, sort_keys=True)
        for target in ([args.out] if args.out else []) \
                + ([TRAJECTORY] if args.record else []):
            with Path(target).open("a") as out:
                out.write(line + "\n")
    return 1 if failed else 0


# -- gen -----------------------------------------------------------------------


def stream_lines(name: str, seed: int, count: int, n: int | None = None
                 ) -> list[str]:
    """The first *count* ops of every connection's stream, as JSONL."""
    workload = WORKLOADS[name]
    n = n or workload.n
    db = initial_database(n, seed)
    return [op.to_json() for conn in range(workload.conns)
            for op in Stream(workload, n, seed, conn, db).take(count)]


def _gen(args) -> int:
    lines = stream_lines(args.workload, args.seed, args.count)
    # Same seed, same bytes: a stream that drifted would make every later
    # comparison of two runs meaningless.
    if lines != stream_lines(args.workload, args.seed, args.count):
        print("stream is not deterministic", file=sys.stderr)
        return 1
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("\n".join(lines) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


# -- compare -------------------------------------------------------------------


def load_results(path) -> dict:
    """``workload -> [result line, ...]`` from a JSONL file of runs."""
    grouped: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            grouped.setdefault(result["workload"], []).append(result)
    return grouped


def compare(base: dict, new: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, base quartiles, new quartiles, verdict)``
    for every pair both sides measured, and whether *new* is acceptable:
    no ``worse`` verdict and no higher share of failed ops."""
    rows = []
    acceptable = True
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            continue
        for metric in E2E:
            sides = [[run["e2e"][metric.name] for run in side[workload]]
                     for side in (base, new)]
            outcome = verdict(*sides, metric.better, metric.bound)
            rows.append((workload, metric.name, quartiles(sides[0]),
                         quartiles(sides[1]), outcome))
            acceptable = acceptable and outcome != "worse"
        shares = [sum(run["failed"] for run in side[workload])
                  / sum(run["attempted"] for run in side[workload])
                  for side in (base, new)]
        if shares[1] > shares[0]:
            rows.append((workload, "failed_share", (shares[0],) * 3,
                         (shares[1],) * 3, "worse"))
            acceptable = False
    return rows, acceptable


def _compare(args) -> int:
    rows, acceptable = compare(load_results(args.base),
                               load_results(args.new))
    print(f"{'workload':16s} {'metric':24s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s}  verdict")
    for workload, metric, base, new, outcome in rows:
        print(f"{workload:16s} {metric:24s} "
              + " ".join(f"{v:10.4f}" for v in base) + " "
              + " ".join(f"{v:10.4f}" for v in new) + f"  {outcome}")
    return 0 if acceptable else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="end-to-end + traced pass")
    run.add_argument("--workload", default="all",
                     choices=["all", *WORKLOADS])
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--smoke", action="store_true",
                     help="4 %% of the people, 3 s: a functional check")
    run.add_argument("--out", help="append one result line per workload")
    run.add_argument("--record", action="store_true",
                     help=f"append the result lines to {TRAJECTORY.name}")
    run.set_defaults(handler=_run)
    gen = commands.add_parser("gen", help="write an op stream as JSONL")
    gen.add_argument("workload", choices=list(WORKLOADS))
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--count", type=int, default=1000,
                     help="ops per connection")
    gen.add_argument("--out")
    gen.set_defaults(handler=_gen)
    cmp_ = commands.add_parser(
        "compare", help="verdict per (workload, metric) for two sets of runs")
    cmp_.add_argument("base", help="JSONL of result lines (run --out)")
    cmp_.add_argument("new")
    cmp_.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    return args.handler(args)
