"""Change-feed cost: publishing is (nearly) free.

The same synthetic view as the IVM benchmark:

    V(x)  <- E(x, y).
    Ic1   <- Banned(x) & V(x).

**Fan-out is cheap**: the per-commit latency of a counting engine with 64
standing subscriptions on ``V``, against the same engine with no
subscribers at all.  Publishing forwards the maintainer's own induced
deltas to in-memory callbacks -- no extra evaluation, no blocking
delivery -- so every subscriber sees every commit as a ``delta`` frame
(asserted).  The ratio (about 1.0x; 1.2x is the ceiling to watch) is
printed, not asserted: a best-of-8 commit of a few hundred microseconds
moves by more than the publish costs from one host to the next.
"""

from __future__ import annotations

import time

from repro.datalog.database import DeductiveDatabase
from repro.events.events import Transaction, parse_transaction
from repro.server.engine import DatabaseEngine

N_EDB = 100_000
N_BANNED = 20
N_SUBSCRIBERS = 64
DELTA_EVENTS = 8  # 4 inserts + 4 deletes per commit
ROUNDS_FAST = 8

RULES = """
    V(x) <- E(x, y).
    Ic1 <- Banned(x) & V(x).
"""


def _build_db(n_facts: int) -> DeductiveDatabase:
    db = DeductiveDatabase.from_source(RULES)
    db.declare_base("E", 2)
    db.declare_base("Banned", 1)
    for index in range(n_facts):
        db.add_fact("E", f"N{index}", f"M{index}")
    for index in range(N_BANNED):
        db.add_fact("Banned", f"Z{index}")
    return db


def _delta_transactions(rounds: int, tag: str) -> list[Transaction]:
    transactions = []
    for r in range(rounds):
        events = []
        for j in range(DELTA_EVENTS // 2):
            events.append(f"insert E({tag}X{r}_{j}, {tag}Y{r}_{j})")
            events.append(f"delete E(N{r * (DELTA_EVENTS // 2) + j}, "
                          f"M{r * (DELTA_EVENTS // 2) + j})")
        transactions.append(Transaction(parse_transaction(", ".join(events))))
    return transactions


def _best_commit_seconds(engine: DatabaseEngine,
                         transactions: list[Transaction]) -> float:
    best = float("inf")
    for transaction in transactions:
        start = time.perf_counter()
        outcome = engine.commit(transaction)
        best = min(best, time.perf_counter() - start)
        assert outcome.applied
    return best


def test_bench_feed_fanout(benchmark, tmp_path):
    results: dict[str, dict] = {}

    # -- counting, no subscribers: the baseline ----------------------------
    engine = DatabaseEngine.open(tmp_path / "base",
                                 initial=_build_db(N_EDB))
    try:
        assert engine.commit(_delta_transactions(1, "W")[0]).applied
        seconds = _best_commit_seconds(
            engine, _delta_transactions(ROUNDS_FAST, "B"))
        results["counting_no_subscribers"] = {
            "edb_facts": N_EDB, "delta_events": DELTA_EVENTS,
            "subscribers": 0, "seconds_per_commit": seconds,
        }
    finally:
        engine.close(checkpoint=False)

    # -- counting, 64 subscribers: delta-sourced fan-out -------------------
    engine = DatabaseEngine.open(tmp_path / "fan",
                                 initial=_build_db(N_EDB))
    try:
        frames: list[list[dict]] = [[] for _ in range(N_SUBSCRIBERS)]
        for sink in frames:
            engine.feed_subscribe(["V"], sink.append)
        assert engine.commit(_delta_transactions(1, "W")[0]).applied
        seconds = _best_commit_seconds(
            engine, _delta_transactions(ROUNDS_FAST, "F"))
        # Every subscriber saw every commit as a delta frame.
        assert all(len(sink) == ROUNDS_FAST + 1 for sink in frames)
        assert all(frame["kind"] == "delta"
                   for sink in frames for frame in sink)
        results["counting_64_subscribers"] = {
            "edb_facts": N_EDB, "delta_events": DELTA_EVENTS,
            "subscribers": N_SUBSCRIBERS, "seconds_per_commit": seconds,
            "frames_delivered": engine.metrics.counter("feed.frames"),
        }
        # The measured side through pytest-benchmark: one fan-out commit.
        pending = iter(_delta_transactions(ROUNDS_FAST, "P"))
        benchmark.pedantic(
            lambda: engine.commit(next(pending)),
            rounds=ROUNDS_FAST, iterations=1)
    finally:
        engine.close(checkpoint=False)

    fanout_overhead = (
        results["counting_64_subscribers"]["seconds_per_commit"]
        / results["counting_no_subscribers"]["seconds_per_commit"])

    for key, entry in sorted(results.items()):
        print(f"\nSUBS {key:24s} subs={entry['subscribers']:3d} "
              f"commit={entry['seconds_per_commit'] * 1e3:9.3f} ms")
    print(f"SUBS fan-out overhead at {N_SUBSCRIBERS} subscribers: "
          f"{fanout_overhead:.3f}x")
