"""Server engine costs: group commit at batch sizes 1 / 8 / 64, and a
repeated full-scan read.

The ``DatabaseEngine`` commit queue lets concurrent transactions share
one WAL fsync per batch; each member still runs its own integrity check
(``ιIc`` against the state its predecessor left) and its own append.
The first benchmark drives the same machinery deterministically through
:meth:`DatabaseEngine.commit_many` on an employment-office workload of
disjoint hirings: at batch size 1 every transaction pays its own fsync;
at 64 that cost is shared 64 ways.  It asserts the batching itself (one
fsync per batch) and prints the three timings without a speed floor:
how much a batch saves depends on how slow the host's fsync is next to
a ~0.1 ms check, and on a fast disk it is nothing.

The second times ``query("Unemp(x)")`` at n=5000: repeated in one state
it is a memo hit, after a commit it is a miss that rebuilds the answer.
"""

import itertools
import statistics
import time

from repro.datalog.database import answer_rows
from repro.datalog.parser import parse_atom
from repro.events.events import Transaction, insert, parse_transaction
from repro.server import DatabaseEngine
from repro.workloads import employment_database

N_TRANSACTIONS = 128
N_PEOPLE = 5000
N_READS = 200
SCAN = "Unemp(x)"
_run_ids = itertools.count()


def _transactions() -> list[Transaction]:
    # Disjoint event sets, each consistent on its own: every member of
    # a batch applies.
    return [Transaction([insert("Works", f"N{index}"),
                         insert("La", f"N{index}")])
            for index in range(N_TRANSACTIONS)]


def _fresh_engine(tmp_path, max_batch: int) -> DatabaseEngine:
    directory = tmp_path / f"run{next(_run_ids)}"
    return DatabaseEngine.open(directory,
                               initial=employment_database(20, seed=5),
                               max_batch=max_batch)


def _commit_run(tmp_path, max_batch: int):
    """One fresh engine, one commit_many sweep; returns (seconds, counters)."""
    engine = _fresh_engine(tmp_path, max_batch)
    try:
        transactions = _transactions()
        start = time.perf_counter()
        outcomes = engine.commit_many(transactions)
        elapsed = time.perf_counter() - start
        assert all(outcome.applied for outcome in outcomes)
        counters = engine.stats()["counters"]
    finally:
        engine.close(checkpoint=False)
    return elapsed, counters


def _best_of(tmp_path, max_batch: int, repeat: int = 3):
    runs = [_commit_run(tmp_path, max_batch) for _ in range(repeat)]
    return min(run[0] for run in runs), runs[-1][1]


def test_bench_group_commit_throughput(benchmark, tmp_path):
    time_1, counters_1 = _best_of(tmp_path, max_batch=1)
    time_8, counters_8 = _best_of(tmp_path, max_batch=8)
    time_64, counters_64 = _best_of(tmp_path, max_batch=64)

    # The batching really happened: one WAL fsync per batch, not per commit.
    assert counters_1["commit.wal_syncs"] == N_TRANSACTIONS
    assert counters_8["commit.wal_syncs"] == N_TRANSACTIONS // 8
    assert counters_64["commit.wal_syncs"] == N_TRANSACTIONS // 64
    assert counters_64["commit.group_committed"] == N_TRANSACTIONS

    def setup():
        return (_fresh_engine(tmp_path, max_batch=64), _transactions()), {}

    def target(engine, transactions):
        try:
            engine.commit_many(transactions)
        finally:
            engine.close(checkpoint=False)

    benchmark.pedantic(target, setup=setup, rounds=3)

    for batch, seconds in ((1, time_1), (8, time_8), (64, time_64)):
        print(f"\nSERVER batch={batch:2d}  commit_many({N_TRANSACTIONS})="
              f"{seconds * 1e3:8.2f} ms  "
              f"throughput={N_TRANSACTIONS / seconds:8.0f} tx/s")


def _median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_bench_repeated_scan(benchmark, tmp_path):
    engine = DatabaseEngine.open(
        tmp_path / "scan", initial=employment_database(N_PEOPLE, seed=5))
    try:
        expected = engine.db.query(SCAN)
        assert engine.query(SCAN) == expected  # the one miss of this state
        hit = [_timed(lambda: engine.query(SCAN)) for _ in range(N_READS)]
        assert engine.metrics.counter("query.memo_hits") == N_READS

        # One commit before each read: every read is a miss.  The toggle
        # adds and removes one insured unemployed person.
        toggles = [parse_transaction(
            f"{'insert' if index % 2 == 0 else 'delete'} La(Toggle), "
            f"{'insert' if index % 2 == 0 else 'delete'} U_benefit(Toggle)")
            for index in range(N_READS)]
        miss = []
        for toggle in toggles:
            assert engine.commit(toggle).applied
            miss.append(_timed(lambda: engine.query(SCAN)))
        assert engine.metrics.counter("query.memo_hits") == N_READS
        assert engine.query(SCAN) == expected

        # What a read cost before the memo: shape the maintained rows.
        target = parse_atom(SCAN)
        cold = [_timed(lambda: answer_rows(
            target, engine.maintainer.lookup("Unemp", target.args)))
            for _ in range(N_READS)]

        benchmark.pedantic(lambda: engine.query(SCAN), rounds=20,
                           iterations=1)
    finally:
        engine.close(checkpoint=False)

    hit_ms, miss_ms, cold_ms = map(_median_ms, (hit, miss, cold))
    print(f"\nSCAN {SCAN} over {len(expected)} rows at n={N_PEOPLE}: "
          f"memo hit {hit_ms:.4f} ms, miss after a commit {miss_ms:.4f} ms "
          f"({miss_ms / hit_ms:.0f}x), cold answer_rows {cold_ms:.4f} ms")
    assert hit_ms <= miss_ms / 10, (
        f"a memo hit must be >= 10x cheaper than a miss: {hit_ms:.4f} ms "
        f"against {miss_ms:.4f} ms")
    assert miss_ms <= 1.5 * cold_ms, (
        f"a miss must cost no more than 1.5x the cold answer_rows it "
        f"wraps: {miss_ms:.4f} ms against {cold_ms:.4f} ms")
