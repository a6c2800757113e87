"""Group-commit throughput of the server engine: batch sizes 1 / 8 / 64.

The ``DatabaseEngine`` commit queue lets concurrent transactions share
one WAL fsync per batch; each member still runs its own integrity check
(``ιIc`` against the state its predecessor left) and its own append.
This benchmark drives the same machinery deterministically through
:meth:`DatabaseEngine.commit_many` on an employment-office workload of
disjoint hirings, so the amortisation is measured without scheduler
noise: at batch size 1 every transaction pays its own fsync; at 64 that
cost is shared 64 ways.  (The 2x floor is host-bound: it needs an fsync
slow enough to matter next to a ~0.1 ms check.)
"""

import itertools
import time

from repro.events.events import Transaction, insert
from repro.server import DatabaseEngine
from repro.workloads import employment_database

N_TRANSACTIONS = 128
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

    # Acceptance criterion: batch-64 at least doubles batch-1 throughput.
    assert time_1 >= 2.0 * time_64, (
        f"group commit must amortise: batch-1 took {time_1:.4f}s, "
        f"batch-64 took {time_64:.4f}s (need >= 2x)")
    assert time_8 <= time_1, "batch-8 should not be slower than batch-1"
