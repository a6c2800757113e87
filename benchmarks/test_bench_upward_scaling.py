"""SYN1 -- incremental (upward) vs. naive change computation.

The premise of event-rule methods: computing the changes induced by a
transaction should cost in proportion to the *change*, not the database.
We sweep the database size with the transaction size fixed and compare the
hybrid upward interpreter (old state materialised once, per-transaction
work delta-sized) against the semantic oracle (materialise both states and
diff -- cost proportional to the database).

Expected shape: the incremental method wins, by a factor that grows with
database size.
"""

import pytest

from repro.interpretations import UpwardInterpreter, naive_changes
from repro.workloads import chain_join_views, random_database, random_transaction

SIZES = [200, 500, 1000, 2000]


def _workload(n_facts: int):
    db = random_database(n_facts=n_facts, domain_size=max(20, n_facts // 10),
                         n_base=4, seed=1)
    chain_join_views(db, n_views=2, negated_last=True)
    transaction = random_transaction(db, n_events=4, seed=2)
    return db, transaction


@pytest.mark.parametrize("n_facts", SIZES)
def test_bench_syn1_incremental_vs_naive(benchmark, measure, n_facts):
    db, transaction = _workload(n_facts)
    interpreter = UpwardInterpreter(db)
    interpreter.old_extension("V2")  # materialise the old state up front

    result = benchmark(interpreter.interpret, transaction)

    incremental_time = measure(lambda: interpreter.interpret(transaction))
    naive_time = measure(lambda: naive_changes(db, transaction))
    oracle = naive_changes(db, transaction)
    assert result.insertions == oracle.insertions
    assert result.deletions == oracle.deletions

    speedup = naive_time / incremental_time if incremental_time else float("inf")
    print(f"\nSYN1 n_facts={n_facts:5d}  incremental={incremental_time * 1e3:7.2f} ms  "
          f"naive={naive_time * 1e3:7.2f} ms  speedup={speedup:5.1f}x")
    if n_facts >= 500:
        assert incremental_time < naive_time, (
            "incremental change computation should beat rematerialisation"
        )


def test_bench_syn1_engine_scaling(benchmark, measure):
    """Compiled vs. interpreted materialization over the SYN1 databases.

    The chain-join views make V2 join the *derived* V1 on a bound column
    -- the interpreter full-scans derived extensions there, the compiled
    planner hash-indexes them, so the gap is structural, not constant-
    factor.  Acceptance bar (ISSUE 8): >= 5x at the largest configuration
    (the last one measured).
    """
    from repro.datalog.evaluation import BottomUpEvaluator

    for n_facts in SIZES:
        db, _ = _workload(n_facts)

        def run(engine):
            evaluator = BottomUpEvaluator(db, db.all_rules(), engine=engine)
            evaluator.materialize()
            return evaluator

        interpreted_time = measure(lambda: run("interpreted"), repeat=5)
        compiled_time = measure(lambda: run("compiled"), repeat=5)
        interpreted = run("interpreted")
        compiled = run("compiled")
        for predicate in db.schema.derived:
            assert compiled.extension(predicate) \
                == interpreted.extension(predicate)
        speedup = (interpreted_time / compiled_time if compiled_time
                   else float("inf"))
        print(f"\nSYN1 n_facts={n_facts:5d}  interpreted={interpreted_time * 1e3:7.2f} ms  "
              f"compiled={compiled_time * 1e3:7.2f} ms  speedup={speedup:5.1f}x")

    db, _ = _workload(SIZES[-1])
    benchmark.pedantic(lambda: BottomUpEvaluator(
        db, db.all_rules(), engine="compiled").materialize(),
        rounds=3, iterations=1)
    assert round(speedup, 2) >= 5.0, (
        "compiled engine must be >= 5x the interpreter at the largest "
        "SYN1 configuration")
