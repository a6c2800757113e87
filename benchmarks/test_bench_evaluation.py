"""SYN6 -- substrate ablation: semi-naive vs. naive bottom-up evaluation.

Both compute the same perfect model; semi-naive restricts each recursive
round to the newly derived delta.  On a linear chain of length n the naive
strategy re-matches O(n³) literal/fact pairs overall while semi-naive stays
near O(n²) (the output size), so the gap widens quickly -- which is why the
naive lengths here stay modest and the rounds are pinned.
"""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.evaluation import BottomUpEvaluator

LENGTHS = [16, 32, 64]


def _chain(n: int) -> DeductiveDatabase:
    facts = " ".join(f"Edge(N{i}, N{i + 1})." for i in range(n))
    return DeductiveDatabase.from_source(facts + """
        Path(x, y) <- Edge(x, y).
        Path(x, y) <- Edge(x, z) & Path(z, y).
    """)


@pytest.mark.parametrize("semi_naive", [True, False],
                         ids=["semi-naive", "naive"])
@pytest.mark.parametrize("length", LENGTHS)
def test_bench_syn6_evaluation(benchmark, length, semi_naive):
    db = _chain(length)
    holder = {}

    def materialize():
        evaluator = BottomUpEvaluator(db, db.all_rules(),
                                      semi_naive=semi_naive)
        evaluator.materialize()
        holder["evaluator"] = evaluator

    benchmark.pedantic(materialize, rounds=3, iterations=1)

    evaluator = holder["evaluator"]
    expected_paths = length * (length + 1) // 2
    assert len(evaluator.extension("Path")) == expected_paths
    print(f"\nSYN6 length={length}  semi_naive={semi_naive}  "
          f"literals_matched={evaluator.stats.literals_matched}")


def test_bench_syn6_engine_comparison(benchmark, measure):
    """Compiled closure-chain plans vs. the tuple-at-a-time interpreter.

    Same perfect model, same semi-naive iteration structure; the compiled
    engine batches each rule into a closure chain with hash-join index
    probes.  Prints the before/after of every length.
    """
    for length in LENGTHS:
        db = _chain(length)

        def run(engine):
            evaluator = BottomUpEvaluator(db, db.all_rules(), engine=engine)
            evaluator.materialize()
            return evaluator

        interpreted_time = measure(lambda: run("interpreted"))
        compiled_time = measure(lambda: run("compiled"))
        interpreted = run("interpreted")
        compiled = run("compiled")
        assert compiled.extension("Path") == interpreted.extension("Path")
        ratio = (interpreted_time / compiled_time if compiled_time
                 else float("inf"))
        print(f"\nSYN6 length={length}  interpreted={interpreted_time * 1e3:7.2f} ms  "
              f"compiled={compiled_time * 1e3:7.2f} ms  speedup={ratio:4.1f}x")

    db = _chain(LENGTHS[-1])
    benchmark.pedantic(lambda: BottomUpEvaluator(
        db, db.all_rules(), engine="compiled").materialize(),
        rounds=3, iterations=1)
    # No-regression floor (at the longest chain, the last one measured):
    # compiled must not lose to the interpreter.
    assert round(ratio, 2) >= 1.0


def test_bench_syn6_work_ratio(benchmark):
    """Shape check: semi-naive matches asymptotically fewer literals."""
    db = _chain(60)

    def both():
        semi = BottomUpEvaluator(db, db.all_rules(), semi_naive=True)
        semi.materialize()
        naive = BottomUpEvaluator(db, db.all_rules(), semi_naive=False)
        naive.materialize()
        return semi, naive

    semi, naive = benchmark.pedantic(both, rounds=1, iterations=1)
    ratio = naive.stats.literals_matched / semi.stats.literals_matched
    print(f"\nSYN6 literal-match ratio naive/semi-naive = {ratio:.1f}x")
    assert ratio > 2
