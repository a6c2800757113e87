"""SYN4 -- cost and output of the downward interpretation.

Two sweeps:

- **alternatives**: a view defined by m rules has (at least) m independent
  translations for an insertion request; cost and translation count grow
  with m ("in general, several translations may exist").
- **domain**: validating a non-ground request instantiates over the finite
  domain; cost grows with the domain size.
"""

import pytest

from repro.datalog import DeductiveDatabase
from repro.datalog.parser import parse_rule
from repro.interpretations import DownwardInterpreter, want_insert

RULE_COUNTS = [1, 2, 4, 8]
DOMAIN_SIZES = [4, 8, 16, 32]


def _multi_rule_db(m: int) -> DeductiveDatabase:
    db = DeductiveDatabase()
    for index in range(m):
        db.declare_base(f"B{index}", 1)
        db.add_rule(parse_rule(f"V(x) <- B{index}(x)."))
    db.add_fact("B0", "Seed")
    return db


@pytest.mark.parametrize("m", RULE_COUNTS)
def test_bench_syn4_alternatives(benchmark, m):
    db = _multi_rule_db(m)
    interpreter = DownwardInterpreter(db)

    result = benchmark(interpreter.interpret, want_insert("V", "New"))

    assert len(result.translations) == m, (
        "one translation per defining rule expected"
    )
    print(f"\nSYN4a rules={m}  translations={len(result.translations)}  "
          f"descents={result.stats.descents}")


def _domain_db(size: int) -> DeductiveDatabase:
    db = DeductiveDatabase()
    db.declare_base("B", 1)
    db.declare_base("G", 1)
    db.add_rule(parse_rule("V(x) <- B(x) & not G(x)."))
    for index in range(size):
        db.add_fact("G", f"C{index}")
    return db


@pytest.mark.parametrize("domain", DOMAIN_SIZES)
def test_bench_syn4_domain_instantiation(benchmark, domain):
    from repro.datalog.rules import Atom, Literal
    from repro.datalog.terms import Variable

    db = _domain_db(domain)
    interpreter = DownwardInterpreter(db)
    # Non-ground request: ∃x achievable ιV(x); every domain constant is a
    # candidate instantiation of the ιB(x) base event.
    request = Literal(Atom("ins$V", (Variable("x"),)), True)

    result = benchmark(interpreter.interpret, request)

    assert result.is_satisfiable
    print(f"\nSYN4b domain={domain:3d}  translations={len(result.translations):4d}  "
          f"enumerations={result.stats.enumerations}")
    # Shape: the number of alternatives tracks the domain size.
    assert len(result.translations) >= domain


def test_bench_syn4_engine_no_regression(benchmark, measure):
    """Downward interpretation must not regress under the compiled engine.

    The downward interpreter's evaluation work is goal solving over a
    materialized old state, so engine choice only affects the one-time
    materialization; this pins that the compiled default costs no more
    than the interpreter on the SYN4 shapes.
    """
    from repro.interpretations import DownwardOptions

    domain = DOMAIN_SIZES[-1]

    def run(engine):
        interpreter = DownwardInterpreter(
            _domain_db(domain), options=DownwardOptions(engine=engine))
        result = interpreter.interpret(want_insert("V", "New"))
        assert result.is_satisfiable
        return result

    interpreted_time = measure(lambda: run("interpreted"), repeat=5)
    compiled_time = measure(lambda: run("compiled"), repeat=5)
    benchmark.pedantic(lambda: run("compiled"), rounds=3, iterations=1)
    ratio = (interpreted_time / compiled_time if compiled_time
             else float("inf"))
    print(f"\nSYN4c domain={domain}  interpreted={interpreted_time * 1e3:7.2f} ms  "
          f"compiled={compiled_time * 1e3:7.2f} ms  ratio={ratio:4.2f}x")
    # Generous noise floor: the evaluators here run over tiny databases,
    # so "no regression" means "not dramatically slower", not a speedup.
    assert compiled_time <= interpreted_time * 3
