"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/harness`` (about
15 s; not part of the tier-1 ``testpaths``).
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks.harness import (catalogue, cli, hostspeed, loadgen, runner,
                                stats)
from benchmarks.harness.model import Model
from benchmarks.harness.spans import Recorder
from benchmarks.harness.streams import Stream, initial_database, verify
from benchmarks.harness.traced import traced_pass

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def workdir():
    """A scratch directory inside the benchmark's own work area."""
    runner.WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=runner.WORK_ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- arithmetic ----------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 50) == 2.5
    assert stats.percentile(samples, 100) == 4.0
    assert stats.percentile(range(1, 102), 99) == 100.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == (10.5, 12.0, 13.5)
    assert stats.spread(values) == pytest.approx(0.25)
    assert stats.spread([7.0]) == 0.0


def test_fast_half_ignores_the_disturbed_half():
    assert stats.fast_half([3, 1, 2, 4, 50, 60, 70]) == pytest.approx(2.5)
    assert stats.fast_half([3, 1, 2, 4, 50, 60], "higher") == pytest.approx(
        (60 + 50 + 4) / 3)
    assert stats.fast_half([5.0]) == 5.0
    # Never a single slice: a lucky one must not become the metric.
    assert stats.fast_half([1.0, 2.0, 9.0]) == 1.5


def test_slowdown_is_the_better_kernel_times_over_nominal():
    nominal = hostspeed.NOMINAL_S
    slow = hostspeed.Slowdown([nominal, 3 * nominal, 9 * nominal])
    assert slow.factor == pytest.approx(2.0)
    slow.probe()
    assert len(slow.samples) == 4 and slow.samples[-1] > 0


def test_interleave_spreads_every_key_evenly():
    schedule = runner.interleave({"main": 2.4, "ref": 0.8})
    keys = [key for key, _ in schedule]
    assert keys.count("main") == 6 and keys.count("ref") == 2
    assert sum(s for k, s in schedule if k == "main") == pytest.approx(2.4)
    # The two reference slices sit in the first and the second half.
    assert "ref" in keys[:4] and "ref" in keys[4:]


def test_span_self_time_subtracts_direct_children():
    recorder = Recorder()
    # Hand-built: root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9].
    recorder.spans = [["root", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0],
                      ["a1", 2.0, 3.0, 1, 0], ["b", 5.0, 9.0, 0, 0]]
    assert recorder.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert sum(recorder.self_times()) == recorder.durations()[0]
    assert recorder.by_name(recorder.durations())["b"] == [4.0]


def test_recorder_nests_and_switches_off(workdir):
    recorder = Recorder()
    with recorder.span("outer", 7):
        with recorder.span("inner", 7):
            pass
    recorder.enabled = False
    with recorder.span("unseen"):
        pass
    assert [(s[0], s[3], s[4]) for s in recorder.spans] == \
        [("outer", None, 7), ("inner", 0, 7)]
    recorder.dump(workdir / "spans.jsonl")
    lines = (workdir / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[1])["parent"] == 0


# -- compare -------------------------------------------------------------------


@pytest.mark.parametrize("base, new, better, expected", [
    ([10, 10.1, 9.9], [10.2, 10.3, 10.1], "lower", "same"),
    ([10, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", "worse"),
    ([10, 10.1, 9.9], [8.0, 8.1, 7.9], "lower", "better"),
    ([10, 10.1, 9.9], [12.0, 12.1, 11.9], "higher", "better"),
    ([10, 10.1, 9.9], [8.0, 8.1, 7.9], "higher", "worse"),
    ([10, 14, 6], [10, 10.1, 9.9], "lower", "unresolved"),
])
def test_verdict_table(base, new, better, expected):
    assert stats.verdict(base, new, better, 0.10) == expected


def _result(workload: str, value: float, failed: int = 0) -> dict:
    return {"workload": workload, "attempted": 100, "failed": failed,
            "e2e": {m.name: value for m in catalogue.E2E}}


def test_compare_rejects_worse_and_more_failures():
    base = {"commit_stream": [_result("commit_stream", v)
                              for v in (10, 10.1, 9.9)]}
    same = {"commit_stream": [_result("commit_stream", v)
                              for v in (10, 10.05, 9.95)]}
    rows, acceptable = cli.compare(base, same)
    assert acceptable and {row[4] for row in rows} == {"same"}
    slower = {"commit_stream": [_result("commit_stream", v)
                                for v in (14, 14.1, 13.9)]}
    rows, acceptable = cli.compare(base, slower)
    verdicts = {row[1]: row[4] for row in rows}
    assert not acceptable
    assert verdicts["commit_p50_ms"] == "worse"
    assert verdicts["throughput_ops_s"] == "better"    # higher is better
    failing = {"commit_stream": [_result("commit_stream", 10, failed=1)]}
    rows, acceptable = cli.compare(base, failing)
    assert not acceptable and rows[-1][1] == "failed_share"


# -- the catalogue and BENCHMARK.json ------------------------------------------


def test_manifest_is_the_committed_benchmark_json():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == catalogue.manifest()


def test_catalogue_respects_the_contract():
    names = [m.name for m in catalogue.E2E + catalogue.LAYER] \
        + list(catalogue.WORKLOADS)
    assert len(names) == len(set(names))
    assert len(catalogue.WORKLOADS) == 5
    assert all(len(w.why) <= 200 for w in catalogue.WORKLOADS.values())
    assert all(0 < m.bound <= 0.25 for m in catalogue.E2E)
    for metric in catalogue.E2E:
        home = catalogue.WORKLOADS[metric.home]
        assert metric.name in catalogue.ALWAYS + home.reports
    kinds = {k for w in catalogue.WORKLOADS.values() for k in w.mix}
    assert kinds <= set(catalogue.KIND_CLASS)


# -- streams and the model -----------------------------------------------------


def test_model_induced_events_follow_the_rules():
    model = Model(la={"A", "B"}, works={"A"}, benefit={"B"})
    assert model.unemp() == {"B"} and model.ic1() == set()
    ins, dels = model.induced([("delete", "Works", "A")])
    assert ins == {"Unemp": [["A"]], "Ic1": [["A"]], "Ic": [[]]}
    assert dels == {}
    ins, dels = model.induced([("insert", "Works", "B")])
    assert (ins, dels) == ({}, {"Unemp": [["B"]]})


@pytest.mark.parametrize("name", list(catalogue.WORKLOADS))
def test_streams_are_deterministic(name):
    first = cli.stream_lines(name, 5, 200, n=300)
    assert first == cli.stream_lines(name, 5, 200, n=300)
    assert first != cli.stream_lines(name, 6, 200, n=300)
    kinds = {json.loads(line)["kind"] for line in first}
    assert kinds == set(catalogue.WORKLOADS[name].mix)


def test_connections_own_disjoint_people():
    workload = catalogue.WORKLOADS["commit_stream"]
    db = initial_database(200, 3)
    streams = [Stream(workload, 200, 3, conn, db) for conn in (0, 1)]
    for stream in streams:
        stream.take(300)
    people = [set(s.model.sets["La"]) for s in streams]
    assert not people[0] & people[1]
    assert streams[0].issued["replay"] > 0


def test_verify_catches_a_wrong_answer():
    workload = catalogue.WORKLOADS["query_serving"]
    stream = Stream(workload, 100, 1, 0)
    op = stream.make("bound_derived")
    right = {"answers": op.expect["rows"]}
    wrong = {"answers": [] if op.expect["rows"] else [[]]}
    assert verify(op, right, stream) is None
    assert verify(op, wrong, stream) is not None


# -- open loop: latency runs from the due time ---------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_times_from_the_due_time():
    clock = _FakeClock()
    service = iter([0.001, 0.035, 0.001, 0.001, 0.001])  # op 1 stalls

    class Conn(loadgen.Connection):
        def execute(self, op):
            clock.now += next(service)
            return None

    workload = catalogue.WORKLOADS["live_mixed"]
    conn = Conn(None, Stream(workload, 100, 1, 0))
    feed = SimpleNamespace(arrivals={})
    # 100 ops/s for 50 ms: due at 0, 10, 20, 30, 40 ms.
    loadgen.open_loop(conn, 100.0, 0.05, True, feed, loadgen.FeedLedger(),
                      clock=clock, sleep=clock.sleep)
    latencies = [s for samples in conn.tally.samples.values()
                 for s in samples]
    assert sorted(latencies) == pytest.approx(
        sorted([0.001, 0.035, 0.026, 0.017, 0.008]))
    # The stall is the server's: the generator itself was never late.
    assert max(conn.tally.sched_lag) == pytest.approx(0.0)
    assert conn.tally.attempted == 5 and conn.tally.failed == 0


# -- smoke: every workload end to end, over TCP and through the traced pass ----


@pytest.mark.parametrize("name", list(catalogue.WORKLOADS))
def test_smoke_run_has_no_failed_ops(name, workdir):
    workload = catalogue.WORKLOADS[name]
    n_ops = max(10, workload.trace_ops // 20)
    done, pace = runner.run_lifetimes({name: (workload, 200, 1, 0.8, 1)}, 11,
                                      trace_ops={name: n_ops})
    lifetime = done[name][0]
    assert lifetime.tally.attempted > n_ops
    assert lifetime.tally.failed == 0, lifetime.tally.reasons
    assert len(lifetime.recoveries) == 1 and lifetime.rates
    # One probe of the host's speed round every spawn, slice and recovery.
    assert len(pace.starting.samples) == 2
    assert len(pace.loading.samples) == len(lifetime.slices) + 1
    assert len(pace.finishing.samples) == 2
    assert runner.measured([lifetime], pace)["recovery_s"] == pytest.approx(
        lifetime.recoveries[0] / pace.finishing.factor)
    layers, tables, failures = traced_pass(workload, 200, 11, 3 * n_ops,
                                           workdir)
    assert failures == []
    assert tables and layers["harness.closure_error_pct"] >= 0.0
