"""Tests for the execution-tracing subsystem (repro.obs)."""

from __future__ import annotations

import threading

import pytest

from repro.events.events import parse_transaction
from repro.obs import LATENCY_BUCKETS, LatencyHistogram
from repro.obs import tracer as obs
from repro.server.client import DatabaseClient
from repro.server.engine import DatabaseEngine
from repro.server.server import ServerThread

from tests import faultkit


@pytest.fixture(autouse=True)
def _tracing_disabled():
    """Every test starts (and, via use(), ends) with tracing off."""
    previous = obs.disable()
    yield
    if previous is not None:
        obs.enable(previous)
    else:
        obs.disable()


class TestDisabledFastPath:
    def test_span_returns_the_shared_null_span(self):
        assert obs.span("eval.stratum") is obs.NULL_SPAN
        assert obs.span("anything.else") is obs.NULL_SPAN

    def test_current_span_is_null(self):
        assert obs.current_span() is obs.NULL_SPAN

    def test_null_span_absorbs_everything(self):
        with obs.span("x") as span:
            span.set(mode="ignored")
            span.add("rows", 7)
            obs.add("rows", 3)
        assert span is obs.NULL_SPAN
        assert span.to_dict() == {}

    def test_disabled_path_does_not_allocate_spans(self):
        # The whole point of NULL_SPAN: no Span/_SpanScope objects are
        # created while tracing is off, so hot loops can call span()
        # unconditionally.  Identity (is) proves no allocation happened.
        seen = {obs.span(f"s{i}") for i in range(100)}
        assert seen == {obs.NULL_SPAN}
        assert not obs.enabled()


class TestEngineQuerySpan:
    """``engine.query`` says which path served the read -- and costs
    nothing when nobody is tracing."""

    def test_span_names_the_read_path(self, tmp_path, employment_db):
        # The advance maintainer (a recursive program) opens cold: the
        # first derived read warms it, the ones after that are served
        # from it.
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=faultkit.with_recursion(employment_db))
        try:
            paths = []
            with obs.use() as tracer:
                for goal in ("Works(x)", "Unemp(x)", "Unemp(Dolors)"):
                    engine.query(goal)
                    assert tracer.last_root.name == "engine.query"
                    paths.append(tracer.last_root.attributes["path"])
            assert paths == ["base", "warmup", "maintained"]
            assert tracer.count("engine.query") == 3
            assert engine.stats()["counters"]["query.warmups"] == 1
        finally:
            engine.close(checkpoint=False)

    def test_repeated_scan_reads_memo_until_a_write(self, tmp_path,
                                                    employment_db):
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=faultkit.with_recursion(employment_db))
        try:
            paths = []
            with obs.use() as tracer:
                for step in ("read", "read", "write", "read", "read"):
                    if step == "write":
                        assert engine.commit(parse_transaction(
                            "insert La(Maria), insert U_benefit(Maria)"))
                        continue
                    engine.query("Unemp(x)")
                    paths.append(tracer.last_root.attributes["path"])
            assert paths == ["warmup", "memo", "maintained", "memo"]
            assert engine.stats()["counters"]["query.memo_hits"] == 2
        finally:
            engine.close(checkpoint=False)

    def test_disabled_tracer_allocates_nothing(self, tmp_path, employment_db,
                                               monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("tracing is off: no span work expected")

        engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
        try:
            monkeypatch.setattr(obs.Span, "__init__", forbidden)
            monkeypatch.setattr(type(obs.NULL_SPAN), "set", forbidden)
            monkeypatch.setattr(type(obs.NULL_SPAN), "add", forbidden)
            for _ in range(2):  # a miss, then a memo hit
                assert engine.query("Unemp(x)") == [("Dolors",)]
            assert engine.query("La(Dolors)") == [()]
        finally:
            engine.close(checkpoint=False)


class TestEngineWhatifSpan:
    """``engine.whatif`` names the op and how the counts answered it."""

    OPS = ("check", "upward", "monitor")

    @staticmethod
    def _run(engine, op):
        probe = parse_transaction("insert Works(Dolors)")
        arguments = (["Unemp"],) if op == "monitor" else ()
        return getattr(engine, op)(probe, *arguments)

    def test_span_names_op_and_path(self, tmp_path, employment_db):
        engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
        try:
            seen = []
            with obs.use() as tracer:
                for reset in (False, True):
                    if reset:
                        engine.checkpoint()  # leaves the maintainer cold
                    for op in self.OPS:
                        self._run(engine, op)
                        root = tracer.last_root
                        assert root.name == "engine.whatif"
                        seen.append((root.attributes["op"],
                                     root.attributes["path"],
                                     root.attributes["warmup"]))
            # The first what-if of the shape runs the delta rules; every
            # later one, across the checkpoint's rebuild of the counts,
            # is answered by the shape's template.
            assert seen == [("check", "delta", False),
                            ("upward", "template", False),
                            ("monitor", "template", False),
                            ("check", "template", True),
                            ("upward", "template", False),
                            ("monitor", "template", False)]
            assert tracer.count("upward.interpret") == 0
            counters = engine.stats()["counters"]
            assert counters["whatif.warmups"] == 1
            assert counters["upward.template_misses"] == 1
            assert counters["upward.template_hits"] == 5
            assert not engine.commit(
                parse_transaction("insert La(Nobody)")).applied
            assert engine.stats()["counters"]["commit.rejected_fast"] == 1
        finally:
            engine.close(checkpoint=False)

    def test_other_maintainers_answer_through_the_processor(
            self, tmp_path, employment_db):
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=faultkit.with_recursion(employment_db))
        try:
            with obs.use() as tracer:
                self._run(engine, "check")
            root = tracer.last_root
            assert root.attributes == {"op": "check", "path": "processor"}
            assert tracer.count("upward.interpret") == 1
        finally:
            engine.close(checkpoint=False)

    def test_disabled_tracer_allocates_nothing(self, tmp_path, employment_db,
                                               monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("tracing is off: no span work expected")

        engine = DatabaseEngine.open(tmp_path / "d", initial=employment_db)
        try:
            monkeypatch.setattr(obs.Span, "__init__", forbidden)
            monkeypatch.setattr(type(obs.NULL_SPAN), "set", forbidden)
            monkeypatch.setattr(type(obs.NULL_SPAN), "add", forbidden)
            for op in self.OPS:
                self._run(engine, op)
        finally:
            engine.close(checkpoint=False)


class TestSpans:
    def test_nesting_attaches_children(self):
        with obs.use() as tracer:
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    inner.add("rows", 2)
                with obs.span("inner") as again:
                    again.add("rows", 3)
        assert [child.name for child in outer.children] == ["inner", "inner"]
        assert tracer.last_root is outer
        assert tracer.count("inner") == 2
        assert tracer.counter("inner", "rows") == 5

    def test_elapsed_is_measured(self):
        with obs.use():
            with obs.span("timed") as span:
                pass
        assert span.elapsed >= 0.0

    def test_add_reaches_the_innermost_open_span(self):
        with obs.use():
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    obs.add("hits")
        assert inner.counters == {"hits": 1}
        assert "hits" not in outer.counters

    def test_to_dict_shape(self):
        with obs.use():
            with obs.span("outer") as outer:
                outer.set(mode="hybrid")
                with obs.span("inner") as inner:
                    inner.add("rows", 4)
        payload = outer.to_dict()
        assert payload["name"] == "outer"
        assert payload["attributes"] == {"mode": "hybrid"}
        assert payload["children"][0]["counters"] == {"rows": 4}

    def test_format_span_renders_the_tree(self):
        with obs.use() as tracer:
            with obs.span("outer"):
                with obs.span("inner") as inner:
                    inner.add("rows", 4)
        rendered = obs.format_span(tracer.last_root)
        assert "outer" in rendered and "inner" in rendered
        assert "rows=4" in rendered

    def test_use_restores_the_previous_tracer(self):
        installed = obs.enable()
        with obs.use() as scoped:
            assert obs.get_tracer() is scoped
        assert obs.get_tracer() is installed
        obs.disable()


class TestConcurrentWriters:
    def test_threads_nest_independently(self):
        """Two threads' span stacks never interleave (context isolation)."""
        barrier = threading.Barrier(2)
        roots: dict[str, obs.Span] = {}
        errors: list[BaseException] = []

        def worker(name: str) -> None:
            try:
                with obs.span(f"root.{name}") as root:
                    barrier.wait(timeout=5)  # both roots open at once
                    with obs.span(f"child.{name}") as child:
                        child.add("rows", 1)
                    barrier.wait(timeout=5)
                roots[name] = root
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        with obs.use() as tracer:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
        assert [c.name for c in roots["a"].children] == ["child.a"]
        assert [c.name for c in roots["b"].children] == ["child.b"]
        assert tracer.count("root.a") == tracer.count("root.b") == 1

    def test_aggregates_sum_across_threads(self):
        def worker() -> None:
            for _ in range(10):
                with obs.span("work") as span:
                    span.add("rows", 2)

        with obs.use() as tracer:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        assert tracer.count("work") == 40
        assert tracer.counter("work", "rows") == 80


class TestAggregates:
    def test_aggregates_payload_shape(self):
        with obs.use() as tracer:
            with obs.span("stage") as span:
                span.add("rows", 3)
        payload = tracer.aggregates()
        assert payload["bucket_bounds"] == list(LATENCY_BUCKETS)
        stage = payload["spans"]["stage"]
        assert stage["count"] == 1
        assert stage["counters"] == {"rows": 3}
        assert len(stage["buckets"]) == len(LATENCY_BUCKETS) + 1
        assert sum(stage["buckets"]) == 1

    def test_reset_clears_everything(self):
        with obs.use() as tracer:
            with obs.span("stage"):
                pass
            tracer.reset()
            assert tracer.aggregates()["spans"] == {}
            assert tracer.last_root is None


class TestHistogramRoundTrip:
    def test_histogram_buckets_round_trip(self):
        original = LatencyHistogram()
        for seconds in (0.0002, 0.0002, 0.003, 0.08, 2.0, 42.0):
            original.observe(seconds)
        rebuilt = LatencyHistogram.from_dict(original.to_dict(buckets=True))
        assert rebuilt.bucket_counts() == original.bucket_counts()
        assert rebuilt.count == original.count
        assert rebuilt.max_seconds == original.max_seconds
        for q in (0.5, 0.95, 0.99):
            assert rebuilt.quantile(q) == original.quantile(q)

    def test_bucket_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict({"buckets": [1, 2, 3]})

    def test_bucketless_round_trip_preserves_quantiles(self):
        """The compact (bucket-less) wire shape must not collapse quantiles.

        Regression: rebuilding from a payload without ``buckets`` left the
        counts empty, so every quantile fell through to ``max_seconds`` --
        p50 of 0.001/0.01/0.1 came back as 0.1 instead of 0.01.
        """
        original = LatencyHistogram()
        for seconds in (0.001, 0.01, 0.1):
            original.observe(seconds)
        assert original.quantile(0.5) == 0.01
        rebuilt = LatencyHistogram.from_dict(original.to_dict())
        assert rebuilt.count == original.count
        assert rebuilt.max_seconds == original.max_seconds
        for q in (0.5, 0.95, 0.99):
            assert rebuilt.quantile(q) == original.quantile(q)
        assert rebuilt.to_dict() == original.to_dict()

    def test_fresh_observation_drops_carried_quantiles(self):
        original = LatencyHistogram()
        for seconds in (0.001, 0.01, 0.1):
            original.observe(seconds)
        rebuilt = LatencyHistogram.from_dict(original.to_dict())
        rebuilt.observe(5.0)
        # Carried quantiles describe only the pre-wire observations; after
        # a fresh observe() the buckets (holding just that one sample) win.
        assert rebuilt.quantile(0.5) == 5.0

    def test_metrics_snapshot_ships_buckets(self):
        from repro.server.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for seconds in (0.001, 0.01, 0.1):
            registry.observe("query", seconds)
        payload = registry.snapshot()["requests"]["query"]
        assert sum(payload["buckets"]) == 3
        rebuilt = LatencyHistogram.from_dict(payload)
        assert rebuilt.quantile(0.5) == 0.01

    def test_stats_histograms_round_trip_through_client(self, tmp_path,
                                                        employment_db):
        """Server-side span histograms survive the wire bucket-for-bucket
        (a recursive program: its advance maintainer evaluates strata)."""
        engine = DatabaseEngine.open(
            tmp_path / "d", initial=faultkit.with_recursion(employment_db))
        try:
            with obs.use() as tracer:
                with ServerThread(engine) as port:
                    with DatabaseClient(port=port) as client:
                        client.query("Unemp(x)")
                        client.commit("insert Works(Maria)")
                        stats = client.stats()
                tracing = stats["tracing"]
                assert tracing["bucket_bounds"] == list(LATENCY_BUCKETS)
                assert "request.query" in tracing["spans"]
                assert "eval.stratum" in tracing["spans"]
                local = tracer.aggregates()["spans"]
                for name, payload in tracing["spans"].items():
                    rebuilt = LatencyHistogram.from_dict(payload)
                    # stats ran before use() exited, so the local tracer
                    # saw at least as many spans as the wire snapshot.
                    assert rebuilt.count <= local[name]["count"]
                    assert len(rebuilt.bucket_counts()) == \
                        len(LATENCY_BUCKETS) + 1
        finally:
            engine.close(checkpoint=False)
