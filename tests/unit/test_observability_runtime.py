"""Unit tests for the observability layer (ISSUE 10).

Covers the metrics registry (counters, gauges, log-bucketed histograms,
weakly-held pull collectors), the tracing core (null-span fast path,
span lifecycle, the thread-ambient span, wire contexts, sampling, the
JSONL sink), the text renderer, the unified ``schema_version`` stats
shapes, and the :meth:`ServiceCluster.describe` snapshot-isolation
regression.
"""

from __future__ import annotations

import gc
import json
import threading

import pytest

from repro.database import Instance
from repro.obs import (
    METRICS_SCHEMA_VERSION,
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServeSpan,
    Tracer,
    current_span,
    current_wire_context,
    load_sink,
    render_trace,
    wire_context,
)
from repro.pdms import (
    PDMS,
    FragmentCache,
    LoopbackTransport,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
)
from repro.pdms.materialization import FragmentCacheStats
from repro.pdms.service import ServiceStats


def make_tracer(**kwargs) -> Tracer:
    kwargs.setdefault("enabled", True)
    kwargs.setdefault("sample_rate", 1.0)
    kwargs.setdefault("sink_path", None)
    kwargs.setdefault("registry", MetricsRegistry())
    return Tracer(**kwargs)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_and_gauge_basics(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = Gauge()
        gauge.set(2.5)
        gauge.add(-0.5)
        assert gauge.value == 2.0

    def test_histogram_percentiles_are_ordered_and_bounded(self):
        histogram = Histogram()
        for ms in (1, 2, 3, 5, 8, 13, 80):
            histogram.observe(ms / 1000.0)
        assert histogram.count == 7
        summary = histogram.as_dict()
        assert summary["count"] == 7
        assert 0 < summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert summary["p99_ms"] <= summary["max_ms"] == pytest.approx(80.0)
        assert summary["mean_ms"] == pytest.approx(summary["sum_ms"] / 7)

    def test_histogram_clamps_out_of_range_observations(self):
        histogram = Histogram()
        histogram.observe(-1.0)  # clamps to zero, lands in bucket 0
        histogram.observe(10_000.0)  # beyond the last bound: end bucket
        assert histogram.count == 2
        assert histogram.percentile(1.0) <= 10_000.0

    def test_percentile_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_instruments_are_get_or_create_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_plain_data_with_schema_version(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc(3)
        registry.gauge("inflight").set(1.0)
        registry.histogram("latency").observe(0.01)
        registry.register_collector(
            "static", lambda: {"schema_version": METRICS_SCHEMA_VERSION, "x": 1}
        )
        snapshot = registry.snapshot()
        assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION
        assert snapshot["counters"]["queries"] == 3
        assert snapshot["gauges"]["inflight"] == 1.0
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert snapshot["collected"]["static"]["x"] == 1
        # Mutating the snapshot never perturbs the live registry.
        snapshot["counters"]["queries"] = 999
        assert registry.snapshot()["counters"]["queries"] == 3

    def test_bound_method_collectors_drop_with_their_owner(self):
        class Owner:
            def stats(self):
                return {"alive": True}

        registry = MetricsRegistry()
        owner = Owner()
        registry.register_collector("owner", owner.stats)
        assert registry.snapshot()["collected"]["owner"] == {"alive": True}
        del owner
        gc.collect()
        assert "owner" not in registry.snapshot()["collected"]

    def test_unregister_collector(self):
        registry = MetricsRegistry()
        registry.register_collector("x", lambda: {})
        registry.unregister_collector("x")
        assert registry.snapshot()["collected"] == {}


# ---------------------------------------------------------------------------
# The null span (tracing-off fast path)
# ---------------------------------------------------------------------------


class TestNullSpan:
    def test_every_operation_is_a_noop_returning_itself(self):
        assert not NULL_SPAN
        assert not NULL_SPAN.recording
        assert NULL_SPAN.child("anything", x=1) is NULL_SPAN
        assert NULL_SPAN.set("k", "v") is NULL_SPAN
        assert NULL_SPAN.wire_context() is None
        NULL_SPAN.close("error")  # no-op, never raises

    def test_entering_the_null_span_leaves_the_ambient_alone(self):
        assert current_span() is NULL_SPAN
        with NULL_SPAN:
            assert current_span() is NULL_SPAN
        assert current_span() is NULL_SPAN

    def test_disabled_tracer_hands_out_the_null_span(self):
        tracer = make_tracer(enabled=False)
        assert tracer.start_trace("query.answer") is NULL_SPAN

    def test_sampled_out_traces_take_the_null_path(self):
        tracer = make_tracer(sample_rate=0.0)
        assert tracer.start_trace("query.answer") is NULL_SPAN
        assert tracer.health()["sampled_out"] == 1


# ---------------------------------------------------------------------------
# Span lifecycle
# ---------------------------------------------------------------------------


class TestSpanLifecycle:
    def test_with_blocks_build_a_well_formed_tree(self):
        tracer = make_tracer()
        with tracer.start_trace("query.answer", engine="columnar") as root:
            with root.child("plan.compile"):
                pass
            with root.child("plan.execute") as execute:
                execute.set("rows", 3)
        trace_id, spans = tracer.last_trace()
        assert trace_id == root.trace_id
        by_name = {record["name"]: record for record in spans}
        assert by_name["query.answer"]["parent_id"] is None
        assert by_name["query.answer"]["attrs"] == {"engine": "columnar"}
        for name in ("plan.compile", "plan.execute"):
            assert by_name[name]["parent_id"] == root.span_id
        assert by_name["plan.execute"]["attrs"]["rows"] == 3
        health = tracer.health()
        assert health["started"] == health["finished"] == 3
        assert health["open"] == 0 and health["double_closes"] == 0

    def test_exception_marks_error_without_swallowing(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.start_trace("query.answer"):
                raise RuntimeError("boom")
        _, spans = tracer.last_trace()
        assert spans[0]["status"] == "error"
        assert "RuntimeError" in spans[0]["attrs"]["error"]

    def test_double_close_is_counted_never_recorded_twice(self):
        tracer = make_tracer()
        span = tracer.start_trace("query.answer")
        span.close()
        span.close("error")
        assert tracer.health()["double_closes"] == 1
        _, spans = tracer.last_trace()
        assert len(spans) == 1 and spans[0]["status"] == "ok"

    def test_explicit_status_wins(self):
        tracer = make_tracer()
        span = tracer.start_trace("scan.attempt")
        span.close("cancelled")
        assert tracer.last_trace()[1][0]["status"] == "cancelled"

    def test_span_durations_feed_named_histograms(self):
        registry = MetricsRegistry()
        tracer = make_tracer(registry=registry)
        with tracer.start_trace("query.answer"):
            pass
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.query.answer"]["count"] == 1

    def test_trace_ring_is_bounded(self):
        tracer = make_tracer(max_traces=2)
        ids = []
        for _ in range(4):
            span = tracer.start_trace("query.answer")
            ids.append(span.trace_id)
            span.close()
        kept = tracer.trace_ids()
        assert len(kept) == 2 and kept == ids[-2:]
        assert tracer.trace(ids[0]) == []


# ---------------------------------------------------------------------------
# The thread-ambient span
# ---------------------------------------------------------------------------


class TestAmbientSpan:
    def test_with_entry_installs_and_exit_restores(self):
        tracer = make_tracer()
        assert current_span() is NULL_SPAN
        with tracer.start_trace("query.answer") as root:
            assert current_span() is root
            with root.child("plan.execute") as inner:
                assert current_span() is inner
            assert current_span() is root
        assert current_span() is NULL_SPAN

    def test_manually_closed_spans_never_touch_the_ambient(self):
        tracer = make_tracer()
        with tracer.start_trace("query.answer") as root:
            attempt = root.child("scan.attempt")  # batched-attempt style: no with
            assert current_span() is root
            attempt.close("cancelled")
            assert current_span() is root

    def test_ambient_is_thread_local(self):
        tracer = make_tracer()
        seen = {}
        with tracer.start_trace("query.answer"):
            thread = threading.Thread(
                target=lambda: seen.setdefault("span", current_span())
            )
            thread.start()
            thread.join()
        assert seen["span"] is NULL_SPAN

    def test_restores_on_exception(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.start_trace("query.answer"):
                raise ValueError("boom")
        assert current_span() is NULL_SPAN


# ---------------------------------------------------------------------------
# The fragment.cache span
# ---------------------------------------------------------------------------


class TestFragmentCacheSpans:
    def test_lookups_record_outcome_and_admission(self):
        cache = FragmentCache(max_bytes=1 << 20)
        tracer = make_tracer()
        with tracer.start_trace("query.answer"):
            cache.get_or_compute("k", ("v",), {"r"}, lambda: frozenset({(1, 2)}))
            cache.get_or_compute("k", ("v",), {"r"}, lambda: frozenset({(1, 2)}))
        _, spans = tracer.last_trace()
        lookups = [r["attrs"] for r in spans if r["name"] == "fragment.cache"]
        assert lookups == [
            {"key": "k", "outcome": "miss", "admitted": True},
            {"key": "k", "outcome": "hit"},
        ]

    def test_peek_is_a_marked_probe(self):
        cache = FragmentCache(max_bytes=1 << 20)
        cache.get_or_compute("k", ("v",), {"r"}, lambda: frozenset({(1, 2)}))
        tracer = make_tracer()
        with tracer.start_trace("query.answer"):
            cache.peek("k", ("v",))
            cache.peek("k", ("moved",))
        _, spans = tracer.last_trace()
        probes = [r["attrs"] for r in spans if r["name"] == "fragment.cache"]
        assert probes == [
            {"key": "k", "probe": True, "outcome": "hit"},
            {"key": "k", "probe": True, "outcome": "miss"},
        ]


# ---------------------------------------------------------------------------
# Wire context propagation
# ---------------------------------------------------------------------------


class TestWireContext:
    def test_install_restore_and_none_is_valid(self):
        assert current_wire_context() is None
        ctx = {"trace_id": "t", "span_id": "s"}
        with wire_context(ctx):
            assert current_wire_context() == ctx
            with wire_context(None):  # untraced inner RPC
                assert current_wire_context() is None
            assert current_wire_context() == ctx
        assert current_wire_context() is None

    def test_serve_span_records_under_a_wire_context(self):
        serve = ServeSpan({"trace_id": "t1", "span_id": "p1"}, "rpc.serve.scan")
        with serve:
            serve.set("scans", 2)
        [record] = serve.records()
        assert record["trace_id"] == "t1"
        assert record["parent_id"] == "p1"
        assert record["remote"] is True
        assert record["attrs"]["scans"] == 2

    def test_serve_span_is_inert_without_a_context(self):
        for context in (None, {}, {"span_id": "only"}, "garbage"):
            serve = ServeSpan(context, "rpc.serve.scan")
            with serve:
                serve.set("scans", 2)
            assert not serve.recording
            assert serve.records() == []

    def test_adopt_grafts_worker_records_into_the_parent_trace(self):
        tracer = make_tracer()
        with tracer.start_trace("query.answer") as root:
            serve = ServeSpan(root.wire_context(), "rpc.serve.scan", peer="A")
            with serve:
                pass
            assert tracer.adopt(serve.records()) == 1
        _, spans = tracer.last_trace()
        remote = next(r for r in spans if r.get("remote"))
        assert remote["parent_id"] == root.span_id
        assert tracer.health()["adopted"] == 1

    def test_adopt_drops_malformed_records(self):
        tracer = make_tracer()
        assert tracer.adopt([None, "x", {}, {"trace_id": "t"}]) == 0


# ---------------------------------------------------------------------------
# Exporters: renderer and JSONL sink
# ---------------------------------------------------------------------------


class TestExporters:
    def test_renderer_draws_the_tree_with_attrs_and_status(self):
        tracer = make_tracer()
        with tracer.start_trace("query.answer", engine="distributed") as root:
            with root.child("plan.execute") as execute:
                attempt = execute.child("scan.attempt", peer="A", kind="primary")
                attempt.close("cancelled")
            serve = ServeSpan(root.wire_context(), "rpc.serve.scan")
            with serve:
                pass
            tracer.adopt(serve.records())
        _, spans = tracer.last_trace()
        text = render_trace(spans)
        assert "query.answer" in text and "engine=distributed" in text
        assert "├─" in text or "└─" in text
        assert "status=cancelled" in text
        assert "~ rpc.serve.scan" in text  # remote marker, no timeline bar

    def test_renderer_surfaces_orphans_instead_of_dropping_them(self):
        records = [
            {"name": "query.answer", "trace_id": "t", "span_id": "r",
             "parent_id": None, "start_ns": 0, "duration_us": 10,
             "status": "ok", "attrs": {}},
            {"name": "scan.unit", "trace_id": "t", "span_id": "o",
             "parent_id": "gone", "start_ns": 5, "duration_us": 1,
             "status": "ok", "attrs": {}},
        ]
        text = render_trace(records)
        assert "(orphans" in text and "scan.unit" in text

    def test_renderer_handles_an_empty_trace(self):
        assert render_trace([]) == "(empty trace)"

    def test_sink_flushes_one_json_line_per_trace_at_root_close(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = make_tracer(sink_path=str(sink))
        for _ in range(2):
            with tracer.start_trace("query.answer") as root:
                with root.child("plan.compile"):
                    pass
        documents = load_sink(str(sink))
        assert len(documents) == 2
        for document in documents:
            assert document["schema_version"] == TRACE_SCHEMA_VERSION
            assert document["root"] == "query.answer"
            assert len(document["spans"]) == 2
        # The sunk spans render exactly like the in-memory ones.
        assert "plan.compile" in render_trace(documents[-1]["spans"])
        with open(sink, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)  # every line is standalone JSON

    def test_broken_sink_disables_flushing_instead_of_failing(self, tmp_path):
        tracer = make_tracer(sink_path=str(tmp_path))  # a directory: OSError
        with tracer.start_trace("query.answer"):
            pass  # must not raise
        assert tracer.health()["finished"] == 1


# ---------------------------------------------------------------------------
# Unified stats schema (satellite: every as_dict carries schema_version)
# ---------------------------------------------------------------------------


class TestSchemaUnification:
    def test_every_stats_shape_carries_the_schema_version(self):
        transport = LoopbackTransport(
            {"A": Instance.from_dict({"r": [(1, 2)]})}
        )
        source = RemotePeerFactSource(transport)
        shapes = [
            ServiceStats().as_dict(),
            FragmentCacheStats().as_dict(),
            ScanPolicy().as_dict(),
            source.scatter_stats(),
        ]
        for shape in shapes:
            assert shape["schema_version"] == METRICS_SCHEMA_VERSION
        # Version 2 removed the service's `adaptive` block; version 3 the
        # sharding, hedging and deadline keys.
        assert METRICS_SCHEMA_VERSION == 3
        assert "adaptive" not in shapes[0]
        removed = {"pruned_scans", "fanout_scans", "hedges_won", "deadline_expiries"}
        assert not removed & set(source.scatter_stats())
        assert set(ScanPolicy().as_dict()) == {
            "schema_version", "retries", "backoff_s", "backoff_cap_s", "jitter",
        }


# ---------------------------------------------------------------------------
# Cluster describe(): metrics surface + snapshot isolation (satellite)
# ---------------------------------------------------------------------------


def _single_peer_cluster():
    data = {"A": Instance.from_dict({"r": [(1, 10), (2, 20)]})}
    return ServiceCluster(
        pdms=PDMS("obs"),
        transport=LoopbackTransport(data),
        scan_policy=ScanPolicy(retries=0),
    )


class TestDescribeSnapshot:
    def test_describe_embeds_the_unified_metrics_snapshot(self):
        with _single_peer_cluster() as cluster:
            cluster.source.get_matching("r", (1, object()))
            snapshot = cluster.describe()
            metrics = snapshot["metrics"]
            assert metrics["schema_version"] == METRICS_SCHEMA_VERSION
            collected = metrics["collected"]
            assert collected["scatter"]["schema_version"] == METRICS_SCHEMA_VERSION
            assert "peer_latency" not in collected
            assert collected["scan_policy"]["retries"] == 0
            assert collected["service"]["schema_version"] == METRICS_SCHEMA_VERSION

    def test_mutating_a_snapshot_never_perturbs_live_state(self):
        from repro.datalog.indexing import WILDCARD

        with _single_peer_cluster() as cluster:
            cluster.source.get_matching("r", (WILDCARD, WILDCARD))
            first = cluster.describe()
            # Vandalize every nested container we can reach.
            first["scatter"]["full_scans"] = 10_000
            first["peer_scan_counts"].clear()
            first["metrics"]["collected"].clear()
            first["stats"] = None
            second = cluster.describe()
            assert second["scatter"]["full_scans"] != 10_000
            assert "A" in second["peer_scan_counts"]
            assert "scatter" in second["metrics"]["collected"]

    def test_service_metrics_snapshot_tracks_answer_latency(self):
        from repro.datalog import parse_query
        from repro.pdms import QueryService, StorageDescription

        pdms = PDMS("obs-svc")
        top = pdms.add_peer("T")
        top.add_relation("A", ["x", "y"])
        pdms.add_peer("P1")
        pdms.add_storage_description(StorageDescription(
            "P1", "sa", parse_query("V(x, y) :- T:A(x, y)"),
            exact=False, name="store_sa",
        ))
        service = QueryService(
            pdms, data={"P1": Instance.from_dict({"sa": [(1, 2)]})}
        )
        query = parse_query("Q(x, y) :- T:A(x, y)")
        assert service.answer(query)
        snapshot = service.metrics_snapshot()
        assert snapshot["histograms"]["service.answer_seconds"]["count"] >= 1
        assert snapshot["collected"]["service"]["schema_version"] == METRICS_SCHEMA_VERSION

    def test_whole_answers_compile_inside_the_plan_compile_span(self):
        """The factored root is compiled in ``plan.compile`` (not lazily,
        inside ``plan.execute``), evaluated as ``fragment.eval kind=union``,
        and counted: ``plan_kinds`` / the ``plan.*`` registry counters."""
        from repro.datalog import parse_query
        from repro.obs import set_tracer
        from repro.pdms import QueryService, StorageDescription

        pdms = PDMS("obs-plan")
        pdms.add_peer("T").add_relation("A", ["x", "y"])
        data = {}
        for index in range(2):
            pdms.add_peer(f"P{index}")
            pdms.add_storage_description(StorageDescription(
                f"P{index}", f"s{index}", parse_query("V(x, y) :- T:A(x, y)"),
                exact=False, name=f"store_{index}",
            ))
            data[f"P{index}"] = Instance.from_dict({f"s{index}": [(index, 2)]})
        service = QueryService(pdms, data=data, engine="columnar")
        query = parse_query("Q(x) :- T:A(x, y)")
        tracer = make_tracer()
        set_tracer(tracer)
        try:
            assert service.answer(query, limit=1)  # first-k: nothing factored yet
            assert service.stats_snapshot().plan_kinds == {}
            assert service.answer(query) == {(0,), (1,)}
            assert service.answer(query) == {(0,), (1,)}
        finally:
            set_tracer(None)
        first_k, cold, warm = [tracer.trace(tid) for tid in tracer.trace_ids()]
        assert "plan.compile" not in {span["name"] for span in first_k + warm}
        (compiled,) = [span for span in cold if span["name"] == "plan.compile"]
        assert compiled["attrs"] == {"tree_nodes": 7, "factored": 4}
        kinds = [s["attrs"]["kind"] for s in cold if s["name"] == "fragment.eval"]
        assert sorted(kinds) == ["scan", "scan", "union", "union"]
        assert service.stats_snapshot().plan_kinds == {"factored": 1}
        counters = service.metrics_snapshot()["counters"]
        assert counters["plan.factored"] == 1 and counters["plan.tree_nodes"] == 7
        # A tree the compile declines is counted under its reason.
        pdms.add_storage_description(StorageDescription(
            "P0", "sx", parse_query("V(x) :- T:A(x, y)"), exact=False, name="store_x"))
        service.answer(parse_query("Q(x) :- T:A(x, y), y > 1"))
        assert service.stats_snapshot().plan_kinds == {
            "factored": 1, "enumerated.constraint": 1}
        assert service.metrics_snapshot()["counters"]["plan.enumerated.constraint"] == 1
