"""Unit tests for the distributed peer runtime.

Covers the wire contract (pattern encoding, one contract suite over the
loopback and socket backends, chaos hooks), :class:`RemotePeerFactSource` (routing, scan
memoization, version tokens over the wire, degradation), the plan path
over an explicitly built remote source (equivalence, completeness,
fragment-cache safety under faults), :class:`ServiceCluster` (admission,
concurrent fan-in), and the RPC-boundary edge cases the peer source must
survive: cross-transport arity clashes, empty-peer scans, and peer leave
mid-stream.
"""

from __future__ import annotations

import threading

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.errors import (
    EvaluationError,
    MappingError,
    PDMSConfigurationError,
    TransportError,
)
from repro.pdms import (
    PDMS,
    AsyncSocketTransport,
    FragmentCache,
    LoopbackTransport,
    PeerFactSource,
    QueryService,
    RemotePeerFactSource,
    ServiceCluster,
    StorageDescription,
    answer_query,
    certain_answers,
    combine_peer_instances,
    evaluate_distributed,
    reformulate,
    stream_answers,
)
from repro.pdms.distributed.transport import decode_pattern, encode_pattern
from repro.workload import (
    build_emergency_services,
    example_queries,
    sample_instance,
    sample_peer_instances,
)


def two_peer_system():
    """A tiny two-peer PDMS: ``Q :- T:A ⨝ T:B`` with A on P1, B on P2."""
    pdms = PDMS("two-peer")
    top = pdms.add_peer("T")
    top.add_relation("A", ["x", "y"])
    top.add_relation("B", ["x", "y"])
    for peer_name, relation, stored in (("P1", "A", "sa"), ("P2", "B", "sb")):
        pdms.add_peer(peer_name)
        pdms.add_storage_description(StorageDescription(
            peer_name, stored,
            parse_query(f"V(x, y) :- T:{relation}(x, y)"),
            exact=False, name=f"store_{stored}",
        ))
    data = {
        "P1": Instance.from_dict({"sa": [(1, 2), (2, 3), (5, 6)]}),
        "P2": Instance.from_dict({"sb": [(2, 10), (3, 11), (6, 12)]}),
    }
    query = parse_query("Q(x, z) :- T:A(x, y), T:B(y, z)")
    return pdms, data, query


class TestWireEncoding:
    def test_wildcards_and_values_round_trip(self):
        pattern = (WILDCARD, 1, None, "x", WILDCARD)
        assert decode_pattern(encode_pattern(pattern)) == pattern

    def test_none_is_a_value_not_a_wildcard(self):
        encoded = encode_pattern((None,))
        assert encoded == (("=", None),)
        assert decode_pattern(encoded) == (None,)

    def test_malformed_wire_entry_raises(self):
        with pytest.raises(TransportError):
            decode_pattern((("?",),))


class TestLoopbackTransport:
    def test_describe_ships_arity_cardinality_and_version(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        info = transport.describe("P1")
        arity, cardinality, token = info["sa"]
        assert (arity, cardinality) == (2, 3)
        assert token == data["P1"].data_version("sa")

    def test_scan_batch_routes_and_counts(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        rows, all_rows = transport.scan_batch("P1", [
            ("sa", encode_pattern((1, WILDCARD))),
            ("sa", encode_pattern((WILDCARD, WILDCARD))),
        ])
        assert set(rows) == {(1, 2)}
        assert len(all_rows) == 3
        assert transport.scan_count("P1") == 2

    def test_failed_peer_raises_until_restored(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        transport.fail_peer("P1")
        with pytest.raises(TransportError):
            transport.describe("P1")
        assert transport.failed_peers() == ("P1",)
        transport.restore_peer("P1")
        assert transport.describe("P1")

    def test_drop_every_n_drops_scan_rpcs(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data, drop_every_n=2)
        request = [("sa", encode_pattern((WILDCARD, WILDCARD)))]
        assert transport.scan_batch("P1", request)
        with pytest.raises(TransportError):
            transport.scan_batch("P1", request)
        assert transport.scan_batch("P1", request)

    def test_insert_moves_the_version_token(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        before = transport.describe("P1")["sa"][2]
        transport.insert("P1", "sa", [(7, 8)])
        after = transport.describe("P1")["sa"][2]
        assert before != after

    def test_unknown_peer_raises(self):
        transport = LoopbackTransport({})
        with pytest.raises(TransportError):
            transport.describe("ghost")


@pytest.fixture(params=[LoopbackTransport, AsyncSocketTransport],
                ids=["loopback", "socket"])
def backend(request):
    """Build transports of one backend; every one built is closed after."""
    built = []

    def build(instances):
        built.append(request.param(instances))
        return built[-1]

    yield build
    for transport in built:
        transport.close()


class TestWireContract:
    """What every backend promises, whatever carries the bytes."""

    def test_round_trip_scan_insert_and_tokens(self, backend):
        _, data, _ = two_peer_system()
        transport = backend(data)
        assert transport.ping("P1")
        info = transport.describe("P1")
        assert info["sa"][:2] == (2, 3)
        rows, = transport.scan_batch(
            "P1", [("sa", encode_pattern((WILDCARD, 3)))])
        assert set(rows) == {(2, 3)}
        token_before = transport.describe("P1")["sa"][2]
        assert transport.insert("P1", "sa", [(9, 9)]) == 1
        info_after = transport.describe("P1")
        assert info_after["sa"][1] == 4
        assert info_after["sa"][2] != token_before

    def test_scan_data_errors_surface_as_value_error(self, backend):
        transport = backend({"P1": Instance.from_dict({"sa": [(1, 2)]})})
        with pytest.raises(ValueError):
            transport.scan_batch("P1", [("sa", encode_pattern((WILDCARD,)))])
        # The peer survives a data error: later RPCs still work.
        assert transport.ping("P1")

    def test_insert_data_errors_are_instance_errors(self, backend):
        """Invalid remote inserts raise the same type as a local instance."""
        from repro.errors import InstanceError

        transport = backend({"P1": Instance.from_dict({"sa": [(1, 2)]})})
        with pytest.raises(InstanceError):
            transport.insert("P1", "sa", [(1, 2, 3)])
        assert transport.ping("P1")

    def test_empty_declared_relation_crosses_the_wire(self, backend):
        """A declared-but-empty relation keeps its arity at the peer."""
        holder = Instance()
        holder.add("r", (1, 2))
        holder.remove("r", (1, 2))
        info = backend({"E": holder}).describe("E")
        assert info["r"][0] == 2 and info["r"][1] == 0

    def test_traced_rpcs_bring_their_serve_spans_home(self, backend):
        from repro.obs import MetricsRegistry, Tracer, set_tracer, wire_context

        _, data, _ = two_peer_system()
        transport = backend(data)
        tracer = Tracer(enabled=True, sample_rate=1.0, sink_path=None,
                        registry=MetricsRegistry())
        set_tracer(tracer)
        try:
            with tracer.start_trace("query.answer") as root:
                with wire_context(root.wire_context()):
                    everything = encode_pattern((WILDCARD, WILDCARD))
                    transport.scan_batch("P1", [("sa", everything)])
                    transport.scan_batch_since("P1", [("sa", everything, None)])
                    transport.insert("P2", "sb", [(7, 70)])
            _, spans = tracer.last_trace()
        finally:
            set_tracer(None)
        remote = [record for record in spans if record.get("remote")]
        assert sorted(record["name"] for record in remote) == [
            "rpc.serve.insert", "rpc.serve.scan", "rpc.serve.scan_since",
        ]
        assert all(record["parent_id"] == root.span_id for record in remote)
        rows = {record["name"]: record["attrs"]["rows"] for record in remote}
        assert rows == {
            "rpc.serve.insert": 1, "rpc.serve.scan": 3, "rpc.serve.scan_since": 3,
        }

    def test_arity_clash_across_the_wire(self, backend):
        transport = backend({
            "P1": Instance.from_dict({"shared": [(1, 2)]}),
            "P2": Instance.from_dict({"shared": [(1, 2, 3)]}),
        })
        with pytest.raises(MappingError):
            RemotePeerFactSource(transport)

    def test_end_to_end_remote_write_shows_after_refresh(self, backend):
        pdms, data, query = two_peer_system()
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        transport = backend(data)
        source = RemotePeerFactSource(transport)
        answer = evaluate_distributed(reformulate(pdms, query), source)
        assert answer.rows == frozenset(oracle) and answer.complete
        # A remote write becomes visible after the next call's refresh.
        transport.insert("P2", "sb", [(6, 99)])
        updated = evaluate_distributed(reformulate(pdms, query), source)
        assert (5, 99) in updated.rows and updated.complete
        source.close()


class TestRemotePeerFactSource:
    def test_routes_scans_and_memoizes(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        assert sorted(source.relations()) == ["sa", "sb"]
        assert source.owner_count("sa") == 1
        assert source.cardinality("sa") == 3
        rows = source.get_matching("sa", (1, WILDCARD))
        assert set(rows) == {(1, 2)}
        before = transport.rpc_count
        assert source.get_matching("sa", (1, WILDCARD)) == rows
        assert transport.rpc_count == before  # served from the memo
        assert set(source.get_tuples("sb")) == set(data["P2"].get_tuples("sb"))

    def test_refresh_drops_only_moved_relations(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        source.get_tuples("sa")
        source.get_tuples("sb")
        token_sa = source.data_version("sa")
        transport.insert("P1", "sa", [(100, 200)])
        source.refresh()
        assert source.data_version("sa") != token_sa
        before = transport.rpc_count
        source.get_tuples("sb")  # memo survived: sb's token never moved
        assert transport.rpc_count == before
        assert (100, 200) in set(source.get_tuples("sa"))

    def test_unknown_relation_is_empty_with_empty_token(self):
        _, data, _ = two_peer_system()
        source = RemotePeerFactSource(LoopbackTransport(data))
        assert source.get_tuples("nope") == ()
        assert source.get_matching("nope", (WILDCARD,)) == ()
        assert source.data_version("nope") == ()

    def test_empty_peer_is_served_quietly(self):
        """A peer with no relations contributes nothing and fails nothing."""
        _, data, _ = two_peer_system()
        data["P3"] = Instance()
        source = RemotePeerFactSource(LoopbackTransport(data))
        assert sorted(source.relations()) == ["sa", "sb"]
        assert source.complete
        assert source.failure_count == 0

    def test_arity_clash_across_peers_names_both(self):
        data = {
            "P1": Instance.from_dict({"shared": [(1, 2)]}),
            "P2": Instance.from_dict({"shared": [(1, 2, 3)]}),
        }
        with pytest.raises(MappingError) as excinfo:
            RemotePeerFactSource(LoopbackTransport(data))
        message = str(excinfo.value)
        assert "P1" in message and "P2" in message and "shared" in message

    def test_multi_owner_relation_fans_out(self):
        data = {
            "P1": Instance.from_dict({"shared": [(1, 1)]}),
            "P2": Instance.from_dict({"shared": [(2, 2)]}),
        }
        source = RemotePeerFactSource(LoopbackTransport(data))
        assert source.owner_count("shared") == 2
        assert set(source.get_tuples("shared")) == {(1, 1), (2, 2)}
        assert source.cardinality("shared") == 2

    def test_failed_scan_degrades_and_blocks_version_tokens(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        transport.fail_peer("P1")
        assert source.get_tuples("sa") == ()  # sound subset: no rows
        assert source.failure_count == 1
        assert "sa" in source.degraded_relations
        assert source.data_version("sa") is None  # cache must bypass
        assert not source.complete
        transport.restore_peer("P1")
        source.refresh()
        assert source.complete
        assert set(source.get_tuples("sa")) == set(data["P1"].get_tuples("sa"))

    def test_closed_source_fails_fast(self):
        _, data, _ = two_peer_system()
        source = RemotePeerFactSource(LoopbackTransport(data))
        source.close()
        with pytest.raises(TransportError):
            source.get_matching("sa", (WILDCARD, WILDCARD))
        with pytest.raises(TransportError):
            source.refresh()
        with pytest.raises(TransportError):
            source.prefetch([("sa", (WILDCARD, WILDCARD))])

    def test_unreachable_peer_at_refresh_is_recorded(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        transport.fail_peer("P2")
        source.refresh()
        assert source.unreachable_peers == ("P2",)
        assert not source.complete
        assert "sb" not in source.relations()
        assert source.failure_count == 1


class TestDistributedEngine:
    """The plan path over a remote source built explicitly: where the scans
    run is the source's choice, not the engine name's."""

    def test_distributed_name_over_instances_evaluates_in_process(self, monkeypatch):
        pdms, data, query = two_peer_system()

        def no_wire(*args, **kwargs):
            raise AssertionError("in-process data must not cross a transport")

        monkeypatch.setattr(LoopbackTransport, "__init__", no_wire)
        assert answer_query(pdms, query, data, engine="distributed") == \
            answer_query(pdms, query, data, engine="columnar")

    def test_matches_other_engines_on_the_scenario(self):
        pdms = build_emergency_services()
        data = sample_peer_instances()
        combined = combine_peer_instances(data)
        source = RemotePeerFactSource(LoopbackTransport(data))
        try:
            for name, query in example_queries().items():
                expected = answer_query(pdms, query, combined, engine="backtracking")
                assert answer_query(pdms, query, source) == expected, name
            assert source.scatter_stats()["fanout_waves"] > 0
        finally:
            source.close()

    def test_limit_streams_a_subset(self):
        pdms, data, query = two_peer_system()
        source = RemotePeerFactSource(LoopbackTransport(data))
        full = answer_query(pdms, query, source)
        assert len(full) >= 2
        partial = answer_query(pdms, query, source, limit=1)
        assert len(partial) == 1 and partial <= full
        source.close()

    def test_plan_for_wrong_result_raises(self):
        pdms, data, query = two_peer_system()
        first = reformulate(pdms, query)
        second = reformulate(pdms, query)
        from repro.pdms.planning import ensure_plan

        plan = ensure_plan(first, None)
        source = RemotePeerFactSource(LoopbackTransport(data))
        # At call time, not on first iteration.
        with pytest.raises(EvaluationError):
            stream_answers(second, source, plan=plan)
        source.close()

    def test_knobs_are_read_once_per_call_not_once_per_rewriting(self, monkeypatch):
        """Every knob is resolved at the call boundary: a union of 12
        rewritings over a remote source reads the environment exactly as
        often as a union of 2."""
        import os

        def fan_out(width):
            pdms = PDMS(f"fan-{width}")
            pdms.add_peer("T").add_relation("A", ["x", "y"])
            data = {}
            for index in range(width):
                peer = f"P{index}"
                pdms.add_peer(peer)
                pdms.add_storage_description(StorageDescription(
                    peer, f"s{index}", parse_query("V(x, y) :- T:A(x, y)"),
                    exact=False, name=f"store_{index}",
                ))
                data[peer] = Instance.from_dict({f"s{index}": [(index, index + 1)]})
            return pdms, data, parse_query("Q(x, y) :- T:A(x, y)")

        reads = []
        environ = type(os.environ)
        original = environ.__getitem__

        def counting(self, name):
            if name.startswith("REPRO_"):
                reads.append(name)
            return original(self, name)

        counts = {}
        for width in (2, 12):
            pdms, data, query = fan_out(width)
            result = reformulate(pdms, query)
            assert len(result.first_rewritings(100)) == width
            with monkeypatch.context() as patch:
                patch.setattr(environ, "__getitem__", counting)
                del reads[:]
                source = RemotePeerFactSource(LoopbackTransport(data))
                rows = set(stream_answers(result, source))
                counts[width] = sorted(reads)
            source.close()
            assert len(rows) == width
        assert counts[2] == counts[12]

    def test_flat_source_falls_back_to_columnar_path(self):
        pdms, data, query = two_peer_system()
        combined = combine_peer_instances(data)
        assert answer_query(pdms, query, combined, engine="distributed") == \
            answer_query(pdms, query, combined, engine="columnar")

    def test_evaluate_distributed_completeness_cycle(self):
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        result = reformulate(pdms, query)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        answer = evaluate_distributed(result, source)
        assert answer.rows == frozenset(oracle) and answer.complete
        transport.fail_peer("P2")
        degraded = evaluate_distributed(reformulate(pdms, query), source)
        assert not degraded.complete
        assert degraded.rows <= frozenset(oracle)
        assert degraded.failures
        transport.restore_peer("P2")
        recovered = evaluate_distributed(reformulate(pdms, query), source)
        assert recovered.complete and recovered.rows == frozenset(oracle)

    def test_evaluate_distributed_rejects_in_process_data(self):
        pdms, data, query = two_peer_system()
        result = reformulate(pdms, query)
        for local in (combine_peer_instances(data), data, PeerFactSource(data)):
            with pytest.raises(EvaluationError):
                evaluate_distributed(result, local)

    def test_fragment_cache_never_serves_degraded_fragments(self):
        """A fault-free call after a faulty one must not see cached partials."""
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        cache = FragmentCache(max_bytes=1 << 20)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        transport.fail_peer("P2")
        faulty = evaluate_distributed(reformulate(pdms, query), source, cache=cache)
        assert not faulty.complete
        transport.restore_peer("P2")
        result = reformulate(pdms, query)
        healed = evaluate_distributed(result, source, cache=cache)
        assert healed.complete and healed.rows == frozenset(oracle)
        assert result._shared_plan.stats.factored  # one root, one scatter wave

    def test_scan_failing_mid_answer_is_not_cached_under_the_snapshot(self):
        """The describe round and the cost model's statistics scan succeed
        (so the answer's version snapshot holds valid tokens) and only the
        root's own scan fails: the relation degrades *mid-answer*, its
        versions are withdrawn, and nothing computed from the partial rows
        may be stored under the token the snapshot read before the fault."""

        class LaterScansFail(LoopbackTransport):
            scans, broken = 0, True

            def scan_batch_since(self, peer, requests):
                if peer == "P2":
                    self.scans += 1
                    if self.broken and self.scans > 1:
                        raise TransportError("injected scan fault")
                return super().scan_batch_since(peer, requests)

        pdms, data, _ = two_peer_system()
        # The constant makes the fragment's scan a different wire request
        # from the statistics pass over the whole relation.
        query = parse_query("Q(x) :- T:A(x, y), T:B(y, 10)")
        transport = LaterScansFail(data)
        source = RemotePeerFactSource(transport)
        cache = FragmentCache(max_bytes=1 << 20)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        assert oracle
        result = reformulate(pdms, query)
        faulty = evaluate_distributed(result, source, cache=cache)
        assert transport.scans > 1 and not faulty.complete and not faulty.rows
        assert not any("sb(" in key for key in cache.cached_keys())
        plan = result._shared_plan
        assert plan.stats.factored and plan.factored_root() not in cache.cached_keys()
        transport.broken = False
        healed = evaluate_distributed(result, source, cache=cache)
        assert healed.complete and healed.rows == frozenset(oracle)

    def test_scan_failing_outside_the_scatter_is_not_cached_either(self):
        """The one root of a whole answer is prefetched once, so a fault can
        also hit a scan the scatter did not cover: evaluation then scans
        cold, mid-build, *below* fragments that were tokenised from the
        still-valid snapshot.  Nothing whose build spanned the fault may be
        cached — scan, join or root — while fragments of the healthy
        relation may; the answer is an honest sound subset and heals."""

        class LaterScansFail(LoopbackTransport):
            scans, broken = 0, True

            def scan_batch_since(self, peer, requests):
                if peer == "P2":
                    self.scans += 1
                    if self.broken and self.scans > 1:
                        raise TransportError("injected scan fault")
                return super().scan_batch_since(peer, requests)

        class PartialScatter(RemotePeerFactSource):
            def prefetch(self, requests, parallel=True):
                covered = [request for request in requests if request[0] != "sb"]
                return super().prefetch(covered, parallel)

        pdms, data, _ = two_peer_system()
        query = parse_query("Q(x) :- T:A(x, 2), T:B(2, 10)")
        transport = LaterScansFail(data)
        source = PartialScatter(transport)
        cache = FragmentCache(max_bytes=1 << 20)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        assert oracle
        result = reformulate(pdms, query)
        faulty = evaluate_distributed(result, source, cache=cache)
        assert transport.scans > 1 and not faulty.complete
        assert faulty.rows <= frozenset(oracle)
        plan = result._shared_plan
        assert plan.stats.factored
        cached = cache.cached_keys()
        assert not any("sb" in plan.fragment_relations(key) for key in cached)
        assert any("sa(" in key for key in cached)  # the healthy side is kept
        transport.broken = False
        healed = evaluate_distributed(result, source, cache=cache)
        assert healed.complete and healed.rows == frozenset(oracle)


class TestServiceCluster:
    def test_answers_match_oracle_and_report_complete(self):
        pdms, data, query = two_peer_system()
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        with ServiceCluster(
            pdms=pdms, transport=LoopbackTransport(data)
        ) as cluster:
            answer = cluster.answer(query)
            assert answer.rows == frozenset(oracle)
            assert answer.complete
            assert cluster.served == 1

    def test_incomplete_under_injected_failure(self):
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        with ServiceCluster(pdms=pdms, transport=transport) as cluster:
            transport.fail_peer("P1")
            answer = cluster.answer(query)
            assert not answer.complete
            assert answer.rows <= frozenset(oracle)
            transport.restore_peer("P1")
            healed = cluster.answer(query)
            assert healed.complete and healed.rows == frozenset(oracle)

    def test_admission_bounds_concurrency(self):
        pdms, data, query = two_peer_system()
        observed = []
        gauge_lock = threading.Lock()
        live = [0]

        class Probe(LoopbackTransport):
            def scan_batch(self, peer, requests):
                with gauge_lock:
                    live[0] += 1
                    observed.append(live[0])
                try:
                    return super().scan_batch(peer, requests)
                finally:
                    with gauge_lock:
                        live[0] -= 1

        with ServiceCluster(
            pdms=pdms, transport=Probe(data, delay=0.002), max_inflight=2
        ) as cluster:
            answers = cluster.answer_many([query] * 12, workers=8)
        assert all(a.rows for a in answers)
        assert cluster.peak_inflight <= 2
        assert cluster.served == 12

    def test_concurrent_mix_stays_correct(self):
        pdms = build_emergency_services()
        data = sample_peer_instances()
        combined = combine_peer_instances(data)
        queries = list(example_queries().values())
        expected = [
            answer_query(pdms, query, combined, engine="backtracking")
            for query in queries
        ]
        with ServiceCluster(
            pdms=pdms, transport=LoopbackTransport(data)
        ) as cluster:
            answers = cluster.answer_many(queries * 3, workers=6)
        for index, answer in enumerate(answers):
            assert answer.rows == frozenset(expected[index % len(queries)])
            assert answer.complete

    def test_env_knob_and_validation(self, monkeypatch):
        pdms, data, _ = two_peer_system()
        monkeypatch.setenv("REPRO_MAX_INFLIGHT", "3")
        cluster = ServiceCluster(pdms=pdms, transport=LoopbackTransport(data))
        assert cluster.max_inflight == 3
        monkeypatch.setenv("REPRO_MAX_INFLIGHT", "banana")
        with pytest.raises(PDMSConfigurationError):
            ServiceCluster(pdms=pdms, transport=LoopbackTransport(data))
        monkeypatch.delenv("REPRO_MAX_INFLIGHT")
        with pytest.raises(PDMSConfigurationError):
            ServiceCluster(
                pdms=pdms, transport=LoopbackTransport(data), max_inflight=-1
            )
        with pytest.raises(PDMSConfigurationError):
            ServiceCluster()

    def test_wraps_prebuilt_service(self):
        pdms, data, query = two_peer_system()
        service = QueryService(pdms, data=data, engine="columnar")
        cluster = ServiceCluster(service=service)
        answer = cluster.answer(query)
        assert answer.rows and answer.complete  # no transport: trivially so
        assert cluster.source is None

    def test_describe_snapshot(self):
        pdms, data, query = two_peer_system()
        with ServiceCluster(
            pdms=pdms, transport=LoopbackTransport(data)
        ) as cluster:
            cluster.answer(query)
            snapshot = cluster.describe()
        assert snapshot["served"] == 1
        assert set(snapshot["peer_scan_counts"]) == {"P1", "P2"}
        assert snapshot["service"]["misses"] == 1


class TestPeerLeaveMidStream:
    def test_stream_snapshot_survives_peer_leave(self):
        """Provenance invalidation fires while a stream is being consumed."""
        pdms, data, query = two_peer_system()
        service = QueryService(pdms, data=data, engine="distributed")
        stream = service.stream(query)
        first = next(stream)
        invalidations_before = service.stats.invalidations
        service.remove_peer("P2")
        data.pop("P2")
        # The snapshot iterator keeps draining the reformulation it started
        # with (over the data that remains), without raising.
        rest = list(stream)
        assert first not in rest
        # Provenance invalidation fired for the affected entry...
        assert service.stats.invalidations > invalidations_before
        # ...and post-churn answers reflect the departure: the joined
        # relation is gone, so the query has no stored rewritings left.
        assert service.answer(query) == set()

    def test_post_leave_answers_match_oracle(self):
        pdms = build_emergency_services()
        data = sample_peer_instances()
        service = QueryService(pdms, data=data, engine="distributed")
        query = parse_query('Q(pid) :- 9DC:SkilledPerson(pid, "EMT")')
        assert service.answer(query)
        service.remove_peer("FH")
        data.pop("FH")
        oracle = certain_answers(
            service.pdms, query, combine_peer_instances(data))
        assert service.answer(query) == oracle
