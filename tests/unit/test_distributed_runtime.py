"""Unit tests for the distributed peer runtime.

Covers the wire contract (pattern encoding, one contract suite over the
loopback and socket backends, chaos hooks), :class:`RemotePeerFactSource` (routing, scan
memoization, version tokens over the wire, degradation, the refusal of
a relation two peers serve), the plan path over an explicitly built
remote source (equivalence, completeness, fragment-cache safety under
faults), :class:`ServiceCluster` (completeness, callers on their own
threads, a write to its one owner, a write whose owner is down, clusters
sharing one :class:`FragmentCache`), and the RPC-boundary edge cases the
peer source must survive: empty-peer scans and peer leave mid-stream.

Data split over several stores is written the PPL way
(:func:`split_owners`): one stored relation per store, each with its own
storage description into the same peer relation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

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
    QueryService,
    RemotePeerFactSource,
    ScanPolicy,
    ClusterAnswer,
    ServiceCluster,
    StorageDescription,
    answer_query,
    certain_answers,
    combine_peer_instances,
    evaluate_reformulation,
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

from test_trace_chaos import last_spans, tracer  # noqa: F401 - a fixture


def over_window(result, source, cache=None):
    """``result`` evaluated over ``source``, with the source's failure
    window read around the call: ``complete`` only if no fault touched it."""
    start = source.failure_count
    rows = evaluate_reformulation(result, source, cache=cache)
    failures = source.failures(start)
    return ClusterAnswer(frozenset(rows), not failures and source.complete, failures)


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
        answer = over_window(reformulate(pdms, query), source)
        assert answer.rows == frozenset(oracle) and answer.complete
        # A remote write becomes visible after the next call's refresh.
        transport.insert("P2", "sb", [(6, 99)])
        updated = over_window(reformulate(pdms, query), source)
        assert (5, 99) in updated.rows and updated.complete
        source.close()


class TestRemotePeerFactSource:
    def test_routes_scans_and_memoizes(self):
        _, data, _ = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        assert sorted(source.relations()) == ["sa", "sb"]
        assert source.owner("sa") == "P1" and source.owner("nope") is None
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

    def test_a_relation_two_peers_serve_is_refused_naming_both(self, backend):
        data = {
            "P1": Instance.from_dict({"shared": [(1, 1)]}),
            "P2": Instance.from_dict({"shared": [(2, 2)]}),
        }
        with pytest.raises(MappingError) as excinfo:
            RemotePeerFactSource(backend(data))
        message = str(excinfo.value)
        assert "'P1'" in message and "'P2'" in message and "'shared'" in message

    def test_a_second_owner_is_refused_at_refresh_and_changes_nothing(
        self, backend
    ):
        _, data, _ = two_peer_system()
        source = RemotePeerFactSource(backend(data))
        try:
            rows = set(source.get_tuples("sa"))
            before = (source.relations(), source.data_version("sa"), source.owner("sa"))
            data["P2"].add("sa", (7, 7))
            with pytest.raises(MappingError) as excinfo:
                source.refresh()
            message = str(excinfo.value)
            assert "'P1'" in message and "'P2'" in message and "'sa'" in message
            assert (
                source.relations(), source.data_version("sa"), source.owner("sa")
            ) == before
            assert set(source.get_tuples("sa")) == rows
            assert source.complete and source.failure_count == 0
        finally:
            source.close()

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

    def test_plan_path_completeness_cycle(self):
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        result = reformulate(pdms, query)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        answer = over_window(result, source)
        assert answer.rows == frozenset(oracle) and answer.complete
        transport.fail_peer("P2")
        degraded = over_window(reformulate(pdms, query), source)
        assert not degraded.complete
        assert degraded.rows <= frozenset(oracle)
        assert degraded.failures
        transport.restore_peer("P2")
        recovered = over_window(reformulate(pdms, query), source)
        assert recovered.complete and recovered.rows == frozenset(oracle)

    def test_fragment_cache_never_serves_degraded_fragments(self):
        """A fault-free call after a faulty one must not see cached partials."""
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        cache = FragmentCache(max_bytes=1 << 20)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        transport.fail_peer("P2")
        faulty = over_window(reformulate(pdms, query), source, cache=cache)
        assert not faulty.complete
        transport.restore_peer("P2")
        result = reformulate(pdms, query)
        healed = over_window(result, source, cache=cache)
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
        faulty = over_window(result, source, cache=cache)
        assert transport.scans > 1 and not faulty.complete and not faulty.rows
        assert not any("sb(" in key for key in cache.cached_keys())
        plan = result._shared_plan
        assert plan.stats.factored and plan.factored_root() not in cache.cached_keys()
        transport.broken = False
        healed = over_window(result, source, cache=cache)
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
            def prefetch(self, requests):
                covered = [request for request in requests if request[0] != "sb"]
                return super().prefetch(covered)

        pdms, data, _ = two_peer_system()
        query = parse_query("Q(x) :- T:A(x, 2), T:B(2, 10)")
        transport = LaterScansFail(data)
        source = PartialScatter(transport)
        cache = FragmentCache(max_bytes=1 << 20)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        assert oracle
        result = reformulate(pdms, query)
        faulty = over_window(result, source, cache=cache)
        assert transport.scans > 1 and not faulty.complete
        assert faulty.rows <= frozenset(oracle)
        plan = result._shared_plan
        assert plan.stats.factored
        cached = cache.cached_keys()
        assert not any("sb" in plan.fragment_relations(key) for key in cached)
        assert any("sa(" in key for key in cached)  # the healthy side is kept
        transport.broken = False
        healed = over_window(result, source, cache=cache)
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
            assert answer.complete and answer.failures == ()
            assert len(answer) == len(oracle) and set(answer) == oracle

    def test_incomplete_under_injected_failure(self):
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        oracle = certain_answers(pdms, query, combine_peer_instances(data))
        with ServiceCluster(pdms=pdms, transport=transport) as cluster:
            transport.fail_peer("P1")
            answer = cluster.answer(query)
            assert not answer.complete
            assert answer.rows <= frozenset(oracle)
            assert {failure.peer for failure in answer.failures} == {"P1"}
            transport.restore_peer("P1")
            healed = cluster.answer(query)
            assert healed.complete and healed.rows == frozenset(oracle)
            assert healed.failures == ()

    def test_a_fault_before_the_call_stays_out_of_its_window(self):
        """A fault recorded by an earlier call does not clear a later
        call's flag: the window opens at the call."""
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        oracle = frozenset(certain_answers(pdms, query, combine_peer_instances(data)))
        with ServiceCluster(
            pdms=pdms, transport=transport, scan_policy=ScanPolicy(retries=0),
            fragment_cache_bytes=0,
        ) as cluster:
            transport.drop_every_n = 1
            assert not cluster.answer(query).complete
            transport.drop_every_n = 0
            cluster.source.refresh()
            assert cluster.source.failure_count > 0
            answer = cluster.answer(query)
            assert answer.complete and answer.rows == oracle

    def test_callers_on_their_own_threads_stay_correct(self):
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
        ) as cluster, ThreadPoolExecutor(max_workers=6) as pool:
            answers = list(pool.map(cluster.answer, queries * 3))
        for index, answer in enumerate(answers):
            assert answer.rows == frozenset(expected[index % len(queries)])
            assert answer.complete

    def test_construction_errors(self, monkeypatch):
        pdms, data, _ = two_peer_system()
        monkeypatch.setenv("REPRO_SCAN_RETRIES", "banana")
        with pytest.raises(PDMSConfigurationError, match="REPRO_SCAN_RETRIES"):
            ServiceCluster(pdms=pdms, transport=LoopbackTransport(data))
        monkeypatch.delenv("REPRO_SCAN_RETRIES")
        with pytest.raises(TypeError):
            ServiceCluster(pdms)  # the transport is not optional

    def test_settings_reach_the_service_and_the_source(self):
        pdms, data, query = two_peer_system()
        with ServiceCluster(
            pdms=pdms, transport=LoopbackTransport(data), engine="backtracking",
            fragment_cache_bytes=0, scan_policy=ScanPolicy(retries=0),
        ) as cluster:
            assert cluster.service.pdms is pdms
            assert cluster.service.fragment_cache is None
            oracle = certain_answers(pdms, query, combine_peer_instances(data))
            assert cluster.answer(query).rows == frozenset(oracle)
            # The plan path would have compiled a plan; the oracle does not.
            assert cluster.service.stats_snapshot().plans_compiled == 0
            collected = cluster.service.metrics_snapshot()["collected"]
            assert collected["scan_policy"]["retries"] == 0

    def test_service_metrics_cover_the_source(self):
        pdms, data, query = two_peer_system()
        with ServiceCluster(
            pdms=pdms, transport=LoopbackTransport(data)
        ) as cluster:
            cluster.answer(query)
            assert cluster.service.stats_snapshot().misses == 1
            collected = cluster.service.metrics_snapshot()["collected"]
        assert {"service", "scatter", "scan_policy", "transport"} <= set(collected)
        assert collected["scatter"]["full_scans"] >= 2

    def test_answer_forwards_the_limit(self):
        workers = split_owners({(i, f"v{i}") for i in range(8)}, 2)
        query = parse_query("Q(x, y) :- T:R(x, y)")
        with ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=LoopbackTransport(workers),
        ) as cluster:
            whole = cluster.answer(query)
            first = cluster.answer(query, limit=3)
        assert len(whole) == 8
        assert len(first) == 3 and first.rows <= whole.rows and first.complete

    def test_an_answer_is_immutable(self):
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        with ServiceCluster(pdms=pdms, transport=transport) as cluster:
            transport.fail_peer("P2")
            answer = cluster.answer(query)
        with pytest.raises(FrozenInstanceError):
            answer.complete = True
        assert not answer.complete and hash(answer.failures)

    def test_close_releases_the_scatter_pool(self):
        pdms, data, query = two_peer_system()
        cluster = ServiceCluster(pdms=pdms, transport=LoopbackTransport(data))
        cluster.answer(query)
        cluster.close()
        with pytest.raises(TransportError, match="RemotePeerFactSource is closed"):
            cluster.source.refresh()

    def test_close_closes_the_transport(self):
        pdms, data, query = two_peer_system()
        transport = LoopbackTransport(data)
        cluster = ServiceCluster(pdms=pdms, transport=transport)
        cluster.answer(query)
        cluster.close()
        with pytest.raises(TransportError, match="closed"):
            transport.describe("P1")


def single_relation_pdms(*stored):
    """``T:R`` stored at peer ``P`` as ``sr`` or, for data split over
    several stores, as each of ``stored``: one sound storage description
    apiece, so ``T:R`` holds their union."""
    pdms = PDMS("single-relation")
    pdms.add_peer("T").add_relation("R", ["x", "y"])
    pdms.add_peer("P")
    for relation in stored or ("sr",):
        pdms.add_storage_description(StorageDescription(
            "P", relation, parse_query("V(x, y) :- T:R(x, y)"),
            exact=False, name=f"store_{relation}",
        ))
    return pdms


def split_owners(rows, owners):
    """``T:R``'s rows dealt round-robin into the stored relations ``sr0``
    … ``sr{owners-1}``, each at its own worker peer ``W0`` … (describe
    them with :func:`single_relation_pdms` over :func:`workers_relations`)."""
    rows = sorted(rows)
    return {
        f"W{index}": Instance.from_dict({f"sr{index}": rows[index::owners]})
        for index in range(owners)
    }


def workers_relations(workers):
    """The stored relations the ``workers`` of :func:`split_owners` hold."""
    return [relation for worker in workers.values() for relation in worker.relations()]


class TestClusterInsert:
    def test_a_write_reaches_its_owner_and_shows_in_answers(self):
        workers = split_owners({(i, f"v{i}") for i in range(8)}, 2)
        with ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=LoopbackTransport(workers),
        ) as cluster:
            assert cluster.insert("sr1", [(500, "new"), (501, "new")]) == 2
            assert {(500, "new"), (501, "new")} <= set(workers["W1"].get_tuples("sr1"))
            assert workers["W0"].relations() == ("sr0",)
            answer = cluster.answer(parse_query("Q(y) :- T:R(500, y)"))
            assert answer.complete and set(answer.rows) == {("new",)}

    def test_single_owner_receives_the_batch(self):
        inst = Instance.from_dict({"sr": {(1, "a")}})
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=LoopbackTransport({"P": inst})
        ) as cluster:
            assert cluster.insert("sr", [(2, "b")]) == 1
            assert (2, "b") in inst.get_tuples("sr")

    def test_duplicate_rows_are_counted_and_shipped_once(self):
        inst = Instance.from_dict({"sr": {(1, "a")}})

        class Recording(LoopbackTransport):
            def insert(self, peer, relation, rows):
                shipped.append((peer, list(rows)))
                return super().insert(peer, relation, rows)

        shipped = []
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=Recording({"P": inst})
        ) as cluster:
            assert cluster.insert("sr", [(2, "b"), (2, "b")]) == 1
        assert shipped == [("P", [(2, "b")])]

    def test_a_relation_no_peer_owns_is_a_configuration_error(self):
        with ServiceCluster(
            pdms=single_relation_pdms(),
            transport=LoopbackTransport({"P": Instance.from_dict({"sr": [(1, "a")]})}),
        ) as cluster:
            with pytest.raises(PDMSConfigurationError, match="no peer owns"):
                cluster.insert("nowhere", [(1,)])

    def test_empty_rows_are_free(self):
        transport = LoopbackTransport({"P": Instance.from_dict({"sr": [(1, "a")]})})
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=transport
        ) as cluster:
            frames = transport.rpc_count
            assert cluster.insert("sr", []) == 0
            assert transport.rpc_count == frames

    def test_insert_moves_the_version_token_by_the_next_answer(self):
        """The write is one frame and refreshes nothing; the next answer's
        refresh moves the relation's token, and its sibling's stays put."""
        workers = split_owners({(i, f"v{i}") for i in range(4)}, 2)
        transport = LoopbackTransport(workers)
        with ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=transport,
        ) as cluster:
            before = [cluster.source.data_version(r) for r in ("sr0", "sr1")]
            frames = transport.rpc_count
            cluster.insert("sr0", [(500, "new")])
            assert transport.rpc_count == frames + 1
            assert cluster.source.data_version("sr0") == before[0]
            assert (500, "new") in cluster.answer(parse_query("Q(x, y) :- T:R(x, y)")).rows
            assert cluster.source.data_version("sr0") != before[0]
            assert cluster.source.data_version("sr1") == before[1]

    @pytest.mark.parametrize("engine", [None, "backtracking"])
    @pytest.mark.parametrize("limit", [None, 1])
    def test_the_next_answer_reads_the_write(self, backend, engine, limit):
        """Read-your-writes with a one-frame write, on every answer path:
        the plan path and the oracle, whole and first-k, each refresh
        before they read; a row written straight into the owner's
        instance shows the same way."""
        workers = split_owners({(i, f"v{i}") for i in range(4)}, 2)
        transport = backend(workers)

        def read(text):
            return cluster.answer(parse_query(text), limit=limit).rows

        with ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=transport, engine=engine,
        ) as cluster:
            assert len(read("Q(x, y) :- T:R(x, y)")) == (4 if limit is None else 1)
            assert read("Q(y) :- T:R(500, y)") == frozenset()
            frames = transport.rpc_count
            cluster.insert("sr0", [(500, "new")])
            assert transport.rpc_count == frames + 1
            assert read("Q(y) :- T:R(500, y)") == {("new",)}
            assert read("Q(y) :- T:R(600, y)") == frozenset()
            transport.instance("W1").add("sr1", (600, "direct"))
            assert read("Q(y) :- T:R(600, y)") == {("direct",)}
            if limit is None:
                assert {(500, "new"), (600, "direct")} <= read("Q(x, y) :- T:R(x, y)")

    def test_rows_may_be_any_iterable(self):
        inst = Instance.from_dict({"sr": {(1, "a")}})
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=LoopbackTransport({"P": inst})
        ) as cluster:
            assert cluster.insert("sr", [[2, "b"], (2, "b"), iter((3, "c"))]) == 2
        assert {(2, "b"), (3, "c")} <= set(inst.get_tuples("sr"))

    def test_a_write_is_one_span_at_its_owner(self, tracer):
        workers = split_owners({(i, f"v{i}") for i in range(4)}, 2)
        with ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=LoopbackTransport(workers),
        ) as cluster:
            cluster.insert("sr1", [(9, "x"), (9, "x"), (10, "y")])
        (write,) = last_spans(tracer, "cluster.insert")
        assert write["parent_id"] is None
        assert write["attrs"] == {"relation": "sr1", "rows": 2}
        served = last_spans(tracer, "rpc.serve.insert")
        assert [span["attrs"]["peer"] for span in served] == ["W1"]
        assert {span["parent_id"] for span in served} == {write["span_id"]}

    def test_a_write_to_a_down_owner_raises_and_lands_nothing(self, backend):
        """The owner is down: the write raises, nothing lands anywhere, and
        once the owner is back the next answer is the old one, complete,
        and a retried write shows."""
        workers = split_owners({(i, f"v{i}") for i in range(8)}, 2)
        transport = backend(workers)
        query = parse_query("Q(x, y) :- T:R(x, y)")
        with ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=transport, scan_policy=ScanPolicy(retries=0),
        ) as cluster:
            before = cluster.answer(query)
            assert before.complete and len(before) == 8
            assert cluster.source.owner("sr1") == "W1"
            transport.fail_peer("W1")
            with pytest.raises(TransportError, match="W1"):
                cluster.insert("sr1", [(500, "new")])
            transport.restore_peer("W1")
            after = cluster.answer(query)
            assert after.complete and after.rows == before.rows
            cluster.insert("sr1", [(500, "new")])
            assert cluster.answer(query).rows == before.rows | {(500, "new")}


class TestSharedFragmentCache:
    """Clusters handed one :class:`FragmentCache` share its warm fragments;
    version tokens are instance-scoped, so sharing is safe."""

    def test_shared_cache_serves_second_cluster(self):
        workers = split_owners({(i, f"v{i}") for i in range(16)}, 2)
        shared = FragmentCache()
        query = parse_query("Q(y) :- T:R(3, y)")
        # Separate transports over the SAME live instances: both clusters
        # observe the same token space and may share cache entries.
        with ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=LoopbackTransport(workers), fragment_cache=shared,
        ) as first:
            assert set(first.answer(query).rows) == {("v3",)}
            assert shared.stats.admissions >= 1
        transport = LoopbackTransport(workers)
        with ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=transport, fragment_cache=shared,
        ) as second:
            assert second.service.fragment_cache is shared
            hits, misses = shared.stats.hits, shared.stats.misses
            answer = second.answer(query)
            assert answer.complete and set(answer.rows) == {("v3",)}
            assert shared.stats.hits > hits
            assert shared.stats.misses == misses  # nothing recomputed
            # `peek` finds the root warm and skips the scatter round: the
            # only scans are the first answer's one statistics read per
            # stored relation (one per worker), and a repeat touches no
            # worker at all.
            assert second.source.scatter_stats()["fanout_waves"] == 0
            scans = sum(transport.scan_count(p) for p in transport.peers())
            assert scans == len(workers)
            second.answer(query)
            assert sum(transport.scan_count(p) for p in transport.peers()) == scans

    @pytest.mark.parametrize("owners", [1, 2, 4])
    def test_clusters_sharing_a_cache_see_each_others_writes(self, owners):
        workers = split_owners({(i, f"v{i}") for i in range(16)}, owners)
        shared = FragmentCache()
        scan_all = parse_query("Q(x, y) :- T:R(x, y)")
        clusters = [
            ServiceCluster(
                pdms=single_relation_pdms(*workers_relations(workers)),
                transport=LoopbackTransport(workers), fragment_cache=shared,
            )
            for _ in range(2)
        ]
        writer, reader = clusters
        try:
            before = reader.answer(scan_all)
            assert before.complete and len(before.rows) == 16
            assert writer.answer(scan_all).rows == before.rows
            writer.insert("sr0", [(100, "new")])
            # The shared entry was written under the pre-insert token, so
            # the reader must not be served it.
            after = reader.answer(scan_all)
            assert after.complete
            assert after.rows == before.rows | {(100, "new")}
            assert writer.answer(scan_all).rows == after.rows
        finally:
            for cluster in clusters:
                cluster.close()

    def test_split_and_flat_clusters_sharing_a_cache_stay_apart(self):
        """Two clusters over different instances with the same relation
        names (``sr0`` is the flat cluster's one store and the split
        cluster's first): one shared cache never serves one cluster's
        fragment to the other."""
        flat = Instance.from_dict({"sr0": {(i, f"flat{i}") for i in range(8)}})
        split_rows = {(i, f"split{i}") for i in range(8)}
        workers = split_owners(split_rows, 2)
        shared = FragmentCache()
        query = parse_query("Q(x, y) :- T:R(x, y)")
        with ServiceCluster(
            pdms=single_relation_pdms("sr0"), transport=LoopbackTransport({"P": flat}),
            fragment_cache=shared,
        ) as flat_cluster, ServiceCluster(
            pdms=single_relation_pdms(*workers_relations(workers)),
            transport=LoopbackTransport(workers), fragment_cache=shared,
        ) as split_cluster:
            for _ in range(2):
                assert flat_cluster.answer(query).rows == set(flat.get_tuples("sr0"))
                assert split_cluster.answer(query).rows == split_rows


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
