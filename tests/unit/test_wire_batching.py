"""The batch frame on the socket wire (ISSUE 24): an exact RPC budget.

A 24-peer :class:`ServiceCluster` over :class:`AsyncSocketTransport`,
counted in frames, not milliseconds: the catalogue round of a refresh is
one frame (``describe_many``), every round of a scatter wave is one
frame (``scan_many``) — its first attempts, then the faulted units'
retries together — and everything that carried per-unit meaning — retry
budgets, chaos, data errors, trace parenting, transports without a
batch frame — still does.  The client sends every frame from
the caller's thread: one deadline per RPC, every reply paired with its
own request under concurrent callers, and a mangled reply read back as
a value or a ``TransportError``, never anything else.
"""

from __future__ import annotations

import asyncio
import contextlib
import pickle
import random
import socket
import struct
import sys
import threading
import time

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.errors import InstanceError, MappingError, TransportError
from repro.pdms import (
    PDMS,
    AsyncSocketTransport,
    LoopbackTransport,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
    StorageDescription,
)
from repro.pdms.distributed import async_transport
from repro.pdms.distributed.source import ScanFailure
from repro.pdms.distributed.transport import TraceEnvelope, encode_pattern

from test_trace_chaos import (  # noqa: F401 - `tracer` is a fixture
    LegacyTransport,
    assert_well_formed,
    last_spans,
    tracer,
)

PEERS = 24
ALL = (WILDCARD, WILDCARD)
EVERYTHING = encode_pattern(ALL)

#: No-sleep, no-jitter policies so tests stay fast and deterministic.
FAST = dict(backoff=0.0, backoff_cap=0.0, jitter=0.0)
POLICY = ScanPolicy(retries=2, **FAST)

QUERY = parse_query("Q(x, y) :- T:R(x, y)")


def peer_name(index: int) -> str:
    return f"P{index:02d}"


def wide_system():
    """``T:R`` stored piecewise on 24 peers, three rows each."""
    pdms = PDMS("wire-batching")
    pdms.add_peer("T").add_relation("R", ["x", "y"])
    data = {}
    for index in range(PEERS):
        name, stored = peer_name(index), f"s{index:02d}"
        pdms.add_peer(name)
        pdms.add_storage_description(StorageDescription(
            name, stored, parse_query("V(x, y) :- T:R(x, y)"),
            exact=False, name=f"store_{stored}",
        ))
        data[name] = Instance.from_dict(
            {stored: [(index, row) for row in range(3)]}
        )
    return pdms, data


def rows_of(peers) -> frozenset:
    return frozenset((index, row) for index in peers for row in range(3))


class CountingSocket(AsyncSocketTransport):
    """Records the op of every frame that actually crosses the socket."""

    def __init__(self, *args, **kwargs):
        self.frames = []
        super().__init__(*args, **kwargs)

    def _exchange(self, frame):
        self.frames.append(frame[0])
        return super()._exchange(frame)


class BrokenScans(CountingSocket):
    """Serves catalogues for every peer but faults ``broken``'s scans remotely."""

    broken = frozenset()

    async def _serve(self, op, peer, payload, ctx=None):
        if op == "scan_since" and peer in self.broken:
            raise TransportError("disk on fire", peer=peer)
        return await super()._serve(op, peer, payload, ctx)


class BareTransport:
    """The four-method contract and nothing else: no base class, no batch."""

    def __init__(self, inner):
        self._inner = inner

    def peers(self):
        return self._inner.peers()

    def describe(self, peer):
        return self._inner.describe(peer)

    def scan_batch(self, peer, requests):
        return self._inner.scan_batch(peer, requests)

    def scan_batch_since(self, peer, requests):
        return self._inner.scan_batch_since(peer, requests)

    def insert(self, peer, relation, rows):
        return self._inner.insert(peer, relation, rows)

    def close(self):
        self._inner.close()


def cluster_over(transport, pdms, policy=POLICY, **kwargs):
    return ServiceCluster(pdms=pdms, transport=transport, scan_policy=policy, **kwargs)


def drop_scans(cluster) -> None:
    cluster.source.drop_memo()
    cluster.service.fragment_cache.clear()


def planned(cluster, transport) -> None:
    """Answer once so reformulation and plan are cached (compiling a plan
    reads whole relations for its statistics, one cold scan apiece), then
    forget the scans: what follows is a cold *scan*, as in the benchmark."""
    assert cluster.answer(QUERY).complete
    drop_scans(cluster)
    del transport.frames[:]


@pytest.fixture
def wide():
    pdms, data = wide_system()
    transport = CountingSocket(data)
    with cluster_over(transport, pdms) as cluster:
        yield cluster, transport


# ---------------------------------------------------------------------------
# The budget
# ---------------------------------------------------------------------------


class TestFrameBudget:
    def test_construction_describes_every_peer_in_one_frame(self, wide):
        _, transport = wide
        assert transport.frames == ["batch"]
        assert transport.rpc_count == 1

    def test_cold_answer_is_two_frames_and_warm_is_one(self, wide):
        cluster, transport = wide
        planned(cluster, transport)
        first = cluster.answer(QUERY)
        assert first.rows == rows_of(range(PEERS)) and first.complete
        assert transport.frames == ["batch", "batch"]  # catalogues, scan wave

        del transport.frames[:]
        assert cluster.answer(QUERY) == first
        assert transport.frames == ["batch"]  # catalogues only

        drop_scans(cluster)
        del transport.frames[:]
        assert cluster.answer(QUERY) == first
        assert transport.frames == ["batch", "batch"]
        # Every peer's scan was served, each counted for its own peer:
        # one for the plan's statistics, two cold waves.
        assert all(
            transport.scan_count(peer_name(index)) == 3 for index in range(PEERS)
        )

    def test_insert_is_one_frame(self, wide):
        cluster, transport = wide
        cluster.answer(QUERY)
        del transport.frames[:]
        cluster.insert("s07", [(7, 99)])
        assert transport.frames == ["insert"]
        answer = cluster.answer(QUERY)
        assert (7, 99) in answer.rows and answer.complete

    def test_rpc_count_counts_frames(self, wide):
        cluster, transport = wide
        planned(cluster, transport)
        before = transport.rpc_count
        cluster.answer(QUERY)
        cluster.answer(QUERY)
        cluster.insert("s00", [(0, 77)])
        drop_scans(cluster)
        cluster.answer(QUERY)
        assert transport.frames.count("batch") == 5  # 3 catalogue rounds, 2 waves
        assert transport.rpc_count - before == len(transport.frames) == 6
        assert transport.transport_metrics()["rpc_count"] == transport.rpc_count

    def test_one_connection_serves_the_whole_sequence(self, wide):
        cluster, transport = wide
        planned(cluster, transport)
        cluster.answer(QUERY)
        cluster.answer(QUERY)
        assert len(transport._pool) == 1


class TestConcurrentCallers:
    def test_overlapping_cold_answers_each_get_their_own_outcomes(self, wide):
        # More callers than cores, every answer a cold wave: frames from
        # different threads interleave on the loop and in the pool, and a
        # sub-request outcome handed to the wrong unit would lose rows.
        cluster, transport = wide
        planned(cluster, transport)
        before = transport.rpc_count
        expected = rows_of(range(PEERS))
        wrong = []

        def caller():
            for _ in range(15):
                drop_scans(cluster)
                answer = cluster.answer(QUERY)
                if answer.rows != expected or not answer.complete:
                    wrong.append(answer)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # (A scan another caller's drop_scans() forgot mid-answer is
        # re-fetched alone, so not every frame here is a batch.)
        assert transport.rpc_count - before == len(transport.frames)


# ---------------------------------------------------------------------------
# Per-unit meaning survives the frame
# ---------------------------------------------------------------------------


class TestFailedUnits:
    def test_one_broken_peer_loses_only_its_rows_and_retries_in_frames(self):
        pdms, data = wide_system()
        transport = BrokenScans(data)
        with cluster_over(transport, pdms) as cluster:
            planned(cluster, transport)
            transport.broken = frozenset({"P05"})
            answer = cluster.answer(QUERY)
            assert not answer.complete
            assert answer.rows == rows_of(i for i in range(PEERS) if i != 5)
            assert answer.failures == (
                ScanFailure("P05", "s05", "peer 'P05' RPC failed: disk on fire"),
            )
            # The catalogues, the wave's first frame, then one frame per retry.
            assert transport.frames == ["batch"] * (2 + POLICY.retries)
            assert cluster.source.scatter_stats()["retries"] == POLICY.retries

            transport.broken = frozenset()
            healed = cluster.answer(QUERY)
            assert healed.complete and healed.rows == rows_of(range(PEERS))

    def test_several_peers_with_broken_scans_retry_side_by_side(self):
        pdms, data = wide_system()
        transport = BrokenScans(data)
        with cluster_over(transport, pdms) as cluster:
            planned(cluster, transport)
            transport.broken = frozenset({"P01", "P02", "P03"})
            answer = cluster.answer(QUERY)
            assert not answer.complete
            assert answer.rows == rows_of(range(4, PEERS)) | rows_of([0])
            assert {failure.peer for failure in answer.failures} == transport.broken
            assert cluster.source.scatter_stats()["retries"] == 3 * POLICY.retries
            # The three retry together: one frame per round, not one per unit.
            assert transport.frames == ["batch"] * (2 + POLICY.retries)

    def test_a_peer_failed_before_the_wave_never_rides_a_frame(self):
        # Catalogues arrive, then the peer goes down: its sub-request is
        # refused client-side in every round and never rides a frame.
        pdms, data = wide_system()
        transport = CountingSocket(data)
        with cluster_over(transport, pdms) as cluster:
            source = cluster.source
            transport.fail_peer("P09")
            del transport.frames[:]
            fetched = source.prefetch(
                [(f"s{index:02d}", ALL) for index in range(PEERS)]
            )
            assert fetched == PEERS
            assert transport.frames == ["batch"]
            assert source.degraded_relations == ("s09",)
            assert source.get_matching("s10", ALL) == tuple(
                (10, row) for row in range(3)
            )

    def test_drop_every_n_drops_every_nth_scan_sub_request(self):
        _, data = wide_system()
        transport = CountingSocket(data, drop_every_n=3)
        try:
            batches = [
                (peer_name(index), [(f"s{index:02d}", EVERYTHING, None)], None)
                for index in range(10)
            ]
            outcomes = transport.scan_many(batches)
            dropped = [
                index for index, outcome in enumerate(outcomes)
                if isinstance(outcome, TransportError)
            ]
            assert dropped == [2, 5, 8]
            assert all("dropped (injected)" in str(outcomes[i]) for i in dropped)
            for index, outcome in enumerate(outcomes):
                if index not in dropped:
                    [(full, _token, rows)] = outcome
                    assert full and len(rows) == 3
            assert transport.frames == ["batch"]
            assert transport.scan_count("P02") == 0
            assert transport.scan_count("P03") == 1
        finally:
            transport.close()

    def test_dropped_sub_requests_heal_on_their_units_retries(self):
        pdms, data = wide_system()
        transport = CountingSocket(data)
        with cluster_over(transport, pdms) as cluster:
            planned(cluster, transport)
            transport.drop_every_n = 5
            answer = cluster.answer(QUERY)
            assert answer.complete and answer.rows == rows_of(range(PEERS))
            assert transport.frames[:2] == ["batch", "batch"]
            assert cluster.source.scatter_stats()["retries"] >= 4


class TestDataErrors:
    def test_sub_request_data_errors_keep_their_type(self):
        _, data = wide_system()
        transport = CountingSocket(data)
        try:
            clash, fine = transport.scan_many([
                ("P00", [("s00", encode_pattern((WILDCARD,)), None)], None),
                ("P01", [("s01", EVERYTHING, None)], None),
            ])
            assert type(clash) is ValueError
            assert len(fine[0][2]) == 3
            [invalid] = transport._batch([("insert", "P00", ("s00", [(1,)]), None)])
            assert type(invalid) is InstanceError
            # Data errors are replies like any other: the stream stays paired.
            assert transport.ping("P00")
            assert len(transport._pool) == 1
        finally:
            transport.close()

    def test_a_batched_arity_clash_raises_from_prefetch(self, wide):
        cluster, _ = wide
        with pytest.raises(ValueError):
            cluster.source.prefetch([("s00", (WILDCARD,)), ("s01", ALL)])


class TestTracing:
    def test_serve_spans_parent_under_their_scan_attempt(self, tracer):
        pdms, data = wide_system()
        transport = CountingSocket(data)
        with cluster_over(transport, pdms) as cluster:
            planned(cluster, transport)
            answer = cluster.answer(QUERY)
            assert answer.complete
            assert transport.frames == ["batch", "batch"]
        assert_well_formed(tracer)
        spans = last_spans(tracer)
        by_id = {record["span_id"]: record for record in spans}
        serves = [r for r in spans if r["name"] == "rpc.serve.scan_since"]
        assert len(serves) == PEERS and all(r.get("remote") for r in serves)
        parents = [by_id[record["parent_id"]] for record in serves]
        assert all(parent["name"] == "scan.attempt" for parent in parents)
        assert len({parent["span_id"] for parent in parents}) == PEERS
        for serve, attempt in zip(serves, parents):
            assert attempt["attrs"]["peer"] == serve["attrs"]["peer"]
            assert attempt["attrs"]["kind"] == "primary"
            assert by_id[attempt["parent_id"]]["name"] == "scan.unit"

    def test_failed_batched_attempts_close_their_spans_once(self, tracer):
        pdms, data = wide_system()
        transport = BrokenScans(data)
        with cluster_over(transport, pdms) as cluster:
            planned(cluster, transport)
            transport.broken = frozenset({"P05"})
            assert not cluster.answer(QUERY).complete
        assert_well_formed(tracer)
        attempts = [
            r for r in last_spans(tracer, "scan.attempt")
            if r["attrs"]["peer"] == "P05"
        ]
        assert [r["attrs"]["kind"] for r in attempts] == ["primary", "retry", "retry"]
        assert all(r["status"] == "error" for r in attempts)

    def test_a_data_error_leaves_no_span_open(self, tracer):
        pdms, data = wide_system()
        with cluster_over(CountingSocket(data), pdms) as cluster:
            with tracer.start_trace("query.answer"):
                with pytest.raises(ValueError):
                    cluster.source.prefetch(
                        [("s00", (WILDCARD,)), ("s01", ALL), ("s02", ALL)]
                    )
        assert_well_formed(tracer)


# ---------------------------------------------------------------------------
# The per-peer defaults: loopback subclasses, and a transport with no base
# ---------------------------------------------------------------------------


class TestPerPeerDefault:
    @pytest.mark.parametrize("wrap", [LegacyTransport, lambda data: BareTransport(LoopbackTransport(data))])
    def test_older_transports_answer_identically(self, wrap, wide):
        batched, _ = wide
        pdms, data = wide_system()
        with cluster_over(wrap(data), pdms) as cluster:
            answer = cluster.answer(QUERY)
            assert answer.complete
            assert answer.rows == batched.answer(QUERY).rows
            cluster.insert("s03", [(3, 42)])
            assert (3, 42) in cluster.answer(QUERY).rows

    def test_the_default_describes_through_the_overridable_describe(self):
        _, data = wide_system()
        seen = []

        class Watching(LoopbackTransport):
            def describe(self, peer):
                seen.append(peer)
                return super().describe(peer)

        transport = Watching(data)
        transport.fail_peer("P03")
        catalogs = transport.describe_many(["P02", "P03", "P04"])
        assert seen == ["P02", "P03", "P04"]
        assert list(catalogs) == ["P02", "P03", "P04"]
        assert isinstance(catalogs["P03"], TransportError)
        assert catalogs["P02"]["s02"][:2] == (2, 3)


# ---------------------------------------------------------------------------
# Satellite: dead peers share one backoff ladder
# ---------------------------------------------------------------------------


class TestRefreshRetry:
    DEAD = ("P03", "P11", "P17")

    @pytest.mark.parametrize("factory", [LoopbackTransport, AsyncSocketTransport])
    def test_dead_peers_are_retried_as_one_batch_per_round(self, factory):
        _, data = wide_system()
        rounds = []

        class Watching(factory):
            def describe_many(self, peers):
                rounds.append(tuple(peers))
                return super().describe_many(peers)

        transport = Watching(data)
        source = None
        try:
            for peer in self.DEAD:
                transport.fail_peer(peer)
            source = RemotePeerFactSource(transport, policy=POLICY)
            everyone = tuple(peer_name(index) for index in range(PEERS))
            assert rounds == [everyone] + [self.DEAD] * POLICY.retries
            assert source.unreachable_peers == self.DEAD
            assert source.failures() == tuple(
                ScanFailure(peer, "*", f"peer {peer!r} is unreachable")
                for peer in self.DEAD
            )
            assert not source.complete
            # Their relations dropped out of the routing table ...
            assert source.owner("s03") is None and source.data_version("s03") == ()
            assert source.owner("s04") == "P04"
            before = source.data_version("s04")

            # ... and coming back moves exactly their version tokens.
            for peer in self.DEAD:
                transport.restore_peer(peer)
            del rounds[:]
            source.refresh()
            assert rounds == [everyone]
            assert source.unreachable_peers == () and source.complete
            assert source.data_version("s03") != ()
            assert source.data_version("s04") == before
        finally:
            if source is not None:
                source.close()
            transport.close()

    def test_a_peer_that_answers_on_retry_keeps_its_place_in_the_routes(self):
        data = {
            name: Instance.from_dict({f"r{name}": [(1, 1)]}) for name in ("A", "B", "C")
        }

        class FlakyOnce(LoopbackTransport):
            flaked = False

            def describe(self, peer):
                if peer == "A" and not self.flaked:
                    self.flaked = True
                    raise TransportError("hiccup", peer=peer)
                return super().describe(peer)

        source = RemotePeerFactSource(FlakyOnce(data), policy=POLICY)
        assert source.relations() == ("rA", "rB", "rC")
        assert [source.owner(f"r{name}") for name in "ABC"] == ["A", "B", "C"]
        assert source.complete and source.failure_count == 0

    def test_cross_peer_arity_clash_still_names_both_peers(self):
        transport = AsyncSocketTransport({
            "A": Instance.from_dict({"r": [(1, 2)]}),
            "B": Instance.from_dict({"r": [(1, 2, 3)]}),
        })
        try:
            with pytest.raises(MappingError, match="served by peer 'A' and by peer 'B'"):
                RemotePeerFactSource(transport, policy=POLICY)
        finally:
            transport.close()


# ---------------------------------------------------------------------------
# The conditional catalogue round: "unchanged" instead of a whole catalog
# ---------------------------------------------------------------------------


#: The two ways a refresh is served: the socket's conditional batch frame,
#: and the per-peer default (whole catalogs, compared with the committed ones).
BACKENDS = [CountingSocket, LoopbackTransport]


@contextlib.contextmanager
def conditional_source(factory, data):
    transport = factory(data)
    source = RemotePeerFactSource(transport, policy=POLICY)
    try:
        yield source, transport
    finally:
        source.close()
        transport.close()


class TestConditionalRound:
    def test_an_unchanged_round_ships_a_fifth_of_a_full_rounds_bytes(self, monkeypatch):
        replies = []
        encode = async_transport._encode_frame

        def counting(obj):
            data = encode(obj)
            if obj[0] == "ok":
                replies.append((obj[1], len(data)))
            return data

        monkeypatch.setattr(async_transport, "_encode_frame", counting)
        pdms, data = wide_system()
        transport = CountingSocket(data)
        with cluster_over(transport, pdms) as cluster:
            [(catalogs, first)] = replies  # construction: every peer in full
            assert all(type(value) is tuple for _, value in catalogs)
            # A full round without tokens: every catalog, nothing else.
            transport.describe_many(transport.peers())
            full = replies[-1][1]
            assert full < first
            cluster.answer(QUERY)  # compiles the plan: its statistics scans
            del replies[:]
            assert cluster.source.refresh() == 0
            [(unchanged, size)] = replies
            assert [value for _, value in unchanged] == [None] * PEERS
            assert size * 5 <= full
            # A write moves only its owner's token: one catalog re-ships.
            cluster.insert("s07", [(7, 99)])
            del replies[:]
            assert cluster.source.refresh() == 1
            [(after_write, _)] = replies
            assert [index for index, (_, value) in enumerate(after_write)
                    if value is not None] == [7]
            # The read after it: its catalogue round, then the one delta wave.
            del transport.frames[:]
            assert (7, 99) in cluster.answer(QUERY).rows
            assert transport.frames == ["batch", "batch"]

    @pytest.mark.parametrize("factory", BACKENDS)
    def test_a_refused_refresh_advances_nothing_and_is_refused_again(self, factory):
        data = {
            "A": Instance.from_dict({"r": [(1, 2)]}),
            "B": Instance.from_dict({"q": [(3, 4)]}),
        }
        with conditional_source(factory, data) as (source, transport):
            before = (source.relations(), source.data_version("r"),
                      source.data_version("q"), source.cardinality("r"))
            transport.instance("A").add("r", (5, 6))
            transport.instance("B").add("r", (7, 8))  # a second owner of r
            for _ in range(2):
                with pytest.raises(MappingError, match="served by peer 'A' and by peer 'B'"):
                    source.refresh()
                assert (source.relations(), source.data_version("r"),
                        source.data_version("q"), source.cardinality("r")) == before
                assert source.owner("r") == "A"

    @pytest.mark.parametrize("factory", BACKENDS)
    def test_a_restored_peer_is_asked_without_a_token(self, factory):
        _, data = wide_system()
        asked = []

        class Watching(factory):
            def describe_many(self, peers):
                asked.append(dict(peers))
                return super().describe_many(peers)

        with conditional_source(Watching, data) as (source, transport):
            transport.fail_peer("P03")
            source.refresh()
            assert source.owner("s03") is None and source.unreachable_peers == ("P03",)
            transport.restore_peer("P03")
            del asked[:]
            assert source.refresh() == 1
            assert asked[0]["P03"] is None
            if factory is CountingSocket:
                assert all(asked[0][peer] is not None for peer in asked[0] if peer != "P03")
            assert source.owner("s03") == "P03" and source.complete
            assert set(source.get_matching("s03", ALL)) == {(3, row) for row in range(3)}

    @pytest.mark.parametrize("factory", BACKENDS)
    def test_a_row_added_on_the_served_instance_is_in_the_next_answer(self, factory):
        pdms, data = wide_system()
        with cluster_over(factory(data), pdms) as cluster:
            first = cluster.answer(QUERY)
            data["P05"].add("s05", (5, 99))  # not through insert
            answer = cluster.answer(QUERY)
            assert answer.rows == first.rows | {(5, 99)} and answer.complete

    @pytest.mark.parametrize("factory", BACKENDS)
    def test_an_unchanged_round_clears_the_degraded_relations(self, factory):
        _, data = wide_system()
        with conditional_source(factory, data) as (source, transport):
            transport.drop_every_n = 1
            assert source.get_matching("s05", ALL) == ()
            assert source.degraded_relations == ("s05",) and not source.complete
            transport.drop_every_n = 0
            failures = source.failure_count
            assert source.refresh() == 0
            assert source.degraded_relations == () and source.complete
            assert source.failure_count == failures
            assert set(source.get_matching("s05", ALL)) == {(5, row) for row in range(3)}

    @pytest.mark.parametrize("factory", BACKENDS)
    def test_concurrent_refreshes_never_commit_a_token_without_its_catalog(self, factory):
        # Writers and refreshers race on one source; a token committed
        # with an older catalog would make the last refresh answer
        # "unchanged" over a catalog that misses rows.
        _, data = wide_system()
        writers = ("P01", "P02", "P03")
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with conditional_source(factory, data) as (source, transport):
                def write(peer):
                    for row in range(40):
                        transport.insert(peer, f"s{peer[1:]}", [(-1, row)])
                        source.refresh()

                def refresh():
                    for _ in range(60):
                        source.refresh()

                threads = [threading.Thread(target=write, args=(peer,)) for peer in writers]
                threads += [threading.Thread(target=refresh) for _ in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                source.refresh()
                for peer in writers:
                    relation = f"s{peer[1:]}"
                    assert source.cardinality(relation) == 43
                    assert source.data_version(relation) == (data[peer].data_version(relation),)
        finally:
            sys.setswitchinterval(switch)

    def test_the_refresh_span_counts_the_changed_peers(self, tracer):
        pdms, data = wide_system()
        with cluster_over(CountingSocket(data), pdms) as cluster:
            cluster.answer(QUERY)
            cluster.answer(QUERY)
            [span] = last_spans(tracer, "source.refresh")
            assert span["attrs"]["changed"] == 0
            cluster.insert("s11", [(11, 5)])
            cluster.answer(QUERY)
            [span] = last_spans(tracer, "source.refresh")
            assert span["attrs"]["changed"] == 1


# ---------------------------------------------------------------------------
# Satellite: the frame length is capped
# ---------------------------------------------------------------------------


def read_frame_from(data: bytes, eof: bool = True):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return await async_transport._read_frame(reader)

    return asyncio.run(go())


#: Calls of :func:`marker`: a frame decoder that runs code from a frame
#: appends here.
MARKER_CALLS = []


def marker(*args):
    MARKER_CALLS.append(args)
    return ("ping", "P00", None)


class RunsMarker:
    """Pickles to a call of :func:`marker`, as a hostile frame would."""

    def __reduce__(self):
        return (marker, ("ran",))


def framed(obj) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(4, "big") + data


def swap_in_server(transport, address):
    """Point ``transport``'s client at ``address`` with no idle connection
    left to the real server; returns the real address."""
    real = transport._address
    while transport._pool:
        transport._pool.pop().close()
    transport._address = address
    return real


class TestFrameCap:
    def test_read_frame_rejects_what_it_cannot_trust(self):
        MARKER_CALLS.clear()
        assert read_frame_from(b"") is None  # orderly EOF between frames
        with pytest.raises(TransportError, match="over the .*-byte cap"):
            read_frame_from(b"\xff\xff\xff\xff", eof=False)
        with pytest.raises(TransportError, match="truncated"):
            read_frame_from((100).to_bytes(4, "big") + b"short")
        with pytest.raises(TransportError, match="undecodable"):
            read_frame_from((4).to_bytes(4, "big") + b"junk")
        with pytest.raises(TransportError, match="undecodable.*marker"):
            read_frame_from(framed(RunsMarker()))
        assert MARKER_CALLS == []

    def test_read_frame_admits_the_trace_envelope(self):
        frame = read_frame_from(framed(("ok", TraceEnvelope([(1, None)], ()))))
        status, envelope = frame
        assert status == "ok" and isinstance(envelope, TraceEnvelope)
        assert envelope.value == [(1, None)] and envelope.spans == ()

    def test_client_refuses_a_reply_that_names_code(self, wide):
        _, transport = wide
        MARKER_CALLS.clear()
        listener = socket.create_server(("127.0.0.1", 0))

        def hostile_server():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(framed(("ok", RunsMarker())))
                conn.recv(1)  # hold the line until the client hangs up

        thread = threading.Thread(target=hostile_server, daemon=True)
        thread.start()
        real_address = swap_in_server(transport, listener.getsockname())
        try:
            with pytest.raises(TransportError, match="undecodable"):
                transport.ping("P00")
            assert transport._pool == []
        finally:
            transport._address = real_address
            listener.close()
        thread.join(timeout=5.0)
        assert MARKER_CALLS == []
        assert transport.ping("P00")

    @pytest.mark.parametrize("garbage", [
        b"\xff\xff\xff\xff",                      # announces 4 GiB
        b"GET / HTTP/1.1\r\n\r\n",                # not this protocol at all
        (100).to_bytes(4, "big") + b"short",      # truncated, then hangs up
        (4).to_bytes(4, "big") + b"junk",         # framed, not a pickle
        framed(RunsMarker()),                     # a pickle that runs code
    ])
    def test_server_drops_a_bad_connection_and_keeps_serving(self, wide, garbage):
        cluster, transport = wide
        MARKER_CALLS.clear()
        with socket.create_connection(transport.address, timeout=5.0) as raw:
            raw.sendall(garbage)
            raw.shutdown(socket.SHUT_WR)
            assert raw.recv(1024) == b""  # closed on us, nothing served
        assert MARKER_CALLS == []
        assert transport.ping("P00")
        assert cluster.answer(QUERY).complete

    def test_client_never_repools_a_connection_with_a_bad_reply(self, wide):
        _, transport = wide
        listener = socket.create_server(("127.0.0.1", 0))

        def hostile_server():
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(b"\xff\xff\xff\xff")
                    conn.recv(1)  # hold the line until the client hangs up

        thread = threading.Thread(target=hostile_server, daemon=True)
        thread.start()
        real_address = swap_in_server(transport, listener.getsockname())
        try:
            with pytest.raises(TransportError, match="over the .*-byte cap"):
                transport.ping("P00")
            assert transport._pool == []
            catalogs = transport.describe_many(["P00", "P01"])
            assert all(isinstance(c, TransportError) for c in catalogs.values())
            assert transport._pool == []
        finally:
            transport._address = real_address
            listener.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert transport.ping("P00")

    def test_an_oversized_reply_becomes_an_error_not_a_dead_connection(
        self, wide, monkeypatch
    ):
        _, transport = wide
        transport.insert("P00", "s00", [(0, row) for row in range(3, 300)])
        monkeypatch.setattr(async_transport, "MAX_FRAME_BYTES", 256)
        with pytest.raises(TransportError, match="exceeds the 256-byte cap"):
            transport.scan_batch("P00", [("s00", EVERYTHING)])
        assert transport.ping("P00")  # same connection, still in step
        assert len(transport._pool) == 1


# ---------------------------------------------------------------------------
# The caller-thread client: one deadline, many callers, a reader fuzzed
# ---------------------------------------------------------------------------


class TestWholeRpcDeadline:
    def test_a_trickled_reply_times_out_at_the_deadline_not_per_chunk(self):
        # Every byte arrives well inside the timeout, the whole reply well
        # after it: a read that re-armed the timeout per chunk would wait
        # out the trickle and pair the late bytes with this call.
        _, data = wide_system()
        transport = AsyncSocketTransport(data, timeout=0.2)
        listener = socket.create_server(("127.0.0.1", 0))
        reply = framed(("ok", "pong" + "x" * 200))

        def trickler():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                for byte in reply:
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:
                        return  # the client hung up: done
                    time.sleep(0.02)

        thread = threading.Thread(target=trickler, daemon=True)
        thread.start()
        try:
            real = swap_in_server(transport, listener.getsockname())
            start = time.monotonic()
            with pytest.raises(TransportError, match="timed out") as excinfo:
                transport.ping("P00")
            elapsed = time.monotonic() - start
            assert 0.15 < elapsed < 1.0  # the trickle would take ≈ 4.3 s
            assert excinfo.value.peer == "P00"
            assert transport._pool == []  # never re-pooled
            transport._address = real
            assert transport.ping("P00")
        finally:
            listener.close()
            transport.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestManyCallers:
    CALLERS = 7  # with the server's loop, the eight threads this test starts
    PEERS = 4

    def test_every_reply_pairs_with_its_own_request(self, monkeypatch):
        # Caller c owns relation t{c} at peer P{c % 4}: it alone writes
        # it, so every scan and catalogue it reads back is exact.
        opened = []
        connect = socket.create_connection

        def recording(*args, **kwargs):
            sock = connect(*args, **kwargs)
            opened.append(sock)
            return sock

        monkeypatch.setattr(socket, "create_connection", recording)
        data = {f"P{p}": Instance() for p in range(self.PEERS)}
        for caller in range(self.CALLERS):
            data[f"P{caller % self.PEERS}"].add_all(f"t{caller}", [(caller, -1)])
        threads_before = set(threading.enumerate())
        transport = AsyncSocketTransport(data, pool_size=1)
        assert set(threading.enumerate()) - threads_before == {transport._thread}
        assert transport._pool_cap == self.PEERS < self.CALLERS
        wrong, over_cap = [], []
        one_column = encode_pattern((WILDCARD, WILDCARD))

        def caller(index):
            peer, relation = f"P{index % self.PEERS}", f"t{index}"
            expected = {(index, -1)}
            for step in range(25):
                if transport.insert(peer, relation, [(index, step)]) != 1:
                    wrong.append((index, "insert"))
                expected.add((index, step))
                [scan] = transport.scan_many([(peer, [(relation, one_column, None)], None)])
                if set(scan[0][2].iter_rows()) != expected:
                    wrong.append((index, "scan", step))
                catalogs = transport.describe_many([peer, "P0"])
                if catalogs[peer][relation][1] != len(expected) or set(catalogs["P0"]) != {
                    f"t{c}" for c in range(0, self.CALLERS, self.PEERS)
                }:
                    wrong.append((index, "describe", step))
                if len(transport._pool) > transport._pool_cap:
                    over_cap.append(len(transport._pool))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(index,))
                for index in range(self.CALLERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            # The callers ran on their own threads: the loop is still the
            # only thread the transport started.
            assert set(threading.enumerate()) - threads_before == {transport._thread}
            assert wrong == [] and over_cap == []
            assert 0 < len(transport._pool) <= transport._pool_cap
            assert transport.rpc_count == self.CALLERS * 25 * 3
        finally:
            transport.close()
        assert set(threading.enumerate()) <= threads_before
        assert opened and all(sock.fileno() == -1 for sock in opened)


@contextlib.contextmanager
def replying(transport, data: bytes):
    """Make ``transport``'s one idle connection a socket pair whose far
    end has sent ``data`` and hung up: the next RPC reads ``data`` back."""
    ours, theirs = socket.socketpair()
    theirs.settimeout(2.0)
    with ours, theirs:
        ours.sendall(data)
        ours.shutdown(socket.SHUT_WR)
        transport._pool[:] = [theirs]
        yield theirs


def recorded_reply(address, request) -> bytes:
    """The bytes the server answers ``request`` with: one whole frame."""
    with socket.create_connection(address, timeout=5.0) as raw:
        raw.sendall(framed(request))
        header = raw.recv(4, socket.MSG_WAITALL)
        return header + raw.recv(int.from_bytes(header, "big"), socket.MSG_WAITALL)


class TestClientReaderFuzz:
    def test_mangled_replies_give_the_value_or_a_transport_error(self, tracer):
        """Recorded replies, truncated, over the cap and bit-flipped, fed
        to the client through a socket pair.

        An intact reply reads back as itself, and a truncated or
        over-cap one is a ``TransportError``.  A flipped one may also
        read back as some other well-formed value (a flip inside a string
        or a number decodes; only a checksum could tell, and TCP carries
        its own).  Nothing else escapes, nothing hangs, a failed read is
        never re-pooled, and no frame runs code.
        """
        rng = random.Random(20261019)
        MARKER_CALLS.clear()
        _, data = wide_system()
        transport = AsyncSocketTransport(data, timeout=1.0)
        try:
            with tracer.start_trace("fuzz") as span:
                context = span.wire_context()
            names = [peer_name(index) for index in range(PEERS)]
            replies = [
                recorded_reply(
                    transport.address,
                    ("batch", [("describe", name, None, None) for name in names]),
                ),
                recorded_reply(
                    transport.address, ("scan_since", "P03", [("s03", EVERYTHING, None)])
                ),
                recorded_reply(
                    transport.address,
                    ("scan_since", "P04", [("s04", EVERYTHING, None)], context),
                ),
            ]
            assert isinstance(pickle.loads(replies[2][4:])[1], TraceEnvelope)

            def read(data: bytes):
                with replying(transport, data) as theirs:
                    try:
                        value = transport._exchange(("ping", "P00", None))
                    except TransportError as exc:
                        assert "timed out" not in str(exc)  # the stream ended: no wait
                        assert transport._pool == []
                        return exc
                    assert transport._pool == [theirs]
                    return value

            cases = 0
            for reply in replies:
                assert unwrapped(read(reply)) == unwrapped(pickle.loads(reply[4:]))
            assert "undecodable" in str(read(framed(RunsMarker())))
            for reply in replies + [framed(RunsMarker())]:
                cuts = range(len(reply)) if len(reply) < 64 else sorted(
                    rng.sample(range(len(reply)), 60) + [0, 3, 4]
                )
                for cut in cuts:
                    assert isinstance(read(reply[:cut]), TransportError)
                for header in (b"\xff\xff\xff\xff",
                               (async_transport.MAX_FRAME_BYTES + 1).to_bytes(4, "big")):
                    assert isinstance(read(header + reply[4:]), TransportError)
                for _ in range(120):
                    flipped = bytearray(reply)
                    for _ in range(rng.randint(1, 3)):
                        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
                    read(bytes(flipped))  # a value or a TransportError
                cases += len(cuts) + 122
            assert cases > 500
        finally:
            transport._pool.clear()
            transport.close()
        assert MARKER_CALLS == []


    @pytest.mark.parametrize("payload", [
        5, None, "clash", ("a", "b", "c"), ("ValueError",), (1, "clash"),
        ("ValueError", None), ["ValueError", "clash"],
    ], ids=repr)
    def test_a_malformed_data_error_is_a_transport_error_naming_the_peer(
        self, payload
    ):
        _, data = wide_system()
        transport = AsyncSocketTransport(data, timeout=1.0)
        scans = [("s03", EVERYTHING, None)]
        try:
            with replying(transport, framed(("data_error", payload))):
                with pytest.raises(TransportError, match="peer 'P03'") as lone:
                    transport.scan_batch_since("P03", scans)
            assert lone.value.peer == "P03"
            with replying(transport, framed(("ok", [("data_error", payload)]))):
                [batched] = transport.scan_many([("P03", scans, None)])
            assert type(batched) is TransportError and batched.peer == "P03"
            # A well-formed one is still the data error it names.
            for kind, error in (("ValueError", ValueError), ("InstanceError", InstanceError)):
                reply = ("data_error", (kind, "clash"))
                with replying(transport, framed(reply)):
                    with pytest.raises(error, match="clash"):
                        transport.scan_batch_since("P03", scans)
                with replying(transport, framed(("ok", [reply]))):
                    [batched] = transport.scan_many([("P03", scans, None)])
                assert type(batched) is error
        finally:
            transport._pool.clear()
            transport.close()


def unwrapped(value):
    """A frame's value with its trace envelopes opened, to compare by ``==``."""
    if isinstance(value, TraceEnvelope):
        return ("envelope", unwrapped(value.value), value.spans)
    if type(value) is tuple:
        return tuple(unwrapped(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Column frames a client cannot trust
# ---------------------------------------------------------------------------


def _first_column(frame, column):
    return (frame[0], (column,) + frame[1][1:])


#: Each turns one well-formed two-column frame ``(3, columns)`` (int64
#: buffers, or lists without NumPy) into a frame the decoder must refuse.
GARBLED_FRAMES = {
    "truncated buffer": lambda f: _first_column(f, ("<i8", bytes(8 * 3 - 3))),
    "length over its buffers": lambda f: (f[0] + 1, f[1]),
    "length under its buffers": lambda f: (f[0] - 1, f[1]),
    "object dtype tag": lambda f: _first_column(f, ("|O", bytes(8 * 3))),
    "unicode dtype tag": lambda f: _first_column(f, ("<U1", bytes(8 * 3))),
    "NaN in a float buffer": lambda f: _first_column(
        f, ("<f8", struct.pack("<3d", 0.5, float("nan"), 1.5))
    ),
    "one column too few": lambda f: (f[0], f[1][:1]),
    "one column too many": lambda f: (f[0], f[1] + f[1][:1]),
    "negative length": lambda f: (-1, f[1]),
    "float length": lambda f: (3.0, f[1]),
    "string length": lambda f: ("3", f[1]),
    "bool length": lambda f: (True, f[1]),
    "scalar column": lambda f: _first_column(f, 7),
    "string column": lambda f: _first_column(f, "<i8"),
    "tuple of values column": lambda f: _first_column(f, (1, 2, 3)),
    "tag without bytes": lambda f: _first_column(f, ("<i8", list(range(3)))),
    "short list column": lambda f: _first_column(f, [0, 1]),
    "not a frame": lambda f: list(f),
}


class GarbledScans(CountingSocket):
    """Serves every scan, but garbles ``victim``'s column frames on the way out."""

    victim = None
    garble = None

    async def _serve(self, op, peer, payload, ctx=None):
        reply = await super()._serve(op, peer, payload, ctx)
        if op != "scan_since" or peer != self.victim:
            return reply
        inner = reply.value if isinstance(reply, TraceEnvelope) else reply
        garbled = [(full, token, self.garble(frame)) for full, token, frame in inner]
        if isinstance(reply, TraceEnvelope):
            return TraceEnvelope(garbled, reply.spans)
        return garbled


class TestColumnFrames:
    def test_a_scan_reply_carries_typed_buffers(self):
        _, data = wide_system()
        transport = CountingSocket(data)
        try:
            [(full, _token, table)] = transport.scan_batch_since(
                "P03", [("s03", EVERYTHING, None)]
            )
            assert full and table.columns == ("__p0", "__p1")
            assert set(table.iter_rows()) == {(3, row) for row in range(3)}
        finally:
            transport.close()

    @pytest.mark.parametrize("case", sorted(GARBLED_FRAMES))
    def test_a_garbled_column_frame_is_a_transport_error(self, case):
        _, data = wide_system()
        transport = GarbledScans(data)
        transport.victim, transport.garble = "P05", GARBLED_FRAMES[case]
        try:
            with pytest.raises(TransportError, match="peer 'P05'"):
                transport.scan_batch_since("P05", [("s05", EVERYTHING, None)])
            clean, garbled = transport.scan_many([
                ("P04", [("s04", EVERYTHING, None)], None),
                ("P05", [("s05", EVERYTHING, None)], None),
            ])
            assert len(clean[0][2]) == 3 and type(garbled) is TransportError
            # The reply frame itself was whole: the stream stays paired.
            assert transport.ping("P05")
            assert len(transport._pool) == 1
        finally:
            transport.close()

    @pytest.mark.parametrize("case", sorted(GARBLED_FRAMES))
    def test_a_garbled_column_frame_degrades_the_answer(self, case):
        pdms, data = wide_system()
        transport = GarbledScans(data)
        with cluster_over(transport, pdms) as cluster:
            planned(cluster, transport)
            transport.victim, transport.garble = "P05", GARBLED_FRAMES[case]
            answer = cluster.answer(QUERY)
            assert not answer.complete
            assert answer.rows == rows_of(i for i in range(PEERS) if i != 5)
            [failure] = answer.failures
            assert (failure.peer, failure.relation) == ("P05", "s05")
            assert "peer 'P05'" in failure.error

            transport.victim = None
            healed = cluster.answer(QUERY)
            assert healed.complete and healed.rows == rows_of(range(PEERS))

