"""The batch frame on the socket wire (ISSUE 24): an exact RPC budget.

A 24-peer :class:`ServiceCluster` over :class:`AsyncSocketTransport`,
counted in frames, not milliseconds: the catalogue round of a refresh is
one frame (``describe_many``), the first attempts of a scatter wave are
one frame (``scan_many``), and everything that carried per-unit meaning
before — retries, chaos, data errors, trace parenting, transports
without a batch frame — still does.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import sys
import threading

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

    async def _exchange(self, frame):
        self.frames.append(frame[0])
        return await super()._exchange(frame)


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

    def test_insert_is_the_write_plus_one_catalogue_frame(self, wide):
        cluster, transport = wide
        cluster.answer(QUERY)
        del transport.frames[:]
        cluster.insert("s07", [(7, 99)])
        assert transport.frames == ["insert", "batch"]
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
        assert transport.frames.count("batch") == 6  # 4 catalogue rounds, 2 waves
        assert transport.rpc_count - before == len(transport.frames) == 7
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
    def test_one_broken_peer_loses_only_its_rows_and_retries_per_unit(self):
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
            # The wave's frame, then this unit's own retries, one frame each.
            assert transport.frames == ["batch", "batch", "scan_since", "scan_since"]
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

    def test_a_peer_failed_before_the_wave_is_retried_unbatched(self):
        # Catalogues arrive, then the peer goes down: its sub-request is
        # refused client-side and never rides the frame.
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
                        [("s00", (WILDCARD,)), ("s01", ALL), ("s02", ALL)],
                        parallel=False,
                    )
        assert_well_formed(tracer)


# ---------------------------------------------------------------------------
# Transports without a batch frame
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
            assert source.owners("s03") == () and source.data_version("s03") == ()
            assert source.owners("s04") == ("P04",)
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
        shared = {"r": [(1, 1)]}
        data = {name: Instance.from_dict(shared) for name in ("A", "B", "C")}

        class FlakyOnce(LoopbackTransport):
            flaked = False

            def describe(self, peer):
                if peer == "A" and not self.flaked:
                    self.flaked = True
                    raise TransportError("hiccup", peer=peer)
                return super().describe(peer)

        source = RemotePeerFactSource(FlakyOnce(data), policy=POLICY)
        assert source.owners("r") == ("A", "B", "C")
        assert source.complete and source.failure_count == 0

    def test_cross_peer_arity_clash_still_names_both_peers(self):
        transport = AsyncSocketTransport({
            "A": Instance.from_dict({"r": [(1, 2)]}),
            "B": Instance.from_dict({"r": [(1, 2, 3)]}),
        })
        try:
            with pytest.raises(MappingError, match="arity 2 at peer 'A' but arity 3 at peer 'B'"):
                RemotePeerFactSource(transport, policy=POLICY)
        finally:
            transport.close()


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


class TestFrameCap:
    def test_read_frame_rejects_what_it_cannot_trust(self):
        assert read_frame_from(b"") is None  # orderly EOF between frames
        with pytest.raises(TransportError, match="over the .*-byte cap"):
            read_frame_from(b"\xff\xff\xff\xff", eof=False)
        with pytest.raises(TransportError, match="truncated"):
            read_frame_from((100).to_bytes(4, "big") + b"short")
        with pytest.raises(TransportError, match="undecodable"):
            read_frame_from((4).to_bytes(4, "big") + b"junk")

    @pytest.mark.parametrize("garbage", [
        b"\xff\xff\xff\xff",                      # announces 4 GiB
        b"GET / HTTP/1.1\r\n\r\n",                # not this protocol at all
        (100).to_bytes(4, "big") + b"short",      # truncated, then hangs up
        (4).to_bytes(4, "big") + b"junk",         # framed, not a pickle
    ])
    def test_server_drops_a_bad_connection_and_keeps_serving(self, wide, garbage):
        cluster, transport = wide
        with socket.create_connection(transport.address, timeout=5.0) as raw:
            raw.sendall(garbage)
            raw.shutdown(socket.SHUT_WR)
            assert raw.recv(1024) == b""  # closed on us, nothing served
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
        real_address = transport._address
        try:
            async def drop_idle_connections():
                while transport._pool:
                    transport._pool.pop()[1].close()

            asyncio.run_coroutine_threadsafe(
                drop_idle_connections(), transport._loop
            ).result(5.0)
            transport._address = listener.getsockname()
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
            assert table.row_set() == {(3, row) for row in range(3)}
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

