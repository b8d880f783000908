"""Trace chaos tests (ISSUE 10).

The invariants under fault injection: every span closes exactly once
(``Tracer.health()`` shows no double closes and nothing left open) and
every trace is a well-formed tree (each span's parent is present in the
record set) — across retries, exhausted retries, unreachable peers and
scan units scattered on the pool, on both transports.  Plus the wire
compatibility contract: a legacy peer that knows nothing about trace
contexts still serves traced queries correctly, just without worker-side
spans.
"""

from __future__ import annotations

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_tracer,
    render_trace,
    reset_tracer,
    set_tracer,
)
from repro.pdms import (
    PDMS,
    AsyncSocketTransport,
    LoopbackTransport,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
    StorageDescription,
)
from repro.pdms.distributed.transport import decode_pattern

ALL = (WILDCARD, WILDCARD)

#: No-sleep, no-jitter policies so tests stay fast and deterministic.
FAST = dict(backoff=0.0, backoff_cap=0.0, jitter=0.0)


@pytest.fixture
def tracer():
    installed = Tracer(
        enabled=True, sample_rate=1.0, sink_path=None,
        registry=MetricsRegistry(),
    )
    set_tracer(installed)
    yield installed
    set_tracer(None)


def assert_well_formed(tracer):
    """Spans closed exactly once; every recorded parent is present."""
    health = tracer.health()
    assert health["open"] == 0
    assert health["double_closes"] == 0
    assert health["started"] == health["finished"]
    for trace_id in tracer.trace_ids():
        spans = tracer.trace(trace_id)
        ids = {record["span_id"] for record in spans}
        for record in spans:
            parent = record.get("parent_id")
            if parent is not None:
                assert parent in ids, f"dangling parent in {record}"
    return health


def last_spans(tracer, name=None):
    _, spans = tracer.last_trace()
    if name is None:
        return spans
    return [record for record in spans if record["name"] == name]


def _single_peer():
    instance = Instance.from_dict({"r": [(1, 10), (2, 20), (3, 30)]})
    return {"A": instance}, {(1, 10), (2, 20), (3, 30)}


def _split_pair():
    """``r``'s rows split across two owners: every scan fans out to both."""
    return {
        "A": Instance.from_dict({"r": [(1, 10), (3, 30)]}),
        "B": Instance.from_dict({"r": [(2, 20)]}),
    }


def two_peer_system():
    """``Q :- T:A ⨝ T:B`` with A stored on P1 and B on P2."""
    pdms = PDMS("trace-chaos")
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
    expected = frozenset({(1, 10), (2, 11), (5, 12)})
    return pdms, data, query, expected


# ---------------------------------------------------------------------------
# Loopback: retries, unreachable peers, the scatter pool
# ---------------------------------------------------------------------------


class TestLoopbackChaos:
    def test_retry_attempts_each_get_a_closed_span(self, tracer):
        data, expected = _single_peer()
        transport = LoopbackTransport(data, drop_every_n=2)
        source = RemotePeerFactSource(
            transport, policy=ScanPolicy(retries=2, **FAST)
        )
        with tracer.start_trace("query.answer"):
            assert set(source.get_matching("r", ALL)) == expected  # scan #1
            # Scan #2 is dropped; the retry heals it under the same unit.
            assert set(source.get_matching("r", (1, WILDCARD))) == {(1, 10)}
        assert_well_formed(tracer)
        attempts = last_spans(tracer, "scan.attempt")
        assert any(record["status"] == "error" for record in attempts)
        retries = [r for r in attempts if r["attrs"].get("kind") == "retry"]
        assert retries and all(r["status"] == "ok" for r in retries)
        unit = next(
            record for record in last_spans(tracer, "scan.unit")
            if record["attrs"].get("attempts", 0) > 1
        )
        assert unit["status"] == "ok"

    def test_unreachable_peer_exhausts_retries_with_error_spans(self, tracer):
        data, _ = _single_peer()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport, policy=ScanPolicy(retries=1, **FAST)
        )
        source.refresh()  # learn the routes while the peer is up
        transport.fail_peer("A")
        with tracer.start_trace("query.answer"):
            assert source.get_matching("r", ALL) == ()
        assert_well_formed(tracer)
        [unit] = last_spans(tracer, "scan.unit")
        assert unit["status"] == "error" and "error" in unit["attrs"]
        attempts = last_spans(tracer, "scan.attempt")
        assert attempts and all(r["status"] == "error" for r in attempts)

    def test_pool_scattered_prefetch_keeps_the_tree_stitched(self, tracer):
        transport = LoopbackTransport(_split_pair(), delay=0.001)  # forces the pool
        source = RemotePeerFactSource(
            transport, policy=ScanPolicy(retries=0, **FAST)
        )
        with tracer.start_trace("query.answer"):
            assert source.prefetch([("r", ALL)]) == 1
        assert_well_formed(tracer)
        [wave] = last_spans(tracer, "scatter.wave")
        assert wave["attrs"]["units"] == 2
        # Pool threads cannot see the thread-ambient span; the wave is
        # threaded through explicitly, so each unit still parents to it.
        units = last_spans(tracer, "scan.unit")
        assert sorted(unit["attrs"]["peer"] for unit in units) == ["A", "B"]
        assert all(unit["parent_id"] == wave["span_id"] for unit in units)
        assert set(source.get_matching("r", ALL)) == {(1, 10), (2, 20), (3, 30)}


# ---------------------------------------------------------------------------
# Socket transport: the end-to-end acceptance trace
# ---------------------------------------------------------------------------


class TestSocketAcceptanceTrace:
    def test_traced_query_over_sockets(self, monkeypatch):
        """REPRO_TRACE=1, socket transport, one query: one well-formed,
        renderable tree with the worker-side serve spans stitched in."""
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        monkeypatch.delenv("REPRO_TRACE_SINK", raising=False)
        reset_tracer()  # re-read the env knobs
        try:
            pdms, data, query, expected = two_peer_system()
            transport = AsyncSocketTransport(data)
            try:
                with ServiceCluster(
                    pdms=pdms,
                    transport=transport,
                    scan_policy=ScanPolicy(retries=0, **FAST),
                ) as cluster:
                    answer = cluster.answer(query)
                    assert answer.rows == expected and answer.complete
            finally:
                transport.close()
            tracer = get_tracer()
            assert_well_formed(tracer)
            spans = last_spans(tracer)
            names = {record["name"] for record in spans}
            assert {
                "query.answer", "query.reformulate", "plan.compile",
                "plan.execute", "scatter.wave", "scan.unit", "scan.attempt",
            } <= names
            remote = [r for r in spans if r.get("remote")]
            assert remote, "socket workers shipped no serve spans"
            text = render_trace(spans)
            assert "query.answer" in text
            assert "kind=primary" in text
            assert "~ rpc.serve." in text
        finally:
            set_tracer(None)


# ---------------------------------------------------------------------------
# Wire compatibility: legacy peers ignore the trace context
# ---------------------------------------------------------------------------


class LegacyTransport(LoopbackTransport):
    """An 'old peer': serves every scan, knows nothing about tracing."""

    def scan_batch(self, peer, requests):
        self._admit(peer, scan=True)
        instance = self.instance(peer)
        return [
            tuple(instance.get_matching(relation, decode_pattern(encoded)))
            for relation, encoded in requests
        ]


class TestLegacyPeerInterop:
    def test_traced_queries_work_without_worker_spans(self, tracer):
        data, expected = _single_peer()
        source = RemotePeerFactSource(
            LegacyTransport(data),
            policy=ScanPolicy(retries=0, **FAST),
        )
        with tracer.start_trace("query.answer"):
            assert set(source.get_matching("r", ALL)) == expected
        health = assert_well_formed(tracer)
        assert health["adopted"] == 0  # nothing shipped back, nothing broke
        assert not [r for r in last_spans(tracer) if r.get("remote")]
        # The client side of the tree is still complete.
        assert last_spans(tracer, "scan.attempt")

    def test_legacy_peer_still_serves_untraced_queries(self):
        data, expected = _single_peer()
        source = RemotePeerFactSource(
            LegacyTransport(data),
            policy=ScanPolicy(retries=0, **FAST),
        )
        assert set(source.get_matching("r", ALL)) == expected
