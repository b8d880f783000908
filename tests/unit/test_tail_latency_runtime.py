"""Unit tests for the tail-latency layer (ISSUE 9).

Covers the shared policy pieces (:class:`HalfOpenBreaker`,
:class:`PeerLatencyTracker`, :class:`ScanPolicy`), the half-open breaker
of :class:`CacheTierClient` (which previously tripped *permanently*),
the retry / hedge / deadline / delta behaviour of
:class:`RemotePeerFactSource`, and the :class:`AsyncSocketTransport`
socket backend, including its per-RPC timeout.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.database import Instance
from repro.datalog.indexing import WILDCARD
from repro.errors import TransportError
from repro.pdms import (
    AsyncSocketTransport,
    HalfOpenBreaker,
    LoopbackTransport,
    PeerLatencyTracker,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
    ShardMap,
)
from repro.pdms.distributed.cache_tier import (
    CACHE_PEER,
    CacheTierClient,
    FragmentStore,
)
from repro.pdms.distributed.transport import encode_pattern

ALL = (WILDCARD, WILDCARD)

#: No-sleep, no-jitter policies so tests stay fast and deterministic.
FAST = dict(backoff=0.0, backoff_cap=0.0, jitter=0.0)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# HalfOpenBreaker
# ---------------------------------------------------------------------------


class TestHalfOpenBreaker:
    def test_closed_until_max_consecutive_failures(self):
        clock = FakeClock()
        breaker = HalfOpenBreaker(max_failures=3, cooldown=1.0, clock=clock)
        assert breaker.allow()
        assert not breaker.record_failure("a")
        assert not breaker.record_failure("b")
        assert breaker.allow() and not breaker.tripped
        breaker.record_success()  # success resets the consecutive count
        assert breaker.failures == 0
        breaker.record_failure("c")
        breaker.record_failure("d")
        assert breaker.allow()
        assert breaker.record_failure("e")  # third consecutive: open
        assert breaker.tripped and breaker.reason == "e"
        assert not breaker.allow()

    def test_probe_after_cooldown_is_granted_exactly_once(self):
        clock = FakeClock()
        breaker = HalfOpenBreaker(max_failures=1, cooldown=2.0, clock=clock)
        breaker.record_failure("boom")
        assert not breaker.allow()
        clock.advance(1.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # the half-open probe
        assert not breaker.allow()  # concurrent callers keep waiting
        breaker.record_success()
        assert not breaker.tripped and breaker.allow()

    def test_failed_probe_rearms_the_cooldown(self):
        clock = FakeClock()
        breaker = HalfOpenBreaker(max_failures=1, cooldown=2.0, clock=clock)
        breaker.record_failure("boom")
        clock.advance(2.1)
        assert breaker.allow()
        breaker.record_failure("still down")
        assert not breaker.allow()  # fresh cooldown window
        clock.advance(2.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.allow()

    def test_trip_and_reset_are_immediate(self):
        clock = FakeClock()
        breaker = HalfOpenBreaker(max_failures=5, cooldown=1.0, clock=clock)
        breaker.trip("operator")
        assert breaker.tripped and not breaker.allow()
        breaker.reset()
        assert not breaker.tripped and breaker.allow()

    def test_max_failures_must_be_positive(self):
        with pytest.raises(ValueError):
            HalfOpenBreaker(max_failures=0)


# ---------------------------------------------------------------------------
# PeerLatencyTracker
# ---------------------------------------------------------------------------


class TestPeerLatencyTracker:
    def test_p95_needs_min_samples(self):
        tracker = PeerLatencyTracker()
        assert tracker.p95("A", min_samples=3) is None
        tracker.observe("A", 0.010)
        tracker.observe("A", 0.010)
        assert tracker.p95("A", min_samples=3) is None
        tracker.observe("A", 0.010)
        assert tracker.p95("A", min_samples=3) == pytest.approx(0.010, abs=1e-6)

    def test_constant_latency_gives_tight_p95(self):
        tracker = PeerLatencyTracker()
        for _ in range(50):
            tracker.observe("A", 0.020)
        assert tracker.mean("A") == pytest.approx(0.020, abs=1e-6)
        assert tracker.p95("A") == pytest.approx(0.020, abs=1e-4)

    def test_variance_pushes_p95_above_mean(self):
        tracker = PeerLatencyTracker()
        for i in range(100):
            tracker.observe("A", 0.010 if i % 2 else 0.030)
        assert tracker.p95("A") > tracker.mean("A")

    def test_snapshot_shape(self):
        tracker = PeerLatencyTracker()
        tracker.observe("A", 0.005)
        snap = tracker.snapshot()
        assert set(snap) == {"A"}
        assert set(snap["A"]) == {"count", "mean_ms", "p95_ms"}
        assert snap["A"]["count"] == 1.0
        assert snap["A"]["mean_ms"] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# ScanPolicy
# ---------------------------------------------------------------------------


class _FixedRng:
    def __init__(self, value):
        self._value = value

    def random(self):
        return self._value


class TestScanPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = ScanPolicy(backoff=0.01, backoff_cap=0.05, jitter=0.0)
        rng = _FixedRng(0.0)
        delays = [policy.backoff_delay(a, rng=rng) for a in range(5)]
        assert delays[:3] == pytest.approx([0.01, 0.02, 0.04])
        assert delays[3] == delays[4] == pytest.approx(0.05)

    def test_jitter_adds_bounded_relative_slack(self):
        policy = ScanPolicy(backoff=0.01, jitter=0.5)
        assert policy.backoff_delay(0, rng=_FixedRng(1.0)) == pytest.approx(0.015)

    def test_hedge_delay_fixed_adaptive_and_disabled(self):
        tracker = PeerLatencyTracker()
        assert ScanPolicy(hedging=False).hedge_delay(tracker, "A") is None
        assert ScanPolicy(hedge=0.02).hedge_delay(tracker, "A") == 0.02
        # Adaptive: no estimate yet -> no hedging.
        adaptive = ScanPolicy(hedge=None, min_hedge_samples=2)
        assert adaptive.hedge_delay(tracker, "A") is None
        tracker.observe("A", 0.010)
        tracker.observe("A", 0.010)
        assert adaptive.hedge_delay(tracker, "A") == pytest.approx(0.010, abs=1e-4)

    def test_from_env_reads_the_three_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_RETRIES", "5")
        monkeypatch.setenv("REPRO_HEDGE_MS", "25")
        monkeypatch.setenv("REPRO_SCAN_DEADLINE_MS", "250")
        policy = ScanPolicy.from_env()
        assert policy.retries == 5
        assert policy.hedging and policy.hedge == pytest.approx(0.025)
        assert policy.deadline == pytest.approx(0.25)

    def test_from_env_defaults_and_sentinels(self, monkeypatch):
        for knob in ("REPRO_SCAN_RETRIES", "REPRO_HEDGE_MS", "REPRO_SCAN_DEADLINE_MS"):
            monkeypatch.delenv(knob, raising=False)
        policy = ScanPolicy.from_env()
        assert policy.retries == 2
        assert policy.hedging and policy.hedge is None  # 0 = adaptive
        assert policy.deadline is None  # 0 = unbounded
        monkeypatch.setenv("REPRO_HEDGE_MS", "-1")
        assert not ScanPolicy.from_env().hedging


# ---------------------------------------------------------------------------
# CacheTierClient: the breaker recovers after a cooldown
# ---------------------------------------------------------------------------


class TestCacheTierBreakerRecovery:
    def test_restored_cache_peer_rejoins_after_cooldown(self):
        transport = LoopbackTransport({CACHE_PEER: FragmentStore()})
        client = CacheTierClient(transport, max_failures=2, breaker_cooldown=0.1)
        token = ("t", 1)
        assert client.put("k", token, ["r"], {"rows": (1,)})
        transport.fail_peer(CACHE_PEER)
        assert client.get("k", token) == ("error", None)
        assert not client.degraded  # one failure, threshold is two
        assert client.get("k", token) == ("error", None)
        assert client.degraded and client.failures == 2
        transport.restore_peer(CACHE_PEER)
        # Inside the cooldown the breaker still refuses (no RPC made).
        before = transport.rpc_count
        assert client.get("k", token) == ("error", None)
        assert transport.rpc_count == before
        time.sleep(0.12)
        status, value = client.get("k", token)  # the half-open probe
        assert (status, value) == ("hit", {"rows": (1,)})
        assert not client.degraded

    def test_manual_reset_still_short_circuits_the_cooldown(self):
        transport = LoopbackTransport({CACHE_PEER: FragmentStore()})
        client = CacheTierClient(transport, max_failures=1, breaker_cooldown=60.0)
        transport.fail_peer(CACHE_PEER)
        assert client.get("k", ("t", 1)) == ("error", None)
        assert client.degraded
        transport.restore_peer(CACHE_PEER)
        client.reset()
        assert not client.degraded
        assert client.get("k", ("t", 1)) == ("miss", None)


# ---------------------------------------------------------------------------
# RemotePeerFactSource: retries, hedging, deadlines
# ---------------------------------------------------------------------------


def _single_peer():
    instance = Instance.from_dict({"r": [(1, 10), (2, 20), (3, 30)]})
    return {"A": instance}, {(1, 10), (2, 20), (3, 30)}


def _replicated_pair():
    """Two transport peers sharing one live instance: perfect replicas."""
    instance = Instance.from_dict({"r": [(1, 10), (2, 20), (3, 30)]})
    shard_map = ShardMap().shard_by_hash("r", 0, [("A", "B")])
    return {"A": instance, "B": instance}, shard_map, {(1, 10), (2, 20), (3, 30)}


class TestRetries:
    def test_retry_heals_a_transient_drop_and_reearns_complete(self):
        data, expected = _single_peer()
        transport = LoopbackTransport(data, drop_every_n=2)
        source = RemotePeerFactSource(
            transport, policy=ScanPolicy(retries=2, hedging=False, **FAST)
        )
        assert set(source.get_matching("r", ALL)) == expected  # scan #1: fine
        # Scan #2 is dropped by the chaos hook; the retry (#3) heals it.
        assert set(source.get_matching("r", (1, WILDCARD))) == {(1, 10)}
        stats = source.scatter_stats()
        assert stats["retries"] >= 1
        assert source.failure_count == 0
        assert source.complete
        assert source.data_version("r") is not None

    def test_exhausted_retries_record_one_failure_not_one_per_attempt(self):
        data, _ = _single_peer()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport, policy=ScanPolicy(retries=3, hedging=False, **FAST)
        )
        transport.fail_peer("A")
        assert source.prefetch([("r", ALL)]) == 1
        stats = source.scatter_stats()
        assert stats["retries"] == 3
        assert source.failure_count == 1  # one ScanFailure, four attempts
        assert source.degraded_relations == ("r",)
        assert not source.complete

    def test_describe_round_retries_transient_faults(self):
        data, _ = _single_peer()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport, policy=ScanPolicy(retries=1, hedging=False, **FAST)
        )

        calls = {"n": 0}
        real_describe = transport.describe

        def flaky_describe(peer):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransportError("transient", peer=peer)
            return real_describe(peer)

        transport.describe = flaky_describe
        source.refresh()
        assert source.unreachable_peers == ()
        assert calls["n"] == 2


class TestHedging:
    def test_hedge_beats_a_slow_primary(self):
        data, shard_map, expected = _replicated_pair()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport,
            shard_map=shard_map,
            policy=ScanPolicy(retries=0, hedge=0.01, **FAST),
        )
        transport.set_peer_delay("A", 0.5)
        start = time.monotonic()
        rows = source.get_matching("r", ALL)
        elapsed = time.monotonic() - start
        assert set(rows) == expected
        assert elapsed < 0.4  # did not wait out the slow primary
        stats = source.scatter_stats()
        assert stats["hedges_fired"] == 1
        assert stats["hedges_won"] == 1
        assert source.complete and source.failure_count == 0

    def test_fast_primary_never_hedges(self):
        data, shard_map, expected = _replicated_pair()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport,
            shard_map=shard_map,
            policy=ScanPolicy(retries=0, hedge=0.5, **FAST),
        )
        assert set(source.get_matching("r", ALL)) == expected
        assert source.scatter_stats()["hedges_fired"] == 0

    def test_adaptive_hedging_waits_for_latency_samples(self):
        data, shard_map, expected = _replicated_pair()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport,
            shard_map=shard_map,
            policy=ScanPolicy(retries=0, hedge=None, min_hedge_samples=50, **FAST),
        )
        for bound in (1, 2, 3):
            source.get_matching("r", (bound, WILDCARD))
        # Too few samples for a p95 estimate: no hedge ever fired.
        assert source.scatter_stats()["hedges_fired"] == 0
        assert set(source.get_matching("r", ALL)) == expected

    def test_retry_rotates_to_the_replica(self):
        data, shard_map, expected = _replicated_pair()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport,
            shard_map=shard_map,
            policy=ScanPolicy(retries=1, hedging=False, **FAST),
        )
        transport.fail_peer("A")
        # Attempt 0 hits the failed primary; attempt 1 rotates to B.
        assert set(source.get_matching("r", ALL)) == expected
        assert source.failure_count == 0
        assert source.complete


class TestDeadlines:
    def test_deadline_expiry_degrades_honestly(self):
        data, _ = _single_peer()
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport,
            policy=ScanPolicy(retries=2, hedging=False, deadline=0.05, **FAST),
        )
        transport.set_peer_delay("A", 0.5)
        start = time.monotonic()
        rows = source.get_matching("r", ALL)
        elapsed = time.monotonic() - start
        assert rows == ()
        assert elapsed < 0.4  # gave up at the deadline, not the peer's pace
        stats = source.scatter_stats()
        assert stats["deadline_expiries"] == 1  # counted once, not per retry
        assert source.failure_count == 1
        assert not source.complete
        assert source.data_version("r") is None  # degraded: cache-barred
        failure = source.failures()[-1]
        assert "deadline" in failure.error

    def test_deadline_bounds_a_whole_prefetch_wave(self):
        instance = Instance.from_dict({"r": [(1,)], "s": [(2,)]})
        transport = LoopbackTransport({"A": instance})
        source = RemotePeerFactSource(
            transport,
            policy=ScanPolicy(retries=1, hedging=False, deadline=0.05, **FAST),
        )
        transport.set_peer_delay("A", 0.5)
        start = time.monotonic()
        source.prefetch([("r", (WILDCARD,)), ("s", (WILDCARD,))])
        assert time.monotonic() - start < 0.45
        assert source.scatter_stats()["deadline_expiries"] >= 1
        assert not source.complete

    def test_generous_deadline_changes_nothing(self):
        data, expected = _single_peer()
        source = RemotePeerFactSource(
            LoopbackTransport(data),
            policy=ScanPolicy(retries=0, hedging=False, deadline=30.0, **FAST),
        )
        assert set(source.get_matching("r", ALL)) == expected
        assert source.scatter_stats()["deadline_expiries"] == 0
        assert source.complete


# ---------------------------------------------------------------------------
# Delta-shipping re-scans
# ---------------------------------------------------------------------------


class TestDeltaRescans:
    def test_rescan_after_insert_ships_only_the_delta(self):
        instance = Instance.from_dict({"r": [(1,), (2,)]})
        source = RemotePeerFactSource(LoopbackTransport({"A": instance}))
        assert set(source.get_matching("r", (WILDCARD,))) == {(1,), (2,)}
        first = source.scatter_stats()
        assert first["full_scans"] >= 1 and first["delta_scans"] == 0
        instance.add("r", (3,))
        source.refresh()  # token moved: memo dropped, cursor kept
        assert set(source.get_matching("r", (WILDCARD,))) == {(1,), (2,), (3,)}
        stats = source.scatter_stats()
        assert stats["delta_scans"] == 1
        assert stats["delta_rows_shipped"] == 1  # only (3,) crossed the wire

    def test_merged_delta_equals_full_rescan(self):
        instance = Instance.from_dict({"r": [(1, 1), (2, 2)]})
        transport = LoopbackTransport({"A": instance})
        delta_source = RemotePeerFactSource(transport)
        for round_no in range(3, 8):
            instance.add("r", (round_no, round_no))
            delta_source.refresh()
            merged = set(delta_source.get_matching("r", ALL))
            oracle = set(instance.get_matching("r", (WILDCARD, WILDCARD)))
            assert merged == oracle
        assert delta_source.scatter_stats()["delta_scans"] >= 4

    def test_removal_invalidates_the_log_and_forces_a_full_rescan(self):
        instance = Instance.from_dict({"r": [(1,), (2,), (3,)]})
        source = RemotePeerFactSource(LoopbackTransport({"A": instance}))
        assert set(source.get_matching("r", (WILDCARD,))) == {(1,), (2,), (3,)}
        instance.remove("r", (2,))
        source.refresh()
        assert set(source.get_matching("r", (WILDCARD,))) == {(1,), (3,)}
        stats = source.scatter_stats()
        # Deletions cannot ride the insert-only log: full rescan, no delta.
        assert stats["delta_scans"] == 0
        assert stats["full_scans"] >= 2

    def test_delta_disabled_always_rescans_in_full(self):
        instance = Instance.from_dict({"r": [(1,), (2,)]})
        source = RemotePeerFactSource(
            LoopbackTransport({"A": instance}), delta=False
        )
        source.get_matching("r", (WILDCARD,))
        instance.add("r", (3,))
        source.refresh()
        assert set(source.get_matching("r", (WILDCARD,))) == {(1,), (2,), (3,)}
        stats = source.scatter_stats()
        assert stats["delta_scans"] == 0 and stats["full_scans"] >= 2

    def test_unchanged_relation_ships_an_empty_delta(self):
        instance = Instance.from_dict({"r": [(1,), (2,)], "s": [(9,)]})
        other = Instance.from_dict({})
        transport = LoopbackTransport({"A": instance, "B": other})
        source = RemotePeerFactSource(transport)
        source.get_matching("r", (WILDCARD,))
        instance.add("s", (10,))  # moves s's token; r's memo survives? no —
        source.refresh()  # only s was invalidated, r's memo is intact
        # r's memo survived (token unchanged), so no rescan at all:
        before = source.scatter_stats()["delta_scans"]
        assert set(source.get_matching("r", (WILDCARD,))) == {(1,), (2,)}
        assert source.scatter_stats()["delta_scans"] == before


# ---------------------------------------------------------------------------
# AsyncSocketTransport
# ---------------------------------------------------------------------------


@pytest.fixture()
def socket_transport():
    instances = {
        "P1": Instance.from_dict({"sa": [(1, 2), (2, 3), (5, 6)]}),
        "P2": Instance.from_dict({"sb": [(2, 10), (3, 11)]}),
    }
    transport = AsyncSocketTransport(instances)
    yield transport
    transport.close()


class TestAsyncSocketTransport:
    def test_describe_matches_the_live_instance(self, socket_transport):
        info = socket_transport.describe("P1")
        arity, cardinality, token = info["sa"]
        assert (arity, cardinality) == (2, 3)
        assert token == socket_transport.instance("P1").data_version("sa")

    def test_scan_batch_filters_and_counts(self, socket_transport):
        rows, all_rows = socket_transport.scan_batch(
            "P1",
            [("sa", encode_pattern((1, WILDCARD))), ("sa", encode_pattern(ALL))],
        )
        assert set(rows) == {(1, 2)}
        assert len(all_rows) == 3
        assert socket_transport.scan_count("P1") == 2

    def test_insert_round_trips(self, socket_transport):
        assert socket_transport.insert("P2", "sb", [(7, 70)]) == 1
        rows = socket_transport.scan_batch("P2", [("sb", encode_pattern(ALL))])
        assert (7, 70) in rows[0]

    def test_unknown_peer_and_failed_peer_raise(self, socket_transport):
        with pytest.raises(TransportError):
            socket_transport.describe("nope")
        socket_transport.fail_peer("P1")
        with pytest.raises(TransportError):
            socket_transport.scan_batch("P1", [("sa", encode_pattern(ALL))])
        socket_transport.restore_peer("P1")
        assert socket_transport.ping("P1")

    def test_data_errors_cross_the_socket_as_data_errors(self, socket_transport):
        with pytest.raises(ValueError):
            socket_transport.scan_batch(
                "P1", [("sa", encode_pattern((WILDCARD,)))]  # arity clash
            )
        assert socket_transport.ping("P1")  # the connection survives

    def test_concurrent_scans_to_delayed_peers_overlap(self, socket_transport):
        socket_transport.set_peer_delay("P1", 0.15)
        socket_transport.set_peer_delay("P2", 0.15)
        results = {}

        def scan(peer, relation):
            results[peer] = socket_transport.scan_batch(
                peer, [(relation, encode_pattern(ALL))]
            )

        start = time.monotonic()
        threads = [
            threading.Thread(target=scan, args=("P1", "sa")),
            threading.Thread(target=scan, args=("P2", "sb")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - start
        assert elapsed < 0.27  # genuinely overlapped, not serialized
        assert len(results["P1"][0]) == 3 and len(results["P2"][0]) == 2

    def test_scan_batch_since_ships_deltas(self, socket_transport):
        encoded = encode_pattern(ALL)
        [(full, token, rows)] = socket_transport.scan_batch_since(
            "P1", [("sa", encoded, None)]
        )
        assert full and token is not None and len(rows) == 3
        socket_transport.instance("P1").add("sa", (9, 9))
        [(full2, token2, delta)] = socket_transport.scan_batch_since(
            "P1", [("sa", encoded, token)]
        )
        assert not full2 and token2 != token
        assert delta == ((9, 9),)
        # An unchanged token yields an empty delta.
        [(full3, token3, rows3)] = socket_transport.scan_batch_since(
            "P1", [("sa", encoded, token2)]
        )
        assert not full3 and token3 == token2 and rows3 == ()

    def test_submit_scan_returns_a_real_future(self, socket_transport):
        future = socket_transport.submit_scan(
            "P1", [("sa", encode_pattern(ALL), None)]
        )
        [(full, _token, rows)] = future.result(timeout=5.0)
        assert full and len(rows) == 3

    def test_rpc_timeout_raises_and_never_repools_the_connection(self):
        transport = AsyncSocketTransport(
            {"P1": Instance.from_dict({"r": [(1,), (2,)]})}, timeout=0.05
        )
        try:
            assert transport.ping("P1")
            assert len(transport._pool) == 1  # one warm connection
            transport.set_peer_delay("P1", 0.5)
            start = time.monotonic()
            with pytest.raises(TransportError, match="timed out") as excinfo:
                transport.describe("P1")
            assert time.monotonic() - start < 0.4  # the deadline, not the peer
            assert excinfo.value.peer == "P1"
            # The timed-out exchange held the pooled connection; it is
            # discarded, so its late reply has nowhere to land.
            assert len(transport._pool) == 0
            transport.set_peer_delay("P1", 0.0)
            assert transport.ping("P1")
            # Outlive the slow reply, then check every answer still pairs
            # with its own request.
            time.sleep(0.5)
            rows = transport.scan_batch("P1", [("r", encode_pattern((WILDCARD,)))])
            assert set(rows[0]) == {(1,), (2,)}
            assert transport.describe("P1")["r"][:2] == (1, 2)
            assert transport.ping("P1")
            assert "P1" not in transport.failed_peers()  # no breaker
        finally:
            transport.close()

    def test_closed_transport_fails_fast(self):
        transport = AsyncSocketTransport({"P": Instance.from_dict({"r": [(1,)]})})
        transport.close()
        with pytest.raises(TransportError):
            transport.ping("P")
        transport.close()  # idempotent

    def test_source_over_sockets_matches_loopback(self, socket_transport):
        source = RemotePeerFactSource(socket_transport)
        assert set(source.get_matching("sa", ALL)) == {(1, 2), (2, 3), (5, 6)}
        assert set(source.get_matching("sb", (2, WILDCARD))) == {(2, 10)}
        assert source.complete


# ---------------------------------------------------------------------------
# Cluster surfaces
# ---------------------------------------------------------------------------


class TestClusterTailStats:
    def test_describe_exposes_tail_counters_and_latency(self):
        from repro.pdms import PDMS

        data, _ = _single_peer()
        with ServiceCluster(
            pdms=PDMS("tail"), transport=LoopbackTransport(data)
        ) as cluster:
            cluster.source.get_matching("r", ALL)
            snapshot = cluster.describe()
            scatter = snapshot["scatter"]
            for key in (
                "retries",
                "hedges_fired",
                "hedges_won",
                "deadline_expiries",
                "delta_scans",
                "full_scans",
                "delta_rows_shipped",
                "full_rows_shipped",
            ):
                assert key in scatter
            latency = snapshot["peer_latency"]
            assert latency["schema_version"] == 1
            peers = latency["peers"]
            assert "A" in peers and peers["A"]["count"] >= 1.0

    def test_cluster_accepts_an_explicit_scan_policy(self):
        from repro.pdms import PDMS

        data, expected = _single_peer()
        policy = ScanPolicy(retries=0, hedging=False, **FAST)
        with ServiceCluster(
            pdms=PDMS("tail"),
            transport=LoopbackTransport(data),
            scan_policy=policy,
        ) as cluster:
            assert set(cluster.source.get_matching("r", ALL)) == expected
            assert cluster.source.scatter_stats()["retries"] == 0

    @pytest.mark.parametrize(
        "knob", ["REPRO_SCAN_RETRIES", "REPRO_HEDGE_MS", "REPRO_SCAN_DEADLINE_MS"]
    )
    def test_malformed_tail_knobs_fail_fast_at_construction(
        self, knob, monkeypatch
    ):
        from repro.errors import PDMSConfigurationError
        from repro.pdms import PDMS

        data, _ = _single_peer()
        monkeypatch.setenv(knob, "not-an-int")
        with pytest.raises(PDMSConfigurationError, match=knob):
            ServiceCluster(pdms=PDMS("tail"), transport=LoopbackTransport(data))
