"""Unit tests for the scan policy, retries and delta re-scans.

Covers :class:`ScanPolicy`, the retry and delta behaviour of
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
from repro.obs.metrics import METRICS_SCHEMA_VERSION
from repro.pdms import (
    AsyncSocketTransport,
    LoopbackTransport,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
)
from repro.pdms.distributed.transport import encode_pattern

ALL = (WILDCARD, WILDCARD)

#: No-sleep, no-jitter policies so tests stay fast and deterministic.
FAST = dict(backoff=0.0, backoff_cap=0.0, jitter=0.0)


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

    def test_from_env_reads_scan_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCAN_RETRIES", raising=False)
        assert ScanPolicy.from_env() == ScanPolicy()
        monkeypatch.setenv("REPRO_SCAN_RETRIES", "5")
        assert ScanPolicy.from_env().retries == 5

    @pytest.mark.parametrize(
        "attempt,expected",
        list(enumerate([0.01, 0.02, 0.04, 0.08, 0.1, 0.1])),
    )
    def test_unjittered_delay_doubles_up_to_the_cap(self, attempt, expected):
        policy = ScanPolicy(backoff=0.01, backoff_cap=0.1, jitter=0.0)
        assert policy.backoff_delay(attempt, rng=_FixedRng(1.0)) == pytest.approx(
            expected
        )

    @pytest.mark.parametrize("draw", [0.0, 0.5, 1.0])
    def test_jitter_stretches_the_capped_delay_by_at_most_its_fraction(self, draw):
        policy = ScanPolicy(backoff=0.01, backoff_cap=0.03, jitter=0.25)
        # Attempt 2 would be 0.04 uncapped: jitter applies to the cap.
        assert policy.backoff_delay(2, rng=_FixedRng(draw)) == pytest.approx(
            0.03 * (1.0 + 0.25 * draw)
        )

    def test_the_default_policy_sleeps_between_bounds(self):
        policy = ScanPolicy()
        for attempt in range(8):
            delay = policy.backoff_delay(attempt)
            base = min(policy.backoff_cap, policy.backoff * 2 ** attempt)
            assert base <= delay <= base * (1.0 + policy.jitter)

    def test_as_dict_is_the_four_fields_and_the_schema_version(self):
        import json

        policy = ScanPolicy(retries=4, backoff=0.5, backoff_cap=2.0, jitter=0.1)
        snapshot = policy.as_dict()
        assert snapshot == {
            "schema_version": METRICS_SCHEMA_VERSION,
            "retries": 4,
            "backoff_s": 0.5,
            "backoff_cap_s": 2.0,
            "jitter": 0.1,
        }
        assert json.loads(json.dumps(snapshot)) == snapshot

    @pytest.mark.parametrize("raw", ["0", "1", "9"])
    def test_from_env_keeps_the_other_fields_at_their_defaults(
        self, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_SCAN_RETRIES", raw)
        policy = ScanPolicy.from_env()
        assert policy == ScanPolicy(retries=int(raw))

    def test_a_policy_is_immutable(self):
        import dataclasses

        policy = ScanPolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.retries = 5


# ---------------------------------------------------------------------------
# RemotePeerFactSource: retries
# ---------------------------------------------------------------------------


def _single_peer():
    instance = Instance.from_dict({"r": [(1, 10), (2, 20), (3, 30)]})
    return {"A": instance}, {(1, 10), (2, 20), (3, 30)}


class TestRetries:
    def test_retry_heals_a_transient_drop_and_reearns_complete(self):
        data, expected = _single_peer()
        transport = LoopbackTransport(data, drop_every_n=2)
        source = RemotePeerFactSource(
            transport, policy=ScanPolicy(retries=2, **FAST)
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
            transport, policy=ScanPolicy(retries=3, **FAST)
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
            transport, policy=ScanPolicy(retries=1, **FAST)
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
        assert delta.row_set() == {(9, 9)}
        # An unchanged token yields an empty delta.
        [(full3, token3, rows3)] = socket_transport.scan_batch_since(
            "P1", [("sa", encoded, token2)]
        )
        assert not full3 and token3 == token2 and rows3.row_set() == set()

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
    def test_describe_exposes_the_scatter_counters(self):
        from repro.pdms import PDMS

        data, _ = _single_peer()
        with ServiceCluster(
            pdms=PDMS("tail"), transport=LoopbackTransport(data)
        ) as cluster:
            cluster.source.get_matching("r", ALL)
            snapshot = cluster.describe()
            scatter = snapshot["scatter"]
            assert scatter["schema_version"] == METRICS_SCHEMA_VERSION
            for key in (
                "retries",
                "delta_scans",
                "full_scans",
                "delta_rows_shipped",
                "full_rows_shipped",
            ):
                assert key in scatter
            assert scatter["full_scans"] >= 1
            assert "peer_latency" not in snapshot

    def test_cluster_accepts_an_explicit_scan_policy(self):
        from repro.pdms import PDMS

        data, expected = _single_peer()
        policy = ScanPolicy(retries=0, **FAST)
        with ServiceCluster(
            pdms=PDMS("tail"),
            transport=LoopbackTransport(data),
            scan_policy=policy,
        ) as cluster:
            assert set(cluster.source.get_matching("r", ALL)) == expected
            assert cluster.source.scatter_stats()["retries"] == 0

    @pytest.mark.parametrize("knob", ["REPRO_SCAN_RETRIES"])
    def test_malformed_tail_knobs_fail_fast_at_construction(
        self, knob, monkeypatch
    ):
        from repro.errors import PDMSConfigurationError
        from repro.pdms import PDMS

        data, _ = _single_peer()
        monkeypatch.setenv(knob, "not-an-int")
        with pytest.raises(PDMSConfigurationError, match=knob):
            ServiceCluster(pdms=PDMS("tail"), transport=LoopbackTransport(data))
