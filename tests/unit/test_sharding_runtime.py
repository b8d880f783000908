"""Unit tests for shard-aware placement and the cluster cache tier (ISSUE 8).

Covers stable cross-process routing hashes, the hash/range partition
schemes, :class:`ShardMap` registration and the pruning rule,
:func:`auto_shard` splitting (including its version-keyed memo), routed
inserts, the :class:`FragmentStore` cache peer, the
:class:`CacheTierClient` failure breaker, the
:class:`FragmentCache`/tier integration, the new ``REPRO_SHARDS`` /
``REPRO_CACHE_TIER`` knobs, and the sharded scatter path end to end
(per-shard scan counters, pruned-vs-fanout accounting, cluster
describe/insert).
"""

from __future__ import annotations


import pytest

from repro import config
from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.errors import (
    EvaluationError,
    InstanceError,
    PDMSConfigurationError,
)
from repro.pdms import (
    PDMS,
    CacheTierClient,
    FragmentCache,
    FragmentStore,
    HashPartition,
    LoopbackTransport,
    RangePartition,
    RemotePeerFactSource,
    ServiceCluster,
    ShardMap,
    StorageDescription,
    answer_query,
    auto_shard,
)
from repro.pdms.distributed import insert_routed, stable_shard_hash
from repro.pdms.distributed.cache_tier import (
    CACHE_PEER,
    EVICT_RELATION,
    FRAGMENTS_RELATION,
    default_cache_tier,
    reset_default_cache_tier,
)


# ---------------------------------------------------------------------------
# Stable hashing
# ---------------------------------------------------------------------------

class TestStableShardHash:
    def test_equal_numerics_route_identically(self):
        assert stable_shard_hash(1) == stable_shard_hash(1.0)
        assert stable_shard_hash(1) == stable_shard_hash(True)
        assert stable_shard_hash(0) == stable_shard_hash(False)

    def test_distinct_values_usually_differ(self):
        hashes = {stable_shard_hash(v) for v in range(100)}
        assert len(hashes) == 100

    def test_strings_do_not_collide_with_their_bytes(self):
        assert stable_shard_hash("abc") != stable_shard_hash(b"abc")

    def test_nested_tuples_hash_by_content(self):
        assert stable_shard_hash((1, ("a", 2.0))) == stable_shard_hash(
            (1.0, ("a", 2))
        )

    def test_deterministic_across_calls(self):
        # Python's builtin hash() is seed-randomized for strings; the
        # routing hash must not be (placement crosses processes).
        assert stable_shard_hash("user-42") == stable_shard_hash("user-42")


class TestPartitionSchemes:
    def test_hash_partition_spreads_and_validates(self):
        part = HashPartition(0, 4)
        assert {part.shard_of(value) for value in range(200)} == {0, 1, 2, 3}
        with pytest.raises(PDMSConfigurationError):
            HashPartition(0, 0)
        with pytest.raises(PDMSConfigurationError):
            HashPartition(-1, 2)

    def test_range_partition_bisects_on_bounds(self):
        part = RangePartition(0, (10, 20))
        assert part.shards == 3
        assert part.shard_of(5) == 0
        assert part.shard_of(10) == 1  # bounds close on the left
        assert part.shard_of(15) == 1
        assert part.shard_of(20) == 2
        assert part.shard_of(99) == 2

    def test_range_partition_validates_bounds(self):
        with pytest.raises(PDMSConfigurationError):
            RangePartition(0, ())
        with pytest.raises(PDMSConfigurationError):
            RangePartition(0, (20, 10))
        with pytest.raises(PDMSConfigurationError):
            RangePartition(0, (1, "x"))

    def test_range_incomparable_value_raises_type_error(self):
        with pytest.raises(TypeError):
            RangePartition(0, (10, 20)).shard_of("not-a-number")


# ---------------------------------------------------------------------------
# The shard map
# ---------------------------------------------------------------------------

class TestShardMap:
    def map_two_shards(self):
        return ShardMap().shard_by_hash("R", 0, ["w0", "w1"])

    def test_registration_validates_shape(self):
        with pytest.raises(PDMSConfigurationError):
            ShardMap().shard_by_range("R", 0, (10,), ["w0"])  # needs 2 groups
        with pytest.raises(PDMSConfigurationError):
            ShardMap().shard_by_hash("R", 0, ["w0", ()])  # empty group
        sm = self.map_two_shards()
        with pytest.raises(PDMSConfigurationError):
            sm.shard_by_hash("R", 0, ["w0", "w1"])  # re-registration

    def test_pruning_binds_partition_column(self):
        sm = self.map_two_shards()
        part = sm.partition("R")
        for value in range(10):
            owners = sm.owners_for_pattern("R", (value, WILDCARD))
            assert owners == (f"w{part.shard_of(value)}",)

    def test_pruning_falls_back_to_fanout(self):
        sm = self.map_two_shards()
        assert sm.owners_for_pattern("R", (WILDCARD, WILDCARD)) == ("w0", "w1")
        # A pattern too short to cover the partition column fans out too.
        sm2 = ShardMap().shard_by_hash("S", 2, ["w0", "w1"])
        assert sm2.owners_for_pattern("S", (1,)) == ("w0", "w1")

    def test_pruning_unknown_relation_is_none(self):
        assert self.map_two_shards().owners_for_pattern("X", (1,)) is None

    def test_range_incomparable_constant_fans_out(self):
        sm = ShardMap().shard_by_range("R", 0, (10,), ["lo", "hi"])
        assert sm.owners_for_pattern("R", ("oops",)) == ("lo", "hi")
        assert sm.owners_for_pattern("R", (3,)) == ("lo",)
        assert sm.owners_for_pattern("R", (30,)) == ("hi",)

    def test_write_routing_and_replication(self):
        sm = ShardMap().shard_by_range(
            "R", 0, (10,), [("lo-a", "lo-b"), "hi"]
        )
        routed = sm.route_rows("R", [(1, "x"), (2, "y"), (50, "z")])
        assert routed["lo-a"] == [(1, "x"), (2, "y")]
        assert routed["lo-b"] == [(1, "x"), (2, "y")]  # replica copies
        assert routed["hi"] == [(50, "z")]

    def test_owners_for_row_errors(self):
        sm = self.map_two_shards()
        with pytest.raises(PDMSConfigurationError):
            sm.owners_for_row("X", (1,))
        with pytest.raises(ValueError):
            ShardMap().shard_by_hash("S", 2, ["w0", "w1"]).owners_for_row(
                "S", (1,)
            )  # row too narrow for the partition column
        rng = ShardMap().shard_by_range("T", 0, (10,), ["lo", "hi"])
        with pytest.raises(ValueError):
            rng.owners_for_row("T", ("incomparable",))

    def test_describe_is_json_friendly(self):
        snapshot = self.map_two_shards().describe()
        assert snapshot["R"] == {
            "scheme": "HashPartition",
            "column": 0,
            "shards": 2,
            "peers": ["w0", "w1"],
        }


class TestAutoShard:
    def test_shards_partition_the_data_exactly(self):
        inst = Instance.from_dict({"R": {(i, i * 2) for i in range(40)}})
        sm, workers = auto_shard({"P": inst}, 4)
        assert sorted(workers) == ["P#0", "P#1", "P#2", "P#3"]
        union = set()
        for worker in workers.values():
            rows = set(worker.get_tuples("R"))
            assert not rows & union  # disjoint
            union |= rows
        assert union == set(inst.get_tuples("R"))
        assert sm.is_sharded("R")

    def test_rows_land_on_the_hash_owner(self):
        inst = Instance.from_dict({"R": {(i, "v") for i in range(20)}})
        sm, workers = auto_shard({"P": inst}, 3)
        part = sm.partition("R")
        for i in range(20):
            owner = f"P#{part.shard_of(i)}"
            assert (i, "v") in workers[owner].get_tuples("R")

    def test_split_is_memoized_until_data_moves(self):
        inst = Instance.from_dict({"R": {(1, 2)}})
        _, first = auto_shard({"P": inst}, 2)
        _, second = auto_shard({"P": inst}, 2)
        assert all(first[name] is second[name] for name in first)
        inst.add("R", (9, 9))
        _, third = auto_shard({"P": inst}, 2)
        assert any(first[name] is not third[name] for name in first)
        assert (9, 9) in set().union(
            *(set(w.get_tuples("R")) for w in third.values())
        )

    def test_shard_count_change_resplits(self):
        inst = Instance.from_dict({"R": {(1, 2)}})
        _, two = auto_shard({"P": inst}, 2)
        _, three = auto_shard({"P": inst}, 3)
        assert len(three) == 3 and len(two) == 2

    def test_too_few_shards_rejected(self):
        with pytest.raises(PDMSConfigurationError):
            auto_shard({"P": Instance()}, 0)


class TestInsertRouted:
    def test_routes_to_owning_shards(self):
        inst = Instance.from_dict({"R": {(i, "old") for i in range(8)}})
        sm, workers = auto_shard({"P": inst}, 2)
        transport = LoopbackTransport(workers)
        count = insert_routed(transport, sm, "R", [(100, "new"), (101, "new")])
        assert count == 2
        part = sm.partition("R")
        for value in (100, 101):
            owner = f"P#{part.shard_of(value)}"
            assert (value, "new") in workers[owner].get_tuples("R")

    def test_unsharded_needs_fallback(self):
        transport = LoopbackTransport({"P": Instance()})
        with pytest.raises(PDMSConfigurationError):
            insert_routed(transport, None, "R", [(1,)])
        assert insert_routed(transport, None, "R", [(1,)], ["P"]) == 1
        assert set(transport.instance("P").get_tuples("R")) == {(1,)}

    def test_empty_rows_are_free(self):
        transport = LoopbackTransport({"P": Instance()})
        assert insert_routed(transport, None, "R", []) == 0
        assert transport.rpc_count == 0


# ---------------------------------------------------------------------------
# The cache peer
# ---------------------------------------------------------------------------

class TestFragmentStore:
    def test_instance_surface_matches_wire_expectations(self):
        store = FragmentStore()
        assert set(store.relations()) == {FRAGMENTS_RELATION, EVICT_RELATION}
        assert store.arity(FRAGMENTS_RELATION) == 4
        assert store.arity(EVICT_RELATION) == 1
        assert store.arity("other") is None
        assert store.cardinality(FRAGMENTS_RELATION) == 0

    def test_put_then_get_exact_token(self):
        store = FragmentStore()
        store.add(FRAGMENTS_RELATION, ("k", ("t",), ("R",), b"payload"))
        rows = store.get_matching(FRAGMENTS_RELATION, ("k", ("t",), WILDCARD, WILDCARD))
        assert rows == (("k", ("t",), ("R",), b"payload"),)
        # Token mismatch is an empty result, but the entry stays.
        assert store.get_matching(
            FRAGMENTS_RELATION, ("k", ("moved",), WILDCARD, WILDCARD)
        ) == ()
        assert len(store) == 1

    def test_version_moves_on_writes(self):
        store = FragmentStore()
        before = store.data_version(FRAGMENTS_RELATION)
        store.add(FRAGMENTS_RELATION, ("k", "t", ("R",), b"x"))
        assert store.data_version(FRAGMENTS_RELATION) != before

    def test_evict_relation_drops_readers(self):
        store = FragmentStore()
        store.add(FRAGMENTS_RELATION, ("k1", "t", ("R",), b"x"))
        store.add(FRAGMENTS_RELATION, ("k2", "t", ("S",), b"y"))
        store.add(EVICT_RELATION, ("R",))
        assert store.get_matching(
            FRAGMENTS_RELATION, ("k1", WILDCARD, WILDCARD, WILDCARD)
        ) == ()
        assert store.get_matching(
            FRAGMENTS_RELATION, ("k2", WILDCARD, WILDCARD, WILDCARD)
        )
        assert store.invalidations == 1

    def test_lru_eviction_within_budget(self):
        store = FragmentStore(max_bytes=700)  # fits two ~256+payload entries
        store.add(FRAGMENTS_RELATION, ("a", "t", (), b"x" * 50))
        store.add(FRAGMENTS_RELATION, ("b", "t", (), b"y" * 50))
        # Freshen "a" so "b" is the LRU victim.
        assert store.get_matching(FRAGMENTS_RELATION, ("a", "t", WILDCARD, WILDCARD))
        store.add(FRAGMENTS_RELATION, ("c", "t", (), b"z" * 50))
        assert store.evictions == 1
        assert store.get_matching(FRAGMENTS_RELATION, ("b", "t", WILDCARD, WILDCARD)) == ()
        assert store.get_matching(FRAGMENTS_RELATION, ("a", "t", WILDCARD, WILDCARD))

    def test_oversize_payload_dropped_silently(self):
        store = FragmentStore(max_bytes=300)
        store.add(FRAGMENTS_RELATION, ("big", "t", (), b"x" * 1000))
        assert len(store) == 0

    def test_misuse_raises_instance_error(self):
        store = FragmentStore()
        with pytest.raises(InstanceError):
            store.add("other", ("x",))
        with pytest.raises(InstanceError):
            store.add(FRAGMENTS_RELATION, ("too", "few"))
        with pytest.raises(InstanceError):
            store.add(FRAGMENTS_RELATION, ("k", "t", (), "not-bytes"))
        with pytest.raises(InstanceError):
            store.get_matching(FRAGMENTS_RELATION, ("k",))
        with pytest.raises(EvaluationError):
            FragmentStore(max_bytes=0)


class TestCacheTierClient:
    def tier(self, **kwargs):
        store = FragmentStore()
        transport = LoopbackTransport({CACHE_PEER: store})
        return store, transport, CacheTierClient(transport, **kwargs)

    def test_round_trip(self):
        _, _, client = self.tier()
        assert client.get("k", ("t",)) == ("miss", None)
        assert client.put("k", ("t",), ["R"], {"rows": (1, 2)})
        assert client.get("k", ("t",)) == ("hit", {"rows": (1, 2)})
        assert client.get("k", ("other",)) == ("miss", None)

    def test_transport_fault_degrades(self):
        _, transport, client = self.tier()
        transport.fail_peer(CACHE_PEER)
        assert client.get("k", "t") == ("error", None)
        assert client.put("k", "t", [], 1) is False
        assert client.invalidate_relations(["R"]) is False
        assert client.failures == 3

    def test_breaker_trips_and_resets(self):
        store, transport, client = self.tier(max_failures=2)
        transport.fail_peer(CACHE_PEER)
        client.get("k", "t")
        client.get("k", "t")
        assert client.degraded
        transport.restore_peer(CACHE_PEER)
        # Tripped breaker short-circuits without touching the wire.
        rpcs = transport.rpc_count
        assert client.get("k", "t") == ("error", None)
        assert transport.rpc_count == rpcs
        client.reset()
        assert client.get("k", "t") == ("miss", None)

    def test_unpicklable_values_stay_local(self):
        _, _, client = self.tier()
        assert client.put("k", "t", [], lambda: None) is False
        assert client.failures == 0  # not a cache fault


class TestFragmentCacheTierIntegration:
    def shared(self):
        store = FragmentStore()
        transport = LoopbackTransport({CACHE_PEER: store})
        return store, CacheTierClient(transport), transport

    def test_cross_cache_hit_skips_compute(self):
        _, client, _ = self.shared()
        first = FragmentCache(tier=client)
        second = FragmentCache(tier=client)
        calls = []

        def compute():
            calls.append(1)
            return ((1, 2),)

        token = (("R", ("v", 1)),)
        assert first.get_or_compute("k", token, ["R"], compute) == ((1, 2),)
        assert second.get_or_compute("k", token, ["R"], compute) == ((1, 2),)
        assert len(calls) == 1
        assert first.stats.tier_puts == 1
        assert second.stats.tier_hits == 1
        # The tier hit was promoted locally: a repeat is a local hit.
        assert second.get_or_compute("k", token, ["R"], compute) == ((1, 2),)
        assert second.stats.hits == 1

    def test_peek_probes_without_counting_local_stats(self):
        _, client, _ = self.shared()
        cache = FragmentCache(tier=client)
        token = (("R", ("v", 1)),)
        assert cache.peek("k", token, ["R"]) is False
        cache.get_or_compute("k", token, ["R"], lambda: ((1,),))
        misses = cache.stats.misses
        assert cache.peek("k", token, ["R"]) is True
        assert cache.stats.misses == misses
        assert cache.peek("k", (("R", ("v", 2)),), ["R"]) is False

    def test_peek_promotes_tier_hits(self):
        _, client, _ = self.shared()
        warmer = FragmentCache(tier=client)
        token = (("R", ("v", 1)),)
        warmer.get_or_compute("k", token, ["R"], lambda: ((1,),))
        fresh = FragmentCache(tier=client)
        assert fresh.peek("k", token, ["R"]) is True
        assert fresh.stats.tier_hits == 1
        calls = []
        fresh.get_or_compute("k", token, ["R"], lambda: calls.append(1))
        assert not calls  # served locally after the promotion

    def test_invalidate_relations_evicts_remotely(self):
        store, client, _ = self.shared()
        cache = FragmentCache(tier=client)
        token = (("R", ("v", 1)),)
        cache.get_or_compute("k", token, ["R"], lambda: ((1,),))
        assert len(store) == 1
        cache.invalidate_relations(["R"])
        assert len(store) == 0
        assert FragmentCache(tier=client).peek("k", token, ["R"]) is False

    def test_clear_stays_local(self):
        store, client, _ = self.shared()
        cache = FragmentCache(tier=client)
        cache.get_or_compute("k", "t", ["R"], lambda: ((1,),))
        cache.clear()
        assert len(store) == 1  # other processes keep their warm entries

    def test_failed_tier_degrades_to_compute(self):
        _, client, transport = self.shared()
        transport.fail_peer(CACHE_PEER)
        cache = FragmentCache(tier=client)
        value = cache.get_or_compute("k", "t", ["R"], lambda: ((9,),))
        assert value == ((9,),)
        assert cache.stats.tier_degraded > 0
        assert cache.stats.tier_hits == 0

    def test_stats_surface_in_as_dict(self):
        _, client, _ = self.shared()
        cache = FragmentCache(tier=client)
        cache.get_or_compute("k", "t", ["R"], lambda: ((1,),))
        snapshot = cache.stats.as_dict()
        for counter in ("tier_hits", "tier_misses", "tier_puts", "tier_degraded"):
            assert counter in snapshot

    def test_attach_tier_later(self):
        _, client, _ = self.shared()
        cache = FragmentCache()
        assert cache.tier is None
        cache.attach_tier(client)
        assert cache.tier is client
        cache.attach_tier(None)
        assert cache.tier is None


class TestDefaultCacheTier:
    def test_process_global_singleton(self):
        reset_default_cache_tier()
        try:
            assert default_cache_tier() is default_cache_tier()
        finally:
            reset_default_cache_tier()


# ---------------------------------------------------------------------------
# Config knobs
# ---------------------------------------------------------------------------

class TestShardingKnobs:
    def test_shards_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert config.shards() == 0

    def test_shards_parses_and_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert config.shards() == 4
        monkeypatch.setenv("REPRO_SHARDS", "banana")
        with pytest.raises(EvaluationError):
            config.shards()
        monkeypatch.setenv("REPRO_SHARDS", "-1")
        with pytest.raises(EvaluationError):
            config.shards()

    def test_cache_tier_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_TIER", raising=False)
        assert config.cache_tier_enabled() is False

    def test_cache_tier_parses_and_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_TIER", "1")
        assert config.cache_tier_enabled() is True
        monkeypatch.setenv("REPRO_CACHE_TIER", "yes")
        with pytest.raises(EvaluationError):
            config.cache_tier_enabled()

    def test_max_inflight_alias_still_importable(self):
        from repro.pdms.distributed import max_inflight_from_env

        assert max_inflight_from_env() == config.max_inflight()


# ---------------------------------------------------------------------------
# The sharded scatter path end to end
# ---------------------------------------------------------------------------

def sharded_setup(shards=4):
    inst = Instance.from_dict({"sr": {(i, f"v{i}") for i in range(32)}})
    shard_map, workers = auto_shard({"P": inst}, shards)
    transport = LoopbackTransport(workers)
    source = RemotePeerFactSource(transport, shard_map=shard_map)
    return inst, shard_map, workers, transport, source


class TestShardedSource:
    def test_point_lookup_touches_only_its_owning_shard(self):
        _, shard_map, _, transport, source = sharded_setup()
        owner = shard_map.owners_for_pattern("sr", (7, WILDCARD))[0]
        source.get_matching("sr", (7, WILDCARD))
        for peer in transport.peers():
            expected = 1 if peer == owner else 0
            assert transport.scan_count(peer) == expected
        stats = source.scatter_stats()
        assert stats["pruned_scans"] == 1
        assert stats["fanout_scans"] == 0

    def test_unpruned_scan_fans_out_and_unions(self):
        inst, _, _, transport, source = sharded_setup()
        rows = source.get_matching("sr", (WILDCARD, WILDCARD))
        assert set(rows) == set(inst.get_tuples("sr"))
        assert all(transport.scan_count(peer) == 1 for peer in transport.peers())
        assert source.scatter_stats()["fanout_scans"] == 1

    def test_sharded_equals_unsharded(self):
        inst, _, _, _, source = sharded_setup()
        flat = RemotePeerFactSource(LoopbackTransport({"P": inst}))
        for pattern in [(WILDCARD, WILDCARD), (3, WILDCARD), (WILDCARD, "v5")]:
            assert set(source.get_matching("sr", pattern)) == set(
                flat.get_matching("sr", pattern)
            )

    def test_composite_token_moves_with_any_shard(self):
        _, shard_map, workers, _, source = sharded_setup()
        before = source.data_version("sr")
        owner = shard_map.owners_for_row("sr", (1000, "new"))[0]
        workers[owner].add("sr", (1000, "new"))
        source.refresh()
        assert source.data_version("sr") != before

    def test_prefetch_wave_accounting(self):
        _, _, _, _, source = sharded_setup()
        source.prefetch([("sr", (3, WILDCARD))])
        assert source.scatter_stats()["pruned_waves"] == 1
        source.prefetch([("sr", (WILDCARD, WILDCARD)), ("sr", (4, WILDCARD))])
        stats = source.scatter_stats()
        assert stats["fanout_waves"] == 1
        assert stats["pruned_scans"] == 2
        # Already-memoized requests start no new wave.
        source.prefetch([("sr", (3, WILDCARD))])
        assert source.scatter_stats()["pruned_waves"] == 1

    def test_explicit_owner_restriction_wins(self):
        _, shard_map, _, transport, source = sharded_setup()
        owners = shard_map.owners_for_pattern("sr", (9, WILDCARD))
        source.prefetch([("sr", (9, WILDCARD), owners)])
        assert sum(transport.scan_count(p) for p in transport.peers()) == 1


def single_relation_pdms():
    pdms = PDMS("sharded")
    top = pdms.add_peer("T")
    top.add_relation("R", ["x", "y"])
    pdms.add_peer("P")
    pdms.add_storage_description(StorageDescription(
        "P", "sr", parse_query("V(x, y) :- T:R(x, y)"),
        exact=False, name="store_sr",
    ))
    return pdms


class TestShardedEngine:
    def test_repro_shards_answers_match_unsharded(self, monkeypatch):
        pdms = single_relation_pdms()
        data = {"P": Instance.from_dict({"sr": {(i, i % 5) for i in range(30)}})}
        query = parse_query("Q(x, y) :- T:R(x, y)")
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        plain = answer_query(pdms, query, data, engine="distributed")
        monkeypatch.setenv("REPRO_SHARDS", "4")
        sharded = answer_query(pdms, query, data, engine="distributed")
        assert set(sharded) == set(plain)

    def test_point_query_is_pruned_under_repro_shards(self, monkeypatch):
        pdms = single_relation_pdms()
        data = {"P": Instance.from_dict({"sr": {(i, i % 5) for i in range(30)}})}
        query = parse_query("Q(y) :- T:R(3, y)")
        monkeypatch.setenv("REPRO_SHARDS", "4")
        rows = answer_query(pdms, query, data, engine="distributed")
        assert set(rows) == {(3,)}


class TestShardedCluster:
    def build(self):
        inst = Instance.from_dict({"sr": {(i, f"v{i}") for i in range(16)}})
        shard_map, workers = auto_shard({"P": inst}, 2)
        transport = LoopbackTransport(workers)
        store = FragmentStore()
        tier_transport = LoopbackTransport({CACHE_PEER: store})
        cluster = ServiceCluster(
            pdms=single_relation_pdms(),
            transport=transport,
            shard_map=shard_map,
            cache_tier=CacheTierClient(tier_transport),
        )
        return cluster, shard_map, workers, store

    def test_describe_reports_scatter_and_sharding(self):
        cluster, _, _, _ = self.build()
        with cluster:
            query = parse_query("Q(y) :- T:R(3, y)")
            answer = cluster.answer(query)
            assert answer.complete and set(answer.rows) == {("v3",)}
            snapshot = cluster.describe()
            assert snapshot["scatter"]["pruned_scans"] >= 1
            assert snapshot["sharding"]["sr"]["shards"] == 2
            fragments = snapshot["service"]["fragments"]
            assert "tier_hits" in fragments

    def test_insert_routes_to_owning_shard(self):
        cluster, shard_map, workers, _ = self.build()
        with cluster:
            assert cluster.insert("sr", [(500, "new")]) == 1
            owner = shard_map.owners_for_row("sr", (500, "new"))[0]
            assert (500, "new") in workers[owner].get_tuples("sr")
            answer = cluster.answer(parse_query("Q(y) :- T:R(500, y)"))
            assert set(answer.rows) == {("new",)}

    def test_insert_unsharded_falls_back_to_owner(self):
        inst = Instance.from_dict({"sr": {(1, "a")}})
        cluster = ServiceCluster(
            pdms=single_relation_pdms(),
            transport=LoopbackTransport({"P": inst}),
        )
        with cluster:
            assert cluster.insert("sr", [(2, "b")]) == 1
            assert (2, "b") in inst.get_tuples("sr")

    def test_insert_needs_a_transport(self):
        from repro.pdms import QueryService

        service = QueryService(single_relation_pdms())
        cluster = ServiceCluster(service=service)
        with pytest.raises(PDMSConfigurationError):
            cluster.insert("sr", [(1, "a")])

    def test_warm_tier_serves_second_cluster(self):
        inst = Instance.from_dict({"sr": {(i, f"v{i}") for i in range(16)}})
        shard_map, workers = auto_shard({"P": inst}, 2)
        store = FragmentStore()
        tier_transport = LoopbackTransport({CACHE_PEER: store})
        query = parse_query("Q(y) :- T:R(3, y)")
        # Separate transports over the SAME live shard instances: version
        # tokens are instance-scoped, so both clusters observe the same
        # composite token space and may share tier entries.
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=LoopbackTransport(workers),
            shard_map=shard_map, cache_tier=CacheTierClient(tier_transport),
        ) as first:
            assert set(first.answer(query).rows) == {("v3",)}
            assert first.stats.fragments.tier_puts >= 1
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=LoopbackTransport(workers),
            shard_map=shard_map, cache_tier=CacheTierClient(tier_transport),
        ) as second:
            assert set(second.answer(query).rows) == {("v3",)}
            assert second.stats.fragments.tier_hits >= 1
