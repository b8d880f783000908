"""Unit tests for shard-aware placement.

Covers stable cross-process routing hashes, the hash/range partition
schemes, :class:`ShardMap` registration and the pruning rule,
:func:`auto_shard` splitting, routed inserts, and the sharded scatter
path end to end (per-shard scan counters, pruned-vs-fanout accounting,
answers over an explicitly sharded source, cluster describe/insert, two
clusters sharing one :class:`FragmentCache`).
"""

from __future__ import annotations


import pytest

from repro import config
from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.errors import PDMSConfigurationError
from repro.pdms import (
    DEFAULT_CONFIG,
    PDMS,
    FragmentCache,
    HashPartition,
    LoopbackTransport,
    RangePartition,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
    ShardMap,
    StorageDescription,
    answer_query,
    auto_shard,
)
from repro.pdms.distributed import insert_routed, stable_shard_hash


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

    def test_a_split_copies_the_data_of_its_call(self):
        inst = Instance.from_dict({"R": {(1, 2)}})
        _, first = auto_shard({"P": inst}, 2)
        inst.add("R", (9, 9))
        _, second = auto_shard({"P": inst}, 2)
        assert (9, 9) not in set().union(
            *(set(w.get_tuples("R")) for w in first.values())
        )
        assert (9, 9) in set().union(
            *(set(w.get_tuples("R")) for w in second.values())
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
# Config knobs
# ---------------------------------------------------------------------------

class TestShardingKnobs:
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


def sharded_source(data, shards=4):
    """A remote source over ``data`` split once across ``shards`` workers."""
    shard_map, workers = auto_shard(data, shards)
    return RemotePeerFactSource(LoopbackTransport(workers), shard_map=shard_map)


class TestShardedEngine:
    def test_sharded_answers_match_unsharded(self):
        pdms = single_relation_pdms()
        data = {"P": Instance.from_dict({"sr": {(i, i % 5) for i in range(30)}})}
        query = parse_query("Q(x, y) :- T:R(x, y)")
        plain = answer_query(pdms, query, data, engine="backtracking")
        source = sharded_source(data)
        sharded = answer_query(pdms, query, source)
        assert set(sharded) == set(plain)
        assert source.scatter_stats()["fanout_scans"] >= 1
        source.close()

    def test_point_query_is_pruned_on_a_sharded_source(self):
        pdms = single_relation_pdms()
        data = {"P": Instance.from_dict({"sr": {(i, i % 5) for i in range(30)}})}
        query = parse_query("Q(y) :- T:R(3, y)")
        source = sharded_source(data)
        rows = answer_query(pdms, query, source)
        assert set(rows) == {(3,)}
        stats = source.scatter_stats()
        assert stats["pruned_waves"] == 1 and stats["fanout_waves"] == 0
        source.close()


class TestShardedCluster:
    def build(self):
        inst = Instance.from_dict({"sr": {(i, f"v{i}") for i in range(16)}})
        shard_map, workers = auto_shard({"P": inst}, 2)
        cluster = ServiceCluster(
            pdms=single_relation_pdms(),
            transport=LoopbackTransport(workers),
            shard_map=shard_map,
        )
        return cluster, shard_map, workers

    def test_describe_reports_scatter_and_sharding(self):
        cluster, _, _ = self.build()
        with cluster:
            query = parse_query("Q(y) :- T:R(3, y)")
            answer = cluster.answer(query)
            assert answer.complete and set(answer.rows) == {("v3",)}
            snapshot = cluster.describe()
            assert snapshot["scatter"]["pruned_scans"] >= 1
            assert snapshot["sharding"]["sr"]["shards"] == 2
            fragments = snapshot["service"]["fragments"]
            assert "hits" in fragments

    def test_insert_routes_to_owning_shard(self):
        cluster, shard_map, workers = self.build()
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

    @pytest.mark.parametrize("setting", [
        {"config": DEFAULT_CONFIG},
        {"engine": "columnar"},
        {"fragment_cache_bytes": 0},
        {"fragment_cache": FragmentCache()},
        {"scan_policy": ScanPolicy()},
    ], ids=lambda setting: next(iter(setting)))
    def test_prebuilt_service_rejects_settings_it_would_ignore(self, setting):
        from repro.pdms import QueryService

        service = QueryService(single_relation_pdms())
        with pytest.raises(PDMSConfigurationError, match=next(iter(setting))):
            ServiceCluster(service=service, **setting)

    def test_shared_cache_serves_second_cluster(self):
        inst = Instance.from_dict({"sr": {(i, f"v{i}") for i in range(16)}})
        shard_map, workers = auto_shard({"P": inst}, 2)
        shared = FragmentCache()
        query = parse_query("Q(y) :- T:R(3, y)")
        # Separate transports over the SAME live shard instances: version
        # tokens are instance-scoped, so both clusters observe the same
        # composite token space and may share cache entries.
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=LoopbackTransport(workers),
            shard_map=shard_map, fragment_cache=shared,
        ) as first:
            assert set(first.answer(query).rows) == {("v3",)}
            assert shared.stats.admissions >= 1
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=LoopbackTransport(workers),
            shard_map=shard_map, fragment_cache=shared,
        ) as second:
            assert second.service.fragment_cache is shared
            hits, misses = shared.stats.hits, shared.stats.misses
            answer = second.answer(query)
            assert answer.complete and set(answer.rows) == {("v3",)}
            assert shared.stats.hits > hits
            assert shared.stats.misses == misses  # nothing recomputed
            # `peek` finds the root warm and skips the scatter round: the
            # only scans are the first answer's one statistics read per
            # shard, and a repeat touches no shard at all.
            scatter = second.source.scatter_stats()
            assert scatter["pruned_waves"] == scatter["fanout_waves"] == 0
            assert scatter["pruned_scans"] == 0
            transport = second.transport
            scans = sum(transport.scan_count(p) for p in transport.peers())
            assert scans == len(workers)
            second.answer(query)
            assert sum(transport.scan_count(p) for p in transport.peers()) == scans

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_clusters_sharing_a_cache_see_each_others_writes(self, shards):
        inst = Instance.from_dict({"sr": {(i, f"v{i}") for i in range(16)}})
        shard_map, workers = auto_shard({"P": inst}, shards)
        shared = FragmentCache()
        scan_all = parse_query("Q(x, y) :- T:R(x, y)")
        clusters = [
            ServiceCluster(
                pdms=single_relation_pdms(), transport=LoopbackTransport(workers),
                shard_map=shard_map, fragment_cache=shared,
            )
            for _ in range(2)
        ]
        writer, reader = clusters
        try:
            before = reader.answer(scan_all)
            assert before.complete and len(before.rows) == 16
            assert writer.answer(scan_all).rows == before.rows
            writer.insert("sr", [(100, "new")])
            # The shared entry was written under the pre-insert token, so
            # the reader must not be served it.
            after = reader.answer(scan_all)
            assert after.complete
            assert after.rows == before.rows | {(100, "new")}
            assert writer.answer(scan_all).rows == after.rows
        finally:
            for cluster in clusters:
                cluster.close()

    def test_sharded_and_flat_clusters_sharing_a_cache_stay_apart(self):
        """Two clusters over different instances with the same relation
        names: version tokens are instance-scoped, so one shared cache
        never serves one cluster's fragment to the other."""
        flat = Instance.from_dict({"sr": {(i, f"flat{i}") for i in range(8)}})
        split = Instance.from_dict({"sr": {(i, f"split{i}") for i in range(8)}})
        shard_map, workers = auto_shard({"P": split}, 2)
        shared = FragmentCache()
        query = parse_query("Q(x, y) :- T:R(x, y)")
        with ServiceCluster(
            pdms=single_relation_pdms(), transport=LoopbackTransport({"P": flat}),
            fragment_cache=shared,
        ) as flat_cluster, ServiceCluster(
            pdms=single_relation_pdms(), transport=LoopbackTransport(workers),
            shard_map=shard_map, fragment_cache=shared,
        ) as sharded_cluster:
            for _ in range(2):
                assert flat_cluster.answer(query).rows == set(flat.get_tuples("sr"))
                assert sharded_cluster.answer(query).rows == set(
                    split.get_tuples("sr"))
