#!/usr/bin/env python3
"""One peer relation, hash-sharded four ways, with a shared fragment cache.

A single data-bearing peer ``P`` stores a 4,000-row relation.
``auto_shard`` splits it across four loopback workers under a
:class:`~repro.pdms.distributed.sharding.ShardMap`; a
:class:`~repro.pdms.distributed.cluster.ServiceCluster` then answers
from the factored plan over a remote source with shard-aware routing:

* a full scan fans out to all four shards (scattered concurrently);
* a constant-bound point lookup is **pruned** to the single owning
  shard — watch the per-shard scan counters;
* a routed insert lands on exactly the owning shard and moves the
  relation's composite version token;
* a second cluster (its own transport over the same live shards)
  handed the first cluster's :class:`~repro.pdms.materialization.FragmentCache`
  answers a join query from the warm fragment, without a scatter round
  over the shards.

Run it with::

    python examples/sharded_cluster.py
"""

from repro.database import Instance
from repro.datalog import parse_query
from repro.pdms import (
    PDMS,
    FragmentCache,
    LoopbackTransport,
    ServiceCluster,
    StorageDescription,
    auto_shard,
)

ROWS = 4000


def build_pdms():
    pdms = PDMS("sharded-example")
    top = pdms.add_peer("T")
    top.add_relation("R", ["x", "y"])
    pdms.add_peer("P")
    pdms.add_storage_description(StorageDescription(
        "P", "sr", parse_query("V(x, y) :- T:R(x, y)"),
        exact=False, name="store_sr",
    ))
    return pdms


def scan_counts(transport, workers):
    return {name: transport.scan_count(name) for name in sorted(workers)}


def main():
    data = {"P": Instance.from_dict({"sr": {(i, i % 97) for i in range(ROWS)}})}
    shard_map, workers = auto_shard(data, 4)
    print(f"sharded {ROWS} rows of P.sr across {sorted(workers)}")

    shared = FragmentCache()
    join = parse_query("Q(x, z) :- T:R(x, y), T:R(y, z)")

    transport = LoopbackTransport(workers)
    with ServiceCluster(
        pdms=build_pdms(), transport=transport, shard_map=shard_map,
        fragment_cache=shared,
    ) as cluster:
        # Act 1: full scan fans out, point lookup prunes.
        full = cluster.answer(parse_query("Q(x, y) :- T:R(x, y)"))
        print(f"\nfull scan     -> {len(full.rows)} rows, "
              f"per-shard scans {scan_counts(transport, workers)}")
        point = cluster.answer(parse_query("Q(y) :- T:R(1234, y)"))
        print(f"point lookup  -> {sorted(point.rows)}, "
              f"per-shard scans {scan_counts(transport, workers)}")
        scatter = cluster.describe()["scatter"]
        print(f"scatter stats -> pruned={scatter['pruned_scans']} "
              f"fanout={scatter['fanout_scans']}")

        # Act 2: a routed insert lands on the owning shard only.
        cluster.insert("sr", [(777_777, "fresh")])
        owner = shard_map.owners_for_row("sr", (777_777, "fresh"))[0]
        lookup = cluster.answer(parse_query("Q(y) :- T:R(777777, y)"))
        print(f"\ninsert routed to {owner}; lookup -> {sorted(lookup.rows)}")

        # Act 3: the join fragment is kept in the shared cache.
        first = cluster.answer(join)
        print(f"\njoin answered -> {len(first.rows)} rows; shared cache "
              f"holds {len(shared)} fragments ({shared.current_bytes} bytes)")

    # Act 4: a second cluster (its own transport) over the same live
    # shards shares the cache; version tokens are instance-scoped, so the
    # warm join fragment is valid for it too.
    second_transport = LoopbackTransport(workers)
    with ServiceCluster(
        pdms=build_pdms(), transport=second_transport, shard_map=shard_map,
        fragment_cache=shared,
    ) as second:
        hits, misses = shared.stats.hits, shared.stats.misses
        answer = second.answer(join)
        scatter = second.describe()["scatter"]
        waves = scatter["pruned_waves"] + scatter["fanout_waves"]
        print(f"second cluster -> {len(answer.rows)} join rows, "
              f"fragment hits {shared.stats.hits - hits}, "
              f"recomputed {shared.stats.misses - misses}, "
              f"scatter waves {waves}")
        # The only shard reads are planning's one-off statistics read.
        print(f"                  per-shard scans "
              f"{scan_counts(second_transport, workers)}")
        assert answer.rows == first.rows and answer.complete
        assert shared.stats.hits > hits and shared.stats.misses == misses
        assert waves == 0


if __name__ == "__main__":
    main()
