"""Property-based tests for sharded placement.

The central invariant, over random small PDMSs:

    sharded scatter-gather ≡ unsharded evaluation ≡ the chase oracle

at every point of an interleaved data-mutation stream and a catalogue
churn sequence (peer join/leave) — i.e. hash-partitioning stored
relations across worker shards, pruning scans to owning shards, and
splitting again after data moved are all answer-invisible.  Plus the failure
semantics: a dead *shard* yields a sound subset with ``complete=False``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pdms import (
    LoopbackTransport,
    QueryService,
    RemotePeerFactSource,
    ServiceCluster,
    answer_query,
    auto_shard,
    certain_answers,
    combine_peer_instances,
)
from repro.pdms.distributed import insert_routed

from .strategies import churn_specs, data_mutation_specs, pdms_specs
from .test_materialization_properties import _apply_mutation
from .test_service_properties import _join_satellite, build_pdms

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

SHARD_COUNTS = st.sampled_from([2, 3, 4])


def _sharded_answers(pdms, data, query, shards):
    """Answer ``query`` over ``data`` hash-partitioned across ``shards``.

    Builds the sharded world from the live per-peer instances (one split
    per call: the shards are copies of the data as it is now) and serves
    one answer from a service over it.
    """
    shard_map, workers = auto_shard(data, shards)
    transport = LoopbackTransport(workers)
    source = RemotePeerFactSource(transport, shard_map=shard_map)
    try:
        service = QueryService(pdms, data=source)
        return service.answer(query)
    finally:
        source.close()


def _check_sharded_three_way(pdms, data, query, shards):
    combined = combine_peer_instances(data)
    fresh = answer_query(pdms, query, combined, engine="backtracking")
    oracle = certain_answers(pdms, query, combined)
    sharded = _sharded_answers(pdms, data, query, shards)
    assert sharded == fresh, f"sharded != unsharded on {query}"
    assert sharded == oracle, f"sharded != oracle on {query}"


class TestShardedEquivalence:
    @given(spec=pdms_specs(), shards=SHARD_COUNTS)
    @settings(max_examples=25, **COMMON)
    def test_static_sharded_equals_unsharded_equals_oracle(self, spec, shards):
        pdms, data, queries = build_pdms(spec)
        for query in queries:
            _check_sharded_three_way(pdms, data, query, shards)

    @given(spec=pdms_specs(), ops=data_mutation_specs(), shards=SHARD_COUNTS)
    @settings(max_examples=20, **COMMON)
    def test_interleaved_mutation_preserves_equivalence(self, spec, ops, shards):
        """query → mutate → query; the re-split sees every write."""
        pdms, data, queries = build_pdms(spec)
        for query in queries:
            _check_sharded_three_way(pdms, data, query, shards)
        for op in ops:
            _apply_mutation(op, spec, data)
            for query in queries:
                _check_sharded_three_way(pdms, data, query, shards)

    @given(
        spec=pdms_specs(),
        churn=churn_specs(max_satellites=1),
        shards=SHARD_COUNTS,
    )
    @settings(max_examples=15, **COMMON)
    def test_peer_churn_preserves_equivalence(self, spec, churn, shards):
        """join peer → query → remove peer → query, sharded at every step."""
        pdms, data, queries = build_pdms(spec)
        bookkeeper = QueryService(pdms, data=data)
        for query in queries:
            _check_sharded_three_way(pdms, data, query, shards)
        for satellite in churn:
            extra_query = _join_satellite(
                bookkeeper, satellite, spec["top_relations"], data
            )
            checks = queries + ([extra_query] if extra_query else [])
            for query in checks:
                _check_sharded_three_way(pdms, data, query, shards)
            bookkeeper.remove_peer(satellite["peer"])
            data.pop(satellite["peer"], None)
            for query in queries:
                _check_sharded_three_way(pdms, data, query, shards)

    @given(spec=pdms_specs(), shards=SHARD_COUNTS)
    @settings(max_examples=15, **COMMON)
    def test_mutation_moves_the_composite_token(self, spec, shards):
        """A routed write to any shard moves the relation's composite token."""
        _, data, _ = build_pdms(spec)
        if not data:
            return
        _, instance = next(iter(data.items()))
        relation = next(iter(instance.relations()), None)
        if relation is None:
            return
        shard_map, workers = auto_shard(data, shards)
        transport = LoopbackTransport(workers)
        source = RemotePeerFactSource(transport, shard_map=shard_map)
        before = source.data_version(relation)
        insert_routed(transport, shard_map, relation, [("fresh", "row")],
                      fallback_peers=source.owners(relation))
        source.refresh()
        assert source.data_version(relation) != before
        source.close()


class TestShardFailureSoundness:
    @given(spec=pdms_specs(), shards=SHARD_COUNTS, victim=st.integers(0, 3))
    @settings(max_examples=15, **COMMON)
    def test_dead_shard_yields_sound_subset_with_honest_completeness(
        self, spec, shards, victim
    ):
        pdms, data, queries = build_pdms(spec)
        if not data or not queries:
            return
        shard_map, workers = auto_shard(data, shards)
        transport = LoopbackTransport(workers)
        dead = sorted(workers)[victim % len(workers)]
        transport.fail_peer(dead)
        cluster = ServiceCluster(
            pdms=pdms, transport=transport, shard_map=shard_map
        )
        combined = combine_peer_instances(data)
        with cluster:
            for query in queries:
                oracle = certain_answers(pdms, query, combined)
                answer = cluster.answer(query)
                assert answer.rows <= oracle, "lost shard must only lose rows"
                assert not answer.complete, (
                    "an unreachable shard must clear the completeness flag"
                )
