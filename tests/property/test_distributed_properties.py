"""Property tests for the distributed peer runtime.

Three families over random small PDMSs:

* **Fault-free equivalence** — the plan path over an explicitly built
  loopback :class:`RemotePeerFactSource` agrees with the in-process plan
  path, the ``"backtracking"`` oracle and the chase on every query,
  including under interleaved peer join/leave and data mutation, and
  always reports ``complete=True``.
* **Chaos soundness** — with injected peer failures or dropped scan RPCs,
  every distributed answer is a *subset* of the chase oracle's, and
  whenever anything was actually lost the ``completeness`` flag is
  ``False``; restoring the peers restores exact answers (the fragment
  cache never launders a degraded partial into a complete one).
* **Tail-latency chaos** — under the retry/hedge policy,
  transient dropped RPCs are *healed*: answers equal the chase oracle
  exactly and ``complete`` is truthfully re-earned; hedged scans against
  replicated placements stay exact; and an expired deadline budget
  degrades with an honest ``complete=False``, never a wrong answer.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pdms import (
    FragmentCache,
    LoopbackTransport,
    QueryService,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
    ShardMap,
    certain_answers,
    combine_peer_instances,
    evaluate_distributed,
    reformulate,
)

from .strategies import churn_specs, data_mutation_specs, pdms_specs
from .test_materialization_properties import _apply_mutation
from .test_service_properties import _check_three_way, _join_satellite, build_pdms

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

def _oracle(pdms, query, data):
    return certain_answers(pdms, query, combine_peer_instances(data))


def _check_over_wire(service, cache, query, data):
    """Service ≡ backtracking ≡ chase in-process, then the same
    reformulation over a loopback boundary around the live instances,
    sharing the service's fragment cache."""
    _check_three_way(service, query, data)
    source = RemotePeerFactSource(LoopbackTransport(data))
    try:
        answer = evaluate_distributed(service.reformulate(query), source, cache=cache)
    finally:
        source.close()
    assert answer.complete
    assert answer.rows == frozenset(_oracle(service.pdms, query, data))


class TestFaultFreeEquivalence:
    @given(spec=pdms_specs())
    @settings(max_examples=30, **COMMON)
    def test_distributed_equals_all_engines_and_oracle(self, spec):
        pdms, data, queries = build_pdms(spec)
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        services = {
            "backtracking": QueryService(pdms, data=data, engine="backtracking"),
            "plan in-process": QueryService(pdms, data=data),
            "plan over loopback": QueryService(pdms, data=source),
        }
        for query in queries:
            oracle = _oracle(pdms, query, data)
            for engine, service in services.items():
                assert service.answer(query) == oracle, engine
            answer = evaluate_distributed(reformulate(pdms, query), source)
            assert answer.rows == frozenset(oracle)
            assert answer.complete and not answer.failures

    @given(spec=pdms_specs(), churn=churn_specs(max_satellites=2),
           ops=data_mutation_specs(max_ops=2))
    @settings(max_examples=20, **COMMON)
    def test_equivalence_under_interleaved_churn(self, spec, churn, ops):
        """Service ≡ oracle ≡ loopback answer across join/leave + data
        mutation, one fragment cache shared by all of them."""
        pdms, data, queries = build_pdms(spec)
        cache = FragmentCache(max_bytes=1 << 20)
        service = QueryService(pdms, data=data, fragment_cache=cache)
        for query in queries:
            _check_over_wire(service, cache, query, data)
        for satellite in churn:
            extra_query = _join_satellite(
                service, satellite, spec["top_relations"], data)
            for op in ops:
                _apply_mutation(op, spec, data)
                for query in queries:
                    _check_over_wire(service, cache, query, data)
            if extra_query is not None:
                _check_over_wire(service, cache, extra_query, data)
            service.remove_peer(satellite["peer"])
            data.pop(satellite["peer"], None)
            for query in queries:
                _check_over_wire(service, cache, query, data)

    @given(spec=pdms_specs())
    @settings(max_examples=15, **COMMON)
    def test_cluster_matches_oracle_and_reports_complete(self, spec):
        pdms, data, queries = build_pdms(spec)
        with ServiceCluster(
            pdms=pdms, transport=LoopbackTransport(data)
        ) as cluster:
            for answer, query in zip(cluster.answer_many(queries), queries):
                assert answer.rows == frozenset(_oracle(pdms, query, data))
                assert answer.complete


class TestChaosSoundness:
    @given(spec=pdms_specs(), fail_index=st.integers(min_value=0, max_value=7))
    @settings(max_examples=25, **COMMON)
    def test_failed_peer_yields_sound_incomplete_subset(self, spec, fail_index):
        pdms, data, queries = build_pdms(spec)
        peers = sorted(data)
        doomed = peers[fail_index % len(peers)]
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        transport.fail_peer(doomed)
        for query in queries:
            oracle = frozenset(_oracle(pdms, query, data))
            window = source.failure_count
            answer = evaluate_distributed(reformulate(pdms, query), source)
            assert answer.rows <= oracle
            if source.failure_count > window or not source.complete:
                assert not answer.complete
            else:
                # Nothing this query needed was lost: exact and complete.
                assert answer.complete and answer.rows == oracle
        transport.restore_peer(doomed)
        for query in queries:
            healed = evaluate_distributed(reformulate(pdms, query), source)
            assert healed.complete
            assert healed.rows == frozenset(_oracle(pdms, query, data))

    @given(spec=pdms_specs(), drop_every=st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, **COMMON)
    def test_dropped_scans_stay_sound_with_honest_flag(self, spec, drop_every):
        pdms, data, queries = build_pdms(spec)
        transport = LoopbackTransport(data, drop_every_n=drop_every)
        source = RemotePeerFactSource(transport)
        for query in queries:
            oracle = frozenset(_oracle(pdms, query, data))
            window = source.failure_count
            answer = evaluate_distributed(reformulate(pdms, query), source)
            assert answer.rows <= oracle
            if answer.failures or source.failure_count > window:
                assert not answer.complete
        # Chaos off: the next round must be exact again — degraded scans
        # were never admitted to any cache under a valid token.
        transport.drop_every_n = 0
        for query in queries:
            healed = evaluate_distributed(reformulate(pdms, query), source)
            assert healed.complete
            assert healed.rows == frozenset(_oracle(pdms, query, data))

    @given(spec=pdms_specs(), drop_every=st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, **COMMON)
    def test_chaos_with_shared_fragment_cache_never_pollutes(self, spec, drop_every):
        """A warm cache shared across faulty and healthy calls stays honest."""
        pdms, data, queries = build_pdms(spec)
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(transport)
        cache = FragmentCache(max_bytes=1 << 20)
        for query in queries:  # warm, fault-free
            answer = evaluate_distributed(
                reformulate(pdms, query), source, cache=cache)
            assert answer.rows == frozenset(_oracle(pdms, query, data))
        transport.drop_every_n = drop_every
        for query in queries:  # chaos window
            answer = evaluate_distributed(
                reformulate(pdms, query), source, cache=cache)
            assert answer.rows <= frozenset(_oracle(pdms, query, data))
        transport.drop_every_n = 0
        for query in queries:  # healed: exact again through the same cache
            healed = evaluate_distributed(
                reformulate(pdms, query), source, cache=cache)
            assert healed.complete
            assert healed.rows == frozenset(_oracle(pdms, query, data))


#: Deterministic tail-latency policies: no backoff sleeps, no jitter.
_FAST = dict(backoff=0.0, backoff_cap=0.0, jitter=0.0)


def _replicate(data):
    """Mirror each single-owner relation onto a twin peer sharing the same
    live instance (perfect replicas), registered as one replicated shard.

    Multi-owner relations stay unregistered — their rows are split across
    peers, so replica-group semantics would not be sound for them.
    """
    owners = {}
    for peer, instance in data.items():
        for relation in instance.relations():
            owners.setdefault(relation, []).append(peer)
    mirrored = dict(data)
    shard_map = ShardMap()
    for relation, rel_owners in owners.items():
        if len(rel_owners) != 1:
            continue
        peer = rel_owners[0]
        twin = f"{peer}~replica"
        mirrored.setdefault(twin, data[peer])
        shard_map.shard_by_hash(relation, 0, [(peer, twin)])
    return mirrored, shard_map


class TestTailLatencyChaos:
    @given(spec=pdms_specs(), drop_every=st.integers(min_value=2, max_value=5))
    @settings(max_examples=15, **COMMON)
    def test_retries_heal_transient_drops_exactly(self, spec, drop_every):
        """Bounded retries turn every transient drop into an exact,
        truthfully *complete* answer — degradation is re-earned, not
        permanent (consecutive scan RPCs can never both be dropped)."""
        pdms, data, queries = build_pdms(spec)
        transport = LoopbackTransport(data, drop_every_n=drop_every)
        source = RemotePeerFactSource(
            transport, policy=ScanPolicy(retries=3, hedging=False, **_FAST)
        )
        for query in queries:
            answer = evaluate_distributed(reformulate(pdms, query), source)
            assert answer.rows == frozenset(_oracle(pdms, query, data))
            assert answer.complete and not answer.failures
        assert source.failure_count == 0

    @given(spec=pdms_specs(), drop_every=st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, **COMMON)
    def test_hedged_replicated_scans_stay_exact(self, spec, drop_every):
        """Aggressive hedging across replicas, racing under dropped RPCs,
        still agrees with the chase oracle exactly — first-success-wins
        never mixes partial results."""
        pdms, data, queries = build_pdms(spec)
        mirrored, shard_map = _replicate(data)
        transport = LoopbackTransport(mirrored, drop_every_n=drop_every)
        source = RemotePeerFactSource(
            transport,
            shard_map=shard_map,
            policy=ScanPolicy(retries=3, hedge=0.0, hedging=True, **_FAST),
        )
        for query in queries:
            answer = evaluate_distributed(reformulate(pdms, query), source)
            assert answer.rows == frozenset(_oracle(pdms, query, data))
            assert answer.complete

    @given(spec=pdms_specs())
    @settings(max_examples=8, **COMMON)
    def test_deadline_expiry_reports_incomplete_then_heals(self, spec):
        """An expired deadline budget degrades honestly — a sound subset
        with ``complete=False`` — and the next healthy round is exact."""
        pdms, data, queries = build_pdms(spec)
        transport = LoopbackTransport(data)
        source = RemotePeerFactSource(
            transport,
            policy=ScanPolicy(retries=1, hedging=False, deadline=0.02, **_FAST),
        )
        slow = sorted(data)[0]
        transport.set_peer_delay(slow, 0.1)
        for query in queries[:2]:
            oracle = frozenset(_oracle(pdms, query, data))
            window = source.failure_count
            answer = evaluate_distributed(reformulate(pdms, query), source)
            assert answer.rows <= oracle
            if source.failure_count > window:
                assert not answer.complete
                assert source.scatter_stats()["deadline_expiries"] >= 1
        transport.set_peer_delay(slow, 0.0)
        for query in queries[:2]:
            healed = evaluate_distributed(reformulate(pdms, query), source)
            assert healed.complete
            assert healed.rows == frozenset(_oracle(pdms, query, data))
