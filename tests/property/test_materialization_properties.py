"""Property tests for cross-call fragment materialization (ISSUE 4).

The central invariant, over random small PDMSs with random interleavings
of queries, per-peer data inserts/deletes, and peer join/leave:

    answers through a warm :class:`~repro.pdms.materialization.FragmentCache`
    ≡ a cold ``answer_query`` ≡ the chase oracle (``certain_answers``)

at *every* point of the interleaving — i.e. version-keyed fragment tables
with admission/eviction are indistinguishable from evaluating from
scratch.  A second family pins the bushy compiler: its factored root, its
root-by-root loop and the backtracking evaluator agree, and one compiled
plan reused with one cache across data mutations answers warm as cold.
"""

from hypothesis import HealthCheck, given, settings

from repro.pdms import (
    FragmentCache,
    PeerFactSource,
    QueryService,
    combine_peer_instances,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    reformulate,
    stream_answers,
)

from .strategies import churn_specs, data_mutation_specs, pdms_specs
from .test_service_properties import _check_three_way, _join_satellite, build_pdms

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

def _apply_mutation(op, spec, data):
    """Apply one insert/delete op to the spec'd bottom peer's instance."""
    bottom = spec["bottom"]
    entry = bottom[op["bottom_index"] % len(bottom)]
    instance = data[entry["peer"]]
    relation = entry["stored"]
    if op["kind"] == "insert":
        instance.add(relation, op["row"])
    elif tuple(op["row"]) in set(instance.get_tuples(relation)):
        instance.remove(relation, op["row"])


class TestCachedEqualsFresh:
    @given(spec=pdms_specs(), ops=data_mutation_specs())
    @settings(max_examples=30, **COMMON)
    def test_interleaved_data_mutation(self, spec, ops):
        """query → mutate → query, warm cache vs fresh vs oracle throughout."""
        pdms, data, queries = build_pdms(spec)
        service = QueryService(
            pdms, data=data,
            fragment_cache=FragmentCache(max_bytes=1 << 20),
        )
        for query in queries:
            _check_three_way(service, query, data)
        for op in ops:
            _apply_mutation(op, spec, data)
            for query in queries:
                _check_three_way(service, query, data)

    @given(spec=pdms_specs(), churn=churn_specs(max_satellites=1),
           ops=data_mutation_specs(max_ops=2))
    @settings(max_examples=20, **COMMON)
    def test_interleaved_catalogue_and_data_churn(self, spec, churn, ops):
        """Mutations interleaved with peer join/leave keep all three equal."""
        pdms, data, queries = build_pdms(spec)
        service = QueryService(
            pdms, data=data, engine="columnar",
            fragment_cache=FragmentCache(max_bytes=1 << 20),
        )
        for query in queries:
            _check_three_way(service, query, data)
        for satellite in churn:
            extra_query = _join_satellite(
                service, satellite, spec["top_relations"], data)
            for op in ops:
                _apply_mutation(op, spec, data)
                for query in queries:
                    _check_three_way(service, query, data)
            if extra_query is not None:
                _check_three_way(service, extra_query, data)
            service.remove_peer(satellite["peer"])
            data.pop(satellite["peer"], None)
            for query in queries:
                _check_three_way(service, query, data)

    @given(spec=pdms_specs(), ops=data_mutation_specs())
    @settings(max_examples=15, **COMMON)
    def test_tight_budget_and_picky_admission_stay_correct(self, spec, ops):
        """Evicting and rejecting aggressively never changes answers:
        a 512-byte budget keeps only tables under 256 bytes and turns
        them over constantly."""
        pdms, data, queries = build_pdms(spec)
        cache = FragmentCache(max_bytes=512)
        service = QueryService(
            pdms, data=data, engine="columnar", fragment_cache=cache)
        for _ in range(2):
            for query in queries:
                _check_three_way(service, query, data)
        for op in ops:
            _apply_mutation(op, spec, data)
            for query in queries:
                _check_three_way(service, query, data)

    @given(spec=pdms_specs(), ops=data_mutation_specs())
    @settings(max_examples=15, **COMMON)
    def test_services_sharing_one_cache_stay_exact(self, spec, ops):
        """Two services over the same data and a third over a private copy
        share one cache; the copy diverges under the mutations, and every
        service keeps answering from its own data."""
        pdms, data, queries = build_pdms(spec)
        copied = {peer: instance.copy() for peer, instance in data.items()}
        shared = FragmentCache(max_bytes=1 << 20)
        same_data = [
            QueryService(pdms, data=data, fragment_cache=shared)
            for _ in range(2)
        ]
        on_copy = QueryService(pdms, data=copied, fragment_cache=shared)
        for op in [None, *ops]:
            if op is not None:
                _apply_mutation(op, spec, data)
            for query in queries:
                for service in same_data:
                    _check_three_way(service, query, data)
                _check_three_way(on_copy, query, copied)


class TestBushyEquivalence:
    @given(spec=pdms_specs())
    @settings(max_examples=25, **COMMON)
    def test_bushy_equals_backtracking(self, spec):
        pdms, data, queries = build_pdms(spec)
        source = PeerFactSource(data)
        combined = combine_peer_instances(data)
        for query in queries:
            result = reformulate(pdms, query)
            expected = evaluate_reformulation(
                result, combined, engine="backtracking")
            plan = compile_reformulation(result, source)
            assert evaluate_plan(plan, source) == expected
            assert set(stream_answers(plan.result, source, plan=plan)) == expected

    @given(spec=pdms_specs(), ops=data_mutation_specs(max_ops=2))
    @settings(max_examples=15, **COMMON)
    def test_warm_plan_with_cache_tracks_mutating_data(self, spec, ops):
        """One compiled plan + one cache, reused across data mutations."""
        pdms, data, queries = build_pdms(spec)
        source = PeerFactSource(data)
        cache = FragmentCache(max_bytes=1 << 20)
        plans = [
            (query, compile_reformulation(reformulate(pdms, query), source))
            for query in queries
        ]
        for _ in range(2):
            for query, plan in plans:
                fresh = evaluate_plan(plan, source)
                assert evaluate_plan(plan, source, cache=cache) == fresh
        for op in ops:
            _apply_mutation(op, spec, data)
            for query, plan in plans:
                fresh = evaluate_plan(plan, source)
                assert evaluate_plan(plan, source, cache=cache) == fresh
