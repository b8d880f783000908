"""The cross-call fragment cache, admission/eviction, and bushy sharing."""

import pytest

from repro.database import Instance, Table
from repro.datalog.parser import parse_query
from repro.errors import EvaluationError, PDMSConfigurationError
from repro.pdms import (
    PDMS,
    AdmissionPolicy,
    FragmentCache,
    PeerFactSource,
    QueryService,
    StorageDescription,
    compile_reformulation,
    data_version_token,
    estimate_result_bytes,
    evaluate_plan,
    evaluate_reformulation,
    fragment_cache_from_env,
    int_from_env,
    reformulate,
)
from repro.pdms.planning import shared_workers_from_env


# ---------------------------------------------------------------------------
# FragmentCache mechanics
# ---------------------------------------------------------------------------

def _table(rows):
    return Table(("a", "b"), rows)


class TestFragmentCache:
    def test_hit_requires_matching_token(self):
        cache = FragmentCache(max_bytes=1 << 20)
        calls = []

        def compute():
            calls.append(1)
            return _table([(1, 2)])

        first = cache.get_or_compute("k", ("v1",), {"r"}, compute)
        again = cache.get_or_compute("k", ("v1",), {"r"}, compute)
        assert first is again and len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_stale_token_recomputes_and_counts_invalidation(self):
        cache = FragmentCache(max_bytes=1 << 20)
        cache.get_or_compute("k", ("v1",), {"r"}, lambda: _table([(1, 2)]))
        fresh = cache.get_or_compute("k", ("v2",), {"r"}, lambda: _table([(3, 4)]))
        assert fresh.rows == frozenset({(3, 4)})
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 2
        assert len(cache) == 1  # the stale version was replaced, not kept

    def test_byte_budget_evicts_lru(self):
        row_bytes = estimate_result_bytes(_table([(1, 2)]))
        cache = FragmentCache(max_bytes=3 * row_bytes)
        for name in ("a", "b", "c"):
            cache.get_or_compute(name, ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert set(cache.cached_keys()) == {"a", "b", "c"}
        # Touch "a" so "b" is the least recently used, then overflow.
        cache.get_or_compute("a", ("v",), {"r"}, lambda: _table([(9, 9)]))
        cache.get_or_compute("d", ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert "b" not in cache.cached_keys()
        assert cache.stats.evictions == 1
        assert cache.current_bytes <= cache.max_bytes

    def test_admission_policy_rejects_oversized_entries(self):
        small = estimate_result_bytes(_table([(1, 2)]))
        cache = FragmentCache(
            max_bytes=4 * small, policy=AdmissionPolicy(max_entry_fraction=0.5)
        )
        big = _table([(i, i) for i in range(100)])
        cache.get_or_compute("big", ("v",), {"r"}, lambda: big)
        assert len(cache) == 0
        assert cache.stats.rejections == 1

    def test_min_misses_admits_only_proven_repeat_traffic(self):
        cache = FragmentCache(
            max_bytes=1 << 20, policy=AdmissionPolicy(min_misses=2)
        )
        cache.get_or_compute("k", ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert len(cache) == 0 and cache.stats.rejections == 1
        cache.get_or_compute("k", ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert len(cache) == 1 and cache.stats.admissions == 1
        assert cache.stats.hits == 0 and cache.stats.misses == 2
        cache.get_or_compute("k", ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert cache.stats.hits == 1

    def test_min_benefit_seconds_rejects_cheap_fragments(self):
        cache = FragmentCache(
            max_bytes=1 << 20,
            policy=AdmissionPolicy(min_benefit_seconds=3600.0),
        )
        cache.get_or_compute("k", ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert len(cache) == 0 and cache.stats.rejections == 1

    def test_invalidate_relations_drops_only_readers(self):
        cache = FragmentCache(max_bytes=1 << 20)
        cache.get_or_compute("ka", ("v",), {"a"}, lambda: _table([(1, 2)]))
        cache.get_or_compute("kab", ("v",), {"a", "b"}, lambda: _table([(1, 2)]))
        cache.get_or_compute("kc", ("v",), {"c"}, lambda: _table([(1, 2)]))
        assert cache.invalidate_relations({"a"}) == 2
        assert cache.cached_keys() == ("kc",)
        assert cache.stats.invalidations == 2
        assert cache.invalidate_relations(()) == 0

    def test_clear_preserves_counters(self):
        cache = FragmentCache(max_bytes=1 << 20)
        cache.get_or_compute("k", ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.stats.misses == 1

    def test_budget_must_be_positive(self):
        with pytest.raises(EvaluationError):
            FragmentCache(max_bytes=0)


class TestVersionTokens:
    def test_token_covers_requested_relations_sorted(self):
        instance = Instance()
        instance.add("r", (1, 2))
        token = data_version_token(instance, {"s", "r"})
        assert [name for name, _ in token] == ["r", "s"]

    def test_unversioned_sources_yield_none(self):
        assert data_version_token({"r": [(1, 2)]}, {"r"}) is None

    def test_peer_fact_source_token_sees_writes_and_owner_changes(self):
        a, b = Instance(), Instance()
        a.add("r", (1, 2))
        source = PeerFactSource({"A": a})
        before = source.data_version("r")
        a.add("r", (3, 4))
        after_write = source.data_version("r")
        assert after_write != before
        b.add("r", (1, 2))
        two_owners = PeerFactSource({"A": a, "B": b}).data_version("r")
        assert two_owners != after_write
        assert PeerFactSource({}).data_version("r") == ()


# ---------------------------------------------------------------------------
# Env handling (fail fast, satellite)
# ---------------------------------------------------------------------------

class TestEnvHandling:
    def test_int_from_env_defaults_and_parses(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert int_from_env("REPRO_TEST_KNOB", 7) == 7
        monkeypatch.setenv("REPRO_TEST_KNOB", "42")
        assert int_from_env("REPRO_TEST_KNOB", 7) == 42

    @pytest.mark.parametrize("bad", ["abc", "1.5", ""])
    def test_int_from_env_fails_fast_on_garbage(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_TEST_KNOB", bad)
        with pytest.raises(EvaluationError, match="REPRO_TEST_KNOB"):
            int_from_env("REPRO_TEST_KNOB", 7)

    def test_int_from_env_enforces_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
        with pytest.raises(EvaluationError, match=">= 0"):
            int_from_env("REPRO_TEST_KNOB", 7)

    @pytest.mark.parametrize("bad", ["abc", "-1"])
    def test_shared_workers_fails_fast(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SHARED_WORKERS", bad)
        with pytest.raises(EvaluationError, match="REPRO_SHARED_WORKERS"):
            shared_workers_from_env()

    @pytest.mark.parametrize("bad", ["nope", "-5"])
    def test_fragment_cache_env_fails_fast(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_FRAGMENT_CACHE_BYTES", bad)
        with pytest.raises(EvaluationError, match="REPRO_FRAGMENT_CACHE_BYTES"):
            fragment_cache_from_env()

    def test_fragment_cache_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_FRAGMENT_CACHE_BYTES", "0")
        assert fragment_cache_from_env() is None

    def test_service_surfaces_env_mistakes_as_configuration_errors(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FRAGMENT_CACHE_BYTES", "huge")
        with pytest.raises(PDMSConfigurationError, match="REPRO_FRAGMENT_CACHE_BYTES"):
            QueryService()


# ---------------------------------------------------------------------------
# A small PDMS used by the integration-grade cases below
# ---------------------------------------------------------------------------

def _two_hop_pdms():
    pdms = PDMS()
    peer = pdms.add_peer("P")
    for relation in ("A1", "A2", "A3"):
        peer.add_relation(relation, ["x", "y"])
    pdms.add_storage_description(
        StorageDescription("P", "s_a1", parse_query("V(x, y) :- P:A1(x, y)")))
    pdms.add_storage_description(
        StorageDescription("P", "s_a2", parse_query("V(x, y) :- P:A2(x, y)")))
    for i in range(3):
        pdms.add_storage_description(
            StorageDescription("P", f"s_a3_{i}", parse_query("V(x, y) :- P:A3(x, y)")))
    query = parse_query(
        "Q(x0, x3) :- P:A1(x0, x1), P:A2(x1, x2), P:A3(x2, x3)")
    instance = Instance()
    instance.add_all("s_a1", [(1, 2), (2, 3)])
    instance.add_all("s_a2", [(2, 5), (3, 6)])
    for i in range(3):
        instance.add_all(f"s_a3_{i}", [(5, 10 + i), (6, 20 + i)])
    return pdms, query, instance


class TestCachedExecution:
    def test_warm_answers_equal_cold_for_every_engine(self):
        pdms, query, instance = _two_hop_pdms()
        expected = None
        for engine in ("backtracking", "plan", "shared", "columnar"):
            cache = FragmentCache(max_bytes=1 << 20)
            result = reformulate(pdms, query)
            cold = evaluate_reformulation(
                result, {"P": instance}, engine=engine, cache=cache)
            warm = evaluate_reformulation(
                result, {"P": instance}, engine=engine, cache=cache)
            assert warm == cold
            assert cache.stats.hits > 0, engine
            if expected is None:
                expected = cold
            assert cold == expected

    def test_write_invalidates_only_dependent_fragments(self):
        pdms, query, instance = _two_hop_pdms()
        cache = FragmentCache(max_bytes=1 << 20)
        service = QueryService(
            pdms, data={"P": instance}, engine="shared", fragment_cache=cache)
        before = service.answer(query)
        warm = service.answer(query)
        assert warm == before
        hits_before = cache.stats.hits
        # Writing one variant relation leaves the shared A1⋈A2 fragment warm.
        instance.add("s_a3_0", (5, 99))
        after = service.answer(query)
        assert (1, 99) in after
        assert cache.stats.hits > hits_before  # shared prefix still served

    def test_peer_leave_evicts_dependent_fragments(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared")
        cache = service.fragment_cache
        service.answer(query)
        assert len(cache) > 0
        service.remove_peer("P")
        assert len(cache) == 0
        assert cache.stats.invalidations > 0

    def test_plain_mapping_data_bypasses_the_cache(self):
        pdms, query, instance = _two_hop_pdms()
        cache = FragmentCache(max_bytes=1 << 20)
        result = reformulate(pdms, query)
        data = instance.as_dict()
        first = evaluate_reformulation(result, data, engine="shared", cache=cache)
        assert evaluate_reformulation(
            result, data, engine="shared", cache=cache) == first
        assert cache.stats.lookups == 0 and len(cache) == 0

    def test_service_stats_report_fragment_counters(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared")
        service.answer(query)
        service.answer(query)
        # A snapshot is the supported way to read counters: it is an
        # independent copy, not an alias onto the mutating live stats.
        fragments = service.stats_snapshot().fragments
        assert fragments.hits > 0
        assert fragments.admissions > 0
        assert 0.0 < fragments.hit_rate < 1.0
        assert service.fragment_cache is not None

    def test_service_fragment_cache_can_be_disabled(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(
            pdms, data={"P": instance}, engine="shared", fragment_cache_bytes=0)
        assert service.fragment_cache is None
        service.answer(query)
        assert service.stats.fragments.lookups == 0

    def test_clear_cache_drops_fragments_too(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared")
        service.answer(query)
        assert len(service.fragment_cache) > 0
        service.clear_cache()
        assert len(service.fragment_cache) == 0

    def test_data_override_does_not_churn_warm_entries(self):
        """A one-off override answers correctly but bypasses the cache."""
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared")
        expected = service.answer(query)
        warm_keys = service.fragment_cache.cached_keys()
        before = service.stats_snapshot()
        override = instance.copy()
        override.add("s_a3_0", (5, 321))
        assert (1, 321) in service.answer(query, data={"P": override})
        assert service.fragment_cache.cached_keys() == warm_keys
        assert service.stats_snapshot().fragments.lookups == before.fragments.lookups
        # The warm set still serves the service's own data.
        hits = service.stats_snapshot().fragments.hits
        assert service.answer(query) == expected
        assert service.stats_snapshot().fragments.hits > hits

    def test_external_shared_cache_is_not_cleared_by_one_service(self):
        pdms, query, instance = _two_hop_pdms()
        shared = FragmentCache(max_bytes=1 << 20)
        a = QueryService(pdms, data={"P": instance}, engine="shared",
                         fragment_cache=shared)
        a.answer(query)
        warm = len(shared)
        assert warm > 0
        a.clear_cache()
        assert len(shared) == warm  # external cache untouched
        a.remove_peer("P")  # version tokens alone keep `shared` correct
        assert len(shared) == warm

    def test_owned_cache_is_cleared_as_before(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared")
        service.answer(query)
        assert len(service.fragment_cache) > 0
        service.remove_peer("P")
        assert len(service.fragment_cache) == 0


class TestBushySharing:
    def test_bushy_and_left_deep_agree_with_backtracking(self):
        pdms, query, instance = _two_hop_pdms()
        result = reformulate(pdms, query)
        data = {"P": instance}
        expected = evaluate_reformulation(result, data, engine="backtracking")
        source = PeerFactSource(data)
        bushy = compile_reformulation(result, source, bushy=True)
        left = compile_reformulation(result, source, bushy=False)
        assert evaluate_plan(bushy, source) == expected
        assert evaluate_plan(left, source) == expected

    def test_bushy_shares_non_prefix_subconjunctions(self):
        """{M ⋈ R} is shared even though the cost order starts at L_i."""
        pdms = PDMS()
        peer = pdms.add_peer("P")
        for relation in ("L", "M", "R"):
            peer.add_relation(relation, ["x", "y"])
        for i in range(4):
            pdms.add_storage_description(StorageDescription(
                "P", f"s_l_{i}", parse_query("V(x, y) :- P:L(x, y)")))
        pdms.add_storage_description(StorageDescription(
            "P", "s_m", parse_query("V(x, y) :- P:M(x, y)")))
        pdms.add_storage_description(StorageDescription(
            "P", "s_r", parse_query("V(x, y) :- P:R(x, y)")))
        data = {}
        # L_i tiny (cheapest atom => left-deep prefixes start there),
        # M large, R small but joining M very selectively.
        for i in range(4):
            data[f"s_l_{i}"] = {(j, j + i) for j in range(15)}
        data["s_m"] = {(j % 40, j) for j in range(400)}
        data["s_r"] = {(j * 17 % 400, j) for j in range(20)}
        query = parse_query("Q(x, w) :- P:L(x, y), P:M(y, z), P:R(z, w)")
        result = reformulate(pdms, query)
        bushy = compile_reformulation(result, data, bushy=True)
        left = compile_reformulation(result, data, bushy=False)
        # Sharing across rewritings is a property of the enumerated
        # compile: drive it (a whole answer evaluates the factored root).
        assert len(list(bushy.fragments())) == len(list(left.fragments())) == 4
        assert evaluate_plan(bushy, data) == evaluate_plan(left, data)
        assert any(
            key.startswith("s_m(") and "s_r(" in key for key in bushy.nodes
        ), "expected a shared {M,R} fragment"
        assert bushy.stats.sharing_ratio > left.stats.sharing_ratio

    def test_alpha_equivalent_sets_share_one_node_regardless_of_order(self):
        from repro.pdms.planning import _canonical_parts, _conjunction_key

        atoms = parse_query(
            "Q(x) :- r0(x, y), r1(y, z), r2(z, 1)").relational_body()
        forward, namespace = _canonical_parts(tuple(atoms), {})
        backward, _ = _canonical_parts(tuple(reversed(atoms)), {})
        assert forward == backward
        assert set(namespace.values()) == {"_f0", "_f1", "_f2"}
        assert _conjunction_key(forward).count(" & ") == 2
