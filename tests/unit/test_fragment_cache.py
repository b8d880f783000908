"""The cross-call fragment cache, admission/eviction, and bushy sharing."""

import threading

import pytest

from repro.database import Instance
from repro.database.columnar import ColumnTable
from repro.datalog.parser import parse_query
from repro.errors import EvaluationError, PDMSConfigurationError
from repro.pdms import (
    PDMS,
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
from repro.config import float_from_env, trace_sample_rate


# ---------------------------------------------------------------------------
# FragmentCache mechanics
# ---------------------------------------------------------------------------

def _table(rows):
    return ColumnTable.from_rows(("a", "b"), rows)


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
        assert set(fresh.iter_rows()) == {(3, 4)}
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

    def test_oversized_entries_are_rejected(self):
        small = estimate_result_bytes(_table([(1, 2)]))
        cache = FragmentCache(max_bytes=4 * small)
        big = _table([(i, i) for i in range(100)])
        cache.get_or_compute("big", ("v",), {"r"}, lambda: big)
        assert len(cache) == 0
        assert cache.stats.rejections == 1
        # The rule's boundary: a table is kept iff it fits in half the budget.
        for budget, kept in ((2 * small, 1), (2 * small - 1, 0)):
            cache = FragmentCache(max_bytes=budget)
            cache.get_or_compute("k", ("v",), {"r"}, lambda: _table([(1, 2)]))
            assert len(cache) == cache.stats.admissions == kept
            assert cache.stats.rejections == 1 - kept

    def test_peek_probes_without_counting(self):
        cache = FragmentCache(max_bytes=1 << 20)
        assert cache.peek("k", ("v1",)) is False
        cache.get_or_compute("k", ("v1",), {"r"}, lambda: _table([(1, 2)]))
        before = cache.stats.as_dict()
        assert cache.peek("k", ("v1",)) is True
        assert cache.peek("k", ("v2",)) is False
        assert cache.stats.as_dict() == before

    def test_peek_leaves_lru_order_alone(self):
        row_bytes = estimate_result_bytes(_table([(1, 2)]))
        cache = FragmentCache(max_bytes=2 * row_bytes)
        for name in ("a", "b"):
            cache.get_or_compute(name, ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert cache.peek("a", ("v",)) is True
        cache.get_or_compute("c", ("v",), {"r"}, lambda: _table([(1, 2)]))
        # A probe is not a use: "a" was still the least recently used.
        assert cache.cached_keys() == ("b", "c")

    def test_peek_at_a_moved_token_keeps_the_entry(self):
        cache = FragmentCache(max_bytes=1 << 20)
        cache.get_or_compute("k", ("v1",), {"r"}, lambda: _table([(1, 2)]))
        assert cache.peek("k", ("v2",)) is False
        assert cache.cached_keys() == ("k",)
        assert cache.stats.invalidations == 0
        # The lookup at the new token is what replaces the entry.
        cache.get_or_compute("k", ("v2",), {"r"}, lambda: _table([(3, 4)]))
        assert len(cache) == 1 and cache.stats.invalidations == 1

    def test_racing_misses_keep_one_entry_charged_once(self):
        cache = FragmentCache(max_bytes=1 << 20)
        racers = 4
        barrier = threading.Barrier(racers)

        def compute():
            # Every racer has missed before any of them admits.
            barrier.wait(timeout=10)
            return _table([(1, 2)])

        threads = [
            threading.Thread(
                target=cache.get_or_compute, args=("k", ("v",), {"r"}, compute)
            )
            for _ in range(racers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert cache.stats.misses == cache.stats.admissions == racers
        assert len(cache) == 1
        assert cache.current_bytes == estimate_result_bytes(_table([(1, 2)]))

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

    def test_a_clear_is_no_invalidation_but_invalidate_all_is(self):
        """Nothing moved under a clear (a cold-scan probe drops the warm
        set), so it counts no invalidation; dropping everything because
        the catalogue moved unnamed counts each entry."""
        cache = FragmentCache(max_bytes=1 << 20)
        for key in ("ka", "kb"):
            cache.get_or_compute(key, ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert cache.clear() == 2
        assert cache.stats.invalidations == 0
        for key in ("ka", "kb", "kc"):
            cache.get_or_compute(key, ("v",), {"r"}, lambda: _table([(1, 2)]))
        assert cache.invalidate_all() == 3
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.stats.invalidations == 3

    def test_budget_must_be_positive(self):
        with pytest.raises(EvaluationError):
            FragmentCache(max_bytes=0)


class TestAdmissionRule:
    """One rule: a computed table is kept iff it fits in half the budget."""

    @pytest.mark.parametrize("slack", [-1, 0, 1])
    def test_kept_iff_it_fits_in_half_the_budget(self, slack):
        value = _table([(i, 2 * i) for i in range(50)])
        nbytes = estimate_result_bytes(value)
        cache = FragmentCache(max_bytes=2 * nbytes + slack)
        assert cache.get_or_compute("k", ("v",), {"r"}, lambda: value) is value
        kept = slack >= 0
        assert len(cache) == cache.stats.admissions == int(kept)
        assert cache.stats.rejections == int(not kept)
        assert cache.current_bytes == (nbytes if kept else 0)

    def test_rejected_result_is_returned_and_recomputed_next_time(self):
        big = _table([(i, i) for i in range(100)])
        cache = FragmentCache(max_bytes=estimate_result_bytes(big))
        calls = []

        def compute():
            calls.append(1)
            return big

        for _ in range(3):
            assert cache.get_or_compute("big", ("v",), {"r"}, compute) is big
        assert len(calls) == 3
        assert cache.stats.misses == cache.stats.rejections == 3
        assert cache.stats.hits == 0 and len(cache) == 0

    def test_rejection_evicts_nothing(self):
        small = _table([(1, 2)])
        unit = estimate_result_bytes(small)
        cache = FragmentCache(max_bytes=4 * unit)
        for name in ("a", "b", "c"):
            cache.get_or_compute(name, ("v",), {"r"}, lambda: small)
        big = _table([(i, i) for i in range(100)])
        cache.get_or_compute("big", ("v",), {"r"}, lambda: big)
        assert cache.cached_keys() == ("a", "b", "c")
        assert cache.current_bytes == 3 * unit
        assert cache.stats.evictions == 0 and cache.stats.rejections == 1

    def test_one_admission_evicts_as_many_lru_entries_as_it_needs(self):
        small = _table([(1, 2)])
        unit = estimate_result_bytes(small)
        medium = _table([(i, i) for i in range(100)])
        cache = FragmentCache(max_bytes=2 * estimate_result_bytes(medium))
        names = [f"s{i}" for i in range(cache.max_bytes // unit)]
        for name in names:
            cache.get_or_compute(name, ("v",), {"r"}, lambda: small)
        assert cache.stats.evictions == 0
        cache.get_or_compute("m", ("v",), {"r"}, lambda: medium)
        evicted = cache.stats.evictions
        assert evicted >= 2
        assert cache.cached_keys() == tuple(names[evicted:]) + ("m",)
        # Oldest first, and not one entry more than the budget needed.
        assert cache.current_bytes <= cache.max_bytes
        assert cache.current_bytes + unit > cache.max_bytes

    def test_rejections_count_only_oversized_tables(self):
        small = _table([(1, 2)])
        cache = FragmentCache(max_bytes=3 * estimate_result_bytes(small))
        cache.get_or_compute("a", ("v1",), {"r"}, lambda: small)  # admit
        cache.get_or_compute("a", ("v1",), {"r"}, lambda: small)  # hit
        cache.get_or_compute("a", ("v2",), {"r"}, lambda: small)  # stale
        for name in ("b", "c", "d"):  # "d" evicts "a"
            cache.get_or_compute(name, ("v",), {"r"}, lambda: small)
        cache.invalidate_relations({"r"})
        big = _table([(i, i) for i in range(100)])
        cache.get_or_compute("big", ("v",), {"r"}, lambda: big)
        stats = cache.stats
        assert stats.rejections == 1
        assert (stats.hits, stats.misses, stats.admissions) == (1, 6, 5)
        assert (stats.evictions, stats.invalidations) == (1, 4)

    def test_stats_surface_is_the_seven_counters(self):
        assert set(FragmentCache(max_bytes=1).stats.as_dict()) == {
            "schema_version", "hits", "misses", "hit_rate", "admissions",
            "rejections", "evictions", "invalidations", "deltas",
        }


class TestVersionTokens:
    def test_token_covers_requested_relations_sorted(self):
        instance = Instance()
        instance.add("r", (1, 2))
        token = data_version_token(instance, {"s", "r"})
        assert [name for name, _ in token] == ["r", "s"]

    def test_unversioned_sources_yield_none(self):
        assert data_version_token({"r": [(1, 2)]}, {"r"}) is None

    def test_peer_fact_source_token_sees_writes_and_owner_changes(self):
        """A write moves the token, and so does the relation changing
        hands (a peer leaving and another serving the same rows)."""
        a, b = Instance(), Instance()
        a.add("r", (1, 2))
        source = PeerFactSource({"A": a})
        before = source.data_version("r")
        a.add("r", (3, 4))
        after_write = source.data_version("r")
        assert after_write != before
        b.add_all("r", a.get_tuples("r"))
        moved = PeerFactSource({"B": b}).data_version("r")
        assert moved != after_write
        assert PeerFactSource({}).data_version("r") == ()

    def test_the_token_is_the_owner_token_in_a_one_tuple(self):
        """One token shape: the owner's token in a one-tuple, ``()`` for a
        relation no peer serves."""
        a, b = Instance(), Instance()
        a.add("r", (1, 2))
        b.add("q", (3, 4))
        for instances in ({}, {"A": a}, {"B": b}, {"A": a, "B": b}, {"B": b, "A": a}):
            source = PeerFactSource(instances)
            owners = [owner for owner in instances.values() if "r" in owner]
            assert source.data_version("r") == tuple(
                owner.data_version("r") for owner in owners
            )


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

    def test_float_from_env_parses_and_fails_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        assert trace_sample_rate() == 1.0
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.25")
        assert trace_sample_rate() == 0.25
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "often")
        with pytest.raises(EvaluationError, match="REPRO_TRACE_SAMPLE"):
            trace_sample_rate()
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "-0.5")
        with pytest.raises(EvaluationError, match=">= 0.0"):
            trace_sample_rate()
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1.5")
        with pytest.raises(EvaluationError, match="within"):
            trace_sample_rate()
        monkeypatch.setenv("SOME_FLOAT", "-3")
        with pytest.raises(EvaluationError, match="SOME_FLOAT"):
            float_from_env("SOME_FLOAT", 0.0)

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
    def test_warm_answers_equal_cold_and_the_oracle(self):
        pdms, query, instance = _two_hop_pdms()
        cache = FragmentCache(max_bytes=1 << 20)
        result = reformulate(pdms, query)
        expected = evaluate_reformulation(
            result, {"P": instance}, engine="backtracking")
        cold = evaluate_reformulation(result, {"P": instance}, cache=cache)
        warm = evaluate_reformulation(result, {"P": instance}, cache=cache)
        assert warm == cold == expected
        assert cache.stats.hits > 0

    def test_write_invalidates_only_dependent_fragments(self):
        pdms, query, instance = _two_hop_pdms()
        cache = FragmentCache(max_bytes=1 << 20)
        service = QueryService(
            pdms, data={"P": instance}, engine="columnar", fragment_cache=cache)
        before = service.answer(query)
        warm = service.answer(query)
        assert warm == before
        hits_before = cache.stats.hits
        # Writing one variant relation leaves the shared A1⋈A2 fragment warm.
        instance.add("s_a3_0", (5, 99))
        after = service.answer(query)
        assert (1, 99) in after
        assert cache.stats.hits > hits_before  # shared prefix still served

    def test_a_write_after_the_snapshot_keeps_its_rows_out_of_the_cache(self):
        """A scan whose rows are newer than the answer's version snapshot
        (a write landed between the two) is served but never cached under
        the snapshot's token."""
        from tests.oracles.fragments import VersionHistory, check_cached_fragments

        pdms, query, instance = _two_hop_pdms()
        history = VersionHistory({"P": instance})

        class Racing(PeerFactSource):
            __slots__ = ("writes",)

            def tagged_block(self, predicate, pattern):
                if predicate == "s_a1" and self.writes:
                    instance.add("s_a1", self.writes.pop())
                    history.record()
                return super().tagged_block(predicate, pattern)

        source = Racing({"P": instance})
        source.writes = [(1, 3)]
        cache = FragmentCache(max_bytes=1 << 20)
        result = reformulate(pdms, query)
        assert (1, 20) in evaluate_reformulation(result, source, cache=cache)
        assert check_cached_fragments(cache, [result._shared_plan], history) > 0
        assert evaluate_reformulation(result, source, cache=cache) == (
            evaluate_reformulation(result, {"P": instance}, engine="backtracking"))

    def test_an_append_steps_the_path_above_it(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="columnar")
        cache = service.fragment_cache
        service.answer(query)
        invalidations, misses = cache.stats.invalidations, cache.stats.misses
        instance.add("s_a1", (3, 2))
        assert (3, 10) in service.answer(query)
        assert cache.stats.invalidations == invalidations
        assert cache.stats.deltas == cache.stats.misses - misses > 0
        instance.remove("s_a1", (3, 2))
        assert (3, 10) not in service.answer(query)
        assert cache.stats.invalidations > invalidations

    def test_peer_leave_evicts_dependent_fragments(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="columnar")
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
        first = evaluate_reformulation(result, data, engine="columnar", cache=cache)
        assert evaluate_reformulation(
            result, data, engine="columnar", cache=cache) == first
        assert cache.stats.lookups == 0 and len(cache) == 0

    def test_service_stats_report_fragment_counters(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="columnar")
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
            pdms, data={"P": instance}, engine="columnar", fragment_cache_bytes=0)
        assert service.fragment_cache is None
        service.answer(query)
        assert service.stats.fragments.lookups == 0

    def test_clear_cache_drops_fragments_too(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="columnar")
        service.answer(query)
        assert len(service.fragment_cache) > 0
        service.clear_cache()
        assert len(service.fragment_cache) == 0
        assert service.fragment_cache.stats.invalidations == 0

    def test_data_override_does_not_churn_warm_entries(self):
        """A one-off override answers correctly but bypasses the cache."""
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="columnar")
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
        a = QueryService(pdms, data={"P": instance}, engine="columnar",
                         fragment_cache=shared)
        a.answer(query)
        warm = len(shared)
        assert warm > 0
        a.clear_cache()
        assert len(shared) == warm  # external cache untouched
        a.remove_peer("P")  # version tokens alone keep `shared` correct
        assert len(shared) == warm

    def test_second_service_answers_from_a_shared_cache(self):
        pdms, query, instance = _two_hop_pdms()
        shared = FragmentCache(max_bytes=1 << 20)
        a = QueryService(pdms, data={"P": instance}, engine="columnar",
                         fragment_cache=shared)
        b = QueryService(pdms, data={"P": instance}, engine="columnar",
                         fragment_cache=shared)
        expected = a.answer(query)
        held = shared.cached_keys()
        hits, misses, admissions = (
            shared.stats.hits, shared.stats.misses, shared.stats.admissions
        )
        assert b.answer(query) == expected
        assert shared.stats.hits > hits
        # B computed nothing A already holds: no miss, no new entry.
        assert shared.stats.misses == misses
        assert shared.stats.admissions == admissions
        assert set(shared.cached_keys()) == set(held)

    def test_owned_cache_is_cleared_as_before(self):
        pdms, query, instance = _two_hop_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="columnar")
        service.answer(query)
        assert len(service.fragment_cache) > 0
        service.remove_peer("P")
        assert len(service.fragment_cache) == 0


#: Both plan-path names read and fill the fragment cache (the oracle
#: takes no cache).
SHARING_ENGINES = ("columnar", "distributed")


@pytest.mark.parametrize("engine", SHARING_ENGINES)
class TestSharedFragmentCache:
    """Services share warm fragments by sharing one :class:`FragmentCache`."""

    @staticmethod
    def _pair(engine, max_bytes=1 << 20):
        pdms, query, instance = _two_hop_pdms()
        shared = FragmentCache(max_bytes=max_bytes)
        a, b = (
            QueryService(pdms, data={"P": instance}, engine=engine,
                         fragment_cache=shared)
            for _ in range(2)
        )
        return a, b, shared, query, instance

    def test_second_service_computes_nothing_the_first_holds(self, engine):
        a, b, shared, query, _ = self._pair(engine)
        expected = a.answer(query)
        hits, misses = shared.stats.hits, shared.stats.misses
        admissions = shared.stats.admissions
        assert b.answer(query) == expected
        assert shared.stats.hits > hits
        assert (shared.stats.misses, shared.stats.admissions) == (
            misses, admissions)

    def test_write_is_seen_through_the_other_service(self, engine):
        a, b, shared, query, instance = self._pair(engine)
        assert a.answer(query) == b.answer(query)
        instance.add("s_a1", (9, 2))
        after = a.answer(query)
        assert {(9, 10), (9, 11), (9, 12)} <= after
        # A recomputed what the write moved; B reads A's fresh tables.
        misses = shared.stats.misses
        assert b.answer(query) == after
        assert shared.stats.misses == misses

    def test_services_over_different_data_never_read_each_others_entries(
        self, engine
    ):
        pdms, query, instance = _two_hop_pdms()
        other = instance.copy()
        other.add("s_a3_0", (5, 777))
        result = reformulate(pdms, query)
        expected = {
            name: evaluate_reformulation(result, {"P": data}, engine="backtracking")
            for name, data in (("mine", instance), ("theirs", other))
        }
        assert (1, 777) in expected["theirs"] - expected["mine"]
        shared = FragmentCache(max_bytes=1 << 20)
        services = {
            name: QueryService(pdms, data={"P": data}, engine=engine,
                               fragment_cache=shared)
            for name, data in (("mine", instance), ("theirs", other))
        }
        for _ in range(2):
            for name, service in services.items():
                assert service.answer(query) == expected[name], name

    def test_tight_shared_budget_keeps_answers_exact(self, engine):
        a, b, shared, query, instance = self._pair(engine, max_bytes=512)
        for step in range(3):
            instance.add("s_a2", (2, 40 + step))
            instance.add("s_a3_1", (40 + step, 500 + step))
            expected = evaluate_reformulation(
                reformulate(a.pdms, query), {"P": instance}, engine="backtracking")
            assert a.answer(query) == expected
            assert b.answer(query) == expected
            assert shared.current_bytes <= shared.max_bytes
        assert shared.stats.rejections + shared.stats.evictions > 0

    def test_concurrent_services_agree(self, engine):
        pdms, query, instance = _two_hop_pdms()
        expected = evaluate_reformulation(
            reformulate(pdms, query), {"P": instance}, engine="backtracking")
        shared = FragmentCache(max_bytes=1 << 20)
        services = [
            QueryService(pdms, data={"P": instance}, engine=engine,
                         fragment_cache=shared)
            for _ in range(4)
        ]
        answers = [[] for _ in services]

        def run(slot):
            for _ in range(5):
                answers[slot].append(services[slot].answer(query))

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(len(services))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(
            rows == [expected] * 5 for rows in answers
        ), "a service answered wrongly from the shared cache"
        # One entry per fragment, however many services filled it.
        single = FragmentCache(max_bytes=1 << 20)
        QueryService(pdms, data={"P": instance}, engine=engine,
                     fragment_cache=single).answer(query)
        assert set(shared.cached_keys()) == set(single.cached_keys())


class TestBushySharing:
    def test_bushy_agrees_with_backtracking_warm_and_cold(self):
        pdms, query, instance = _two_hop_pdms()
        result = reformulate(pdms, query)
        data = {"P": instance}
        expected = evaluate_reformulation(result, data, engine="backtracking")
        source = PeerFactSource(data)
        plan = compile_reformulation(result, source)
        cache = FragmentCache(max_bytes=1 << 20)
        for _ in range(2):
            assert evaluate_plan(plan, source, cache=cache) == expected
        assert cache.stats.hits > 0
        assert evaluate_plan(plan, source, limit=1) <= expected

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
        # L_i tiny (the cheapest atom: a cost order starts there),
        # M large, R small but joining M very selectively.
        for i in range(4):
            data[f"s_l_{i}"] = {(j, j + i) for j in range(15)}
        data["s_m"] = {(j % 40, j) for j in range(400)}
        data["s_r"] = {(j * 17 % 400, j) for j in range(20)}
        query = parse_query("Q(x, w) :- P:L(x, y), P:M(y, z), P:R(z, w)")
        result = reformulate(pdms, query)
        plan = compile_reformulation(result, data)
        # Sharing across rewritings is a property of the enumerated
        # compile: drive it (a whole answer evaluates the factored root).
        assert len(list(plan.fragments())) == 4
        assert evaluate_plan(plan, data) == evaluate_reformulation(
            result, data, engine="backtracking")
        assert any(
            key.startswith("s_m(") and "s_r(" in key for key in plan.nodes
        ), "expected a shared {M,R} fragment"

    def test_alpha_equivalent_sets_share_one_node_regardless_of_order(self):
        from repro.pdms.planning import _canonical_parts, _conjunction_key

        atoms = parse_query(
            "Q(x) :- r0(x, y), r1(y, z), r2(z, 1)").relational_body()
        forward, namespace = _canonical_parts(tuple(atoms), {})
        backward, _ = _canonical_parts(tuple(reversed(atoms)), {})
        assert forward == backward
        assert set(namespace.values()) == {"_f0", "_f1", "_f2"}
        assert _conjunction_key(forward).count(" & ") == 2
