"""Unit tests for the query-answering service layer (repro.pdms.service).

Covers the ISSUE-2 cache-correctness checklist: invalidation granularity
(an unrelated peer join must NOT evict entries; a mapping touching a used
description MUST), version monotonicity, and ``limit=k`` returning a
subset of the full answer set — plus canonical-signature reuse, LRU
bounds, and change-log pickup of direct PDMS mutations.
"""

import pytest

from repro.database import Instance
from repro.datalog import parse_atom, parse_query
from repro.errors import PDMSConfigurationError
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    Peer,
    QueryService,
    StorageDescription,
    answer_query,
    canonicalize_query,
    lav_style,
)


def _service() -> QueryService:
    """A two-peer tractable PDMS with data, wrapped in a service.

    ``A:R`` is defined over ``B:S`` (stored as ``stored_s``); ``C:T`` is
    an unrelated island relation stored as ``stored_t``.
    """
    pdms = PDMS("svc")
    a = pdms.add_peer("A")
    a.add_relation("R", ["x", "y"])
    b = pdms.add_peer("B")
    b.add_relation("S", ["x", "y"])
    c = pdms.add_peer("C")
    c.add_relation("T", ["x", "y"])
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query("A:R(x, y) :- B:S(x, y)"), name="r_def"))
    pdms.add_storage_description(StorageDescription(
        "B", "stored_s", parse_query("V(x, y) :- B:S(x, y)"), name="s_store"))
    pdms.add_storage_description(StorageDescription(
        "C", "stored_t", parse_query("V(x, y) :- C:T(x, y)"), name="t_store"))
    data = Instance.from_dict({
        "stored_s": [(1, 2), (2, 3), (3, 4)],
        "stored_t": [(9, 9)],
    })
    return QueryService(pdms, data=data)


QUERY_R = parse_query("Q(x, y) :- A:R(x, y)")
QUERY_T = parse_query("Q(x, y) :- C:T(x, y)")


class TestCacheBasics:
    def test_repeated_query_hits_cache(self):
        service = _service()
        first = service.answer(QUERY_R)
        second = service.answer(QUERY_R)
        assert first == second == {(1, 2), (2, 3), (3, 4)}
        assert service.stats.misses == 1
        assert service.stats.hits == 1
        assert service.cache_size == 1

    def test_isomorphic_queries_share_one_entry(self):
        service = _service()
        service.answer(QUERY_R)
        renamed = parse_query("Answers(u, v) :- A:R(u, v)")
        assert service.answer(renamed) == service.answer(QUERY_R)
        # Different variable names, head name — same canonical signature.
        assert service.stats.misses == 1
        assert service.cache_size == 1

    def test_reordered_body_shares_one_entry(self):
        service = _service()
        join1 = parse_query("Q(x, z) :- A:R(x, y), C:T(y, z)")
        join2 = parse_query("Q(a, c) :- C:T(b, c), A:R(a, b)")
        assert canonicalize_query(join1).signature == canonicalize_query(join2).signature
        service.answer(join1)
        service.answer(join2)
        assert service.stats.misses == 1

    def test_answers_match_fresh_answer_query(self):
        service = _service()
        for query in (QUERY_R, QUERY_T, parse_query("Q(x) :- A:R(x, y)")):
            assert service.answer(query) == answer_query(
                service.pdms, query, Instance.from_dict({
                    "stored_s": [(1, 2), (2, 3), (3, 4)],
                    "stored_t": [(9, 9)],
                }))

    def test_lru_eviction_respects_max_entries(self):
        pdms = _service().pdms
        service = QueryService(
            pdms,
            data=Instance.from_dict({"stored_s": [(1, 2)], "stored_t": [(9, 9)]}),
            max_entries=2,
        )
        queries = [
            QUERY_R,
            QUERY_T,
            parse_query("Q(x) :- A:R(x, y)"),
        ]
        for query in queries:
            service.answer(query)
        assert service.cache_size == 2
        assert service.stats.evictions == 1
        # The oldest entry (QUERY_R) was evicted; re-answering re-misses.
        service.answer(QUERY_R)
        assert service.stats.misses == 4

    def test_clear_cache(self):
        service = _service()
        service.answer(QUERY_R)
        service.clear_cache()
        assert service.cache_size == 0
        service.answer(QUERY_R)
        assert service.stats.misses == 2

    def test_invalid_configuration_rejected(self):
        with pytest.raises(PDMSConfigurationError):
            QueryService(PDMS(), engine="warp-drive")
        with pytest.raises(PDMSConfigurationError):
            QueryService(PDMS(), max_entries=0)

    def test_stats_hit_rate(self):
        service = _service()
        assert service.stats.hit_rate == 0.0
        service.answer(QUERY_R)
        service.answer(QUERY_R)
        service.answer(QUERY_R)
        assert service.stats.hit_rate == pytest.approx(2 / 3)


class TestVersioning:
    def test_versions_increase_monotonically(self):
        service = _service()
        versions = [service.catalogue_version]
        service.add_peer("D")
        versions.append(service.catalogue_version)
        service.pdms.peer("D").add_relation("U", ["x"])
        service.add_peer_mapping(DefinitionalMapping(
            parse_query("D:U(x) :- A:R(x, x)"), name="d_def"))
        versions.append(service.catalogue_version)
        service.remove_peer("D")
        versions.append(service.catalogue_version)
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_every_mutation_is_logged(self):
        pdms = PDMS()
        start = pdms.catalogue_version
        pdms.add_peer("A").add_relation("R", ["x"])
        pdms.add_storage_description(
            StorageDescription("A", "s", parse_query("V(x) :- A:R(x)")))
        pdms.remove_peer("A")
        changes = pdms.changes_since(start)
        assert [c.kind for c in changes] == ["add-peer", "add-storage", "remove-peer"]
        assert [c.version for c in changes] == sorted(c.version for c in changes)


class TestInvalidationGranularity:
    def test_unrelated_peer_join_keeps_entries(self):
        service = _service()
        service.answer(QUERY_R)
        service.answer(QUERY_T)
        assert service.cache_size == 2
        # A new peer with a mapping over fresh predicates touches nothing.
        newcomer = Peer("N")
        newcomer.add_relation("W", ["x", "y"])
        service.add_peer(newcomer)
        service.add_peer_mapping(DefinitionalMapping(
            parse_query("N:W(x, y) :- N:W(y, x)"), name="n_def"))
        assert service.cache_size == 2
        assert service.stats.invalidations == 0
        service.answer(QUERY_R)
        assert service.stats.hits == 1  # still served from cache

    def test_mapping_touching_used_description_evicts(self):
        service = _service()
        service.answer(QUERY_R)  # touches A:R, B:S, stored_s
        service.answer(QUERY_T)  # touches C:T, stored_t
        # New definitional mapping for A:R — QUERY_R's entry must go,
        # QUERY_T's must stay.
        service.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- C:T(x, y)"), name="r_more"))
        assert service.stats.invalidations == 1
        assert service.cache_size == 1
        # And the refreshed entry sees the new mapping's answers.
        assert service.answer(QUERY_R) == {(1, 2), (2, 3), (3, 4), (9, 9)}

    def test_new_storage_description_for_used_predicate_evicts(self):
        service = _service()
        service.answer(QUERY_R)
        service.answer(QUERY_T)
        service.add_storage_description(StorageDescription(
            "B", "stored_s2", parse_query("V(x, y) :- B:S(x, y)"), name="s2_store"))
        assert service.stats.invalidations == 1
        assert service.cache_size == 1

    def test_peer_leave_evicts_only_dependent_entries(self):
        service = _service()
        service.answer(QUERY_R)
        service.answer(QUERY_T)
        service.remove_peer("C")
        assert service.stats.invalidations == 1
        assert service.cache_size == 1
        # QUERY_R survives; QUERY_T is re-reformulated to nothing.
        service.answer(QUERY_R)
        assert service.stats.hits == 1
        assert service.answer(QUERY_T) == set()

    def test_direct_pdms_mutation_is_picked_up(self):
        """Mutating the wrapped PDMS without going through the service
        must still invalidate via the change log."""
        service = _service()
        service.answer(QUERY_R)
        service.pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- C:T(x, y)"), name="direct"))
        assert service.answer(QUERY_R) == {(1, 2), (2, 3), (3, 4), (9, 9)}
        assert service.stats.invalidations == 1

    def test_removing_mapping_refreshes_answers(self):
        service = _service()
        service.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- C:T(x, y)"), name="extra"))
        assert (9, 9) in service.answer(QUERY_R)
        service.remove_peer_mapping("extra")
        assert (9, 9) not in service.answer(QUERY_R)


def _replayed(service) -> int:
    return service.metrics_snapshot()["counters"].get("reformulation.replayed", 0)


class TestStaleEntries:
    """An invalidated entry stays behind as the seed its next miss replays."""

    def test_the_next_miss_replays_the_invalidated_entry(self):
        from repro.obs import set_tracer
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        service = _service()
        service.answer(QUERY_R)
        signature = canonicalize_query(QUERY_R).signature
        service.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- C:T(x, y)"), name="r_more"))
        assert service.cache_size == 0 and service._stale.keys() == {signature}
        tracer = Tracer(enabled=True, sample_rate=1.0, sink_path=None, registry=MetricsRegistry())
        set_tracer(tracer)
        try:
            assert service.answer(QUERY_R) == {(1, 2), (2, 3), (3, 4), (9, 9)}
        finally:
            set_tracer(None)
        (trace,) = [tracer.trace(tid) for tid in tracer.trace_ids()]
        (span,) = [span for span in trace if span["name"] == "query.reformulate"]
        assert span["attrs"] == {"replayed": True}
        # Still a miss, and still a compiled plan.
        assert service.stats.misses == 2 and not service._stale
        assert _replayed(service) == 1

    def test_stale_entries_are_bounded_by_max_entries(self):
        service = QueryService(
            _service().pdms,
            data=Instance.from_dict({"stored_s": [(1, 2)], "stored_t": [(9, 9)]}),
            max_entries=2,
        )
        for round_ in range(3):
            for query in (QUERY_R, parse_query("Q(x) :- A:R(x, y)"), QUERY_T):
                service.answer(query)
            service.add_peer_mapping(DefinitionalMapping(
                parse_query("A:R(x, y) :- C:T(x, y)"), name=f"r_more_{round_}"))
            service.add_peer_mapping(DefinitionalMapping(
                parse_query("C:T(x, y) :- B:S(x, y)"), name=f"t_more_{round_}"))
            assert len(service._stale) <= 2

    def test_full_invalidation_and_clear_cache_drop_them(self):
        import repro.pdms.system as system_module

        service = _service()
        service.answer(QUERY_R)
        service.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- C:T(x, y)"), name="r_more"))
        assert service._stale
        service.clear_cache()
        assert not service._stale
        service.answer(QUERY_R)
        service.remove_peer_mapping("r_more")
        assert service._stale
        original = system_module.MAX_CHANGE_LOG
        system_module.MAX_CHANGE_LOG = 2
        try:
            for i in range(4):
                service.pdms.add_peer(f"F{i}")
            assert service.answer(QUERY_R) == {(1, 2), (2, 3), (3, 4)}
        finally:
            system_module.MAX_CHANGE_LOG = original
        assert not service._stale and _replayed(service) == 0

    def test_a_join_rescans_only_the_relations_it_brought(self, monkeypatch):
        """The federated view is rebuilt on churn; relation statistics carry
        over and are revalidated by version, so only the joining peer's
        relation is scanned for them."""
        import repro.database.statistics as statistics_module

        service = QueryService(_service().pdms, engine="columnar", data={
            "B": Instance.from_dict({"stored_s": [(1, 2), (2, 3), (3, 4)]}),
            "C": Instance.from_dict({"stored_t": [(9, 9), (2, 9)]}),
        })
        scanned = []
        compute = statistics_module.compute_relation_stats

        def counting(relation, rows, version=None):
            scanned.append(relation)
            return compute(relation, rows, version)

        monkeypatch.setattr(statistics_module, "compute_relation_stats", counting)
        service.answer(QUERY_R)
        service.answer(QUERY_T)
        assert {"stored_s", "stored_t"} <= set(scanned)
        scanned.clear()
        satellite = Peer("SAT")
        satellite.add_relation("X", ["x", "y"])
        service.add_peer(satellite)
        service.add_peer_mapping(lav_style(
            parse_atom("SAT:X(x, y)"), parse_query("V(x, y) :- B:S(x, y)"), name="sat_map"))
        service.add_storage_description(StorageDescription(
            "SAT", "sat_store", parse_query("V(x, y) :- SAT:X(x, y)"), name="sat_desc"))
        service.set_peer_data("SAT", Instance.from_dict({"sat_store": [(3, 9)]}))
        # A first compile reading all three relations.
        assert service.answer(parse_query("Q(x, z) :- A:R(x, y), C:T(y, z)")) == {
            (1, 9), (3, 9)}
        assert set(scanned) == {"sat_store"}


class TestLimitAndStreaming:
    def test_limit_returns_subset(self):
        service = _service()
        full = service.answer(QUERY_R)
        for k in range(len(full) + 2):
            limited = service.answer(QUERY_R, limit=k)
            assert limited <= full
            assert len(limited) == min(k, len(full))

    def test_stream_yields_all_answers(self):
        service = _service()
        assert set(service.stream(QUERY_R)) == service.answer(QUERY_R)

    def test_cold_limit_call_does_not_force_full_enumeration(self):
        """A cache miss with limit=k must consume only a rewriting prefix
        (the service's first-k contract), and later calls must resume the
        memoized enumeration instead of restarting it."""
        service = _service()
        service.answer(QUERY_R, limit=1)
        entry_result = service.reformulate(QUERY_R)
        assert entry_result._all is None  # nothing forced the full list
        # The full answer is still correct afterwards (resumes the stream).
        assert service.answer(QUERY_R) == {(1, 2), (2, 3), (3, 4)}

    def test_change_log_truncation_falls_back_to_full_invalidation(self):
        import repro.pdms.system as system_module

        service = _service()
        service.answer(QUERY_R)
        service.answer(QUERY_T)
        original = system_module.MAX_CHANGE_LOG
        system_module.MAX_CHANGE_LOG = 2
        try:
            for i in range(4):  # push the service's cursor out of the window
                service.pdms.add_peer(f"F{i}")
            service.answer(QUERY_R)
        finally:
            system_module.MAX_CHANGE_LOG = original
        # Selective invalidation was impossible: everything was dropped.
        assert service.stats.invalidations == 2
        assert service.answer(QUERY_R) == {(1, 2), (2, 3), (3, 4)}

    def test_limit_uses_cache_too(self):
        service = _service()
        service.answer(QUERY_R, limit=1)
        service.answer(QUERY_R, limit=2)
        assert service.stats.misses == 1
        assert service.stats.hits == 1


class TestBatchAndData:
    def test_answer_batch_shares_cache(self):
        service = _service()
        queries = [QUERY_R, QUERY_T, QUERY_R, parse_query("Z(a, b) :- A:R(a, b)")]
        batch = service.answer_batch(queries)
        assert batch[0] == batch[2] == batch[3]
        assert service.stats.misses == 2  # QUERY_R (shared ×3) and QUERY_T
        assert service.stats.hits == 2

    def test_per_peer_data_removed_with_peer(self):
        pdms = PDMS("per-peer")
        a = pdms.add_peer("A")
        a.add_relation("R", ["x"])
        pdms.add_storage_description(StorageDescription(
            "A", "sa", parse_query("V(x) :- A:R(x)"), name="sa_store"))
        b = pdms.add_peer("B")
        b.add_relation("R", ["x"])
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x) :- B:R(x)"), name="ab"))
        pdms.add_storage_description(StorageDescription(
            "B", "sb", parse_query("V(x) :- B:R(x)"), name="sb_store"))
        service = QueryService(pdms, data={
            "A": Instance.from_dict({"sa": [(1,)]}),
            "B": Instance.from_dict({"sb": [(2,)]}),
        })
        query = parse_query("Q(x) :- A:R(x)")
        assert service.answer(query) == {(1,), (2,)}
        service.remove_peer("B")
        assert service.answer(query) == {(1,)}

    def test_set_peer_data_on_flat_source_rejected(self):
        service = QueryService(PDMS(), data={"s": [(1,)]})
        with pytest.raises(PDMSConfigurationError):
            service.set_peer_data("A", Instance())

    def test_rejected_add_peer_with_data_leaves_system_unchanged(self):
        """Validation happens before mutation: a retry must not hit a
        duplicate-peer error."""
        service = QueryService(PDMS(), data={"s": [(1,)]})
        with pytest.raises(PDMSConfigurationError):
            service.add_peer("P", data=Instance())
        assert "P" not in service.pdms
        service.add_peer("P")  # retry without data succeeds

    def test_data_override_per_call(self):
        service = _service()
        override = Instance.from_dict({"stored_s": [(7, 7)]})
        assert service.answer(QUERY_R, data=override) == {(7, 7)}
        # The service's own data is untouched.
        assert service.answer(QUERY_R) == {(1, 2), (2, 3), (3, 4)}

    def test_warm_prepopulates(self):
        service = _service()
        misses = service.warm([QUERY_R, QUERY_T, QUERY_R])
        assert misses == 2
        service.answer(QUERY_R)
        assert service.stats.hits >= 2
