"""Unit tests for the self-tuning loop: q-error feedback, corrections,
champion/challenger racing, and the cost-model floor fix that rides along.

The integration-grade cases build a deliberately *correlated* workload —
a hot join key the independence assumption cannot see — so the static
optimizer picks the wrong join order, the feedback log catches the blown
estimate, and the recompiled challenger plan wins the race.
"""

import pytest

from repro.database import (
    CardinalityCostModel,
    Instance,
    QErrorLog,
    q_error,
)
from repro.datalog.parser import parse_query
from repro.errors import EvaluationError, PDMSConfigurationError
from repro.pdms import (
    PDMS,
    QueryService,
    StorageDescription,
    evaluate_reformulation,
    reformulate,
)
from repro.config import float_from_env, race_margin
from repro.pdms.service import _RACE_BUDGET


# ---------------------------------------------------------------------------
# q_error and the log itself
# ---------------------------------------------------------------------------

class TestQError:
    def test_symmetric_and_floored(self):
        assert q_error(10, 10) == 1.0
        assert q_error(100, 10) == 10.0
        assert q_error(10, 100) == 10.0
        # Zeroes clamp to 1 instead of dividing by zero.
        assert q_error(0, 0) == 1.0
        assert q_error(0, 1000) == 1000.0
        assert q_error(1000, 0) == 1000.0


class TestQErrorLog:
    def test_record_returns_q_and_keeps_observation(self):
        log = QErrorLog()
        q = log.record("frag", {"r"}, "tok", estimated=10.0, actual=100)
        assert q == 10.0
        (obs,) = log.observations()
        assert obs.key == "frag" and obs.actual == 100 and obs.q == 10.0
        assert obs.relations == frozenset({"r"})
        assert log.stats.observations == 1

    def test_good_estimates_do_not_become_corrections(self):
        log = QErrorLog(correction_threshold=2.0)
        log.record("frag", {"r"}, "tok", estimated=100.0, actual=150)
        assert log.correction("frag", "tok") is None
        assert log.generation == 0

    def test_bad_estimate_becomes_version_scoped_correction(self):
        log = QErrorLog(correction_threshold=2.0)
        log.record("frag", {"r"}, "tok", estimated=10.0, actual=100)
        assert log.correction("frag", "tok") == 100
        assert log.generation == 1
        # A different data version means the truth is stale: miss.
        assert log.correction("frag", "other-token") is None

    def test_estimateless_observation_feeds_corrections_consumers(self):
        # The per-rewriting engines measure actuals without an estimate:
        # no q, no percentile movement, but no crash either.
        log = QErrorLog()
        assert log.record("frag", {"r"}, "tok", estimated=None, actual=7) is None
        assert log.stats.observations == 1
        (obs,) = log.observations()
        assert obs.q is None and obs.estimated is None

    def test_generation_moves_only_on_material_change(self):
        log = QErrorLog(correction_threshold=2.0)
        log.record("frag", {"r"}, "tok", estimated=10.0, actual=100)
        assert log.generation == 1
        # Re-observing roughly the same actual refreshes the entry
        # without another generation bump (no planning decision changes).
        log.record("frag", {"r"}, "tok2", estimated=10.0, actual=110)
        assert log.generation == 1
        assert log.correction("frag", "tok2") == 110
        # A materially different actual bumps it again.
        log.record("frag", {"r"}, "tok3", estimated=10.0, actual=500)
        assert log.generation == 2

    def test_invalidate_relations_drops_dependent_corrections(self):
        log = QErrorLog()
        log.record("f1", {"r", "s"}, "t", estimated=1.0, actual=50)
        log.record("f2", {"u"}, "t", estimated=1.0, actual=50)
        assert log.stats.corrections == 2
        assert log.invalidate_relations({"s"}) == 1
        assert log.correction("f1", "t") is None
        assert log.correction("f2", "t") == 50
        assert log.stats.corrections == 1

    def test_correction_capacity_is_bounded_lru(self):
        log = QErrorLog(max_corrections=2)
        for i in range(3):
            log.record(f"f{i}", {"r"}, "t", estimated=1.0, actual=100)
        assert log.correction("f0", "t") is None  # oldest evicted
        assert log.correction("f2", "t") == 100

    def test_blown_estimates_are_counted(self):
        log = QErrorLog(blowup_factor=8.0)
        log.record("f", {"r"}, "t", estimated=10.0, actual=50)  # 5x: not blown
        assert log.blown_events == 0
        log.record("g", {"r"}, "t", estimated=10.0, actual=100)  # 10x: blown
        assert log.blown_events == 1
        # Overestimates are errors but not blowups (they cost time, not
        # memory); only actual >> estimated trips the re-plan trigger.
        log.record("h", {"r"}, "t", estimated=1000.0, actual=10)
        assert log.blown_events == 1

    def test_percentiles_and_aggregates(self):
        log = QErrorLog()
        for i, q in enumerate([1.0, 1.0, 4.0, 100.0]):
            log.record(f"f{i}", {"r"}, "t", estimated=1.0, actual=int(q),
                       columns=[("r", 0)])
        log.refresh_percentiles()
        assert log.stats.q_error_p50 == 4.0
        assert log.stats.q_error_max == 100.0
        per_rel = log.per_relation()["r"]
        assert per_rel["count"] == 4 and per_rel["max"] == 100.0
        per_col = log.per_column()[("r", 0)]
        assert per_col["count"] == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QErrorLog(correction_threshold=0.5)
        with pytest.raises(ValueError):
            QErrorLog(blowup_factor=0.0)


# ---------------------------------------------------------------------------
# Satellite: the scan_estimate zero floor
# ---------------------------------------------------------------------------

class TestScanEstimateFloor:
    def test_restricted_scan_of_populated_relation_floors_at_one(self):
        instance = Instance()
        instance.add_all("small", [(1, 2), (3, 4)])
        model = CardinalityCostModel(instance)
        # 2 // (1 + 3) == 0 before the fix; the floor keeps it at 1.
        assert model.scan_estimate("small", filters=3) == 1

    def test_empty_relation_still_estimates_zero(self):
        instance = Instance()
        instance.add_all("small", [(1, 2)])
        model = CardinalityCostModel(instance)
        assert model.scan_estimate("missing") == 0
        assert model.scan_estimate("missing", filters=5) == 0

    def test_populated_never_ties_with_empty(self):
        """The ordering bug the floor fixes: a heavily restricted scan of
        real data must rank strictly above a genuinely empty relation."""
        instance = Instance()
        instance.add_all("tiny", [(1, 1), (2, 2), (3, 3)])
        model = CardinalityCostModel(instance)
        for restrictions in range(10):
            populated = model.scan_estimate("tiny", filters=restrictions)
            assert populated >= 1 > model.scan_estimate("void", filters=restrictions)


# ---------------------------------------------------------------------------
# Knob parsing
# ---------------------------------------------------------------------------

class TestKnobs:
    def test_float_from_env_parses_and_fails_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_RACE_MARGIN", raising=False)
        assert race_margin() == 2.0
        monkeypatch.setenv("REPRO_RACE_MARGIN", "1.5")
        assert race_margin() == 1.5
        monkeypatch.setenv("REPRO_RACE_MARGIN", "fast")
        with pytest.raises(EvaluationError, match="REPRO_RACE_MARGIN"):
            race_margin()
        monkeypatch.setenv("REPRO_RACE_MARGIN", "0.5")
        with pytest.raises(EvaluationError, match=">= 1.0"):
            race_margin()
        monkeypatch.setenv("SOME_FLOAT", "-3")
        with pytest.raises(EvaluationError, match="SOME_FLOAT"):
            float_from_env("SOME_FLOAT", 0.0)

    def test_malformed_adaptive_knobs_fail_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTIVE", "yes")
        with pytest.raises(PDMSConfigurationError):
            QueryService()
        monkeypatch.delenv("REPRO_ADAPTIVE")
        monkeypatch.setenv("REPRO_RACE_MARGIN", "0.1")
        with pytest.raises(PDMSConfigurationError):
            QueryService()

    def test_race_margin_parameter_validated(self):
        with pytest.raises(PDMSConfigurationError):
            QueryService(race_margin=0.9)


# ---------------------------------------------------------------------------
# A correlated workload the static cost model misjudges
# ---------------------------------------------------------------------------

def _skewed_pdms():
    """A three-way chain join whose cheap-looking first join is a trap.

    ``A |><| B`` estimates tiny under independence (B's y column is
    almost all distinct) but the 50 hot ``y=0`` rows of A each match
    B's 1000 hot rows — 50k intermediate rows.  ``B |><| C`` estimates
    large (B's z column has ~1000 distinct values against 10k rows) but
    actually yields 5 rows.  A static plan joins A-B first; a corrected
    plan joins B-C first.
    """
    pdms = PDMS()
    peer = pdms.add_peer("P")
    peer.add_relation("A", ["x", "y"])
    peer.add_relation("B", ["y", "z"])
    peer.add_relation("C", ["z", "w"])
    pdms.add_storage_description(
        StorageDescription("P", "sa", parse_query("V(x, y) :- P:A(x, y)")))
    pdms.add_storage_description(
        StorageDescription("P", "sb", parse_query("V(y, z) :- P:B(y, z)")))
    pdms.add_storage_description(
        StorageDescription("P", "sc", parse_query("V(z, w) :- P:C(z, w)")))
    instance = Instance()
    a_rows = [(i, 0) for i in range(50)]
    a_rows += [(150 + i, 20000 + i) for i in range(5)]
    a_rows += [(50 + i, 30000 + i) for i in range(95)]
    instance.add_all("sa", a_rows)
    b_rows = [(0, z) for z in range(1000)]
    b_rows += [(20000 + i, 2000 + i) for i in range(5)]
    b_rows += [(40000 + i, i % 1000) for i in range(3995)]
    instance.add_all("sb", b_rows)
    # C is wide enough that the B-C estimate safely out-prices A-B, yet
    # only B's five rare rows actually reach its range.
    instance.add_all("sc", [(2000 + i, i) for i in range(200)])
    query = parse_query("Q(x, w) :- P:A(x, y), P:B(y, z), P:C(z, w)")
    truth = frozenset((150 + i, i) for i in range(5))
    return pdms, query, instance, truth


class TestAdaptiveService:
    def test_adaptive_converges_and_races(self):
        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True, fragment_cache_bytes=0)
        for _ in range(6):
            assert service.answer(query) == truth
        adaptive = service.stats_snapshot().adaptive
        assert adaptive.observations > 0
        assert adaptive.corrections > 0
        assert adaptive.corrections_applied > 0
        assert adaptive.races_run > 0
        assert adaptive.races_won > 0
        assert adaptive.races_mismatched == 0
        assert service.feedback.blown_events > 0
        assert adaptive.q_error_max > 8.0  # the trap was measured

    def test_adaptive_matches_static_on_every_engine(self):
        pdms, query, instance, truth = _skewed_pdms()
        for engine in ("backtracking", "plan", "shared", "columnar"):
            adaptive = QueryService(pdms, data={"P": instance}, engine=engine,
                                    adaptive=True, fragment_cache_bytes=0)
            static = QueryService(pdms, data={"P": instance}, engine=engine,
                                  fragment_cache_bytes=0)
            for _ in range(3):
                assert adaptive.answer(query) == static.answer(query) == truth

    def test_env_toggle_builds_the_same_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTIVE", "1")
        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               fragment_cache_bytes=0)
        assert service.adaptive and service.feedback is not None
        for _ in range(3):
            assert service.answer(query) == truth
        assert service.stats.adaptive.observations > 0

    def test_disabled_service_keeps_no_log(self):
        pdms, query, instance, truth = _skewed_pdms()
        # adaptive=False beats any REPRO_ADAPTIVE in the environment.
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=False)
        assert not service.adaptive and service.feedback is None
        assert service.answer(query) == truth
        assert service.stats.adaptive.observations == 0

    def test_losing_challenger_never_contributes_rows(self, monkeypatch):
        """Satellite 3c as a deterministic unit test: poison every
        challenger evaluation; the served answer must still be the
        champion's, the mismatch counted, the champion retained."""
        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True, race_margin=100.0,
                               fragment_cache_bytes=0)
        assert service.answer(query) == truth  # seeds corrections

        real = QueryService._evaluate_candidate

        def poisoned(self, result, source, engine, plan, feedback):
            rows, seconds = real(self, result, source, engine, plan, feedback)
            if plan is not champion_plan:
                return set(rows) | {("poison", "poison")}, 0.0  # "fastest"
            return rows, seconds

        champion_plan = service._champions[next(iter(service._champions))].plan
        monkeypatch.setattr(QueryService, "_evaluate_candidate", poisoned)
        served = service.answer(query)
        assert served == truth
        assert ("poison", "poison") not in served
        stats = service.stats_snapshot().adaptive
        assert stats.races_run >= 1
        assert stats.races_mismatched >= 1
        assert stats.races_won == 0
        state = service._champions[next(iter(service._champions))]
        assert state.plan is champion_plan  # mismatching challenger rejected

    def test_race_budget_is_bounded_then_adopts_outright(self):
        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True, fragment_cache_bytes=0)
        for _ in range(_RACE_BUDGET + 4):
            assert service.answer(query) == truth
        assert service.stats.adaptive.races_run <= _RACE_BUDGET + 1

    def test_limited_answers_never_race(self):
        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True, fragment_cache_bytes=0)
        for _ in range(4):
            assert len(service.answer(query, limit=2)) == 2
        assert service.stats.adaptive.races_run == 0

    def test_writes_invalidate_corrections_via_version_tokens(self):
        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True, fragment_cache_bytes=0)
        for _ in range(3):
            service.answer(query)
        assert service.stats.adaptive.corrections > 0
        instance.add("sc", (2100, 99))  # no new answers, new data version
        before = service.feedback.stats.observations
        assert service.answer(query) == truth
        # Stale corrections missed (token moved), fragments re-measured.
        assert service.feedback.stats.observations > before

    def test_peer_removal_drops_dependent_corrections(self):
        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True, fragment_cache_bytes=0)
        for _ in range(3):
            service.answer(query)
        assert service.stats.adaptive.corrections > 0
        service.remove_peer("P")
        assert service.stats.adaptive.corrections == 0


class TestRecordingAcrossEngines:
    def test_every_engine_records_true_fragment_counts(self):
        pdms, query, instance, truth = _skewed_pdms()
        result = reformulate(pdms, query)
        for engine in ("backtracking", "plan", "shared", "columnar",
                       "distributed"):
            log = QErrorLog()
            rows = evaluate_reformulation(
                result, {"P": instance}, engine=engine, feedback=log)
            assert rows == truth, engine
            assert log.stats.observations > 0, engine
            for obs in log.observations():
                assert obs.actual >= 0

    def test_scan_observations_match_relation_cardinality(self):
        pdms, query, instance, truth = _skewed_pdms()
        result = reformulate(pdms, query)
        log = QErrorLog()
        evaluate_reformulation(
            result, {"P": instance}, engine="shared", feedback=log)
        sizes = {name: instance.cardinality(name) for name in ("sa", "sb", "sc")}
        scans = [obs for obs in log.observations()
                 if len(obs.relations) == 1 and obs.q is not None]
        assert scans, "scan fragments should have been measured"
        for obs in scans:
            (relation,) = obs.relations
            assert obs.actual == sizes[relation], relation
            assert obs.q == 1.0  # scan estimates are exact here


# ---------------------------------------------------------------------------
# Mid-union re-planning
# ---------------------------------------------------------------------------

def _multi_rewriting_pdms():
    """The skewed join reachable through several storage descriptions, so
    the union has multiple rewritings and a blown first fragment leaves
    work to re-plan."""
    pdms, query, instance, truth = _skewed_pdms()
    pdms.add_storage_description(
        StorageDescription("P", "sa2", parse_query("V(x, y) :- P:A(x, y)")))
    instance.add_all("sa2", [(i, 0) for i in range(25)])
    extra = frozenset()
    return pdms, query, instance, truth | extra


class TestReplan:
    def test_blown_estimate_triggers_replan_and_answers_survive(self):
        pdms, query, instance, truth = _multi_rewriting_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True, fragment_cache_bytes=0)
        static = QueryService(pdms, data={"P": instance}, engine="shared",
                              fragment_cache_bytes=0)
        expected = static.answer(query)
        # Re-planning the rewritings not yet evaluated is a property of the
        # lazy root-by-root loop (a whole answer has one root and nothing
        # left to re-plan), so drive that loop: the row stream.
        for _ in range(4):
            assert set(service.stream(query)) == expected
        assert service.answer(query) == expected
        assert service.feedback.blown_events > 0
        assert service.stats.adaptive.replans > 0

    def test_measurement_only_log_never_replans(self):
        pdms, query, instance, truth = _multi_rewriting_pdms()
        log = QErrorLog(replan=False)
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True, feedback=log,
                               fragment_cache_bytes=0)
        for _ in range(4):
            set(service.stream(query))
        assert service.feedback.blown_events > 0
        assert service.stats.adaptive.replans == 0


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

class TestStatsSnapshot:
    def test_snapshot_is_deep_and_independent(self):
        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, engine="shared",
                               adaptive=True)
        service.answer(query)
        snap = service.stats_snapshot()
        before = (snap.hits, snap.misses, snap.fragments.lookups,
                  snap.adaptive.observations)
        service.answer(query)
        service.answer(query)
        assert (snap.hits, snap.misses, snap.fragments.lookups,
                snap.adaptive.observations) == before
        assert snap.adaptive is not service.stats.adaptive
        assert snap.fragments is not service.stats.fragments
        live = service.stats_snapshot()
        assert live.adaptive.observations > snap.adaptive.observations

    def test_snapshot_percentiles_are_fresh(self):
        log = QErrorLog()
        service = QueryService(adaptive=True, feedback=log)
        for i in range(3):  # far below the 64-record refresh cadence
            log.record(f"f{i}", {"r"}, "t", estimated=1.0, actual=50)
        assert service.stats_snapshot().adaptive.q_error_p50 == 50.0

    def test_as_dict_carries_adaptive_block(self):
        service = QueryService(adaptive=True)
        rendered = service.stats_snapshot().as_dict()
        assert rendered["adaptive"]["observations"] == 0
        assert "q_error_p50" in rendered["adaptive"]
