"""Property tests for the self-tuning loop.

Three invariants, over random small PDMSs with random data mutations and
catalogue churn:

* **Measurement is truthful** — every ``(estimated, actual)`` observation
  a :class:`~repro.database.feedback.QErrorLog` records during plan
  execution reports the *true* row count of that fragment
  (re-evaluating the fragment from scratch reproduces ``actual``).

* **Adaptivity is invisible in answers** — a service with
  ``REPRO_ADAPTIVE=1`` (corrections, racing, re-planning all live) stays
  exactly equivalent to a fresh static evaluation and to the chase
  oracle at every point of a mutation/churn interleaving.

* **Losing challengers are inert** — a challenger whose answer set
  differs from the champion's is counted and discarded; its rows never
  reach a served answer.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import QErrorLog
from repro.pdms import (
    PeerFactSource,
    QueryService,
    compile_reformulation,
    evaluate_reformulation,
    reformulate,
)
from repro.pdms.planning import _Evaluation

from .strategies import churn_specs, data_mutation_specs, pdms_specs
from .test_materialization_properties import _apply_mutation
from .test_service_properties import _check_three_way, _join_satellite, build_pdms

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

class TestMeasurementTruthfulness:
    @given(spec=pdms_specs())
    @settings(max_examples=25, **COMMON)
    def test_recorded_actuals_are_true_fragment_counts(self, spec):
        """Re-evaluating any observed fragment reproduces its ``actual``."""
        pdms, data, queries = build_pdms(spec)
        source = PeerFactSource(data)
        for query in queries:
            result = reformulate(pdms, query)
            log = QErrorLog()
            evaluate_reformulation(result, source, feedback=log)
            plan = compile_reformulation(result, source)
            for _ in plan.fragments():
                pass  # force full compilation so every key resolves ...
            assert plan.factored_root()  # ... a whole answer's unions included
            for obs in log.observations():
                table = _Evaluation(plan, source).table(obs.key)
                assert len(table) == obs.actual, obs.key

    @given(spec=pdms_specs(), ops=data_mutation_specs(max_ops=2))
    @settings(max_examples=15, **COMMON)
    def test_observations_track_mutating_data(self, spec, ops):
        """After a mutation, fresh observations reflect the new counts."""
        pdms, data, queries = build_pdms(spec)
        source = PeerFactSource(data)
        for op in ops:
            _apply_mutation(op, spec, data)
        for query in queries:
            result = reformulate(pdms, query)
            log = QErrorLog()
            evaluate_reformulation(result, source, engine="columnar", feedback=log)
            plan = compile_reformulation(result, source)
            for _ in plan.fragments():
                pass
            assert plan.factored_root()
            for obs in log.observations():
                if obs.key in plan.nodes:
                    table = _Evaluation(plan, source).table(obs.key)
                    assert len(table) == obs.actual


class TestAdaptiveEquivalence:
    @given(spec=pdms_specs(), ops=data_mutation_specs())
    @settings(max_examples=25, **COMMON)
    def test_adaptive_equals_fresh_and_oracle_under_mutation(self, spec, ops):
        """query → mutate → query with the full loop on, vs both oracles."""
        pdms, data, queries = build_pdms(spec)
        service = QueryService(
            pdms, data=data, engine="columnar", adaptive=True,
            fragment_cache_bytes=0,
        )
        for _ in range(2):  # repeat pass: corrections + possible races live
            for query in queries:
                _check_three_way(service, query, data)
        for op in ops:
            _apply_mutation(op, spec, data)
            for query in queries:
                _check_three_way(service, query, data)

    @given(spec=pdms_specs(), churn=churn_specs(max_satellites=1))
    @settings(max_examples=15, **COMMON)
    def test_adaptive_equals_oracle_under_peer_churn(self, spec, churn):
        """Peer join/leave invalidates corrections, answers stay exact."""
        pdms, data, queries = build_pdms(spec)
        service = QueryService(
            pdms, data=data, engine="columnar", adaptive=True,
            fragment_cache_bytes=0,
        )
        for query in queries:
            _check_three_way(service, query, data)
        for satellite in churn:
            extra_query = _join_satellite(
                service, satellite, spec["top_relations"], data)
            for query in queries:
                _check_three_way(service, query, data)
            if extra_query is not None:
                _check_three_way(service, extra_query, data)
            service.remove_peer(satellite["peer"])
            data.pop(satellite["peer"], None)
            for query in queries:
                _check_three_way(service, query, data)

    @given(spec=pdms_specs())
    @settings(max_examples=15, **COMMON)
    def test_env_enabled_adaptive_matches_static_service(self, spec):
        import os
        from unittest import mock

        pdms, data, queries = build_pdms(spec)
        with mock.patch.dict(os.environ, {"REPRO_ADAPTIVE": "1"}):
            adaptive = QueryService(pdms, data=data, engine="columnar")
            assert adaptive.adaptive
            static = QueryService(pdms, data=data, engine="columnar",
                                  adaptive=False)
            for _ in range(2):
                for query in queries:
                    assert adaptive.answer(query) == static.answer(query)


class TestChallengerIsolation:
    @given(spec=pdms_specs(), poison_row=st.tuples(st.integers(), st.integers()))
    @settings(max_examples=15, **COMMON)
    def test_losing_challenger_rows_never_served(self, spec, poison_row):
        """Force every challenger to return poisoned rows 'instantly';
        served answers must still equal the static truth and the poison
        must never appear."""
        pdms, data, queries = build_pdms(spec)
        service = QueryService(
            pdms, data=data, engine="columnar", adaptive=True,
            race_margin=1e9, fragment_cache_bytes=0,
            feedback=QErrorLog(correction_threshold=1.0 + 1e-9),
        )
        static = QueryService(pdms, data=data, engine="columnar")
        champions = service._champions
        real = QueryService._evaluate_candidate.__get__(service)

        def poisoned(result, source, engine, plan, feedback):
            states = [s for s in champions.values() if s.plan is plan]
            if not states:  # a challenger, not a champion: poison it
                rows, _ = real(result, source, engine, plan, feedback)
                return set(rows) | {poison_row}, 0.0
            return real(result, source, engine, plan, feedback)

        service._evaluate_candidate = poisoned
        try:
            for _ in range(3):
                for query in queries:
                    served = service.answer(query)
                    truth = static.answer(query)
                    assert served == truth
                    if poison_row not in truth:
                        assert poison_row not in served
        finally:
            del service._evaluate_candidate
        stats = service.stats_snapshot().adaptive
        assert stats.races_won == 0
        if stats.races_run:
            assert stats.races_mismatched == stats.races_run
