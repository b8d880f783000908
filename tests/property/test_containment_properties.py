"""Property-based tests for query containment, minimization, and evaluation.

The central invariant tying them together: containment is sound with respect
to evaluation — whenever ``Q1 ⊆ Q2`` syntactically, then on every instance
``Q1``'s answers are a subset of ``Q2``'s.
"""

from hypothesis import HealthCheck, given, settings

from repro.datalog.containment import are_equivalent, is_contained_in
from repro.datalog.evaluation import evaluate_query
from tests.oracles import minimize

from .strategies import conjunctive_queries, instances

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestContainmentProperties:
    @given(query=conjunctive_queries())
    @settings(max_examples=60, **COMMON)
    def test_containment_is_reflexive(self, query):
        assert is_contained_in(query, query)

    @given(query=conjunctive_queries(), facts=instances())
    @settings(max_examples=60, **COMMON)
    def test_adding_an_atom_never_adds_answers(self, query, facts):
        extended = query.add_body_atoms([query.relational_body()[0]])
        assert is_contained_in(extended, query)
        assert evaluate_query(extended, facts) <= evaluate_query(query, facts)

    @given(first=conjunctive_queries(), second=conjunctive_queries(), facts=instances())
    @settings(max_examples=80, **COMMON)
    def test_containment_sound_wrt_evaluation(self, first, second, facts):
        if first.arity != second.arity:
            return
        if is_contained_in(first, second):
            assert evaluate_query(first, facts) <= evaluate_query(second, facts)

    @given(query=conjunctive_queries(with_comparisons=True), facts=instances())
    @settings(max_examples=60, **COMMON)
    def test_comparison_queries_still_sound(self, query, facts):
        relational_only = type(query)(query.head, query.relational_body())
        assert is_contained_in(query, relational_only)
        assert evaluate_query(query, facts) <= evaluate_query(relational_only, facts)


class TestMinimizationProperties:
    @given(query=conjunctive_queries())
    @settings(max_examples=60, **COMMON)
    def test_minimization_preserves_equivalence(self, query):
        minimized = minimize(query)
        assert are_equivalent(query, minimized)
        assert len(minimized.relational_body()) <= len(query.relational_body())

    @given(query=conjunctive_queries(), facts=instances())
    @settings(max_examples=40, **COMMON)
    def test_minimization_preserves_answers(self, query, facts):
        assert evaluate_query(query, facts) == evaluate_query(minimize(query), facts)

    @given(query=conjunctive_queries())
    @settings(max_examples=40, **COMMON)
    def test_minimization_is_idempotent(self, query):
        once = minimize(query)
        twice = minimize(once)
        assert len(once.relational_body()) == len(twice.relational_body())
