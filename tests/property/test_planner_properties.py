"""Property-based tests: the union-plan evaluator agrees with the direct one.

Two completely independent evaluation paths exist for conjunctive queries —
the backtracking evaluator in :mod:`repro.datalog.evaluation` and the
union-plan compile of :mod:`repro.pdms.planning`, evaluated on the
:mod:`repro.database.columnar` kernels.  On every randomly generated query
and instance they must return exactly the same answer set; the same must
hold end to end for reformulated PDMS queries under every engine name.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database.planner import CardinalityCostModel
from repro.datalog.evaluation import as_fact_source, evaluate_query
from repro.datalog.indexing import ensure_indexed
from repro.pdms import (
    evaluate_plan,
    evaluate_reformulation,
    reformulate,
    stream_answers,
)
from repro.pdms.evaluator import _Evaluation
from repro.pdms.planning import UnionPlan
from repro.workload import GeneratorParameters, generate_workload, populate_workload

from .strategies import conjunctive_queries, instances

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _plan(query, facts):
    return UnionPlan(
        SimpleNamespace(rewritings=lambda: iter([query])), CardinalityCostModel(facts))


class TestPlanExecutorAgreement:
    @given(query=conjunctive_queries(max_body=3), facts=instances())
    @settings(max_examples=100, **COMMON)
    def test_plan_matches_backtracking_evaluator(self, query, facts):
        expected = evaluate_query(query, facts)
        assert evaluate_plan(_plan(query, facts), facts) == expected
        plan = _plan(query, facts)
        assert set(stream_answers(plan.result, facts, plan=plan)) == expected

    @given(query=conjunctive_queries(max_body=3, with_comparisons=True), facts=instances())
    @settings(max_examples=60, **COMMON)
    def test_plan_matches_with_comparisons(self, query, facts):
        assert evaluate_plan(_plan(query, facts), facts) == evaluate_query(query, facts)

    @given(query=conjunctive_queries(max_body=3), facts=instances())
    @settings(max_examples=40, **COMMON)
    def test_plan_arity_and_explain(self, query, facts):
        """Every fragment's table carries exactly its node's columns, and
        the root's rows have the query's arity."""
        plan = _plan(query, facts)
        (root,) = plan.fragments()
        evaluation = _Evaluation(plan, ensure_indexed(as_fact_source(facts)))
        for key, node in plan.nodes.items():
            assert evaluation.table(key).columns == node.columns
        assert len(root.head) == query.arity
        assert all(len(row) == query.arity for row in evaluation.root_rows(root))
        assert plan.pretty() == "(enumerated: no-tree)"

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, **COMMON)
    def test_engines_agree_on_reformulated_queries(self, seed):
        workload = generate_workload(GeneratorParameters(
            num_peers=9, diameter=3, definitional_ratio=0.25, seed=seed))
        data = populate_workload(workload, rows_per_relation=5, domain_size=3)
        result = reformulate(workload.pdms, workload.query)
        backtracking = evaluate_reformulation(result, data, engine="backtracking")
        for engine in (None, "columnar", "distributed"):
            assert evaluate_reformulation(result, data, engine=engine) == backtracking
            assert set(stream_answers(result, data, engine=engine)) == backtracking
