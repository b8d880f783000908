"""Property-based tests for MiniCon, the Bucket algorithm, and PDMS reformulation.

Key invariants, straight from the literature the paper builds on:

* every MiniCon / Bucket rewriting is *contained* in the query once view
  atoms are expanded by their definitions (soundness);
* evaluating the rewriting over view extensions returns exactly the certain
  answers (maximal containment) — checked against the inverse-rules oracle;
* the PDMS reformulation returns exactly the certain answers on randomly
  generated tractable workloads — checked against the chase oracle.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.containment import is_contained_in
from repro.datalog.evaluation import evaluate_union
from repro.pdms import answer_query, certain_answers, reformulate
from repro.workload import GeneratorParameters, generate_workload, populate_workload
from tests.oracles import bucket_rewrite, expand_view_atoms, minicon_rewrite
from tests.oracles import certain_answers as lav_certain_answers

from .strategies import conjunctive_queries, instances, lav_views

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestMiniConProperties:
    @given(query=conjunctive_queries(max_body=3), views=lav_views())
    @settings(max_examples=50, **COMMON)
    def test_rewritings_are_contained_in_query(self, query, views):
        union = minicon_rewrite(query, views)
        for rewriting in union:
            expansion = expand_view_atoms(rewriting, views)
            assert expansion is not None
            assert is_contained_in(expansion, query)

    @given(query=conjunctive_queries(max_body=2), views=lav_views(), facts=instances())
    @settings(max_examples=40, **COMMON)
    def test_rewriting_answers_equal_certain_answers(self, query, views, facts):
        # Build view extensions by evaluating the view definitions over a
        # random "global" instance — the open-world setting of LAV.
        view_extensions = {
            view.name: evaluate_union(
                type(minicon_rewrite(query, []))(  # UnionQuery constructor
                    [view.definition], name=view.name, arity=view.arity),
                facts,
            )
            for view in views
        }
        union = minicon_rewrite(query, views)
        answers = evaluate_union(union, view_extensions)
        oracle = lav_certain_answers(query, views, view_extensions)
        assert answers == oracle

    @given(query=conjunctive_queries(max_body=2), views=lav_views(), facts=instances())
    @settings(max_examples=25, **COMMON)
    def test_bucket_is_sound_and_below_minicon(self, query, views, facts):
        """The Bucket baseline never returns a non-certain answer, and never
        beats MiniCon.  (It may miss answers in corner cases where view
        unification binds a distinguished query variable to a constant — a
        known gap of the original algorithm's candidate construction that
        MiniCon closes; see the module docstring of tests.oracles.bucket.)
        """
        view_extensions = {
            view.name: evaluate_union(
                type(minicon_rewrite(query, []))(
                    [view.definition], name=view.name, arity=view.arity),
                facts,
            )
            for view in views
        }
        minicon_answers = evaluate_union(minicon_rewrite(query, views), view_extensions)
        bucket_answers = evaluate_union(bucket_rewrite(query, views), view_extensions)
        oracle = lav_certain_answers(query, views, view_extensions)
        assert bucket_answers <= oracle
        assert bucket_answers <= minicon_answers


class TestReformulationProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        definitional_ratio=st.sampled_from([0.0, 0.25, 0.5]),
        diameter=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=30, **COMMON)
    def test_answers_equal_certain_answers_on_generated_workloads(
        self, seed, definitional_ratio, diameter
    ):
        workload = generate_workload(GeneratorParameters(
            num_peers=3 * diameter,
            diameter=diameter,
            definitional_ratio=definitional_ratio,
            seed=seed,
        ))
        data = populate_workload(workload, rows_per_relation=5, domain_size=3)
        answers = answer_query(workload.pdms, workload.query, data)
        oracle = certain_answers(workload.pdms, workload.query, data)
        assert answers == oracle

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, **COMMON)
    def test_rewritings_only_use_stored_relations(self, seed):
        workload = generate_workload(GeneratorParameters(
            num_peers=9, diameter=3, definitional_ratio=0.3, seed=seed))
        stored = workload.pdms.stored_relation_names()
        result = reformulate(workload.pdms, workload.query)
        for rewriting in result.all_rewritings():
            assert {atom.predicate for atom in rewriting.relational_body()} <= stored

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, **COMMON)
    def test_node_statistics_match_tree_recount(self, seed):
        workload = generate_workload(GeneratorParameters(
            num_peers=8, diameter=2, definitional_ratio=0.2, seed=seed))
        result = reformulate(workload.pdms, workload.query)
        before = result.statistics.total_nodes
        recounted = result.tree.count_nodes().total_nodes
        assert before == recounted
