"""The factored plan — the rule-goal tree compiled node for node — against
every other way of answering the same query (ISSUE 17).

* **Property**, over the ``pdms_specs`` strategy: the factored root
  (whole answers) ≡ the enumerated plan (``plan.fragments()`` forced) ≡
  the ``backtracking`` engine ≡ the chase oracle's certain answers, on the
  ``shared`` / ``columnar`` / ``distributed`` engines, on the row and the
  columnar representation, with and without a cost model.  The compile
  declines none of these trees.
* **Directed cases** for what the strategy does not draw: a wide fan-out
  (plan size, and the assembler never starts), Figure 2's multi-subgoal
  MCD with its induced ``f1 = f2``, Figure 1's ``skilled_people`` (a
  definitional head binds ``skill = "Doctor"``), constants and repeated
  variables in query head and goal labels, comparisons, a dead-end child,
  a cross-product rule, the trees the compile declines, and one diameter-6
  Section-5 topology.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.database import Instance
from repro.datalog import parse_query
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    PeerFactSource,
    ReformulationConfig,
    StorageDescription,
    certain_answers,
    combine_peer_instances,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    reformulate,
    stream_plan_answers,
)
from repro.pdms.planning import JoinFragment, ScanFragment, UnionFragment
from repro.workload import (
    GeneratorParameters,
    build_emergency_services,
    example_queries,
    generate_workload,
    sample_instance,
)

from .strategies import pdms_specs
from .test_service_properties import _chain, build_pdms
from .test_union_plan_properties import TestFirstKLaziness

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
PLAN_ENGINES = ("shared", "columnar", "distributed")


def kinds(plan):
    """``(scans, joins, unions)`` under the plan's factored root."""
    nodes = plan.answer_nodes().values()
    return tuple(
        sum(isinstance(node, kind) for node in nodes)
        for kind in (ScanFragment, JoinFragment, UnionFragment)
    )


def assert_all_paths_agree(pdms, query, data, config=None, declined=None):
    """Factored ≡ enumerated ≡ backtracking ≡ chase for one query; returns
    the answer.  ``declined`` is the reason the tree compile must give."""
    source = PeerFactSource(data) if isinstance(data, dict) else data
    stored = combine_peer_instances(data) if isinstance(data, dict) else data
    expected = certain_answers(pdms, query, stored)
    result = reformulate(pdms, query, config=config)
    assert evaluate_reformulation(result, source, engine="backtracking") == expected
    for cost_source in (None, source):
        plan = compile_reformulation(reformulate(pdms, query, config=config), cost_source)
        for columnar in (False, True):
            assert evaluate_plan(plan, source, columnar=columnar) == expected
            assert plan.stats.declined == declined, plan.stats
            assert set(stream_plan_answers(plan, source, columnar=columnar)) == expected
        if declined is None:
            assert plan.stats.factored <= result.statistics.goal_nodes
    for engine in PLAN_ENGINES:
        fresh = reformulate(pdms, query, config=config)
        assert evaluate_reformulation(fresh, source, engine=engine) == expected, engine
    return expected


class TestFactoredEqualsEveryOtherPath:
    @given(spec=pdms_specs())
    @settings(max_examples=40, **COMMON)
    def test_on_generated_pdms(self, spec):
        pdms, data, queries = build_pdms(spec)
        for query in queries:
            assert_all_paths_agree(pdms, query, data)


class TestDirectedCases:
    def test_wide_fan_out_compiles_the_tree_and_never_enumerates(self):
        """225 rewritings are 30 scans under two unions and one join (plus
        the root's projection), and no whole answer starts Step 3."""
        pdms, data, query = TestFirstKLaziness()._fan_out()
        width = TestFirstKLaziness.WIDTH
        source = PeerFactSource(data)
        expected = certain_answers(pdms, query, combine_peer_instances(data))
        for engine in PLAN_ENGINES:
            result = reformulate(pdms, query)
            assert evaluate_reformulation(result, source, engine=engine) == expected
            assert result._stream is None, engine  # the assembler never started
            plan = result._shared_plan
            assert plan.stats.rewritings == 0 and plan.stats.declined is None
            assert kinds(plan) == (2 * width, 1, 3)
            assert plan.stats.factored == 2 * width + 4

    def test_figure2_multi_subgoal_mcd(self, figure2_pdms, figure2_query):
        """Both ``Skill`` goals covered by one view atom: the cover is
        factored at the covered set, and the MCD's ``f1 = f2`` becomes a
        derived column of its branch."""
        data = Instance.from_dict({
            "S1": [("f1", "e1", 8), ("f2", "e1", 9), ("f3", "e2", 8)],
            "S2": [("f1", "f2"), ("f2", "f1"), ("f1", "f3"), ("f1", "f1"), ("f2", "f2")],
        })
        answers = assert_all_paths_agree(figure2_pdms, figure2_query, data)
        assert ("f1", "f2") in answers and ("f3", "f3") in answers
        plan = compile_reformulation(reformulate(figure2_pdms, figure2_query))
        assert "as (_f0, _f0)" in plan.pretty()  # f2 := f1

    def test_figure1_skilled_people_binds_a_head_constant(self):
        pdms, query = build_emergency_services(), example_queries()["skilled_people"]
        answers = assert_all_paths_agree(pdms, query, sample_instance())
        assert {skill for _, skill in answers} >= {"Doctor", "EMT"}
        assert "'Doctor')" in compile_reformulation(reformulate(pdms, query)).pretty()

    @pytest.mark.parametrize("name", sorted(example_queries()))
    def test_every_figure1_query(self, name):
        assert_all_paths_agree(
            build_emergency_services(), example_queries()[name], sample_instance())

    def _small(self):
        pdms = PDMS("small")
        a = pdms.add_peer("A")
        for relation in ("R", "S", "U", "W"):
            a.add_relation(relation, ["x", "y"])
        b = pdms.add_peer("B")
        b.add_relation("T", ["x", "y"])
        b.add_relation("Dead", ["x", "y"])
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- B:T(x, y)"), name="r_from_t"))
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:R(x, y) :- B:T(x, z), B:Dead(z, y)"), name="r_dead"))
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:S(x, x) :- B:T(x, y)"), name="s_diagonal"))
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query('A:U(x, "k") :- B:T(x, y), y > 2'), name="u_constant"))
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:W(x, y) :- B:T(x, u), B:T(v, y)"), name="w_cross"))
        for index in range(2):
            pdms.add_storage_description(StorageDescription(
                "B", f"t{index}", parse_query("V(x, y) :- B:T(x, y)"),
                exact=False, name=f"store_t{index}"))
        data = Instance.from_dict({
            "t0": [(1, 1), (1, 2), (2, 3), (3, 3)],
            "t1": [(3, 4), (4, 4), (2, 3), (5, 1)],
        })
        return pdms, data

    @pytest.mark.parametrize("text", [
        # constants and repeated variables in the head and in goal labels
        'Q(x, "tag", x) :- A:R(x, x)',
        "Q(y) :- A:R(3, y)",
        "Q(x, y) :- A:S(x, y)",               # the head's S(x, x) binds y = x
        "Q(x) :- A:S(x, 3)",
        "Q(x, k) :- A:U(x, k)",               # the head binds k = "k"; y > 2 below
        'Q(x) :- A:U(x, "k"), A:R(x, y)',
        'Q(x) :- A:U(x, "other")',            # unifies with nothing: no answers
        # comparisons over variables no goal would otherwise export
        "Q(x) :- A:R(x, y), y > 2",
        "Q(x, z) :- A:R(x, y), A:R(z, w), y < w",
        "Q(x) :- A:R(x, y), A:S(y, z), z != 3",
        # a rule whose goals share nothing: a cross product
        "Q(x, y) :- A:W(x, y)",
        "Q(x, y) :- A:R(x, x), A:S(y, y)",
        "Q() :- A:R(x, y), A:S(y, z)",
    ])
    def test_constants_repeats_comparisons_cross_products(self, text):
        pdms, data = self._small()
        assert_all_paths_agree(pdms, parse_query(text), data)

    def test_a_rule_with_a_dead_end_child_compiles_to_nothing(self):
        """``r_dead`` needs ``B:Dead``, which nothing stores: unpruned, its
        rule node stays in the tree with a dead leaf under it."""
        pdms, data = self._small()
        query = parse_query("Q(x, y) :- A:R(x, y)")
        config = ReformulationConfig(prune_dead_ends=False)
        result = reformulate(pdms, query, config=config)
        assert result.statistics.dead_leaves
        assert_all_paths_agree(pdms, query, data, config=config)
        plan = compile_reformulation(result)
        assert "store_t0" in plan.pretty() and "r_dead" not in plan.pretty()
        assert kinds(plan) == (2, 0, 2)  # R collapsed onto the union for B:T

    def test_a_rule_joins_its_stored_leaves_before_its_unions(self):
        """Two big single-alternative goals and one small goal with three
        alternatives: the estimates alone would join the small union first,
        and every write to an alternative would then recompute both joins.
        Stored leaves merge first, so the leaf join stays cached."""
        from repro.pdms import FragmentCache

        pdms = PDMS("chain")
        peer = pdms.add_peer("P")
        data = Instance()
        for relation, stores, rows in (("A1", 1, 200), ("A2", 1, 200), ("A3", 3, 5)):
            peer.add_relation(relation, ["x", "y"])
            for index in range(stores):
                name = f"s_{relation.lower()}_{index}"
                pdms.add_storage_description(StorageDescription(
                    "P", name, parse_query(f"V(x, y) :- P:{relation}(x, y)")))
                data.add_all(name, [(i % 50, (i * 7 + index) % 50) for i in range(rows)])
        query = parse_query("Q(x, w) :- P:A1(x, y), P:A2(y, z), P:A3(z, w)")
        plan = compile_reformulation(reformulate(pdms, query), data)
        nodes = plan.answer_nodes()
        leaf_joins = [
            key for key, node in nodes.items() if isinstance(node, JoinFragment)
            and all(isinstance(nodes[child], ScanFragment)
                    for child in (node.left_key, node.right_key))
        ]
        assert len(leaf_joins) == 1 and kinds(plan) == (5, 2, 2)
        cache = FragmentCache(max_bytes=1 << 24)
        before = evaluate_plan(plan, data, cache=cache)
        data.add("s_a3_0", (7, 999))
        hits = cache.stats.hits
        after = evaluate_plan(plan, data, cache=cache)
        assert after > before and leaf_joins[0] in cache.cached_keys()
        assert cache.stats.hits == hits + 1  # the leaf join, and nothing else
        assert after == certain_answers(pdms, query, data)

    def test_an_unsatisfiable_query_is_an_empty_union(self):
        pdms, data = self._small()
        query = parse_query("Q(x) :- A:Dead2(x)")
        pdms.peer("A").add_relation("Dead2", ["x"])
        assert assert_all_paths_agree(pdms, query, data) == set()
        assert kinds(compile_reformulation(reformulate(pdms, query))) == (0, 0, 1)

    def test_declined_trees_fall_back_to_the_enumerated_compile(self):
        """What the factored compile does not express is counted with its
        reason, and the enumerated plan answers instead."""
        pdms, data = self._small()
        # V(x) does not export y, which the query's comparison needs.
        pdms.add_storage_description(StorageDescription(
            "B", "tx", parse_query("V(x) :- B:T(x, y)"), exact=False, name="store_tx"))
        data.add_all("tx", [(7,), (1,)])
        assert_all_paths_agree(
            pdms, parse_query("Q(x) :- A:R(x, y), y > 2"), data, declined="constraint")
        assert_all_paths_agree(pdms, parse_query("Q(x) :- A:R(x, y)"), data)
        left_deep = compile_reformulation(
            reformulate(pdms, parse_query("Q(x) :- A:R(x, y)")), bushy=False)
        assert evaluate_plan(left_deep, data) == {(1,), (2,), (3,), (4,), (5,), (7,)}
        assert left_deep.stats.declined == "left-deep" and left_deep.stats.rewritings

    def test_a_diameter_6_topology_is_compiled_from_its_tree_alone(self):
        workload = generate_workload(GeneratorParameters(
            num_peers=96, diameter=6, definitional_ratio=0.10, seed=4))
        rng = random.Random(7)
        query = _chain("Q", [rng.choice(workload.strata[0]) for _ in range(2)], "q")
        data = {}
        for peer in workload.pdms.peers():
            instance = Instance()
            for relation in peer.stored_relations():
                instance.add_all(relation.name, [
                    (rng.randrange(12), rng.randrange(12)) for _ in range(8)])
            if peer.stored_relations():
                data[peer.name] = instance
        source = PeerFactSource(data)
        expected = evaluate_reformulation(
            reformulate(workload.pdms, query), source, engine="backtracking")
        assert expected

        result = reformulate(workload.pdms, query)

        def never(*_):
            raise AssertionError("a whole answer enumerated rewritings")

        result.rewritings = never
        plan = compile_reformulation(result, source)
        assert evaluate_plan(plan, source) == expected
        stats = plan.stats
        assert stats.declined is None and stats.rewritings == 0
        assert stats.tree_nodes == result.statistics.total_nodes
        assert 0 < stats.factored <= result.statistics.goal_nodes
