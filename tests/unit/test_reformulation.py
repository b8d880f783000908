"""Unit tests for the rule-goal-tree reformulation algorithm (Section 4)."""

import pytest

from repro.datalog import parse_atom, parse_query
from repro.datalog.atoms import Atom
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    InclusionMapping,
    ReformulationConfig,
    StorageDescription,
    lav_style,
    reformulate,
    replication,
)
from repro.pdms.rule_goal_tree import RuleNode


class TestFigure2Example:
    """The paper's Figure 2: the worked reformulation example."""

    def test_paper_rewritings_present(self, figure2_pdms, figure2_query):
        result = reformulate(figure2_pdms, figure2_query)
        bodies = {frozenset(str(a) for a in rw.relational_body())
                  for rw in result.all_rewritings()}
        # The two rewritings shown in Figure 2 (S2(f1,f2) and S2(f2,f1)).
        expected_one = frozenset({"S1(f1, e, _mv)", "S1(f2, e, _mv)", "S2(f1, f2)"})
        # Variable names of projected positions differ; compare structurally.
        def structural(body):
            return frozenset(
                (a.split("(")[0], a.count(",")) for a in body
            )
        assert any(
            {"S2(f1, f2)"} <= {s for s in body if s.startswith("S2")}
            for body in bodies
        )
        assert any(
            {"S2(f2, f1)"} <= {s for s in body if s.startswith("S2")}
            for body in bodies
        )

    def test_symmetric_application_of_r1(self, figure2_pdms, figure2_query):
        """r1 must be applied a second time with head variables reversed
        (SameSkill may not be symmetric) — the paper's Example 4.1."""
        result = reformulate(figure2_pdms, figure2_query)
        labels = {
            str(goal.label)
            for goal in result.tree.goal_nodes()
            if goal.label.predicate == "FS:SameSkill"
        }
        assert "FS:SameSkill(f1, f2)" in labels
        assert "FS:SameSkill(f2, f1)" in labels

    def test_unc_labels_cover_both_skill_subgoals(self, figure2_pdms, figure2_query):
        result = reformulate(figure2_pdms, figure2_query)
        inclusion_nodes = [
            rule for rule in result.tree.rule_nodes()
            if rule.kind == RuleNode.KIND_INCLUSION and rule.origin == "r1"
        ]
        assert inclusion_nodes
        assert any(len(rule.covers) == 2 for rule in inclusion_nodes)

    def test_all_rewritings_refer_only_to_stored_relations(
        self, figure2_pdms, figure2_query
    ):
        result = reformulate(figure2_pdms, figure2_query)
        for rewriting in result.all_rewritings():
            assert all(
                atom.predicate in ("S1", "S2")
                for atom in rewriting.relational_body()
            )

    def test_statistics_counts_are_consistent(self, figure2_pdms, figure2_query):
        result = reformulate(figure2_pdms, figure2_query)
        stats = result.statistics
        assert stats.total_nodes == stats.goal_nodes + stats.rule_nodes
        assert stats.stored_leaves > 0
        assert stats.max_depth >= 3

    def test_first_rewritings_prefix_of_all(self, figure2_pdms, figure2_query):
        result = reformulate(figure2_pdms, figure2_query)
        first_two = result.first_rewritings(2)
        assert len(first_two) == 2
        everything = result.all_rewritings()
        assert [str(r) for r in everything[:2]] == [str(r) for r in first_two]


class TestDefinitionalChaining:
    def test_gav_chain_through_two_peers(self):
        pdms = PDMS()
        for name in ("A", "B", "C"):
            pdms.add_peer(name).add_relation("R", ["x", "y"])
        pdms.add_peer_mapping(DefinitionalMapping(parse_query("A:R(x, y) :- B:R(x, y)")))
        pdms.add_peer_mapping(DefinitionalMapping(parse_query("B:R(x, y) :- C:R(x, y)")))
        pdms.add_storage_description(
            StorageDescription("C", "stored_c", parse_query("V(x, y) :- C:R(x, y)")))
        result = reformulate(pdms, parse_query("Q(x, y) :- A:R(x, y)"))
        rewritings = result.all_rewritings()
        assert len(rewritings) == 1
        assert rewritings[0].relational_body()[0].predicate == "stored_c"

    def test_definitional_union_gives_multiple_rewritings(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("P", ["x"])
        b = pdms.add_peer("B")
        b.add_relation("P1", ["x"])
        b.add_relation("P2", ["x"])
        pdms.add_peer_mapping(DefinitionalMapping(parse_query("A:P(x) :- B:P1(x)")))
        pdms.add_peer_mapping(DefinitionalMapping(parse_query("A:P(x) :- B:P2(x)")))
        pdms.add_storage_description(
            StorageDescription("B", "s1", parse_query("V(x) :- B:P1(x)")))
        pdms.add_storage_description(
            StorageDescription("B", "s2", parse_query("V(x) :- B:P2(x)")))
        result = reformulate(pdms, parse_query("Q(x) :- A:P(x)"))
        assert {rw.relational_body()[0].predicate for rw in result.all_rewritings()} == {
            "s1", "s2"
        }

    def test_head_constant_binding_restricts_and_propagates(self):
        """Unifying with a definitional head constant must not lose the binding."""
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("Skilled", ["p", "skill"])
        b = pdms.add_peer("B")
        b.add_relation("Doctor", ["p"])
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query('A:Skilled(p, "Doctor") :- B:Doctor(p)')))
        pdms.add_storage_description(
            StorageDescription("B", "docs", parse_query("V(p) :- B:Doctor(p)")))
        # Query with a variable in the bound position.
        result = reformulate(pdms, parse_query("Q(p, s) :- A:Skilled(p, s)"))
        rewritings = result.all_rewritings()
        assert len(rewritings) == 1
        assert str(rewritings[0].head.args[1]) == '"Doctor"'
        # Query with a matching constant works; mismatching constant yields nothing.
        assert len(reformulate(
            pdms, parse_query('Q(p) :- A:Skilled(p, "Doctor")')).all_rewritings()) == 1
        assert reformulate(
            pdms, parse_query('Q(p) :- A:Skilled(p, "EMT")')).all_rewritings() == []


class TestInclusionChaining:
    def test_lav_chain_through_two_peers(self):
        pdms = PDMS()
        for name in ("A", "B", "C"):
            pdms.add_peer(name).add_relation("R", ["x", "y"])
        pdms.add_peer_mapping(lav_style(
            parse_atom("B:R(x, y)"), parse_query("V(x, y) :- A:R(x, y)")))
        pdms.add_peer_mapping(lav_style(
            parse_atom("C:R(x, y)"), parse_query("V(x, y) :- B:R(x, y)")))
        pdms.add_storage_description(
            StorageDescription("C", "stored_c", parse_query("V(x, y) :- C:R(x, y)")))
        result = reformulate(pdms, parse_query("Q(x, y) :- A:R(x, y)"))
        rewritings = result.all_rewritings()
        assert len(rewritings) == 1
        assert rewritings[0].relational_body()[0].predicate == "stored_c"

    def test_join_variable_must_be_exported(self):
        """A view projecting away a join variable cannot be chained through."""
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("R", ["x", "y"])
        a.add_relation("S", ["y", "z"])
        b = pdms.add_peer("B")
        b.add_relation("OnlyX", ["x"])
        pdms.add_peer_mapping(lav_style(
            parse_atom("B:OnlyX(x)"), parse_query("V(x) :- A:R(x, y)")))
        pdms.add_storage_description(
            StorageDescription("B", "stored_b", parse_query("V(x) :- B:OnlyX(x)")))
        # y joins R and S, but OnlyX does not export it: no rewriting may use it.
        result = reformulate(pdms, parse_query("Q(x) :- A:R(x, y), A:S(y, z)"))
        assert result.all_rewritings() == []

    def test_mcd_covering_two_subgoals(self):
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("R", ["x", "y"])
        a.add_relation("S", ["y", "z"])
        b = pdms.add_peer("B")
        b.add_relation("Pair", ["x", "z"])
        pdms.add_peer_mapping(lav_style(
            parse_atom("B:Pair(x, z)"), parse_query("V(x, z) :- A:R(x, y), A:S(y, z)")))
        pdms.add_storage_description(
            StorageDescription("B", "stored_pair", parse_query("V(x, z) :- B:Pair(x, z)")))
        result = reformulate(pdms, parse_query("Q(x, z) :- A:R(x, y), A:S(y, z)"))
        rewritings = result.all_rewritings()
        assert len(rewritings) == 1
        assert [a.predicate for a in rewritings[0].relational_body()] == ["stored_pair"]

    def test_replication_cycle_terminates_and_answers(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("V", ["x", "y"])
        pdms.add_peer("B").add_relation("V", ["x", "y"])
        pdms.add_peer_mapping(replication(
            parse_atom("A:V(x, y)"), parse_atom("B:V(x, y)")))
        pdms.add_storage_description(
            StorageDescription("B", "stored_b", parse_query("V(x, y) :- B:V(x, y)")))
        result = reformulate(pdms, parse_query("Q(x, y) :- A:V(x, y)"))
        rewritings = result.all_rewritings()
        assert any(
            rw.relational_body()[0].predicate == "stored_b" for rw in rewritings
        )

    def test_mutual_inclusion_cycle_terminates(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("R", ["x"])
        pdms.add_peer("B").add_relation("R", ["x"])
        pdms.add_peer_mapping(lav_style(
            parse_atom("A:R(x)"), parse_query("V(x) :- B:R(x)"), name="ab"))
        pdms.add_peer_mapping(lav_style(
            parse_atom("B:R(x)"), parse_query("V(x) :- A:R(x)"), name="ba"))
        pdms.add_storage_description(
            StorageDescription("A", "sa", parse_query("V(x) :- A:R(x)")))
        # Must not loop forever despite the cyclic peer mappings.
        result = reformulate(pdms, parse_query("Q(x) :- B:R(x)"))
        assert len(result.all_rewritings()) >= 1

    def test_description_not_reused_on_same_path(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("R", ["x"])
        pdms.add_peer("B").add_relation("R", ["x"])
        pdms.add_peer_mapping(lav_style(
            parse_atom("B:R(x)"), parse_query("V(x) :- A:R(x)"), name="only"))
        pdms.add_storage_description(
            StorageDescription("B", "sb", parse_query("V(x) :- B:R(x)")))
        result = reformulate(pdms, parse_query("Q(x) :- A:R(x)"))
        for goal in result.tree.goal_nodes():
            origins = []
            node = goal
            while node.parent is not None:
                origins.append(node.parent.origin)
                node = node.parent.parent
            non_query = [o for o in origins if not o.startswith("__")]
            assert len(non_query) == len(set(non_query))


class TestSyntheticPredicates:
    def test_projection_inclusion_goes_through_synthetic_rule(self):
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("Worker", ["sid", "first", "last"])
        b = pdms.add_peer("B")
        b.add_relation("Staff", ["sid", "first", "last", "class"])
        pdms.add_peer_mapping(InclusionMapping(
            parse_query("L(sid, f, l) :- B:Staff(sid, f, l, c)"),
            parse_query("R(sid, f, l) :- A:Worker(sid, f, l)"), name="staff"))
        pdms.add_storage_description(
            StorageDescription("B", "roster", parse_query("V(s, f, l, c) :- B:Staff(s, f, l, c)")))
        result = reformulate(pdms, parse_query("Q(sid, l) :- A:Worker(sid, f, l)"))
        rewritings = result.all_rewritings()
        assert len(rewritings) == 1
        assert rewritings[0].relational_body()[0].predicate == "roster"


class TestComparisonPredicates:
    def test_unsatisfiable_branch_pruned(self):
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("Item", ["x", "price"])
        b = pdms.add_peer("B")
        b.add_relation("Cheap", ["x", "price"])
        b.add_relation("Pricey", ["x", "price"])
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:Item(x, p) :- B:Cheap(x, p), p < 100")))
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:Item(x, p) :- B:Pricey(x, p), p >= 100")))
        pdms.add_storage_description(
            StorageDescription("B", "cheap_store", parse_query("V(x, p) :- B:Cheap(x, p)")))
        pdms.add_storage_description(
            StorageDescription("B", "pricey_store", parse_query("V(x, p) :- B:Pricey(x, p)")))
        query = parse_query("Q(x, p) :- A:Item(x, p), p < 50")
        result = reformulate(pdms, query)
        predicates = {
            rw.relational_body()[0].predicate for rw in result.all_rewritings()
        }
        # The Pricey branch is unsatisfiable together with p < 50.
        assert predicates == {"cheap_store"}
        assert result.statistics.pruned_unsatisfiable >= 1

    def test_sibling_labels_that_contradict_are_discarded_in_step3(self):
        """Each goal's label is satisfiable on its own (``p < 5``, ``p > 10``),
        so tree construction prunes nothing; the labels first meet in Step 3,
        which must discard the contradictory combination."""
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("Low", ["x", "p"])
        a.add_relation("High", ["x", "p"])
        pdms.add_peer("B").add_relation("L", ["x", "p"])
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:Low(x, p) :- B:L(x, p), p < 5")))
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:High(x, p) :- B:L(x, p), p > 10")))
        pdms.add_storage_description(
            StorageDescription("B", "l_store", parse_query("V(x, p) :- B:L(x, p)")))
        both = reformulate(pdms, parse_query("Q(x) :- A:Low(x, p), A:High(x, p)"))
        assert both.statistics.pruned_unsatisfiable == 0
        assert both.statistics.stored_leaves == 2
        assert both.all_rewritings() == []
        apart = reformulate(pdms, parse_query("Q(x) :- A:Low(x, p), A:High(x, q)"))
        assert len(apart.all_rewritings()) == 1

    def test_comparisons_appear_in_rewriting(self):
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("Item", ["x", "price"])
        pdms.add_storage_description(
            StorageDescription("A", "items", parse_query("V(x, p) :- A:Item(x, p)")))
        query = parse_query("Q(x) :- A:Item(x, p), p < 50")
        result = reformulate(pdms, query)
        rewritings = result.all_rewritings()
        assert len(rewritings) == 1
        assert rewritings[0].has_comparisons()


class TestProductivePredicates:
    def test_productive_set(self, figure2_pdms):
        productive = figure2_pdms.catalogue().productive_predicates()
        assert "S1" in productive and "S2" in productive
        assert "FS:AssignedTo" in productive
        assert "FS:SameEngine" in productive
        assert "FS:SameSkill" in productive
        # Sched appears only inside a storage description body: reachable too.
        assert "FS:Sched" in productive

    def test_dead_end_expansion_leaves_no_node(self):
        def build(with_dead_mapping):
            pdms = PDMS()
            a = pdms.add_peer("A")
            a.add_relation("P", ["x"])
            b = pdms.add_peer("B")
            b.add_relation("Good", ["x"])
            b.add_relation("Dead", ["x"])
            pdms.add_peer_mapping(DefinitionalMapping(parse_query("A:P(x) :- B:Good(x)")))
            if with_dead_mapping:
                pdms.add_peer_mapping(DefinitionalMapping(
                    parse_query("A:P(x) :- B:Dead(x), B:Good(x)")))
            pdms.add_storage_description(
                StorageDescription("B", "good_store", parse_query("V(x) :- B:Good(x)")))
            return reformulate(pdms, parse_query("Q(x) :- A:P(x)"))

        pruned, without = build(True), build(False)
        assert pruned.statistics.pruned_dead_end == 1
        # The dead expansion leaves no node behind, and no rewriting.
        assert pruned.statistics.total_nodes == without.statistics.total_nodes
        assert len(pruned.all_rewritings()) == len(without.all_rewritings()) == 1


class TestSafetyCaps:
    def test_max_nodes_budget_enforced(self, figure2_pdms, figure2_query):
        from repro.errors import ReformulationError

        with pytest.raises(ReformulationError):
            reformulate(figure2_pdms, figure2_query, ReformulationConfig(max_nodes=3))

    def test_max_depth_truncates_tree(self, figure2_pdms, figure2_query):
        config = ReformulationConfig(max_depth=1)
        result = reformulate(figure2_pdms, figure2_query, config)
        assert result.statistics.max_depth <= 2

    def test_only_the_caps_are_configurable(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(ReformulationConfig)] == [
            "max_nodes", "max_depth"]


class TestNoRewritingCases:
    def test_unmapped_relation_has_no_rewriting(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("Orphan", ["x"])
        result = reformulate(pdms, parse_query("Q(x) :- A:Orphan(x)"))
        assert result.all_rewritings() == []

    def test_tree_pretty_rendering(self, figure2_pdms, figure2_query):
        result = reformulate(figure2_pdms, figure2_query)
        rendering = result.tree.pretty()
        assert "FS:SameEngine" in rendering
        assert "covers(" in rendering
