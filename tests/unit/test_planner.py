"""Unit tests for the union-plan compiler and its column-batch evaluator.

A conjunctive query over stored relations reaches the plan two ways here,
and both must answer exactly like the backtracking evaluator:

* **enumerated** — the query is the one rewriting of a tree-less result,
  so the plan compiles it into hash-consed scan/join fragments and a whole
  answer runs the root-by-root loop (:meth:`UnionPlan.fragments`);
* **factored** — the query is posed over a peer ``P`` whose relations
  store each ``R`` verbatim, so the reformulation carries a rule-goal tree
  and a whole answer evaluates the plan's one factored root.
"""

from types import SimpleNamespace

import pytest

from repro.database import Instance
from repro.database.planner import CardinalityCostModel
from repro.datalog import evaluate_query, evaluate_union, parse_query, parse_union
from repro.datalog.atoms import Atom
from repro.datalog.indexing import WILDCARD
from repro.datalog.queries import ConjunctiveQuery
from repro.errors import EvaluationError
from repro.pdms import (
    PDMS,
    StorageDescription,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    reformulate,
    stream_answers,
)
from repro.pdms.planning import JoinFragment, ScanFragment, UnionFragment, UnionPlan

FACTS = {
    "E": [(1, 2), (2, 3), (3, 4), (2, 2)],
    "L": [(2, "a"), (3, "b")],
}


def plan_of(*rewritings, facts=None):
    """An enumerated plan over ``rewritings`` (the factored compile declines
    a result without a rule-goal tree)."""
    cost = None if facts is None else CardinalityCostModel(facts)
    return UnionPlan(SimpleNamespace(rewritings=lambda: iter(rewritings)), cost)


def plan_answers(query, facts):
    return evaluate_plan(plan_of(query, facts=facts), facts)


def union_plan_answers(union, facts):
    return evaluate_plan(plan_of(*union, facts=facts), facts)


def factored_plan(query, facts):
    """``query`` posed over peer relations ``P:R`` that store every ``R``
    verbatim, compiled for a whole answer."""
    pdms = PDMS()
    peer = pdms.add_peer("P")
    arities = {atom.predicate: atom.arity for atom in query.relational_body()}
    for relation, arity in arities.items():
        columns = ", ".join(f"c{i}" for i in range(arity))
        peer.add_relation(relation, [f"c{i}" for i in range(arity)])
        pdms.add_storage_description(StorageDescription(
            "P", relation, parse_query(f"V({columns}) :- P:{relation}({columns})")))
    lifted = ConjunctiveQuery(query.head, [
        Atom("P:" + atom.predicate, atom.args) if isinstance(atom, Atom) else atom
        for atom in query.body
    ])
    return compile_reformulation(reformulate(pdms, lifted), facts)


class TestCompilation:
    def test_single_atom_plan_shape(self):
        plan = plan_of(parse_query("Q(x, y) :- E(x, y)"))
        (root,) = plan.fragments()
        scan = plan.nodes[root.root_key]
        assert isinstance(scan, ScanFragment)
        assert scan.relation == "E" and len(scan.columns) == 2
        assert root.head == tuple(("col", column) for column in scan.columns)

    def test_join_plan_shape(self):
        plan = plan_of(parse_query("Q(x, z) :- E(x, y), L(y, z)"))
        (root,) = plan.fragments()
        join = plan.nodes[root.root_key]
        assert isinstance(join, JoinFragment)
        assert {plan.nodes[join.left_key].relation,
                plan.nodes[join.right_key].relation} == {"E", "L"}

    def test_constants_become_scan_filters(self):
        plan = plan_of(parse_query("Q(y) :- E(2, y)"))
        (root,) = plan.fragments()
        scan = plan.nodes[root.root_key]
        assert isinstance(scan, ScanFragment)
        assert scan.pattern == (2, WILDCARD)
        assert scan.keep_positions == (1,)

    def test_repeated_variables_become_equality_filters(self):
        plan = plan_of(parse_query("Q(x) :- E(x, x)"))
        (root,) = plan.fragments()
        scan = plan.nodes[root.root_key]
        assert isinstance(scan, ScanFragment)
        assert scan.equal_positions == ((0, 1),)
        assert scan.keep_positions == (0,)

    def test_comparisons_become_select_node(self):
        plan = plan_of(parse_query("Q(x, y) :- E(x, y), y < 4"))
        (root,) = plan.fragments()
        # Comparisons ride on the rewriting root, not on the shared scan.
        assert isinstance(plan.nodes[root.root_key], ScanFragment)
        ((left, op, right),) = root.comparisons
        assert left[0] == "col" and op == "<" and right == ("const", 4)

    def test_empty_union_compiles_to_empty_node(self):
        plan = plan_of()
        assert list(plan.fragments()) == []
        assert plan.factored_root() is None and plan.stats.declined == "no-tree"
        assert plan.nodes == {}

    def test_union_plan(self):
        union = parse_union(["Q(x) :- E(x, 2)", "Q(x) :- E(x, 4)"])
        plan = plan_of(*union)
        first, second = plan.fragments()
        assert first.root_key != second.root_key
        assert plan.stats.rewritings == 2 and plan.stats.unique_fragments == 2

    def test_no_relational_atoms_rejected(self):
        query = parse_query("Q(x) :- E(x, y)")
        stripped = type(query)(query.head, query.relational_body())
        object.__setattr__(stripped, "body", ())
        with pytest.raises(EvaluationError):
            list(plan_of(stripped).fragments())

    def test_explain_renders_every_operator(self):
        plan = factored_plan(
            parse_query("Q(x, z) :- E(x, y), L(y, z), x < 3"), FACTS)
        rendering = plan.pretty()
        assert isinstance(plan.nodes[plan.factored_root()], UnionFragment)
        assert rendering.startswith("union ")
        assert "join on" in rendering
        assert "where" in rendering
        assert "scan E(" in rendering and "scan L(" in rendering
        assert plan_of(parse_query("Q(x) :- E(x, y)")).pretty() == "(enumerated: no-tree)"


class TestExecution:
    def test_single_atom(self):
        assert plan_answers(parse_query("Q(x, y) :- E(x, y)"), FACTS) == {
            (1, 2), (2, 3), (3, 4), (2, 2)}

    def test_join(self):
        query = parse_query("Q(x, z) :- E(x, y), L(y, z)")
        # E(1,2)⋈L(2,a), E(2,3)⋈L(3,b), and E(2,2)⋈L(2,a).
        assert plan_answers(query, FACTS) == {(1, "a"), (2, "b"), (2, "a")}

    def test_constant_filter(self):
        assert plan_answers(parse_query("Q(y) :- E(2, y)"), FACTS) == {(3,), (2,)}

    def test_repeated_variable(self):
        assert plan_answers(parse_query("Q(x) :- E(x, x)"), FACTS) == {(2,)}

    def test_comparison(self):
        query = parse_query("Q(x) :- E(x, y), y >= 3")
        assert plan_answers(query, FACTS) == {(2,), (3,)}

    def test_head_constants(self):
        query = parse_query('Q(x, "edge") :- E(x, 2)')
        assert plan_answers(query, FACTS) == {(1, "edge"), (2, "edge")}

    def test_cross_product_when_disconnected(self):
        query = parse_query("Q(x, z) :- E(x, 2), L(3, z)")
        assert plan_answers(query, FACTS) == {(1, "b"), (2, "b")}

    def test_union_execution(self):
        union = parse_union(["Q(x) :- E(x, 2)", "Q(x) :- E(x, 4)"])
        assert union_plan_answers(union, FACTS) == {(1,), (2,), (3,)}

    def test_empty_union_executes_to_no_rows(self):
        plan = plan_of(facts=FACTS)
        assert evaluate_plan(plan, FACTS) == set()
        assert set(stream_answers(plan.result, FACTS, plan=plan)) == set()

    def test_instance_as_fact_source(self):
        instance = Instance.from_dict(FACTS)
        query = parse_query("Q(x, z) :- E(x, y), L(y, z)")
        assert plan_answers(query, instance) == {(1, "a"), (2, "b"), (2, "a")}

    def test_arity_mismatch_detected(self):
        query = parse_query("Q(x) :- E(x)")
        with pytest.raises(EvaluationError):
            plan_answers(query, FACTS)


class TestAgreementWithBacktrackingEvaluator:
    QUERIES = [
        "Q(x, y) :- E(x, y)",
        "Q(x, z) :- E(x, y), E(y, z)",
        "Q(x) :- E(x, x)",
        "Q(x, z) :- E(x, y), L(y, z)",
        "Q(x) :- E(x, y), y < 4",
        "Q(y) :- E(2, y)",
        'Q(x, "k") :- E(x, y), L(y, w)',
        "Q(x, w) :- E(x, y), E(y, z), E(z, w)",
        # Comparison shapes: column vs column, constant on the left (the
        # operator flips), constant vs constant (kept or emptied whole).
        "Q(x, y) :- E(x, y), x = y",
        "Q(x, y) :- E(x, y), x != y",
        "Q(x, y) :- E(x, y), x < y",
        "Q(x) :- E(x, y), 3 > y",
        "Q(x) :- E(x, y), 1 < 2",
        "Q(x) :- E(x, y), 2 < 1",
        "Q(y) :- E(x, y), E(y, y), y >= 2, x <= 2",
        # Head and body shapes: a repeated head variable, a string
        # constant, a two-cycle, a cross product, an empty answer.
        "Q(x, x) :- E(x, y)",
        'Q(x) :- L(x, "a")',
        "Q(x) :- E(x, y), E(y, x)",
        "Q(x, z) :- E(x, 2), L(3, z)",
        'Q(x) :- E(x, y), L(y, "zzz")',
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_same_answers_as_evaluate_query(self, text):
        query = parse_query(text)
        expected = evaluate_query(query, FACTS)
        enumerated = plan_of(query, facts=FACTS)
        assert evaluate_plan(enumerated, FACTS) == expected
        assert set(stream_answers(enumerated.result, FACTS, plan=enumerated)) == expected
        factored = factored_plan(query, FACTS)
        assert evaluate_plan(factored, FACTS) == expected
        assert factored.factored_root() is not None, factored.stats.declined
        assert set(stream_answers(factored.result, FACTS, plan=factored)) == expected

    def test_same_answers_on_reformulated_union(self, figure2_pdms, figure2_query):
        data = {
            "S1": [("alice", "e1", 17), ("bob", "e1", 18), ("carol", "e2", 17)],
            "S2": [("alice", "bob"), ("carol", "dave")],
        }
        result = reformulate(figure2_pdms, figure2_query)
        expected = evaluate_union(result.union(), data)
        assert union_plan_answers(result.union(), data) == expected
        assert evaluate_reformulation(result, data, engine="columnar") == expected
