"""Unit tests for repro.datalog.evaluation."""

import random
from collections import defaultdict

import pytest

from repro.datalog.evaluation import (
    evaluate_program,
    evaluate_program_query,
    evaluate_query,
    evaluate_union,
)
from repro.datalog.parser import parse_program, parse_query, parse_union
from repro.errors import EvaluationError


EDGES = {"E": [(1, 2), (2, 3), (3, 4)]}


class TestEvaluateQuery:
    def test_single_atom(self):
        query = parse_query("Q(x, y) :- E(x, y)")
        assert evaluate_query(query, EDGES) == {(1, 2), (2, 3), (3, 4)}

    def test_join(self):
        query = parse_query("Q(x, z) :- E(x, y), E(y, z)")
        assert evaluate_query(query, EDGES) == {(1, 3), (2, 4)}

    def test_projection(self):
        query = parse_query("Q(x) :- E(x, y)")
        assert evaluate_query(query, EDGES) == {(1,), (2,), (3,)}

    def test_constant_selection(self):
        query = parse_query("Q(y) :- E(2, y)")
        assert evaluate_query(query, EDGES) == {(3,)}

    def test_head_constant(self):
        query = parse_query('Q(x, "edge") :- E(x, y)')
        assert evaluate_query(query, EDGES) == {(1, "edge"), (2, "edge"), (3, "edge")}

    def test_comparison_filtering(self):
        query = parse_query("Q(x, y) :- E(x, y), y < 4")
        assert evaluate_query(query, EDGES) == {(1, 2), (2, 3)}

    def test_variable_join_in_same_atom(self):
        facts = {"R": [(1, 1), (1, 2)]}
        query = parse_query("Q(x) :- R(x, x)")
        assert evaluate_query(query, facts) == {(1,)}

    def test_empty_relation_gives_empty_answer(self):
        query = parse_query("Q(x) :- Missing(x)")
        assert evaluate_query(query, EDGES) == set()

    def test_arity_mismatch_raises(self):
        query = parse_query("Q(x) :- E(x)")
        with pytest.raises(EvaluationError):
            evaluate_query(query, EDGES)

    def test_cartesian_product(self):
        facts = {"A": [(1,), (2,)], "B": [(3,), (4,)]}
        query = parse_query("Q(x, y) :- A(x), B(y)")
        assert evaluate_query(query, facts) == {(1, 3), (1, 4), (2, 3), (2, 4)}

    def test_instance_object_as_fact_source(self):
        from repro.database import Instance

        instance = Instance.from_dict(EDGES)
        query = parse_query("Q(x, z) :- E(x, y), E(y, z)")
        assert evaluate_query(query, instance) == {(1, 3), (2, 4)}


class TestEvaluateUnion:
    def test_union_of_two_disjuncts(self):
        union = parse_union(["Q(x) :- E(x, 2)", "Q(x) :- E(x, 4)"])
        assert evaluate_union(union, EDGES) == {(1,), (3,)}

    def test_empty_union(self):
        from repro.datalog.queries import UnionQuery

        assert evaluate_union(UnionQuery([], name="Q", arity=1), EDGES) == set()


class TestEvaluateProgram:
    def test_transitive_closure(self):
        program = parse_program(
            """
            T(x, y) :- E(x, y)
            T(x, y) :- E(x, z), T(z, y)
            """,
            query_predicate="T",
        )
        result = evaluate_program_query(program, EDGES)
        assert result == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}

    def test_nonrecursive_program(self):
        program = parse_program(
            """
            P(x) :- E(x, y)
            QQ(x) :- P(x), E(x, 2)
            """,
            query_predicate="QQ",
        )
        assert evaluate_program_query(program, EDGES) == {(1,)}

    def test_program_result_contains_all_idb(self):
        program = parse_program(
            """
            A(x) :- E(x, y)
            B(y) :- E(x, y)
            """,
            query_predicate="A",
        )
        result = evaluate_program(program, EDGES)
        assert set(result.keys()) == {"A", "B"}
        assert result["B"] == {(2,), (3,), (4,)}

    def test_mutual_recursion(self):
        program = parse_program(
            """
            Even(x) :- Zero(x)
            Even(y) :- Odd(x), Succ(x, y)
            Odd(y) :- Even(x), Succ(x, y)
            """,
            query_predicate="Even",
        )
        facts = {"Zero": [(0,)], "Succ": [(i, i + 1) for i in range(6)]}
        assert evaluate_program_query(program, facts) == {(0,), (2,), (4,), (6,)}

    def test_iteration_limit(self):
        program = parse_program(
            """
            T(x, y) :- E(x, y)
            T(x, y) :- E(x, z), T(z, y)
            """,
            query_predicate="T",
        )
        long_chain = {"E": [(i, i + 1) for i in range(30)]}
        with pytest.raises(EvaluationError):
            evaluate_program(program, long_chain, max_iterations=2)


class TestAtSize:
    """The engine over a few thousand random rows against a plain-Python
    reference, with the answer counts pinned."""

    @pytest.mark.parametrize("rows,values,answers", [(200, 80, 2185), (2000, 600, 61118)])
    def test_chain_join_matches_a_dict_join(self, rows, values, answers):
        rng = random.Random(7)
        facts = {
            f"R{i}": {(rng.randrange(values), rng.randrange(values)) for _ in range(rows)}
            for i in range(4)
        }
        expected = set(facts["R0"])
        for name in ("R1", "R2", "R3"):
            successors = defaultdict(set)
            for left, right in facts[name]:
                successors[left].add(right)
            expected = {(a, c) for a, b in expected for c in successors[b]}
        query = parse_query("Q(a, e) :- R0(a, b), R1(b, c), R2(c, d), R3(d, e)")
        assert evaluate_query(query, facts) == expected
        assert len(expected) == answers

    @pytest.mark.parametrize("nodes,edges,closure", [(60, 120, 2456), (220, 440, 30989)])
    def test_transitive_closure_matches_a_search_from_every_node(self, nodes, edges, closure):
        rng = random.Random(11)
        graph = {(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(edges)}
        successors = defaultdict(set)
        for left, right in graph:
            successors[left].add(right)
        expected = set()
        for start in range(nodes):
            reached, frontier = set(), [start]
            while frontier:
                for node in successors[frontier.pop()] - reached:
                    reached.add(node)
                    frontier.append(node)
            expected.update((start, node) for node in reached)
        program = parse_program(
            """
            T(x, y) :- E(x, y)
            T(x, y) :- E(x, z), T(z, y)
            """,
            query_predicate="T",
        )
        assert evaluate_program_query(program, {"E": graph}) == expected
        assert len(expected) == closure
