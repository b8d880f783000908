"""Unit tests for the minimization oracle (tests.oracles.minimize)."""

from repro.datalog.containment import are_equivalent
from repro.datalog.parser import parse_query
from tests.oracles import is_minimal, minimize


class TestMinimize:
    def test_redundant_atom_removed(self):
        query = parse_query("Q(x, y) :- R(x, z), S(z, y), R(x, w)")
        minimized = minimize(query)
        assert len(minimized.relational_body()) == 2
        assert are_equivalent(query, minimized)

    def test_already_minimal_query_unchanged(self):
        query = parse_query("Q(x, y) :- R(x, z), S(z, y)")
        assert len(minimize(query).relational_body()) == 2
        assert is_minimal(query)

    def test_duplicate_atoms_collapse(self):
        query = parse_query("Q(x) :- R(x, y), R(x, y)")
        assert len(minimize(query).relational_body()) == 1

    def test_head_variables_are_preserved(self):
        query = parse_query("Q(x, w) :- R(x, z), S(z, y), R(x, w)")
        minimized = minimize(query)
        # R(x, w) binds the head variable w and therefore cannot be dropped.
        assert any(
            atom.predicate == "R" and atom.args[1].name == "w"
            for atom in minimized.relational_body()
        )
        assert are_equivalent(query, minimized)

    def test_comparisons_on_dropped_variables_are_dropped(self):
        query = parse_query("Q(x) :- R(x, y), R(x, w), w < 10")
        minimized = minimize(query)
        assert are_equivalent(query, minimized) or len(minimized.body) <= len(query.body)

    def test_triangle_vs_path_not_collapsed(self):
        # The triangle is minimal: dropping any atom changes the query.
        triangle = parse_query("Q(x) :- E(x, y), E(y, z), E(z, x)")
        assert len(minimize(triangle).relational_body()) == 3

    def test_unfolded_self_join_minimizes(self):
        query = parse_query("Q(x) :- E(x, y), E(x, z)")
        minimized = minimize(query)
        assert len(minimized.relational_body()) == 1
        assert are_equivalent(query, minimized)
