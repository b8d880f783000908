"""Unit tests for repro.datalog.atoms."""

import pytest

from repro.datalog.atoms import (
    Atom,
    ComparisonAtom,
    atoms_variables,
    comparison_atoms,
    compare_values,
    relational_atoms,
)
from repro.datalog.terms import Constant, Variable


class TestAtom:
    def test_coerces_python_scalars_to_constants(self):
        atom = Atom("R", [Variable("x"), "a", 3])
        assert atom.args[1] == Constant("a")
        assert atom.args[2] == Constant(3)

    def test_arity(self):
        assert Atom("R", [Variable("x"), Variable("y")]).arity == 2
        assert Atom("R", []).arity == 0

    def test_variables_and_constants(self):
        atom = Atom("R", [Variable("x"), Constant(1), Variable("x")])
        assert list(atom.variables()) == [Variable("x"), Variable("x")]
        assert atom.variable_set() == frozenset({Variable("x")})
        assert list(atom.constants()) == [Constant(1)]

    def test_substitute_leaves_unmapped_variables(self):
        atom = Atom("R", [Variable("x"), Variable("y")])
        result = atom.substitute({Variable("x"): Constant(7)})
        assert result == Atom("R", [Constant(7), Variable("y")])

    def test_substitute_does_not_touch_constants(self):
        atom = Atom("R", [Constant("a")])
        assert atom.substitute({Variable("a"): Constant("b")}) == atom

    def test_rename_predicate(self):
        atom = Atom("R", [Variable("x")])
        assert atom.rename_predicate("S") == Atom("S", [Variable("x")])

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom("", [Variable("x")])

    def test_equality_and_hash(self):
        assert Atom("R", [Variable("x")]) == Atom("R", [Variable("x")])
        assert hash(Atom("R", [Variable("x")])) == hash(Atom("R", [Variable("x")]))
        assert Atom("R", [Variable("x")]) != Atom("S", [Variable("x")])

    def test_str_shows_qualified_predicates(self):
        atom = Atom("H:Doctor", [Variable("sid"), Constant("FH")])
        assert str(atom) == 'H:Doctor(sid, "FH")'


class TestComparisonAtom:
    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            ComparisonAtom(Variable("x"), "~", Constant(1))

    def test_flipped(self):
        comparison = ComparisonAtom(Variable("x"), "<", Constant(5))
        assert comparison.flipped() == ComparisonAtom(Constant(5), ">", Variable("x"))

    def test_negated(self):
        comparison = ComparisonAtom(Variable("x"), "<=", Variable("y"))
        assert comparison.negated() == ComparisonAtom(Variable("x"), ">", Variable("y"))

    def test_ground_evaluation(self):
        assert ComparisonAtom(Constant(2), "<", Constant(3)).evaluate_ground()
        assert not ComparisonAtom(Constant(3), "=", Constant(4)).evaluate_ground()

    def test_evaluate_ground_requires_groundness(self):
        with pytest.raises(ValueError):
            ComparisonAtom(Variable("x"), "<", Constant(3)).evaluate_ground()

    def test_substitute(self):
        comparison = ComparisonAtom(Variable("x"), "<", Variable("y"))
        result = comparison.substitute({Variable("x"): Constant(1)})
        assert result == ComparisonAtom(Constant(1), "<", Variable("y"))

    def test_variables(self):
        comparison = ComparisonAtom(Variable("x"), "!=", Constant(0))
        assert comparison.variable_set() == frozenset({Variable("x")})


class TestTrustedConstructionAndSharing:
    def test_trusted_atom_equals_and_hashes_like_a_constructed_one(self):
        args = (Variable("x"), Constant("a"), Constant(3))
        trusted, constructed = Atom.trusted("R", args), Atom("R", [Variable("x"), "a", 3])
        assert trusted == constructed
        assert hash(trusted) == hash(constructed)
        assert {trusted: 1}[constructed] == 1
        assert str(trusted) == str(constructed)
        assert trusted.variable_set() == constructed.variable_set() == {Variable("x")}

    def test_variable_set_is_computed_once(self):
        atom = Atom("R", [Variable("x"), Variable("y"), Variable("x"), 1])
        assert atom.variable_set() == frozenset({Variable("x"), Variable("y")})
        assert atom.variable_set() is atom.variable_set()
        assert Atom("R", [1, 2]).variable_set() == frozenset()

    def test_substitute_that_changes_nothing_returns_the_atom(self):
        atom = Atom("R", [Variable("x"), 1])
        assert atom.substitute({}) is atom
        assert atom.substitute({Variable("z"): Constant(2)}) is atom
        assert atom.substitute({Variable("x"): Variable("x")}) is atom
        changed = atom.substitute({Variable("x"): Constant(2)})
        assert changed == Atom("R", [2, 1]) and changed is not atom
        # Values that are not terms yet are still coerced.
        assert atom.substitute({Variable("x"): "a"}) == Atom("R", ["a", 1])

    def test_comparison_substitute_that_changes_nothing_returns_the_atom(self):
        comparison = ComparisonAtom(Variable("x"), "<", Constant(5))
        assert comparison.substitute({Variable("z"): Constant(1)}) is comparison
        assert comparison.substitute({Variable("x"): Constant(1)}) == ComparisonAtom(1, "<", 5)


class TestHelpers:
    def test_compare_values_same_types(self):
        assert compare_values(1, "<", 2)
        assert compare_values("a", "<", "b")
        assert not compare_values(2, "<=", 1)

    def test_compare_values_mixed_types_is_total(self):
        # Mixed-type comparisons do not raise; equality is plain equality.
        assert not compare_values(1, "=", "1")
        assert compare_values(1, "!=", "1")
        assert compare_values(1, "<", "1") != compare_values("1", "<", 1)

    def test_atoms_variables(self):
        atoms = [
            Atom("R", [Variable("x"), Variable("y")]),
            ComparisonAtom(Variable("z"), "<", Constant(1)),
        ]
        assert atoms_variables(atoms) == frozenset(
            {Variable("x"), Variable("y"), Variable("z")}
        )

    def test_relational_and_comparison_split(self):
        body = [
            Atom("R", [Variable("x")]),
            ComparisonAtom(Variable("x"), "<", Constant(1)),
        ]
        assert relational_atoms(body) == [body[0]]
        assert comparison_atoms(body) == [body[1]]
