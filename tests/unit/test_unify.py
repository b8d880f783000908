"""Unit tests for repro.datalog.unify."""

import pytest

from repro.datalog.atoms import Atom, ComparisonAtom
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import (
    apply_substitution_atom,
    apply_substitution_body,
    apply_substitution_term,
    compose,
    is_variable_renaming,
    match_atom,
    rename_substitution,
    restrict,
    unify_atoms,
    unify_terms,
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestUnifyTerms:
    def test_identical_terms(self):
        assert unify_terms(X, X) == {}
        assert unify_terms(Constant(1), Constant(1)) == {}

    def test_variable_to_constant(self):
        assert unify_terms(X, Constant(1)) == {X: Constant(1)}

    def test_constant_clash_fails(self):
        assert unify_terms(Constant(1), Constant(2)) is None

    def test_respects_existing_bindings(self):
        subst = unify_terms(X, Constant(1))
        assert unify_terms(X, Constant(2), subst) is None
        assert unify_terms(X, Constant(1), subst) == subst


class TestUnifyAtoms:
    def test_mgu_of_compatible_atoms(self):
        result = unify_atoms(Atom("R", [X, Y]), Atom("R", [Constant(1), Z]))
        assert result is not None
        assert apply_substitution_term(X, result) == Constant(1)
        assert apply_substitution_term(Y, result) == apply_substitution_term(Z, result)

    def test_different_predicates_fail(self):
        assert unify_atoms(Atom("R", [X]), Atom("S", [X])) is None

    def test_different_arity_fails(self):
        assert unify_atoms(Atom("R", [X]), Atom("R", [X, Y])) is None

    def test_repeated_variable_forces_equality(self):
        result = unify_atoms(Atom("R", [X, X]), Atom("R", [Constant(1), Y]))
        assert result is not None
        assert apply_substitution_term(Y, result) == Constant(1)

    def test_unification_failure_on_constants(self):
        assert unify_atoms(Atom("R", [Constant(1)]), Atom("R", [Constant(2)])) is None


    def test_extends_a_copy_of_the_given_substitution(self):
        given = {X: Constant(1)}
        extended = unify_atoms(Atom("R", [X, Y]), Atom("R", [Z, Constant(2)]), given)
        assert extended == {X: Constant(1), Z: Constant(1), Y: Constant(2)}
        assert given == {X: Constant(1)}
        assert unify_atoms(Atom("R", [X, Y]), Atom("R", [Constant(3), Z]), given) is None
        assert given == {X: Constant(1)}


class TestMatchAtom:
    def test_one_way_matching_binds_only_pattern(self):
        result = match_atom(Atom("R", [X, Y]), Atom("R", [Constant(1), Z]))
        assert result == {X: Constant(1), Y: Z}

    def test_target_variables_are_rigid(self):
        # The pattern constant cannot match a different target constant.
        assert match_atom(Atom("R", [Constant(1)]), Atom("R", [Constant(2)])) is None

    def test_pattern_repeated_variable(self):
        assert match_atom(Atom("R", [X, X]), Atom("R", [Constant(1), Constant(2)])) is None
        assert match_atom(Atom("R", [X, X]), Atom("R", [Constant(1), Constant(1)])) is not None


class TestSubstitutionHelpers:
    def test_apply_substitution_follows_chains(self):
        subst = {X: Y, Y: Constant(3)}
        assert apply_substitution_term(X, subst) == Constant(3)

    def test_apply_substitution_atom_and_body(self):
        body = [Atom("R", [X]), ComparisonAtom(X, "<", Constant(5))]
        result = apply_substitution_body(body, {X: Constant(1)})
        assert result[0] == Atom("R", [Constant(1)])
        assert result[1] == ComparisonAtom(Constant(1), "<", Constant(5))
        assert apply_substitution_atom(Atom("R", [X, Y]), {X: Z}) == Atom("R", [Z, Y])

    def test_compose(self):
        first = {X: Y}
        second = {Y: Constant(1)}
        composed = compose(first, second)
        assert apply_substitution_term(X, composed) == Constant(1)
        assert composed[Y] == Constant(1)

    def test_compose_drops_identity_bindings(self):
        composed = compose({X: Y}, {Y: X})
        assert X not in composed

    def test_restrict(self):
        subst = {X: Constant(1), Y: Constant(2)}
        assert restrict(subst, [X]) == {X: Constant(1)}

    def test_rename_substitution_and_renaming_check(self):
        renaming = rename_substitution([X, Y], "_1")
        assert renaming == {X: Variable("x_1"), Y: Variable("y_1")}
        assert is_variable_renaming(renaming)
        assert not is_variable_renaming({X: Constant(1)})
        assert not is_variable_renaming({X: Z, Y: Z})
