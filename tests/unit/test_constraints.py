"""Unit tests for repro.datalog.constraints."""

from repro.datalog.atoms import ComparisonAtom
from repro.datalog.constraints import ConstraintSet
from repro.datalog.terms import Constant, Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def c(left, op, right):
    return ComparisonAtom(left, op, right)


class TestSatisfiability:
    def test_empty_conjunction_is_satisfiable(self):
        assert ConstraintSet().is_satisfiable()
        assert ConstraintSet().is_trivially_true()

    def test_single_bound(self):
        assert ConstraintSet([c(X, "<", Constant(5))]).is_satisfiable()

    def test_contradictory_constant_bounds(self):
        assert not ConstraintSet([c(X, "<", Constant(5)), c(X, ">", Constant(7))]).is_satisfiable()

    def test_compatible_constant_bounds(self):
        assert ConstraintSet([c(X, ">", Constant(3)), c(X, "<", Constant(10))]).is_satisfiable()

    def test_strict_cycle(self):
        assert not ConstraintSet([c(X, "<", Y), c(Y, "<", X)]).is_satisfiable()

    def test_nonstrict_cycle_is_fine(self):
        assert ConstraintSet([c(X, "<=", Y), c(Y, "<=", X)]).is_satisfiable()

    def test_forced_equality_with_disequality(self):
        constraints = ConstraintSet([c(X, "<=", Y), c(Y, "<=", X), c(X, "!=", Y)])
        assert not constraints.is_satisfiable()

    def test_equality_chain_with_two_constants(self):
        constraints = ConstraintSet([c(X, "=", Constant(5)), c(X, "=", Constant(6))])
        assert not constraints.is_satisfiable()

    def test_equality_with_strict_order(self):
        assert not ConstraintSet([c(X, "=", Y), c(X, "<", Y)]).is_satisfiable()

    def test_transitive_constant_conflict(self):
        constraints = ConstraintSet(
            [c(X, "<", Y), c(Y, "<", Z), c(Z, "<", Constant(2)), c(X, ">", Constant(10))]
        )
        assert not constraints.is_satisfiable()

    def test_ground_comparisons(self):
        assert not ConstraintSet([c(Constant(3), "<", Constant(2))]).is_satisfiable()
        assert ConstraintSet([c(Constant(2), "<", Constant(3))]).is_satisfiable()

    def test_string_constants_ordered_lexicographically(self):
        assert ConstraintSet([c(X, ">", Constant("a")), c(X, "<", Constant("m"))]).is_satisfiable()
        assert not ConstraintSet([c(X, "<", Constant("a")), c(X, ">", Constant("m"))]).is_satisfiable()

    def test_disequality_of_distinct_constants_is_fine(self):
        assert ConstraintSet([c(Constant(1), "!=", Constant(2))]).is_satisfiable()
        assert not ConstraintSet([c(Constant(1), "!=", Constant(1))]).is_satisfiable()


class TestAlgebra:
    def test_conjoin_and_deduplicate(self):
        first = ConstraintSet([c(X, "<", Constant(5))])
        combined = first.conjoin([c(X, "<", Constant(5)), c(Y, ">", Constant(1))])
        assert len(combined) == 2

    def test_substitute(self):
        constraints = ConstraintSet([c(X, "<", Y)])
        result = constraints.substitute({Y: Constant(3)})
        assert result.atoms[0] == c(X, "<", Constant(3))

    def test_variables(self):
        constraints = ConstraintSet([c(X, "<", Y), c(Y, "<", Constant(1))])
        assert constraints.variables() == frozenset({X, Y})

    def test_str(self):
        assert str(ConstraintSet()) == "true"
        assert "<" in str(ConstraintSet([c(X, "<", Constant(5))]))


    def test_conjoining_the_empty_conjunction_shares_the_operand(self):
        empty, some = ConstraintSet(), ConstraintSet([c(X, "<", Constant(5))])
        assert some.conjoin(empty) is some
        assert some.conjoin([]) is some
        assert empty.conjoin(some) is some
        assert empty.conjoin(empty) is empty
        assert empty.project([X]) is empty

    def test_satisfiability_verdict_is_kept(self):
        unsat = ConstraintSet([c(X, "<", Constant(1)), c(X, ">", Constant(2))])
        assert not unsat.is_satisfiable() and not unsat.is_satisfiable()
        assert unsat == ConstraintSet([c(X, "<", Constant(1)), c(X, ">", Constant(2))])


class TestProjection:
    def test_projection_keeps_visible_atoms(self):
        constraints = ConstraintSet([c(X, "<", Constant(5)), c(Y, ">", Constant(1))])
        projected = constraints.project([X])
        assert c(X, "<", Constant(5)) in projected.atoms
        assert all(Y not in atom.variable_set() for atom in projected.atoms)

    def test_projection_derives_transitive_bound(self):
        constraints = ConstraintSet([c(X, "<", Y), c(Y, "<", Constant(5))])
        projected = constraints.project([X])
        assert projected.implies(c(X, "<", Constant(5)))

    def test_projection_is_sound(self):
        # Whatever the projection keeps must be implied by the original.
        constraints = ConstraintSet([c(X, "<", Y), c(Y, "<=", Z), c(Z, "<", Constant(9))])
        projected = constraints.project([X, Z])
        for atom in projected:
            assert constraints.implies(atom)


class TestImplication:
    def test_implies_weaker_bound(self):
        constraints = ConstraintSet([c(X, "<", Constant(5))])
        assert constraints.implies(c(X, "<", Constant(6)))
        assert constraints.implies(c(X, "<=", Constant(5)))
        assert not constraints.implies(c(X, "<", Constant(4)))

    def test_implies_via_equality(self):
        constraints = ConstraintSet([c(X, "=", Y), c(Y, "<", Constant(3))])
        assert constraints.implies(c(X, "<", Constant(3)))

    def test_unsatisfiable_implies_everything(self):
        constraints = ConstraintSet([c(X, "<", Constant(1)), c(X, ">", Constant(2))])
        assert constraints.implies(c(Y, "=", Constant(42)))
