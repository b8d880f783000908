"""Unit tests for repro.datalog.queries."""

import pytest

from repro.datalog.atoms import Atom, ComparisonAtom
from repro.datalog.queries import (
    ConjunctiveQuery,
    DatalogProgram,
    DatalogRule,
    UnionQuery,
    make_chain_query,
)
from repro.datalog.terms import Constant, FreshVariableFactory, Variable
from repro.errors import MalformedQueryError

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def cq(head, body):
    return ConjunctiveQuery(head, body)


class TestConjunctiveQuery:
    def test_basic_accessors(self):
        query = cq(Atom("Q", [X, Y]), [Atom("R", [X, Z]), Atom("S", [Z, Y])])
        assert query.name == "Q"
        assert query.arity == 2
        assert query.head_variables() == [X, Y]
        assert query.existential_variables() == frozenset({Z})
        assert query.predicates() == frozenset({"R", "S"})

    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(MalformedQueryError):
            cq(Atom("Q", [X, Y]), [Atom("R", [X, X])])

    def test_unsafe_comparison_variable_rejected(self):
        with pytest.raises(MalformedQueryError):
            cq(Atom("Q", [X]), [Atom("R", [X]), ComparisonAtom(Y, "<", Constant(1))])

    def test_head_constants_are_allowed(self):
        query = cq(Atom("Q", [X, Constant("Doctor")]), [Atom("R", [X])])
        assert query.arity == 2

    def test_has_projection(self):
        with_projection = cq(Atom("Q", [X]), [Atom("R", [X, Y])])
        without_projection = cq(Atom("Q", [X, Y]), [Atom("R", [X, Y])])
        assert with_projection.has_projection()
        assert not without_projection.has_projection()

    def test_has_comparisons(self):
        query = cq(Atom("Q", [X]), [Atom("R", [X]), ComparisonAtom(X, "<", Constant(3))])
        assert query.has_comparisons()

    def test_substitute(self):
        query = cq(Atom("Q", [X]), [Atom("R", [X, Y])])
        result = query.substitute({Y: Constant(1)})
        assert result.body[0] == Atom("R", [X, Constant(1)])

    def test_rename_apart_preserves_kept_variables(self):
        query = cq(Atom("Q", [X]), [Atom("R", [X, Y])])
        fresh = FreshVariableFactory()
        fresh.reserve(["x", "y"])
        renamed = query.rename_apart(fresh, keep=[X])
        assert renamed.head == Atom("Q", [X])
        assert renamed.body[0].args[0] == X
        assert renamed.body[0].args[1] != Y

    def test_rename_apart_renames_everything_by_default(self):
        query = cq(Atom("Q", [X]), [Atom("R", [X, Y])])
        fresh = FreshVariableFactory()
        fresh.reserve(["x", "y"])
        renamed = query.rename_apart(fresh)
        assert renamed.all_variables().isdisjoint(query.all_variables())

    def test_add_body_atoms(self):
        query = cq(Atom("Q", [X]), [Atom("R", [X])])
        extended = query.add_body_atoms([Atom("S", [X])])
        assert len(extended.body) == 2

    def test_is_single_atom(self):
        assert cq(Atom("Q", [X]), [Atom("R", [X])]).is_single_atom()
        assert not cq(Atom("Q", [X]), [Atom("R", [X]), Atom("S", [X])]).is_single_atom()

    def test_str_rendering(self):
        query = cq(Atom("Q", [X]), [Atom("R", [X, Y])])
        assert str(query) == "Q(x) :- R(x, y)"


class TestTrustedConstruction:
    def test_trusted_query_equals_and_hashes_like_a_constructed_one(self):
        head, body = Atom("Q", [X]), (Atom("R", [X, Y]), ComparisonAtom(Y, "<", Constant(3)))
        trusted, constructed = ConjunctiveQuery.trusted(head, body), cq(head, body)
        assert trusted == constructed
        assert hash(trusted) == hash(constructed)
        assert str(trusted) == str(constructed)
        assert trusted.relational_body() == constructed.relational_body()

    def test_trusted_keeps_the_subclass(self):
        rule = DatalogRule.trusted(Atom("P", [X]), (Atom("R", [X, Y]),))
        assert isinstance(rule, DatalogRule)
        assert rule == DatalogRule(Atom("P", [X]), [Atom("R", [X, Y])])

    def test_substitute_shares_unchanged_atoms(self):
        query = cq(Atom("Q", [X]), [Atom("R", [X, Y]), Atom("S", [Z])])
        substituted = query.substitute({Y: Constant(1)})
        assert substituted == cq(Atom("Q", [X]), [Atom("R", [X, 1]), Atom("S", [Z])])
        assert substituted.head is query.head and substituted.body[1] is query.body[1]


class TestUnionQuery:
    def test_disjuncts_must_agree_on_head(self):
        first = cq(Atom("Q", [X]), [Atom("R", [X])])
        second = cq(Atom("Q", [X, Y]), [Atom("S", [X, Y])])
        with pytest.raises(MalformedQueryError):
            UnionQuery([first, second])

    def test_empty_union_needs_explicit_signature(self):
        with pytest.raises(MalformedQueryError):
            UnionQuery([])
        empty = UnionQuery([], name="Q", arity=2)
        assert empty.is_empty()
        assert len(empty) == 0

    def test_add_and_iterate(self):
        first = cq(Atom("Q", [X]), [Atom("R", [X])])
        second = cq(Atom("Q", [X]), [Atom("S", [X])])
        union = UnionQuery([first]).add(second)
        assert len(union) == 2
        assert list(union) == [first, second]
        assert union.predicates() == frozenset({"R", "S"})


class TestDatalogProgram:
    def test_idb_edb_split(self):
        program = DatalogProgram(
            [
                DatalogRule(Atom("T", [X, Y]), [Atom("E", [X, Y])]),
                DatalogRule(Atom("T", [X, Y]), [Atom("E", [X, Z]), Atom("T", [Z, Y])]),
            ],
            query_predicate="T",
        )
        assert program.idb_predicates() == frozenset({"T"})
        assert program.edb_predicates() == frozenset({"E"})
        assert len(program.rules_for("T")) == 2

    def test_recursion_detection(self):
        recursive = DatalogProgram(
            [DatalogRule(Atom("T", [X, Y]), [Atom("E", [X, Z]), Atom("T", [Z, Y])])],
            query_predicate="T",
        )
        flat = DatalogProgram(
            [DatalogRule(Atom("T", [X, Y]), [Atom("E", [X, Y])])],
            query_predicate="T",
        )
        assert recursive.is_recursive()
        assert not flat.is_recursive()


class TestChainQuery:
    def test_make_chain_query_shape(self):
        query = make_chain_query("Q", ["A", "B", "C"])
        assert query.arity == 2
        assert [a.predicate for a in query.relational_body()] == ["A", "B", "C"]
        # consecutive atoms share a variable
        for first, second in zip(query.relational_body(), query.relational_body()[1:]):
            assert first.args[1] == second.args[0]

    def test_make_chain_query_requires_predicates(self):
        with pytest.raises(MalformedQueryError):
            make_chain_query("Q", [])
