"""Unit tests for views and the GAV oracle (tests.oracles.gav)."""

import pytest

from repro.datalog import evaluate_union, parse_query
from repro.errors import MappingError, ReformulationError
from repro.integration import View, ViewKind
from tests.oracles import GAVMediator, ViewSet


class TestViewSet:
    def test_index_by_name_and_predicate(self):
        first = View(parse_query("V1(x) :- R(x, y)"))
        second = View(parse_query("V2(x) :- S(x), R(x, z)"))
        views = ViewSet([first, second])
        assert views.by_name("V1") is first
        assert set(v.name for v in views.with_predicate("R")) == {"V1", "V2"}
        assert views.with_predicate("missing") == ()
        assert "V1" in views and "V3" not in views
        assert len(views) == 2

    def test_duplicate_names_rejected(self):
        views = ViewSet([View(parse_query("V(x) :- R(x)"))])
        with pytest.raises(MappingError):
            views.add(View(parse_query("V(x) :- S(x)")))

    def test_unknown_name_raises(self):
        with pytest.raises(MappingError):
            ViewSet().by_name("V")

    def test_view_kind_rendering(self):
        exact = View(parse_query("V(x) :- R(x)"), ViewKind.EXACT)
        contained = View(parse_query("V(x) :- R(x)"))
        assert "=" in str(exact)
        assert "⊆" in str(contained)


class TestGAVMediator:
    def test_example_2_2_unfolding(self):
        """The paper's Example 2.2: SkilledPerson as a GAV union over H and FS."""
        gav = GAVMediator([
            View(parse_query('SkilledPerson(sid, "Doctor") :- HDoctor(sid, h, l, s, e)')),
            View(parse_query('SkilledPerson(sid, "EMT") :- HEMT(sid, h, vid, s, e)')),
            View(parse_query('SkilledPerson(sid, "EMT") :- FSSchedule(sid, vid), '
                             'FSFirstResponse(vid, s, l, d), FSSkills(sid, "medical")')),
        ])
        union = gav.unfold(parse_query('Q(p) :- SkilledPerson(p, "EMT")'))
        # Two of the three definitions produce EMTs.
        assert len(union) == 2
        predicates = union.predicates()
        assert "HEMT" in predicates and "FSSkills" in predicates

    def test_unfolding_evaluates_correctly(self):
        gav = GAVMediator([
            View(parse_query("M(x, y) :- A(x, y)")),
            View(parse_query("M(x, y) :- B(x, y)")),
        ])
        union = gav.unfold(parse_query("Q(x) :- M(x, y), M(y, z)"))
        data = {"A": [(1, 2)], "B": [(2, 3)]}
        assert evaluate_union(union, data) == {(1,)}
        # Four combinations: A/A, A/B, B/A, B/B.
        assert len(union) == 4

    def test_source_atoms_left_alone(self):
        gav = GAVMediator([View(parse_query("M(x) :- A(x)"))])
        union = gav.unfold(parse_query("Q(x) :- M(x), Src(x)"))
        assert len(union) == 1
        assert "Src" in union.disjuncts[0].predicates()

    def test_nested_mediated_relations(self):
        gav = GAVMediator([
            View(parse_query("Top(x) :- Mid(x)")),
            View(parse_query("Mid(x) :- Source(x)")),
        ])
        union = gav.unfold(parse_query("Q(x) :- Top(x)"))
        assert len(union) == 1
        assert union.disjuncts[0].predicates() == frozenset({"Source"})

    def test_recursive_definitions_rejected(self):
        gav = GAVMediator([View(parse_query("Loop(x) :- Loop(x), Src(x)"))])
        with pytest.raises(ReformulationError):
            gav.unfold(parse_query("Q(x) :- Loop(x)"))

    def test_mediated_relation_without_usable_definition(self):
        gav = GAVMediator([View(parse_query("M(a, 8) :- A(a)"))])
        union = gav.unfold(parse_query("Q(x) :- M(x, 7)"))
        assert union.is_empty()

    def test_definition_head_constant_propagates_into_disjunct_head(self):
        gav = GAVMediator([View(parse_query("M(a, 5) :- A(a)"))])
        union = gav.unfold(parse_query("Q(x, y) :- M(x, y)"))
        assert len(union) == 1
        head = union.disjuncts[0].head
        assert str(head.args[1]) == "5"

    def test_existential_variables_are_freshened(self):
        gav = GAVMediator([View(parse_query("M(x) :- A(x, hidden)"))])
        union = gav.unfold(parse_query("Q(x) :- M(x), B(hidden)"))
        disjunct = union.disjuncts[0]
        a_atom = next(a for a in disjunct.relational_body() if a.predicate == "A")
        b_atom = next(a for a in disjunct.relational_body() if a.predicate == "B")
        # The view's existential must not capture the query's own variable.
        assert a_atom.args[1] != b_atom.args[0]

    def test_mediated_relations_listing(self):
        gav = GAVMediator([View(parse_query("M(x) :- A(x)"))])
        assert gav.mediated_relations() == frozenset({"M"})
        assert len(gav.definitions_for("M")) == 1
        assert gav.definitions_for("unknown") == ()
