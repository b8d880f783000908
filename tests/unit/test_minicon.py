"""Unit tests for MCD formation (repro.integration.minicon) and the MiniCon oracle."""

from repro.datalog import evaluate_union, parse_query
from repro.datalog.containment import is_contained_in
from repro.datalog.terms import FreshVariableFactory, Variable
from repro.integration import PreparedView, View, form_mcds
from tests.oracles import ViewSet, create_mcds, expand_view_atoms, minicon_rewrite


def _views_from_paper():
    """The views of Section 4.1 of the PDMS paper (MiniCon recap)."""
    return ViewSet([
        View(parse_query("V1(a, b) :- e1(a, c), e2(c, b)")),
        View(parse_query("V2(d, e) :- e3(d, e), e4(e)")),
        View(parse_query("V3(u) :- e1(u, z)")),
    ])


class TestMCDConstruction:
    def test_paper_example_mcd_covers_two_subgoals(self):
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        views = _views_from_paper()
        mcds = create_mcds(query, views.by_name("V1"))
        # V1 covers the first two subgoals together (z is existential in V1).
        assert any(mcd.covered == frozenset({0, 1}) for mcd in mcds)
        assert all(mcd.covered != frozenset({0}) for mcd in mcds)

    def test_useless_view_creates_no_mcd(self):
        """V3 projects away the join variable, so no MCD is created (paper text)."""
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        views = _views_from_paper()
        assert create_mcds(query, views.by_name("V3")) == []

    def test_view_projecting_distinguished_variable_rejected(self):
        query = parse_query("Q(x, y) :- e1(x, y)")
        view = View(parse_query("V(u) :- e1(u, w)"))
        assert create_mcds(query, view) == []

    def test_only_subgoal_filter(self):
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        views = _views_from_paper()
        mcds = create_mcds(query, views.by_name("V2"), only_subgoal=2)
        assert len(mcds) == 1
        assert mcds[0].created_for == 2

    def test_equalities_recorded_when_variables_identified(self):
        # Covering both Skill atoms with the same view subgoal forces f1 = f2.
        query = parse_query("Q(f1, f2) :- Skill(f1, s), Skill(f2, s)")
        view = View(parse_query("SameSkill(a, b) :- Skill(a, s), Skill(b, s)"))
        mcds = create_mcds(query, view)
        with_equalities = [m for m in mcds if m.equalities]
        without_equalities = [m for m in mcds if not m.equalities]
        assert with_equalities, "expected at least one MCD identifying f1 and f2"
        assert without_equalities, "expected the symmetric MCDs without equalities"

    def test_constants_in_query_subgoals(self):
        query = parse_query('Q(x) :- Skills(x, "medical")')
        view = View(parse_query("SkillView(a, b) :- Skills(a, b)"))
        mcds = create_mcds(query, view)
        assert len(mcds) == 1
        assert '"medical"' in str(mcds[0].view_atom)


    def test_a_view_prepared_once_serves_many_queries(self):
        """Preparing (renaming apart, indexing the body) is per view, not per
        query: one prepared view forms the MCDs ``create_mcds`` forms."""
        view = View(parse_query("SameSkill(a, b) :- Skill(a, s), Skill(b, s)"))
        queries = [
            parse_query("Q(f1, f2) :- Skill(f1, s), Skill(f2, s)"),
            parse_query('Q(g) :- Skill(g, "medical"), Skill(h, "medical")'),
            parse_query("Q(g) :- Other(g, t)"),
        ]
        fresh = FreshVariableFactory()
        for query in queries:
            fresh.reserve(v.name for v in query.all_variables())
        prepared = PreparedView(view, fresh)

        def shape(mcd):
            # Unexported positions carry fresh variables whose numbers depend
            # on the factory's history, not on the MCD.
            args = tuple(
                None if isinstance(a, Variable) and a.name.startswith("_mv") else a
                for a in mcd.view_atom.args)
            return (args, mcd.covered, mcd.created_for, mcd.equalities)

        for query in queries:
            formed = form_mcds(
                query.relational_body(), query.head_variables(), prepared, fresh)
            assert [shape(m) for m in formed] == [
                shape(m) for m in create_mcds(query, view)]
        assert formed == []


class TestMiniConRewriting:
    def test_paper_example_rewriting(self):
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        union = minicon_rewrite(query, _views_from_paper())
        assert len(union) == 1
        rewriting = union.disjuncts[0]
        assert {a.predicate for a in rewriting.relational_body()} == {"V1", "V2"}

    def test_rewritings_are_sound(self):
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        views = _views_from_paper()
        union = minicon_rewrite(query, views)
        for rewriting in union:
            expansion = expand_view_atoms(rewriting, views)
            assert expansion is not None
            assert is_contained_in(expansion, query)

    def test_no_views_no_rewriting(self):
        query = parse_query("Q(x) :- p(x)")
        assert minicon_rewrite(query, ViewSet()).is_empty()

    def test_multiple_alternative_views_give_union(self):
        query = parse_query("Q(x) :- p(x)")
        views = ViewSet([
            View(parse_query("V1(a) :- p(a)")),
            View(parse_query("V2(a) :- p(a), q(a)")),
        ])
        union = minicon_rewrite(query, views)
        assert len(union) == 2

    def test_query_comparisons_carried_when_expressible(self):
        query = parse_query("Q(x, y) :- p(x, y), y < 5")
        views = ViewSet([View(parse_query("V(a, b) :- p(a, b)"))])
        union = minicon_rewrite(query, views)
        assert len(union) == 1
        assert union.disjuncts[0].has_comparisons()

    def test_query_comparisons_on_unexported_variable_discard_rewriting(self):
        query = parse_query("Q(x) :- p(x, y), y < 5")
        views = ViewSet([View(parse_query("V(a) :- p(a, b)"))])
        union = minicon_rewrite(query, views)
        assert union.is_empty()

    def test_rewriting_answers_match_certain_answers(self):
        from tests.oracles import certain_answers

        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y)")
        views = ViewSet([
            View(parse_query("V1(a, b) :- e1(a, c), e2(c, b)")),
            View(parse_query("V4(a, c) :- e1(a, c)")),
            View(parse_query("V5(c, b) :- e2(c, b)")),
        ])
        data = {"V1": [(1, 10)], "V4": [(2, 5)], "V5": [(5, 20)]}
        union = minicon_rewrite(query, views)
        assert evaluate_union(union, data) == certain_answers(query, views, data)
        assert evaluate_union(union, data) == {(1, 10), (2, 20)}

    def test_self_join_query(self):
        query = parse_query("Q(x, y) :- e(x, z), e(z, y)")
        views = ViewSet([View(parse_query("V(a, b) :- e(a, b)"))])
        union = minicon_rewrite(query, views)
        assert len(union) == 1
        assert len(union.disjuncts[0].relational_body()) == 2
