"""Unit tests for the Bucket, inverse-rules and LAV oracles (tests.oracles)."""

import pytest

from repro.datalog import evaluate_union, parse_query
from repro.datalog.containment import is_contained_in
from repro.datalog.queries import make_chain_query
from repro.integration import View
from repro.pdms.semantics import SkolemValue, contains_skolem
from tests.oracles import (
    LAVMediator,
    ViewSet,
    bucket_rewrite,
    build_canonical_instance,
    certain_answers,
    certain_answers_by_freezing,
    expand_view_atoms,
    freeze_canonical_instance,
    minicon_rewrite,
)


def _views():
    return ViewSet([
        View(parse_query("V1(a, b) :- e1(a, c), e2(c, b)")),
        View(parse_query("V2(d, e) :- e3(d, e), e4(e)")),
        View(parse_query("V3(u) :- e1(u, z)")),
    ])


def _chain_scenario(length: int, copies: int = 2):
    """A chain query of ``length`` atoms, ``copies`` views per pair of
    consecutive atoms and ``copies`` single-atom views per atom."""
    relations = [f"e{i}" for i in range(length)]
    query = make_chain_query("Q", relations, fresh_prefix="q")
    views = []
    for start in range(length - 1):
        for _ in range(copies):
            index = len(views)
            views.append(View(make_chain_query(
                f"v{index}", relations[start:start + 2], fresh_prefix=f"u{index}_")))
    for _ in range(copies):
        for relation in relations:
            index = len(views)
            views.append(View(make_chain_query(
                f"w{index}", [relation], fresh_prefix=f"s{index}_")))
    return query, ViewSet(views)


class TestBucket:
    def test_bucket_rewriting_is_sound(self):
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        views = _views()
        union = bucket_rewrite(query, views)
        assert not union.is_empty()
        for rewriting in union:
            expansion = expand_view_atoms(rewriting, views)
            assert is_contained_in(expansion, query)

    def test_bucket_and_minicon_agree_on_answers(self):
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        views = _views()
        data = {"V1": [(1, 3), (2, 7)], "V2": [(1, 3), (9, 9)], "V3": [(1,)]}
        bucket_answers = evaluate_union(bucket_rewrite(query, views), data)
        minicon_answers = evaluate_union(minicon_rewrite(query, views), data)
        assert bucket_answers == minicon_answers

    @pytest.mark.parametrize("length", [2, 3])
    def test_bucket_answers_are_minicon_answers_on_chains(self, length):
        """Bucket considers far more candidate combinations than MiniCon
        on chain queries over overlapping chain views, and answers no more."""
        query, views = _chain_scenario(length)
        # A tiny chain in every view, so the joins succeed.
        data = {
            view.name: {(0, 1), (1, 2), (2, 3)} if view.arity == 2 else {(0,)}
            for view in views
        }
        minicon_answers = evaluate_union(minicon_rewrite(query, views), data)
        bucket_answers = evaluate_union(bucket_rewrite(query, views), data)
        assert minicon_answers and bucket_answers <= minicon_answers

    def test_empty_bucket_means_no_rewriting(self):
        query = parse_query("Q(x) :- unknown(x)")
        assert bucket_rewrite(query, _views()).is_empty()


class TestInverseRules:
    def test_canonical_instance_has_skolems_for_existentials(self):
        views = ViewSet([View(parse_query("V1(a, b) :- e1(a, c), e2(c, b)"))])
        canonical = build_canonical_instance(views, {"V1": [(1, 2)]})
        e1_rows = list(canonical.get_tuples("e1"))
        assert len(e1_rows) == 1
        assert contains_skolem(e1_rows[0])
        assert isinstance(e1_rows[0][1], SkolemValue)

    def test_skolems_shared_across_atoms_of_one_view_tuple(self):
        views = ViewSet([View(parse_query("V1(a, b) :- e1(a, c), e2(c, b)"))])
        canonical = build_canonical_instance(views, {"V1": [(1, 2)]})
        e1_row = next(iter(canonical.get_tuples("e1")))
        e2_row = next(iter(canonical.get_tuples("e2")))
        assert e1_row[1] == e2_row[0]

    def test_certain_answers_drop_skolem_rows(self):
        views = ViewSet([View(parse_query("V1(a, b) :- e1(a, c), e2(c, b)"))])
        data = {"V1": [(1, 2)]}
        # The join variable is unknown, so Q asking for it has no certain answer...
        assert certain_answers(parse_query("Q(c) :- e1(a, c)"), views, data) == set()
        # ...but the composed path is certain.
        assert certain_answers(
            parse_query("Q(a, b) :- e1(a, c), e2(c, b)"), views, data
        ) == {(1, 2)}

    def test_view_head_constants_filter_tuples(self):
        views = ViewSet([View(parse_query('V(a, "x") :- r(a)'))])
        canonical = build_canonical_instance(views, {"V": [(1, "x"), (2, "y")]})
        assert set(canonical.get_tuples("r")) == {(1,)}

    def test_repeated_head_variable_requires_equal_values(self):
        views = ViewSet([View(parse_query("V(a, a) :- r(a)"))])
        canonical = build_canonical_instance(views, {"V": [(1, 1), (1, 2)]})
        assert set(canonical.get_tuples("r")) == {(1,)}

    def test_freezing_agrees_with_inverse_rules(self):
        views = _views()
        data = {"V1": [(1, 3), (4, 5)], "V2": [(1, 3)], "V3": [(7,)]}
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        assert certain_answers(query, views, data) == certain_answers_by_freezing(
            query, views, data
        )

    def test_freeze_replaces_nulls_with_distinct_markers(self):
        views = ViewSet([View(parse_query("V1(a, b) :- e1(a, c), e2(c, b)"))])
        canonical = build_canonical_instance(views, {"V1": [(1, 2), (3, 4)]})
        frozen = freeze_canonical_instance(canonical)
        frozen_values = {
            value
            for row in frozen.get_tuples("e1")
            for value in row
            if isinstance(value, str) and value.startswith("⊥")
        }
        assert len(frozen_values) == 2


class TestLAVMediator:
    def test_answers_equal_certain_answers_with_minicon(self):
        views = list(_views())
        mediator = LAVMediator(views)
        query = parse_query("Q(x, y) :- e1(x, z), e2(z, y), e3(x, y)")
        data = {"V1": [(1, 3)], "V2": [(1, 3)], "V3": [(1,)]}
        assert mediator.answer(query, data) == mediator.certain_answers(query, data)

    def test_add_source(self):
        mediator = LAVMediator()
        mediator.add_source(View(parse_query("V(a) :- p(a)")))
        assert "V" in mediator.views
