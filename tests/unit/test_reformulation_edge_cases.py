"""Edge-case tests for reformulation and the surrounding machinery."""

import pytest

from repro.datalog import Atom, ConjunctiveQuery, Constant, Variable, parse_atom, parse_query
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    ReformulationConfig,
    StorageDescription,
    answer_query,
    certain_answers,
    lav_style,
    reformulate,
)


def _single_peer_pdms():
    pdms = PDMS()
    peer = pdms.add_peer("A")
    peer.add_relation("R", ["x", "y"])
    peer.add_relation("T", ["x", "y"])
    pdms.add_storage_description(
        StorageDescription("A", "stored_r", parse_query("V(x, y) :- A:R(x, y)")))
    return pdms


class TestQueriesOverStoredRelations:
    def test_query_mentioning_a_stored_relation_directly(self):
        """Stored relations can be queried directly; they are leaves."""
        pdms = _single_peer_pdms()
        query = parse_query("Q(x, y) :- stored_r(x, y)")
        result = reformulate(pdms, query)
        rewritings = result.all_rewritings()
        assert len(rewritings) == 1
        assert rewritings[0].relational_body()[0].predicate == "stored_r"
        assert answer_query(pdms, query, {"stored_r": [(1, 2)]}) == {(1, 2)}

    def test_mixed_stored_and_peer_relations_in_one_query(self):
        pdms = _single_peer_pdms()
        query = parse_query("Q(x, z) :- A:R(x, y), stored_r(y, z)")
        result = reformulate(pdms, query)
        assert len(result.all_rewritings()) == 1
        data = {"stored_r": [(1, 2), (2, 3)]}
        # A:R contains at least the stored rows, so the join yields (1, 3).
        assert answer_query(pdms, query, data) == {(1, 3)}


class TestConstantsInQueries:
    def test_constant_selection_pushes_through_mappings(self):
        pdms = _single_peer_pdms()
        query = parse_query("Q(y) :- A:R(7, y)")
        data = {"stored_r": [(7, 1), (8, 2)]}
        assert answer_query(pdms, query, data) == {(1,)}
        assert certain_answers(pdms, query, data) == {(1,)}

    def test_repeated_variable_in_query_subgoal(self):
        pdms = _single_peer_pdms()
        query = parse_query("Q(x) :- A:R(x, x)")
        data = {"stored_r": [(1, 1), (1, 2)]}
        assert answer_query(pdms, query, data) == {(1,)}
        assert certain_answers(pdms, query, data) == {(1,)}


class TestRewritingDeduplication:
    def test_variable_printing_like_a_constant_is_a_distinct_rewriting(self):
        """``S(x, 5)`` over the constant and over a variable *named* ``5``
        print alike; deduplicating printed rewritings dropped the second
        one and with it the answer ``(2,)``."""
        pdms = PDMS()
        peer = pdms.add_peer("A")
        peer.add_relation("R", ["x", "y"])
        peer.add_relation("U", ["x", "y"])
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:U(a, 5) :- A:R(a, 5)"), name="only_five"))
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:U(a, b) :- A:R(a, b)"), name="everything"))
        pdms.add_storage_description(
            StorageDescription("A", "S", parse_query("V(x, y) :- A:R(x, y)")))
        x, five = Variable("x"), Variable("5")
        query = ConjunctiveQuery(Atom("Q", [x]), [Atom("A:U", [x, five])])

        rewritings = reformulate(pdms, query).all_rewritings()
        assert [str(r) for r in rewritings] == ["Q(x) :- S(x, 5)"] * 2
        assert [r.body[0].args for r in rewritings] == [(x, Constant(5)), (x, five)]
        data = {"S": [(1, 5), (2, 6)]}
        assert answer_query(pdms, query, data) == {(1,), (2,)}
        assert certain_answers(pdms, query, data) == {(1,), (2,)}


class TestUnmappedAndEmptyCases:
    def test_peer_relation_without_any_mapping(self):
        pdms = _single_peer_pdms()
        query = parse_query("Q(x, y) :- A:T(x, y)")
        result = reformulate(pdms, query)
        assert result.all_rewritings() == []
        assert result.union().is_empty()
        assert answer_query(pdms, query, {"stored_r": [(1, 2)]}) == set()

    def test_empty_stored_data_gives_empty_answers(self):
        pdms = _single_peer_pdms()
        query = parse_query("Q(x, y) :- A:R(x, y)")
        assert answer_query(pdms, query, {}) == set()

    def test_union_object_carries_query_signature(self):
        pdms = _single_peer_pdms()
        query = parse_query("Q(x, y) :- A:T(x, y)")
        union = reformulate(pdms, query).union()
        assert union.name == "Q" and union.arity == 2


class TestMultiHopWithConstantsAndComparisons:
    def test_comparison_survives_two_hops(self):
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("Item", ["x", "price"])
        b = pdms.add_peer("B")
        b.add_relation("Listing", ["x", "price"])
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:Item(x, p) :- B:Listing(x, p)")))
        pdms.add_storage_description(StorageDescription(
            "B", "listings", parse_query("V(x, p) :- B:Listing(x, p)")))
        query = parse_query("Q(x) :- A:Item(x, p), p < 10")
        data = {"listings": [("cheap", 5), ("pricey", 50)]}
        assert answer_query(pdms, query, data) == {("cheap",)}

    def test_lav_hop_then_definitional_hop(self):
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("Top", ["x", "y"])
        b = pdms.add_peer("B")
        b.add_relation("Mid", ["x", "y"])
        c = pdms.add_peer("C")
        c.add_relation("Low", ["x", "y"])
        pdms.add_peer_mapping(DefinitionalMapping(
            parse_query("A:Top(x, y) :- B:Mid(x, y)")))
        pdms.add_peer_mapping(lav_style(
            parse_atom("C:Low(x, y)"), parse_query("V(x, y) :- B:Mid(x, y)")))
        pdms.add_storage_description(StorageDescription(
            "C", "low_store", parse_query("V(x, y) :- C:Low(x, y)")))
        query = parse_query("Q(x, y) :- A:Top(x, y)")
        result = reformulate(pdms, query)
        assert len(result.all_rewritings()) == 1
        data = {"low_store": [(1, 2)]}
        assert answer_query(pdms, query, data) == {(1, 2)}
        assert certain_answers(pdms, query, data) == {(1, 2)}


class TestResultObject:
    def test_first_rewritings_does_not_exhaust_result(self):
        pdms = _single_peer_pdms()
        query = parse_query("Q(x, y) :- A:R(x, y)")
        result = reformulate(pdms, query)
        assert len(result.first_rewritings(5)) == 1
        assert len(result.all_rewritings()) == 1
        # Streaming after materialisation replays the cached list.
        assert len(list(result.rewritings())) == 1

    def test_statistics_exposed_via_result(self):
        pdms = _single_peer_pdms()
        result = reformulate(pdms, parse_query("Q(x, y) :- A:R(x, y)"))
        assert result.statistics.total_nodes >= 4
