"""Unit tests for repro.pdms.execution and repro.pdms.semantics."""

import pytest

from repro.database import Instance
from repro.datalog import parse_atom, parse_query
from repro.errors import EvaluationError, MappingError
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    InclusionMapping,
    QueryService,
    StorageDescription,
    answer_query,
    build_canonical_instance,
    certain_answers,
    combine_peer_instances,
    evaluate_reformulation,
    is_consistent,
    lav_style,
    reformulate,
    replication,
    stream_answers,
)


@pytest.fixture
def two_peer_pdms():
    pdms = PDMS()
    a = pdms.add_peer("A")
    a.add_relation("R", ["x", "y"])
    b = pdms.add_peer("B")
    b.add_relation("S", ["x", "y"])
    pdms.add_peer_mapping(DefinitionalMapping(parse_query("A:R(x, y) :- B:S(x, y)")))
    pdms.add_storage_description(
        StorageDescription("B", "stored_s", parse_query("V(x, y) :- B:S(x, y)")))
    return pdms


class TestExecution:
    def test_combine_peer_instances(self):
        first = Instance.from_dict({"r1": [(1,), (3,)]})
        second = Instance.from_dict({"r2": [(2,)], "r3": [(4, 5)]})
        combined = combine_peer_instances({"A": first, "B": second})
        assert set(combined.get_tuples("r1")) == {(1,), (3,)}
        assert set(combined.get_tuples("r2")) == {(2,)}
        assert set(combined.get_tuples("r3")) == {(4, 5)}

    def test_answer_query_with_plain_dict(self, two_peer_pdms):
        data = {"stored_s": [(1, 2), (3, 4)]}
        answers = answer_query(two_peer_pdms, parse_query("Q(x, y) :- A:R(x, y)"), data)
        assert answers == {(1, 2), (3, 4)}

    def test_answer_query_with_per_peer_instances(self, two_peer_pdms):
        per_peer = {"B": Instance.from_dict({"stored_s": [(1, 2)]})}
        answers = answer_query(two_peer_pdms, parse_query("Q(x, y) :- A:R(x, y)"), per_peer)
        assert answers == {(1, 2)}

    def test_evaluate_reformulation_streams(self, two_peer_pdms):
        result = reformulate(two_peer_pdms, parse_query("Q(x) :- A:R(x, y)"))
        answers = evaluate_reformulation(result, {"stored_s": [(1, 2)]})
        assert answers == {(1,)}

    def test_pdms_answer_method(self, two_peer_pdms):
        answers = two_peer_pdms.answer(
            parse_query("Q(y) :- A:R(1, y)"), {"stored_s": [(1, 2), (5, 6)]})
        assert answers == {(2,)}


class TestCombinePeerInstances:
    def test_same_relation_same_arity_is_refused_naming_both_peers(self):
        """A stored relation has one owner: two peers serving one name is
        refused even when the arities match."""
        first = Instance.from_dict({"shared": [(1, 2)], "only_a": [(7,)]})
        second = Instance.from_dict({"shared": [(3, 4)]})
        with pytest.raises(MappingError) as excinfo:
            combine_peer_instances({"A": first, "B": second})
        message = str(excinfo.value)
        assert "'A'" in message and "'B'" in message and "'shared'" in message
        assert "one owner" in message

    def test_arity_clash_raises_naming_both_peers(self):
        """An arity clash is one case of a second owner."""
        first = Instance.from_dict({"s": [(1, 2)]})
        second = Instance.from_dict({"s": [(3,)]})
        with pytest.raises(MappingError) as excinfo:
            combine_peer_instances({"A": first, "B": second})
        message = str(excinfo.value)
        assert "'A'" in message and "'B'" in message and "'s'" in message

    def test_arity_clash_detected_eagerly_even_for_empty_overlap(self):
        """The clash is detected from declared arities, before any row merge."""
        schema_less = Instance()
        schema_less.add("t", (1, 2, 3))
        other = Instance.from_dict({"t": [(0, 0)]})
        with pytest.raises(MappingError):
            combine_peer_instances({"X": schema_less, "Y": other})

    def test_empty_mapping_gives_empty_instance(self):
        combined = combine_peer_instances({})
        assert combined.total_rows() == 0


class TestStreamingAndLimit:
    def test_limit_returns_subset_of_full_answers(self, two_peer_pdms):
        data = {"stored_s": [(i, i + 1) for i in range(6)]}
        query = parse_query("Q(x, y) :- A:R(x, y)")
        full = answer_query(two_peer_pdms, query, data)
        for k in range(len(full) + 2):
            limited = answer_query(two_peer_pdms, query, data, limit=k)
            assert limited <= full
            assert len(limited) == min(k, len(full))

    def test_negative_limit_rejected(self, two_peer_pdms):
        with pytest.raises(EvaluationError):
            answer_query(
                two_peer_pdms, parse_query("Q(x) :- A:R(x, y)"),
                {"stored_s": [(1, 2)]}, limit=-1)

    def test_stream_answers_yields_distinct_rows(self, two_peer_pdms):
        result = reformulate(two_peer_pdms, parse_query("Q(x) :- A:R(x, y)"))
        rows = list(stream_answers(result, {"stored_s": [(1, 2), (1, 3), (4, 5)]}))
        assert len(rows) == len(set(rows))
        assert set(rows) == {(1,), (4,)}

    def test_limit_stops_before_exhausting_rewritings(self, two_peer_pdms):
        """A satisfied limit must not force the full rewriting enumeration."""
        result = reformulate(two_peer_pdms, parse_query("Q(x, y) :- A:R(x, y)"))
        consumed = []
        original = result.rewritings

        def counting():
            for rewriting in original():
                consumed.append(rewriting)
                yield rewriting

        result.rewritings = counting
        answers = evaluate_reformulation(result, {"stored_s": [(1, 2), (3, 4)]}, limit=1)
        assert len(answers) == 1
        assert len(consumed) <= 1

    def test_engine_validation(self, two_peer_pdms):
        result = reformulate(two_peer_pdms, parse_query("Q(x) :- A:R(x, y)"))
        with pytest.raises(EvaluationError):
            evaluate_reformulation(result, {"stored_s": []}, engine="nope")

    def test_both_engines_agree(self, two_peer_pdms):
        data = {"stored_s": [(1, 2), (2, 3), (3, 1)]}
        query = parse_query("Q(x, z) :- A:R(x, y), A:R(y, z)")
        result = reformulate(two_peer_pdms, query)
        assert evaluate_reformulation(result, data, engine="backtracking") == \
            evaluate_reformulation(result, data, engine="columnar")


class TestAnswerBatch:
    def test_batch_matches_individual_answers(self, two_peer_pdms):
        per_peer = {"B": Instance.from_dict({"stored_s": [(1, 2), (2, 3)]})}
        queries = [
            parse_query("Q(x, y) :- A:R(x, y)"),
            parse_query("Q(x) :- A:R(x, y)"),
            parse_query("Q(x, z) :- A:R(x, y), A:R(y, z)"),
        ]
        batch = QueryService(two_peer_pdms, data=per_peer).answer_batch(queries)
        assert batch == [answer_query(two_peer_pdms, q, per_peer) for q in queries]

    def test_batch_with_limit(self, two_peer_pdms):
        data = {"stored_s": [(i, i) for i in range(5)]}
        batch = QueryService(two_peer_pdms, data=data).answer_batch(
            [parse_query("Q(x, y) :- A:R(x, y)")], limit=2)
        assert len(batch) == 1 and len(batch[0]) == 2


class TestConsistency:
    def test_consistent_instance_accepted(self, two_peer_pdms):
        instance = {
            "stored_s": [(1, 2)],
            "B:S": [(1, 2), (3, 4)],
            "A:R": [(1, 2), (3, 4)],
        }
        assert is_consistent(two_peer_pdms, instance)

    def test_storage_containment_violated(self, two_peer_pdms):
        instance = {"stored_s": [(9, 9)], "B:S": [(1, 2)], "A:R": [(1, 2)]}
        assert not is_consistent(two_peer_pdms, instance)

    def test_definitional_equality_violated(self, two_peer_pdms):
        # A:R must equal the union of its definitional bodies; an extra fact
        # not derivable from B:S makes the instance inconsistent.
        instance = {
            "stored_s": [],
            "B:S": [(1, 2)],
            "A:R": [(1, 2), (7, 7)],
        }
        assert not is_consistent(two_peer_pdms, instance)

    def test_inclusion_mapping_checked(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("R", ["x"])
        pdms.add_peer("B").add_relation("S", ["x"])
        pdms.add_peer_mapping(lav_style(
            parse_atom("B:S(x)"), parse_query("V(x) :- A:R(x)")))
        assert is_consistent(pdms, {"B:S": [(1,)], "A:R": [(1,), (2,)]})
        assert not is_consistent(pdms, {"B:S": [(3,)], "A:R": [(1,)]})

    def test_exact_storage_description_requires_equality(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("R", ["x"])
        pdms.add_storage_description(
            StorageDescription("A", "s", parse_query("V(x) :- A:R(x)"), exact=True))
        assert is_consistent(pdms, {"s": [(1,)], "A:R": [(1,)]})
        assert not is_consistent(pdms, {"s": [(1,)], "A:R": [(1,), (2,)]})

    def test_equality_peer_mapping_checked(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("R", ["x"])
        pdms.add_peer("B").add_relation("R", ["x"])
        pdms.add_peer_mapping(replication(parse_atom("A:R(x)"), parse_atom("B:R(x)")))
        assert is_consistent(pdms, {"A:R": [(1,)], "B:R": [(1,)]})
        assert not is_consistent(pdms, {"A:R": [(1,)], "B:R": [(1,), (2,)]})


class TestCertainAnswerOracle:
    def test_canonical_instance_contains_chased_facts(self, two_peer_pdms):
        canonical = build_canonical_instance(two_peer_pdms, {"stored_s": [(1, 2)]})
        assert (1, 2) in set(canonical.get_tuples("B:S"))
        assert (1, 2) in set(canonical.get_tuples("A:R"))

    def test_chase_steps_probe_the_live_rows_instead_of_copying_them(
        self, two_peer_pdms, monkeypatch
    ):
        """Each chased fact is checked against the relation's live row set:
        the number of full passes over a relation does not grow with it."""
        passes = []

        class CountingRows:
            def __init__(self, rows):
                self.rows = rows

            def __iter__(self):
                passes.append(1)
                return iter(self.rows)

            def __contains__(self, row):
                return row in self.rows

            def __len__(self):
                return len(self.rows)

        get_tuples = Instance.get_tuples
        monkeypatch.setattr(
            Instance, "get_tuples",
            lambda self, predicate: CountingRows(get_tuples(self, predicate)),
        )

        def count(rows):
            passes.clear()
            data = Instance.from_dict({"stored_s": [(i, i + 1) for i in range(rows)]})
            canonical = build_canonical_instance(two_peer_pdms, data)
            assert len(get_tuples(canonical, "A:R")) == rows
            return len(passes)

        assert count(40) == count(80) == count(1)

    def test_oracle_matches_reformulation_on_tractable_pdms(self, two_peer_pdms):
        data = {"stored_s": [(1, 2), (2, 3)]}
        query = parse_query("Q(x, z) :- A:R(x, y), A:R(y, z)")
        assert answer_query(two_peer_pdms, query, data) == certain_answers(
            two_peer_pdms, query, data)

    def test_projected_nulls_are_not_certain(self):
        pdms = PDMS()
        a = pdms.add_peer("A")
        a.add_relation("R", ["x", "y"])
        # The stored relation only records the first column; the second is unknown.
        pdms.add_storage_description(
            StorageDescription("A", "partial", parse_query("V(x) :- A:R(x, y)")))
        data = {"partial": [(1,)]}
        assert certain_answers(pdms, parse_query("Q(x) :- A:R(x, y)"), data) == {(1,)}
        assert certain_answers(pdms, parse_query("Q(y) :- A:R(x, y)"), data) == set()

    def test_replication_cycle_chase_terminates(self):
        pdms = PDMS()
        pdms.add_peer("A").add_relation("V", ["x"])
        pdms.add_peer("B").add_relation("V", ["x"])
        pdms.add_peer_mapping(replication(parse_atom("A:V(x)"), parse_atom("B:V(x)")))
        pdms.add_storage_description(
            StorageDescription("B", "sb", parse_query("V(x) :- B:V(x)")))
        answers = certain_answers(pdms, parse_query("Q(x) :- A:V(x)"), {"sb": [(1,)]})
        assert answers == {(1,)}

    def test_chase_without_fixpoint_raises_naming_the_rounds(self):
        # Every A:R(x, y) implies A:R(y, z) for some z: each round mints a
        # fresh labelled null, so the chase never reaches a fixpoint.
        pdms = PDMS()
        pdms.add_peer("A").add_relation("R", ["x", "y"])
        pdms.add_peer_mapping(InclusionMapping(
            parse_query("L(y) :- A:R(x, y)"), parse_query("L(y) :- A:R(y, z)")))
        pdms.add_storage_description(
            StorageDescription("A", "sr", parse_query("V(x, y) :- A:R(x, y)")))
        data = {"sr": [(1, 2)]}
        with pytest.raises(EvaluationError, match="max_rounds=5 rounds"):
            build_canonical_instance(pdms, data, max_rounds=5)
        with pytest.raises(EvaluationError, match="max_rounds=64 rounds"):
            certain_answers(pdms, parse_query("Q(x) :- A:R(x, y)"), data)
