"""Unit tests for the shared union-plan IR, the engine names, and the
federated :class:`PeerFactSource`.

Covers, per layer:

* ``repro.pdms.planning`` — hash-consed fragment sharing, incremental
  compilation, answers equal to the other engines', the per-answer
  fragment memo, the batch helpers and the fragment footprints;
* ``repro.pdms.execution`` — how ``engine=`` names resolve (plan path by
  default, the oracle by name, anything else refused), federated probe
  routing and the arity-clash check, and a service batch wrapping
  per-peer data once;
* ``repro.database.planner`` — the cardinality cost model, and a
  correlated workload whose join order it misjudges.
"""

from types import SimpleNamespace

import pytest

from repro.database import CardinalityCostModel, Instance
from repro.datalog import parse_query
from repro.errors import EvaluationError, MappingError
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    PeerFactSource,
    QueryService,
    StorageDescription,
    answer_query,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    evaluate_rewritings,
    reformulate,
    stream_answers,
)
from repro.pdms import FragmentCache
from repro.pdms import evaluator
from repro.pdms import execution as execution_module
from repro.pdms import planning
from tests.oracles import Table, union_many


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


@pytest.fixture
def fan_out_pdms():
    """A chain query whose last subgoal has several storage alternatives —
    the shape whose rewritings share a long common prefix."""
    pdms = PDMS()
    peer = pdms.add_peer("P")
    for relation in ("A1", "A2", "A3"):
        peer.add_relation(relation, ["x", "y"])
    pdms.add_storage_description(
        StorageDescription("P", "s_a1", parse_query("V(x, y) :- P:A1(x, y)")))
    pdms.add_storage_description(
        StorageDescription("P", "s_a2", parse_query("V(x, y) :- P:A2(x, y)")))
    for i in range(3):
        pdms.add_storage_description(
            StorageDescription("P", f"s_a3_{i}", parse_query("V(x, y) :- P:A3(x, y)")))
    return pdms


FAN_OUT_QUERY = "Q(x0, x3) :- P:A1(x0, x1), P:A2(x1, x2), P:A3(x2, x3)"


def fan_out_data():
    data = {
        "s_a1": [(i, i + 1) for i in range(4)],
        "s_a2": [(i, i + 1) for i in range(1, 5)],
    }
    for i in range(3):
        data[f"s_a3_{i}"] = [(j, 100 + i) for j in range(2, 6)]
    return data


class TestUnionPlanSharing:
    def test_rewritings_share_prefix_fragments(self, fan_out_pdms):
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result)
        # The lazy row stream is what compiles rewriting by rewriting (a
        # whole answer evaluates the factored root and enumerates nothing).
        answers = set(stream_answers(plan.result, fan_out_data(), plan=plan))
        assert answers  # sanity: the chain joins do produce rows
        assert evaluate_plan(plan, fan_out_data()) == answers
        stats = plan.stats
        assert stats.rewritings == 3
        # Each rewriting references 3 atoms => 3 spine fragments; the
        # two-atom prefix (and its leaves) is shared by all three.
        assert stats.reused_references > 0
        assert stats.sharing_ratio >= 0.4

    def test_shared_engine_matches_other_engines(self, fan_out_pdms):
        data = fan_out_data()
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        expected = evaluate_reformulation(result, data, engine="backtracking")
        assert evaluate_reformulation(result, data, engine="columnar") == expected

    def test_stream_matches_whole_answer(self, fan_out_pdms):
        """The root-by-root loop (streams, first-k) and the factored root
        (whole answers) of one plan agree, and a limit takes a subset."""
        data = fan_out_data()
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result, data)
        whole = evaluate_plan(plan, data)
        assert plan.factored_root() is not None
        streamed = list(stream_answers(plan.result, data, plan=plan))
        assert len(streamed) == len(set(streamed)) and set(streamed) == whole
        assert evaluate_plan(plan, data, limit=2) <= whole

    def test_compilation_is_incremental(self, fan_out_pdms):
        """A limit-satisfied consumer compiles only a prefix of the union."""
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result)
        limited = evaluate_plan(plan, fan_out_data(), limit=1)
        assert len(limited) == 1
        assert plan.stats.rewritings == 1
        # A whole answer compiles the tree, not the remaining rewritings ...
        full = evaluate_plan(plan, fan_out_data())
        assert plan.stats.rewritings == 1 and plan.stats.factored
        assert limited <= full
        # ... which the exhausted row stream does.
        assert set(stream_answers(plan.result, fan_out_data(), plan=plan)) == full
        assert plan.stats.rewritings == 3

    def test_plan_cached_on_result_survives_reuse(self, fan_out_pdms):
        from repro.pdms import ensure_plan

        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = ensure_plan(result, fan_out_data())
        assert ensure_plan(result) is plan

    def test_mismatched_plan_is_rejected(self, fan_out_pdms, two_peer_pdms):
        other = reformulate(two_peer_pdms, parse_query("Q(x) :- A:R(x, y)"))
        wrong_plan = compile_reformulation(other)
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        with pytest.raises(EvaluationError):
            evaluate_reformulation(
                result, fan_out_data(), engine="columnar", plan=wrong_plan)

    def test_evaluate_plan_rejects_negative_limit(self, fan_out_pdms):
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result)
        with pytest.raises(EvaluationError):
            evaluate_plan(plan, fan_out_data(), limit=-1)

    def test_comparisons_and_head_constants_survive_compilation(self):
        pdms = PDMS()
        peer = pdms.add_peer("A")
        peer.add_relation("R", ["x", "y"])
        pdms.add_storage_description(
            StorageDescription("A", "s", parse_query("V(x, y) :- A:R(x, y)")))
        data = {"s": [(1, 5), (2, 1), (3, 9)]}
        query = parse_query('Q(x, "tag") :- A:R(x, y), y > 2')
        result = reformulate(pdms, query)
        expected = evaluate_reformulation(result, data, engine="backtracking")
        assert expected == {(1, "tag"), (3, "tag")}
        assert evaluate_reformulation(result, data, engine="columnar") == expected


class TestEngineNames:
    @pytest.mark.parametrize("name", ["warp-drive", "plan", "shared"])
    def test_unknown_name_fails_fast_naming_the_three_accepted(
        self, two_peer_pdms, name
    ):
        """Deleted engines (``plan``, ``shared``) are unknown names too."""
        query = parse_query("Q(x) :- A:R(x, y)")
        result = reformulate(two_peer_pdms, query)
        data = {"stored_s": [(1, 2)]}
        for call in (
            lambda: answer_query(two_peer_pdms, query, data, engine=name),
            lambda: evaluate_reformulation(result, data, engine=name),
            lambda: stream_answers(result, data, engine=name),
        ):
            with pytest.raises(EvaluationError) as excinfo:
                call()
            message = str(excinfo.value)
            for accepted in ("columnar", "distributed", "backtracking"):
                assert repr(accepted) in message

    def test_default_is_the_plan_path_and_backtracking_the_oracle(
        self, two_peer_pdms, monkeypatch
    ):
        calls = []
        original = execution_module.evaluate_query

        def counting(query, data):
            calls.append(query)
            return original(query, data)

        monkeypatch.setattr(execution_module, "evaluate_query", counting)
        query = parse_query("Q(x) :- A:R(x, y)")
        data = {"stored_s": [(1, 2), (3, 4)]}
        for name in (None, "columnar", "distributed"):
            assert answer_query(two_peer_pdms, query, data, engine=name) == {
                (1,), (3,)}
        assert calls == []
        assert answer_query(
            two_peer_pdms, query, data, engine="backtracking") == {(1,), (3,)}
        assert calls
        assert evaluate_rewritings(reformulate(two_peer_pdms, query), data) == {
            (1,), (3,)}

    def test_oracle_refuses_a_cache(self, two_peer_pdms):
        result = reformulate(two_peer_pdms, parse_query("Q(x) :- A:R(x, y)"))
        data = {"stored_s": [(1, 2)]}
        with pytest.raises(EvaluationError, match="oracle"):
            evaluate_reformulation(
                result, data, engine="backtracking", cache=FragmentCache()
            )
        # The plan path takes it.
        assert evaluate_reformulation(result, data, cache=FragmentCache()) == {(1,)}

    def test_evaluate_plan_rejects_the_row_representation(self, fan_out_pdms):
        plan = compile_reformulation(
            reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY)))
        with pytest.raises(EvaluationError, match="columnar=False"):
            evaluate_plan(plan, fan_out_data(), columnar=False)
        assert evaluate_plan(plan, fan_out_data(), columnar=True)


class TestPeerFactSource:
    def test_probes_route_to_owning_instance(self):
        first = Instance.from_dict({"r1": [(1, 2), (3, 4)]})
        second = Instance.from_dict({"r2": [(5, 6)]})
        source = PeerFactSource({"A": first, "B": second})
        assert set(source.get_tuples("r1")) == {(1, 2), (3, 4)}
        assert set(source.get_tuples("r2")) == {(5, 6)}
        assert source.get_tuples("missing") == ()
        assert set(source.get_matching("r1", (1, object))) == set()
        from repro.datalog.indexing import WILDCARD

        assert set(source.get_matching("r1", (3, WILDCARD))) == {(3, 4)}
        assert source.get_matching("missing", (WILDCARD,)) == ()
        assert source.data_version("r1") == (first.data_version("r1"),)
        assert source.data_version("missing") == ()
        assert sorted(source.relations()) == ["r1", "r2"]

    def test_no_copy_probes_see_live_updates(self):
        instance = Instance.from_dict({"r": [(1,)]})
        source = PeerFactSource({"A": instance})
        assert set(source.get_tuples("r")) == {(1,)}
        instance.add("r", (2,))
        assert set(source.get_tuples("r")) == {(1,), (2,)}

    def test_a_relation_two_peers_serve_is_refused_naming_both(self):
        """A stored relation has one owner, whether or not the arities
        agree."""
        first = Instance.from_dict({"shared": [(1, 2)]})
        second = Instance.from_dict({"shared": [(3, 4)]})
        with pytest.raises(MappingError) as excinfo:
            PeerFactSource({"A": first, "B": second})
        message = str(excinfo.value)
        assert "'A'" in message and "'B'" in message and "'shared'" in message
        assert "one owner" in message

    def test_relation_created_after_construction_is_discovered(self):
        instance = Instance.from_dict({"r": [(1,)]})
        source = PeerFactSource({"A": instance})
        assert source.get_tuples("late") == ()
        instance.add("late", (7, 8))
        assert set(source.get_tuples("late")) == {(7, 8)}
        assert source.cardinality("late") == 1
        assert source.data_version("late") == (instance.data_version("late"),)
        assert "late" in source.relations()
        from repro.datalog.indexing import WILDCARD

        assert set(source.get_matching("late", (7, WILDCARD))) == {(7, 8)}

    def test_late_relation_arity_clash_still_raises(self):
        first = Instance.from_dict({"r": [(1,)]})
        second = Instance.from_dict({"q": [(2,)]})
        source = PeerFactSource({"A": first, "B": second})
        first.add("late", (1, 2))
        second.add("late", (3,))
        with pytest.raises(MappingError):
            source.get_tuples("late")

    def test_a_second_owner_of_a_known_relation_is_refused_on_the_next_probe(self):
        """A relation routed at construction gains a second owner later:
        the stamp-based refresh sees it (no half-live view) and refuses it
        exactly as a fresh construction would, naming both peers."""
        first = Instance.from_dict({"s": [(1, 1)]})
        second = Instance.from_dict({"other": [(9,)]})
        source = PeerFactSource({"A": first, "B": second})
        assert set(source.get_tuples("s")) == {(1, 1)}
        second.add("s", (2, 2))
        with pytest.raises(MappingError) as excinfo:
            source.get_tuples("s")
        message = str(excinfo.value)
        assert "'A'" in message and "'B'" in message and "'s'" in message

    def test_unrelated_instance_creation_does_not_rebuild_routes(self):
        """The global clock is only a fast gate: creations on instances a
        source does not own must not force a route re-derivation."""
        instance = Instance.from_dict({"r": [(1, 2)]})
        source = PeerFactSource({"A": instance})
        assert set(source.get_tuples("r")) == {(1, 2)}
        routes_before = source._routes
        Instance.from_dict({"unrelated": [(9,)]})  # ticks the global clock
        assert set(source.get_tuples("r")) == {(1, 2)}
        assert source._routes is routes_before  # no rebuild happened
        instance.add("mine", (3,))  # owned creation -> rebuild
        assert set(source.get_tuples("mine")) == {(3,)}
        assert source._routes is not routes_before

    def test_arity_clash_raises_naming_both_peers(self):
        first = Instance.from_dict({"s": [(1, 2)]})
        second = Instance.from_dict({"s": [(3,)]})
        with pytest.raises(MappingError) as excinfo:
            PeerFactSource({"A": first, "B": second})
        message = str(excinfo.value)
        assert "'A'" in message and "'B'" in message and "'s'" in message

    def test_arity_clash_detected_eagerly_even_for_empty_overlap(self):
        schema_less = Instance()
        schema_less.add("t", (1, 2, 3))
        other = Instance.from_dict({"t": [(0, 0)]})
        with pytest.raises(MappingError):
            PeerFactSource({"X": schema_less, "Y": other})

    def test_answer_query_federates_per_peer_data(self, two_peer_pdms):
        per_peer = {"B": Instance.from_dict({"stored_s": [(1, 2), (2, 3)]})}
        query = parse_query("Q(x, y) :- A:R(x, y)")
        for engine in ("backtracking", "columnar", "distributed"):
            assert answer_query(two_peer_pdms, query, per_peer, engine=engine) == {
                (1, 2), (2, 3)}


class TestBatchCanonicalCache:
    def test_batch_per_peer_data_wrapped_once(self, two_peer_pdms, monkeypatch):
        built = []
        original = execution_module.PeerFactSource

        class Counting(original):
            def __init__(self, instances):
                built.append(1)
                super().__init__(instances)

        monkeypatch.setattr(execution_module, "PeerFactSource", Counting)
        per_peer = {"B": Instance.from_dict({"stored_s": [(1, 2)]})}
        QueryService(two_peer_pdms).answer_batch(
            [parse_query("Q(x) :- A:R(x, y)"), parse_query("Q(y) :- A:R(x, y)")],
            data=per_peer,
        )
        assert built == [1]


class TestConcurrentConsumers:
    """Stress the lock-guarded memoized streams: every concurrent consumer
    must see every item exactly once (the lost-tail race regression)."""

    def test_lazy_seq_concurrent_consumers_see_all_items(self):
        import threading

        from repro.pdms.reformulation import _LazySeq

        for _ in range(20):
            seq = _LazySeq(iter(range(500)))
            results = {}

            def consume(slot):
                results[slot] = list(seq)

            threads = [
                threading.Thread(target=consume, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for slot, items in results.items():
                assert items == list(range(500)), f"consumer {slot} lost items"

    def test_lazy_seq_mid_stream_failure_is_not_silent_truncation(self):
        """A generator error must re-raise for *every* consumer — a failed
        enumeration may never masquerade as a complete shorter one."""
        from repro.pdms.reformulation import _LazySeq

        def broken():
            yield 1
            yield 2
            raise RuntimeError("boom")

        seq = _LazySeq(broken())
        with pytest.raises(RuntimeError):
            list(seq)
        # Later consumers still see the prefix, then the same error.
        consumed = []
        with pytest.raises(RuntimeError):
            for item in seq:
                consumed.append(item)
        assert consumed == [1, 2]

    def test_lazy_seq_interrupt_does_not_poison_with_stale_interrupt(self):
        """Ctrl-C mid-enumeration must not be cached and re-raised at every
        later consumer; they get a fresh, diagnosable error instead."""
        from repro.errors import ReformulationError
        from repro.pdms.reformulation import _LazySeq

        def interrupted():
            yield 1
            raise KeyboardInterrupt

        seq = _LazySeq(interrupted())
        with pytest.raises(KeyboardInterrupt):
            list(seq)
        with pytest.raises(ReformulationError, match="interrupted"):
            list(seq)

    def test_concurrent_plan_streams_agree(self, fan_out_pdms):
        import threading

        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result)
        data = fan_out_data()
        expected = evaluate_plan(plan, data)
        outcomes = {}

        def consume(slot):
            outcomes[slot] = set(stream_answers(plan.result, data, plan=plan))

        threads = [threading.Thread(target=consume, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(answers == expected for answers in outcomes.values())


class TestServicePlanCache:
    def _service(self, fan_out_pdms):
        from repro.pdms import QueryService

        data = {
            "P": Instance.from_dict(
                {name: rows for name, rows in fan_out_data().items()}
            )
        }
        return QueryService(fan_out_pdms, data=data, engine="columnar")

    def test_plans_compiled_once_and_reused(self, fan_out_pdms):
        service = self._service(fan_out_pdms)
        query = parse_query(FAN_OUT_QUERY)
        first = service.answer(query)
        second = service.answer(query)
        assert first == second
        assert service.stats.plans_compiled == 1
        assert service.plan_cache_size == 1
        # Non-plan engines neither compile nor consume plans.
        assert service.answer(query, engine="backtracking") == first
        assert service.stats.plans_compiled == 1

    def test_plans_invalidated_with_reformulation_entries(self, fan_out_pdms):
        service = self._service(fan_out_pdms)
        query = parse_query(FAN_OUT_QUERY)
        baseline = service.answer(query)
        assert service.plan_cache_size == 1
        # A new storage description for P:A3 provenance-affects the entry;
        # the compiled plan must go with it and answers must grow.
        service.add_storage_description(
            StorageDescription("P", "s_a3_extra",
                               parse_query("V(x, y) :- P:A3(x, y)")))
        assert service.plan_cache_size == 0
        assert service.stats.plan_invalidations == 1
        service.set_peer_data(
            "P",
            Instance.from_dict(
                {**{name: rows for name, rows in fan_out_data().items()},
                 "s_a3_extra": [(2, 999), (3, 999)]}
            ),
        )
        updated = service.answer(query)
        assert baseline < updated
        assert service.stats.plans_compiled == 2

    def test_clear_cache_drops_plans(self, fan_out_pdms):
        service = self._service(fan_out_pdms)
        service.answer(parse_query(FAN_OUT_QUERY))
        assert service.plan_cache_size == 1
        service.clear_cache()
        assert service.plan_cache_size == 0

    def test_shared_engine_through_service_matches_others(self, fan_out_pdms):
        service = self._service(fan_out_pdms)
        query = parse_query(FAN_OUT_QUERY)
        shared = service.answer(query)
        assert shared == service.answer(query, engine="backtracking")
        assert set(service.stream(query)) == shared


class _CountingSource:
    """A fact source that counts how often each relation is scanned."""

    def __init__(self, mapping):
        self._mapping = mapping
        self.scans = 0

    def get_tuples(self, predicate):
        self.scans += 1
        return self._mapping.get(predicate, ())


class TestPlannerAdditions:
    def test_cost_model_caches_cardinalities(self):
        source = _CountingSource({"r": [(1,), (2,)]})
        cost = CardinalityCostModel(source)
        assert cost.cardinality("r") == 2
        assert cost.cardinality("r") == 2
        assert source.scans == 1
        assert cost.cardinality("missing") == 0

    def test_cost_model_without_source(self):
        cost = CardinalityCostModel()
        assert cost.cardinality("anything") == 0

    def test_snapshot_model_drops_source_but_keeps_cardinalities(self):
        import gc
        import weakref

        instance = Instance.from_dict({"r": [(1, 2), (3, 4)], "s": [(5, 6)]})
        cost = CardinalityCostModel.snapshot(instance)
        ref = weakref.ref(instance)
        del instance
        gc.collect()
        assert ref() is None, "snapshot cost model retained the data source"
        assert cost.cardinality("r") == 2
        assert cost.cardinality("s") == 1
        assert cost.cardinality("unknown") == 0

    def test_cached_plan_does_not_retain_removed_peer_data(self, fan_out_pdms):
        """The reviewer's leak repro: a shared-engine service must not pin a
        removed peer's instance through a cached plan's cost model."""
        import gc
        import weakref

        from repro.pdms import QueryService

        victim = Instance.from_dict({"victim_rel": [(i, i) for i in range(50)]})
        service = QueryService(
            fan_out_pdms,
            data={"P": Instance.from_dict(dict(fan_out_data()))},
            engine="columnar",
        )
        service.add_peer("Bystander", data=victim)
        service.answer(parse_query(FAN_OUT_QUERY))
        ref = weakref.ref(victim)
        del victim
        service.remove_peer("Bystander")
        gc.collect()
        assert ref() is None, "cached plan retained the removed peer's instance"
        # The surviving entry still answers correctly.
        assert service.answer(parse_query(FAN_OUT_QUERY))

    def test_materialize_nodes_share_work_through_memo(self):
        """Identical rewritings hash-cons to one fragment, scanned once."""
        rewriting = parse_query("Q(x) :- r(x, y)")
        plan = _enumerated(rewriting, parse_query("Q(x) :- r(x, y)"))
        first, second = plan.fragments()
        assert first.root_key == second.root_key and len(plan.nodes) == 1
        source = _CountingSource({"r": [(1, 2), (3, 4)]})
        assert evaluate_plan(plan, source) == {(1,), (3,)}
        assert source.scans == 1  # the duplicate root came from the memo

    def test_materialize_keys_differ_for_different_branches(self):
        """Content-derived keys: one fragment table shared through a cache
        across plans serves each root its own head, never another's."""
        instance = Instance.from_dict({"r": [(1, 2)], "s": [(2, 3)]})
        cache = FragmentCache(max_bytes=1 << 20)
        first = _enumerated(parse_query("Q(x) :- r(x, y), s(y, z)"))
        second = _enumerated(parse_query("Q(z) :- r(x, y), s(y, z)"))
        assert evaluate_plan(first, instance, cache=cache) == {(1,)}
        assert evaluate_plan(second, instance, cache=cache) == {(3,)}
        assert cache.stats.hits == 1  # the join fragment, under one key
        third = _enumerated(parse_query("Q(x) :- r(x, y), s(x, z)"))
        (root,) = third.fragments()
        assert root.root_key not in first.nodes
        assert evaluate_plan(third, instance, cache=cache) == set()

    def test_union_aligns_disjuncts_with_different_head_names(self):
        plan = _enumerated(
            parse_query("Q(x) :- r(x, y)"), parse_query("Q(b) :- s(a, b)"))
        assert evaluate_plan(plan, {"r": [(1, 2)], "s": [(3, 4)]}) == {(1,), (4,)}

    def test_materialize_without_memo_is_transparent(self, fan_out_pdms):
        """A cross-call cache changes where tables come from, not answers."""
        data = Instance.from_dict(fan_out_data())
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result, data)
        cache = FragmentCache(max_bytes=1 << 20)
        bare = evaluate_plan(plan, data)
        assert evaluate_plan(plan, data, cache=cache) == bare
        assert evaluate_plan(plan, data, cache=cache) == bare
        assert cache.stats.hits > 0

    def test_union_many_and_table_helpers(self):
        first = Table(("a",), [(1,), (2,)])
        second = Table(("a",), [(2,), (3,)])
        merged = union_many([first, second])
        assert merged.to_set() == {(1,), (2,), (3,)}
        assert merged.distinct() is merged
        assert union_many([], columns=("a",)).to_set() == set()
        with pytest.raises(EvaluationError):
            union_many([])
        with pytest.raises(EvaluationError):
            union_many([first, Table(("b",), [(1,)])])
        assert Table.empty(("x", "y")).to_set() == set()


def _enumerated(*rewritings):
    """A plan over ``rewritings`` without a rule-goal tree: whole answers
    take the enumerated compile and the root-by-root loop."""
    return planning.UnionPlan(SimpleNamespace(rewritings=lambda: iter(rewritings)))


class TestEvaluationMemo:
    """One answer's :class:`~repro.pdms.evaluator._Evaluation`: the plain
    per-answer memo its caller's thread drives."""

    def test_each_fragment_is_built_once_per_answer(self, fan_out_pdms, monkeypatch):
        data = fan_out_data()
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result, data)
        builds = []
        original = evaluator._Evaluation._build

        def counting(self, key, node):
            builds.append(key)
            return original(self, key, node)

        monkeypatch.setattr(evaluator._Evaluation, "_build", counting)
        streamed = set(stream_answers(plan.result, data, plan=plan))
        assert streamed == evaluate_reformulation(result, data, engine="backtracking")
        assert plan.stats.reused_references > 0
        assert len(builds) == len(set(builds))

    def test_interrupted_build_is_not_memoised(self, monkeypatch):
        plan = _enumerated(parse_query("Q(x) :- r(x, y)"))
        (root,) = plan.fragments()
        source = Instance.from_dict({"r": [(1, 2)]})
        evaluation = evaluator._Evaluation(plan, source)
        original = planning.ScanFragment.combine
        calls = []

        def interrupted_once(node, tables):
            calls.append(node.key)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return original(node, tables)

        monkeypatch.setattr(planning.ScanFragment, "combine", interrupted_once)
        with pytest.raises(KeyboardInterrupt):
            evaluation.table(root.root_key)
        assert root.root_key not in evaluation.memo
        # The next read rebuilds the table rather than serving the fault.
        assert evaluation.root_rows(root) == [(1,)]
        assert len(calls) == 2


class TestPlanEvaluation:
    def test_union_rows_with_limit_pulls_no_batch_beyond(self):
        pulled = []

        def batches():
            for batch in ([(1,), (2,)], [(2,), (3,)], [(4,)]):
                pulled.append(batch)
                yield batch

        assert evaluator.union_rows(batches(), limit=3) == {(1,), (2,), (3,)}
        assert len(pulled) == 2
        assert evaluator.union_rows(iter(())) == set()
        assert evaluator.union_rows(iter([[(1,)], [(1,), (2,)]])) == {(1,), (2,)}

    def test_distinct_rows_is_lazy(self):
        def batches():
            yield [(1,), (1,), (2,)]
            raise AssertionError("pulled a batch nobody asked for")

        rows = evaluator.distinct_rows(batches())
        assert [next(rows), next(rows)] == [(1,), (2,)]

    def test_limit_zero_evaluates_nothing(self, fan_out_pdms):
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result)
        source = _CountingSource(fan_out_data())
        assert evaluate_plan(plan, source, limit=0) == set()
        assert source.scans == 0 and plan.stats.rewritings == 0

    def test_only_selective_scans_and_interior_fragments_are_cached(self):
        instance = Instance.from_dict({"r": [(1, 2), (2, 2)], "s": [(2, 5)]})
        plan = _enumerated(parse_query("Q(x, z) :- r(x, y), s(y, z), r(x, 2)"))
        cache = FragmentCache(max_bytes=1 << 20)
        assert evaluate_plan(plan, instance, cache=cache) == {(1, 5), (2, 5)}
        cached = set(cache.cached_keys())
        for key, node in plan.nodes.items():
            selective = not isinstance(node, planning.ScanFragment) or any(
                value is not planning.WILDCARD for value in node.pattern)
            assert (key in cached) == selective, key

    def test_scan_requests_list_each_leaf_once(self):
        plan = _enumerated(parse_query("Q(x) :- r(x, y), s(y, z), r(z, 3)"))
        (root,) = plan.fragments()
        requests = plan.scan_requests(root.root_key)
        leaves = {
            (node.relation, node.pattern)
            for node in plan.nodes.values()
            if isinstance(node, planning.ScanFragment)
        }
        assert len(requests) == len(set(requests)) == len(leaves) == 3
        assert set(requests) == leaves
        assert ("r", (planning.WILDCARD, 3)) in requests

    def test_fragment_relations_are_the_transitive_footprint(self):
        plan = _enumerated(
            parse_query("Q(x) :- r(x, y), s(y, z)"), parse_query("Q(x) :- t(x, x)"))
        first, second = plan.fragments()
        assert plan.fragment_relations(first.root_key) == {"r", "s"}
        assert plan.token_relations(first.root_key) == ("r", "s")
        assert plan.fragment_relations(second.root_key) == {"t"}


def _skewed_pdms():
    """A three-way chain join whose cheap-looking first join is a trap.

    ``A |><| B`` estimates tiny under independence (B's y column is
    almost all distinct) but the 50 hot ``y=0`` rows of A each match
    B's 1000 hot rows — 50k intermediate rows.  ``B |><| C`` estimates
    large (B's z column has ~1000 distinct values against 10k rows) but
    actually yields 5 rows.  The cost model therefore joins A-B first.
    """
    pdms = PDMS()
    peer = pdms.add_peer("P")
    peer.add_relation("A", ["x", "y"])
    peer.add_relation("B", ["y", "z"])
    peer.add_relation("C", ["z", "w"])
    pdms.add_storage_description(
        StorageDescription("P", "sa", parse_query("V(x, y) :- P:A(x, y)")))
    pdms.add_storage_description(
        StorageDescription("P", "sb", parse_query("V(y, z) :- P:B(y, z)")))
    pdms.add_storage_description(
        StorageDescription("P", "sc", parse_query("V(z, w) :- P:C(z, w)")))
    instance = Instance()
    a_rows = [(i, 0) for i in range(50)]
    a_rows += [(150 + i, 20000 + i) for i in range(5)]
    a_rows += [(50 + i, 30000 + i) for i in range(95)]
    instance.add_all("sa", a_rows)
    b_rows = [(0, z) for z in range(1000)]
    b_rows += [(20000 + i, 2000 + i) for i in range(5)]
    b_rows += [(40000 + i, i % 1000) for i in range(3995)]
    instance.add_all("sb", b_rows)
    # C is wide enough that the B-C estimate out-prices A-B, yet only
    # B's five rare rows actually reach its range.
    instance.add_all("sc", [(2000 + i, i) for i in range(200)])
    query = parse_query("Q(x, w) :- P:A(x, y), P:B(y, z), P:C(z, w)")
    truth = frozenset((150 + i, i) for i in range(5))
    return pdms, query, instance, truth


class TestCorrelatedWorkload:
    """The cost model orders every join, including the ones it misjudges:
    a misestimated plan is slower, never wrong, and its estimates for
    what it can see exactly (the scans) match what evaluation reports."""

    @pytest.mark.parametrize("engine", [None, "columnar", "distributed", "backtracking"])
    def test_every_engine_name_returns_the_certain_answers(self, engine):
        pdms, query, instance, truth = _skewed_pdms()
        result = reformulate(pdms, query)
        assert evaluate_reformulation(result, {"P": instance}, engine=engine) == truth

    def test_repeated_service_answers_reuse_one_plan(self):
        from repro.pdms import QueryService

        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance}, fragment_cache_bytes=0)
        for _ in range(3):
            assert service.answer(query) == truth
        assert set(service.stream(query)) == truth
        assert service.stats_snapshot().plans_compiled == 1

    def test_scan_estimates_match_the_traced_scan_rows(self):
        """A scan's compile-time estimate (``_Group.estimate``) against the
        ``rows`` its ``fragment.eval`` span reports: exact here, q-error 1."""
        from repro.obs import MetricsRegistry, Tracer, set_tracer
        from repro.pdms import QueryService

        pdms, query, instance, truth = _skewed_pdms()
        sizes = {name: instance.cardinality(name) for name in ("sa", "sb", "sc")}
        plan = compile_reformulation(reformulate(pdms, query), instance)
        assert list(plan.fragments())
        estimates = {}
        for group in plan._groups.values():
            (atom,) = group.atoms
            assert group.estimate == sizes[atom.predicate], atom
            estimates[group.key] = group.estimate
        assert len(estimates) == 3

        service = QueryService(pdms, data={"P": instance}, fragment_cache_bytes=0)
        tracer = Tracer(enabled=True, sample_rate=1.0, sink_path=None,
                        registry=MetricsRegistry())
        set_tracer(tracer)
        try:
            assert service.answer(query) == truth
        finally:
            set_tracer(None)
        (trace_id,) = tracer.trace_ids()
        scans = [span["attrs"] for span in tracer.trace(trace_id)
                 if span["name"] == "fragment.eval" and span["attrs"]["kind"] == "scan"]
        assert sorted(attrs["rows"] for attrs in scans) == sorted(sizes.values())
        for attrs in scans:
            assert estimates[attrs["key"]] == attrs["rows"], attrs["key"]

    def test_stats_snapshot_is_deep_and_independent(self):
        from repro.pdms import QueryService

        pdms, query, instance, truth = _skewed_pdms()
        service = QueryService(pdms, data={"P": instance})
        service.answer(query)
        snap = service.stats_snapshot()
        before = (snap.hits, snap.misses, snap.fragments.lookups, dict(snap.plan_kinds))
        service.answer(query)
        service.answer(query)
        assert (snap.hits, snap.misses, snap.fragments.lookups,
                dict(snap.plan_kinds)) == before
        assert snap.fragments is not service.stats.fragments
        assert snap.plan_kinds is not service.stats.plan_kinds
        live = service.stats_snapshot()
        assert live.hits > snap.hits
        assert live.fragments.lookups > snap.fragments.lookups
