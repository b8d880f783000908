"""Unit tests for the shared union-plan IR, the engine registry, and the
federated :class:`PeerFactSource` (ISSUE 3).

Covers, per layer:

* ``repro.pdms.planning`` — hash-consed fragment sharing, incremental
  compilation, sequential/parallel execution equality, worker config;
* ``repro.pdms.execution`` — engine registry semantics and dynamic error
  messages, federated probe routing and the arity-clash check, the
  per-batch canonical-signature cache of ``answer_query_batch``;
* ``repro.database.planner`` — the cardinality cost model and the new
  distinct/materialize operators with memoized execution.
"""

import pytest

from repro.database import (
    CardinalityCostModel,
    Instance,
    Table,
    compile_union,
    execute_plan,
)
from repro.database.algebra import union_many
from repro.database.planner import DistinctNode, MaterializeNode
from repro.datalog import parse_query
from repro.datalog.queries import UnionQuery
from repro.errors import EvaluationError, MappingError
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    PeerFactSource,
    PerRewritingEngine,
    StorageDescription,
    answer_query,
    answer_query_batch,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    get_engine,
    reformulate,
    register_engine,
    registered_engines,
    stream_plan_answers,
    validate_engine,
)
from repro.pdms import execution as execution_module
from repro.pdms.planning import shared_workers_from_env


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
        answers = set(stream_plan_answers(plan, fan_out_data()))
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
        assert evaluate_reformulation(result, data, engine="plan") == expected
        assert evaluate_reformulation(result, data, engine="shared") == expected

    def test_parallel_execution_matches_sequential(self, fan_out_pdms):
        data = fan_out_data()
        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result, data)
        sequential = evaluate_plan(plan, data)
        assert evaluate_plan(plan, data, max_workers=3) == sequential
        assert set(stream_plan_answers(plan, data, max_workers=2)) == sequential

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
        assert set(stream_plan_answers(plan, fan_out_data())) == full
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
                result, fan_out_data(), engine="shared", plan=wrong_plan)

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
        assert evaluate_reformulation(result, data, engine="shared") == expected

    def test_workers_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARED_WORKERS", "3")
        assert shared_workers_from_env() == 3
        monkeypatch.setenv("REPRO_SHARED_WORKERS", "lots")
        with pytest.raises(EvaluationError):
            shared_workers_from_env()
        monkeypatch.setenv("REPRO_SHARED_WORKERS", "-1")
        with pytest.raises(EvaluationError):
            shared_workers_from_env()


class TestEngineRegistry:
    def test_default_engines_registered_in_order(self):
        assert registered_engines()[:4] == (
            "backtracking", "plan", "shared", "columnar")

    def test_validate_engine_message_enumerates_dynamically(self):
        with pytest.raises(EvaluationError) as excinfo:
            validate_engine("warp-drive")
        message = str(excinfo.value)
        for name in registered_engines():
            assert name in message

    def test_default_engine_misconfiguration_fails_fast(self, monkeypatch):
        from repro.pdms import default_engine

        monkeypatch.setenv("REPRO_DEFAULT_ENGINE", "warp-drive")
        with pytest.raises(EvaluationError) as excinfo:
            default_engine()
        message = str(excinfo.value)
        assert "REPRO_DEFAULT_ENGINE" in message
        for name in registered_engines():
            assert name in message

    def test_register_rejects_taken_name_unless_replaced(self):
        engine = get_engine("backtracking")
        with pytest.raises(EvaluationError):
            register_engine(PerRewritingEngine("backtracking", lambda q, d: set()))
        # Restore the original under replace=True (also exercises replace).
        assert register_engine(engine, replace=True) is engine
        assert get_engine("backtracking") is engine

    def test_custom_engine_round_trip(self, two_peer_pdms):
        calls = []

        def noisy(query, data):
            calls.append(query)
            from repro.datalog.evaluation import evaluate_query

            return evaluate_query(query, data)

        name = "test-noisy"
        register_engine(PerRewritingEngine(name, noisy), replace=True)
        try:
            answers = answer_query(
                two_peer_pdms, parse_query("Q(x) :- A:R(x, y)"),
                {"stored_s": [(1, 2)]}, engine=name)
            assert answers == {(1,)}
            assert calls
            assert name in registered_engines()
        finally:
            execution_module._ENGINE_REGISTRY.pop(name, None)
            execution_module.ENGINES = tuple(execution_module._ENGINE_REGISTRY)


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
        assert source.owner_count("r1") == 1
        assert source.owner_count("missing") == 0
        assert sorted(source.relations()) == ["r1", "r2"]

    def test_no_copy_probes_see_live_updates(self):
        instance = Instance.from_dict({"r": [(1,)]})
        source = PeerFactSource({"A": instance})
        assert set(source.get_tuples("r")) == {(1,)}
        instance.add("r", (2,))
        assert set(source.get_tuples("r")) == {(1,), (2,)}

    def test_shared_relation_fans_out_to_all_owners(self):
        from repro.datalog.indexing import WILDCARD

        first = Instance.from_dict({"shared": [(1, 2)]})
        second = Instance.from_dict({"shared": [(3, 4)]})
        source = PeerFactSource({"A": first, "B": second})
        assert source.owner_count("shared") == 2
        assert set(source.get_tuples("shared")) == {(1, 2), (3, 4)}
        assert set(source.get_matching("shared", (WILDCARD, 4))) == {(3, 4)}
        assert source.cardinality("shared") == 2

    def test_relation_created_after_construction_is_discovered(self):
        instance = Instance.from_dict({"r": [(1,)]})
        source = PeerFactSource({"A": instance})
        assert source.get_tuples("late") == ()
        instance.add("late", (7, 8))
        assert set(source.get_tuples("late")) == {(7, 8)}
        assert source.cardinality("late") == 1
        assert source.owner_count("late") == 1
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

    def test_second_owner_of_known_relation_becomes_visible(self):
        """A relation routed at construction gains a new owner later: the
        stamp-based refresh must pick it up (the half-live-view bug)."""
        first = Instance.from_dict({"s": [(1, 1)]})
        second = Instance.from_dict({"other": [(9,)]})
        source = PeerFactSource({"A": first, "B": second})
        assert set(source.get_tuples("s")) == {(1, 1)}
        second.add("s", (2, 2))
        assert set(source.get_tuples("s")) == {(1, 1), (2, 2)}
        assert source.owner_count("s") == 2
        # And a late clash on an already-routed relation raises, exactly
        # as a fresh construction would.
        third = Instance.from_dict({"t": [(5, 6)]})
        clashing = PeerFactSource({"A": first, "C": third})
        third.add("s", (7,))
        with pytest.raises(MappingError):
            clashing.get_tuples("s")

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
        assert "arity 2" in message and "arity 1" in message

    def test_arity_clash_detected_eagerly_even_for_empty_overlap(self):
        schema_less = Instance()
        schema_less.add("t", (1, 2, 3))
        other = Instance.from_dict({"t": [(0, 0)]})
        with pytest.raises(MappingError):
            PeerFactSource({"X": schema_less, "Y": other})

    def test_answer_query_federates_per_peer_data(self, two_peer_pdms):
        per_peer = {"B": Instance.from_dict({"stored_s": [(1, 2), (2, 3)]})}
        query = parse_query("Q(x, y) :- A:R(x, y)")
        for engine in registered_engines()[:3]:
            assert answer_query(two_peer_pdms, query, per_peer, engine=engine) == {
                (1, 2), (2, 3)}


class TestBatchCanonicalCache:
    def test_isomorphic_queries_reformulate_once(self, two_peer_pdms, monkeypatch):
        calls = []
        original = execution_module.reformulate

        def counting(pdms, query, config=None):
            calls.append(query)
            return original(pdms, query, config=config)

        monkeypatch.setattr(execution_module, "reformulate", counting)
        queries = [
            parse_query("Q(x, y) :- A:R(x, y)"),
            parse_query("Ans(u, v) :- A:R(u, v)"),   # isomorphic to the first
            parse_query("Q(x) :- A:R(x, y)"),         # structurally different
        ]
        data = {"stored_s": [(1, 2), (2, 3)]}
        batch = answer_query_batch(two_peer_pdms, queries, data)
        assert len(calls) == 2
        assert batch == [answer_query(two_peer_pdms, q, data) for q in queries]

    def test_batch_per_peer_data_wrapped_once(self, two_peer_pdms, monkeypatch):
        built = []
        original = execution_module.PeerFactSource

        class Counting(original):
            def __init__(self, instances):
                built.append(1)
                super().__init__(instances)

        monkeypatch.setattr(execution_module, "PeerFactSource", Counting)
        per_peer = {"B": Instance.from_dict({"stored_s": [(1, 2)]})}
        answer_query_batch(
            two_peer_pdms,
            [parse_query("Q(x) :- A:R(x, y)"), parse_query("Q(y) :- A:R(x, y)")],
            per_peer,
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

    def test_once_map_interrupt_not_cached_for_waiters(self):
        from repro.pdms.planning import _OnceMap

        memo = _OnceMap()

        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            memo.get_or_compute("k", interrupted)
        # Later consumers of the key get a fresh error, not a stale Ctrl-C.
        with pytest.raises(EvaluationError, match="interrupted"):
            memo.get_or_compute("k", lambda: None)

    def test_once_map_allocates_an_event_only_for_waiters(self, monkeypatch):
        import threading

        from repro.pdms import planning

        memo = planning._OnceMap()
        started, release = threading.Event(), threading.Event()
        calls, results = [], []

        def slow():
            calls.append(1)
            started.set()
            release.wait(timeout=30)
            return "value"

        # Threads make events of their own: build them before counting.
        threads = [
            threading.Thread(
                target=lambda: results.append(memo.get_or_compute("slow", slow)))
            for _ in range(4)
        ]
        created = []
        real_event = threading.Event

        def counting_event():
            created.append(1)
            return real_event()

        monkeypatch.setattr(planning.threading, "Event", counting_event)
        assert [memo.get_or_compute(k, str.upper, k) for k in "abca"] == list("ABCA")
        assert not created

        threads[0].start()
        started.wait(timeout=30)
        for thread in threads[1:]:
            thread.start()
        while not created:  # the first waiter to arrive makes the one event
            pass
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert results == ["value"] * 4
        assert calls == [1] and created == [1]

    def test_concurrent_plan_streams_agree(self, fan_out_pdms):
        import threading

        result = reformulate(fan_out_pdms, parse_query(FAN_OUT_QUERY))
        plan = compile_reformulation(result)
        data = fan_out_data()
        expected = evaluate_plan(plan, data)
        outcomes = {}

        def consume(slot):
            outcomes[slot] = set(stream_plan_answers(plan, data))

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
        return QueryService(fan_out_pdms, data=data, engine="shared")

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
        assert shared == service.answer(query, engine="plan")
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
        assert cost.scan_estimate("r", filters=1) == 1

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
            engine="shared",
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
        union = parse_query("Q(x) :- r(x, y)")
        other = parse_query("Q(x) :- r(x, y)")
        plan = compile_union(UnionQuery([union, other]), share_common=True)
        assert isinstance(plan, DistinctNode)
        materialized = [
            node for node in plan.child.children()
            if isinstance(node, MaterializeNode)
        ]
        assert len(materialized) == 2
        # Identical branches hash-cons to one key.
        assert len({node.key for node in materialized}) == 1
        source = _CountingSource({"r": [(1, 2), (3, 4)]})
        memo = {}
        table = execute_plan(plan, source, memo=memo)
        assert table.to_set() == {(1,), (3,)}
        assert source.scans == 1  # the duplicate branch came from the memo

    def test_materialize_keys_differ_for_different_branches(self):
        """Content-derived keys: a memo shared across plans must never
        serve one branch's table for a structurally different branch."""
        first = compile_union(
            UnionQuery([parse_query("Q(x) :- r(x, y)")]), share_common=True)
        second = compile_union(
            UnionQuery([parse_query("Q(x) :- r(y, x)")]), share_common=True)
        key_of = lambda plan: next(
            node.key for node in plan.child.children()
            if isinstance(node, MaterializeNode)
        )
        assert key_of(first) != key_of(second)
        memo = {}
        source = {"r": [(1, 2)]}
        assert execute_plan(first, source, memo=memo).to_set() == {(1,)}
        assert execute_plan(second, source, memo=memo).to_set() == {(2,)}

    def test_union_aligns_disjuncts_with_different_head_names(self):
        union = UnionQuery([
            parse_query("Q(x) :- r(x, y)"),
            parse_query("Q(b) :- s(a, b)"),
        ])
        plan = compile_union(union)
        table = execute_plan(plan, {"r": [(1, 2)], "s": [(3, 4)]})
        assert table.to_set() == {(1,), (4,)}

    def test_materialize_without_memo_is_transparent(self):
        node = MaterializeNode(
            compile_union(UnionQuery([parse_query("Q(x) :- r(x, y)")])), key="k"
        )
        table = execute_plan(node, {"r": [(1, 2)]})
        assert table.to_set() == {(1,)}

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
