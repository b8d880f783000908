"""What each layer saves, counted rather than timed.

Every mechanism below exists to skip work: the reformulation cache skips
tree builds, the shared plan and the fragment cache skip fragment
evaluations, federation skips row copies, a scan wave skips frames.  Each
test counts that work on both sides of the claim at a small size, so the
claim holds on any host and a mechanism switched off fails it.  How long
the work takes is the end-to-end benchmark's to say (``benchmarks/e2e``):
``service.lookup_us``, ``execution.columnar_ms`` against
``execution.backtracking_ms``, ``read_p50_ms`` against
``cold_answer_p50_ms``, and ``cluster.socket.read_ms``.

The counts are taken by wrapping the function that does the work:
``reformulate`` as the service calls it (tree nodes built),
``_Evaluation._build`` (fragments evaluated) and ``Instance.add`` (rows
copied).  Answers are checked against the ``backtracking`` oracle or a
fresh ``answer_query`` alongside.
"""

import random
from contextlib import contextmanager
from unittest import mock

from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.pdms import (
    PDMS,
    AsyncSocketTransport,
    FragmentCache,
    PeerFactSource,
    QueryService,
    RemotePeerFactSource,
    StorageDescription,
    answer_query,
    combine_peer_instances,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    reformulate,
)
from repro.pdms import service as service_module
from repro.pdms.evaluator import _Evaluation
from repro.workload import (
    ChurnParameters,
    GeneratorParameters,
    add_earthquake_command_center,
    build_emergency_services,
    example_queries,
    generate_churn_scenario,
    sample_instance,
)

ALL = (WILDCARD, WILDCARD)


@contextmanager
def counting(owner, name, weight=lambda value: 1):
    """Count calls of ``owner.name``, each weighed by ``weight`` of what it
    returned; yields the running total as a one-element list."""
    total = [0]
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        value = real(*args, **kwargs)
        total[0] += weight(value)
        return value

    with mock.patch.object(owner, name, wrapper):
        yield total


def tree_nodes_built():
    """Rule-goal-tree nodes the service builds (one tree per reformulation)."""
    return counting(
        service_module, "reformulate", lambda result: result.statistics.total_nodes
    )


def fragments_evaluated():
    return counting(_Evaluation, "_build")


def rows_copied():
    return counting(Instance, "add")


def chain_workload(alternatives, rows=300, variant_rows=30, domain=1200):
    """``Q :- A1, A2, A3`` where A1 and A2 have one storage description
    each and A3 has ``alternatives``: one rewriting per alternative, all
    sharing the ``s_a1 ⋈ s_a2`` prefix.  Twenty planted chains per
    alternative make the answer non-empty however sparse the rest is."""
    pdms = PDMS()
    peer = pdms.add_peer("P")
    for relation in ("A1", "A2", "A3"):
        peer.add_relation(relation, ["x", "y"])
    stored = {"s_a1": "A1", "s_a2": "A2"}
    stored.update((f"s_a3_{i}", "A3") for i in range(alternatives))
    for name, relation in stored.items():
        pdms.add_storage_description(StorageDescription(
            "P", name, parse_query(f"V(x, y) :- P:{relation}(x, y)")))
    rng = random.Random(7)
    instance = Instance()
    for name in stored:
        size = rows if name in ("s_a1", "s_a2") else variant_rows
        instance.add_all(
            name, {(rng.randrange(domain), rng.randrange(domain)) for _ in range(size)})
    for j in range(20):
        instance.add("s_a1", (j, domain + j))
        instance.add("s_a2", (domain + j, 2 * domain + j))
        for i in range(alternatives):
            instance.add(f"s_a3_{i}", (2 * domain + j, 1000 + i))
    query = parse_query("Q(x0, x3) :- P:A1(x0, x1), P:A2(x1, x2), P:A3(x2, x3)")
    return pdms, query, instance


# ---------------------------------------------------------------------------
# The reformulation cache
# ---------------------------------------------------------------------------


class TestReformulationCache:
    def test_a_repeated_query_builds_no_tree_nodes(self):
        service = QueryService(
            build_emergency_services(include_ecc=False), data=sample_instance())
        queries = [
            query for name, query in example_queries().items()
            if not name.startswith("ecc")
        ]
        with tree_nodes_built() as cold:
            first = [service.answer(query) for query in queries]
        with tree_nodes_built() as repeat:
            assert [service.answer(query) for query in queries] == first
        assert (cold[0], repeat[0]) == (101, 0)
        assert (service.stats.hits, service.stats.misses) == (4, 4)

    def test_a_churn_replay_builds_fewer_trees_than_a_starved_cache(self):
        scenario = generate_churn_scenario(ChurnParameters(
            base=GeneratorParameters(
                num_peers=8, diameter=2, definitional_ratio=0.2, seed=2),
            num_events=25,
            seed=2,
        ))
        with tree_nodes_built() as cached:
            report = scenario.replay(service=scenario.fresh_service(), verify=True)
        with tree_nodes_built() as starved:
            starved_report = scenario.replay(
                service=scenario.fresh_service(max_entries=1))
        assert (cached[0], starved[0]) == (64, 245)
        assert (report.cache_hits, report.cache_misses) == (17, 4)
        assert report.invalidations == 1
        assert (starved_report.cache_hits, starved_report.cache_misses) == (5, 16)

    def test_the_ecc_join_keeps_every_unaffected_entry(self):
        """The Figure-1 story: ECC joins an actively queried system."""
        pdms = build_emergency_services(include_ecc=False)
        data = sample_instance()
        service = QueryService(pdms, data=data)
        queries = example_queries()
        kept = {name: query for name, query in queries.items() if not name.startswith("ecc")}
        for query in kept.values():
            service.answer(query)

        add_earthquake_command_center(pdms)
        # The other queries never touch ECC predicates or 9DC:Vehicle: the
        # join keeps all four entries, and only the two ECC queries build.
        with tree_nodes_built() as kept_built:
            for name, query in kept.items():
                assert service.answer(query) == answer_query(
                    pdms, query, data, engine="backtracking"), name
        with tree_nodes_built() as ecc_built:
            for name in ("ecc_vehicles", "ecc_medical_responders"):
                assert service.answer(queries[name]) == answer_query(
                    pdms, queries[name], data, engine="backtracking"), name
        assert (kept_built[0], ecc_built[0]) == (0, 56)
        assert (service.stats.invalidations, service.cache_size) == (0, 6)

        # Leaving again evicts exactly the ECC-dependent entries.
        service.remove_peer("ECC")
        assert (service.stats.invalidations, service.cache_size) == (2, 4)


# ---------------------------------------------------------------------------
# The shared plan and federation
# ---------------------------------------------------------------------------


class TestSharedPlan:
    def test_the_shared_plan_evaluates_fewer_fragments_than_its_rewritings(self):
        pdms, query, instance = chain_workload(alternatives=8)
        result = reformulate(pdms, query)
        expected = evaluate_reformulation(result, instance, engine="backtracking")
        plan = compile_reformulation(result, instance)
        roots = list(plan.fragments())
        stats = plan.stats
        assert (stats.rewritings, stats.unique_fragments, stats.fragment_references) == (
            8, 20, 40)
        assert stats.sharing_ratio == 0.5

        with fragments_evaluated() as factored:
            assert evaluate_plan(plan, instance) == expected
        with fragments_evaluated() as enumerated:
            assert evaluate_plan(plan, instance, limit=len(expected) + 1) == expected
        with fragments_evaluated() as one_by_one:
            rows = set()
            for root in roots:
                rows.update(_Evaluation(plan, instance).root_rows(root))
        assert rows == expected and len(expected) == 173
        # Shared: each fragment once; one by one: each reference.
        assert (factored[0], enumerated[0], one_by_one[0]) == (14, 20, 40)


class TestFederation:
    def test_federation_copies_no_rows(self):
        rng = random.Random(11)
        pdms, data = PDMS(), {}
        for index in range(6):
            name = f"B{index}"
            pdms.add_peer(name).add_relation("r", ["x", "y"])
            pdms.add_storage_description(StorageDescription(
                name, f"s{index}", parse_query(f"V(x, y) :- {name}:r(x, y)")))
            data[name] = Instance.from_dict({
                f"s{index}": {(rng.randrange(50), rng.randrange(50)) for _ in range(40)}
            })
        # The query reads one peer; combining copies every peer's rows.
        result = reformulate(pdms, parse_query("Q(x, y) :- B0:r(x, y)"))
        with rows_copied() as federated:
            answers = evaluate_reformulation(result, PeerFactSource(data))
        with rows_copied() as combined:
            assert evaluate_reformulation(result, combine_peer_instances(data)) == answers
        assert len(answers) == 40
        total = sum(instance.total_rows() for instance in data.values())
        assert (federated[0], combined[0]) == (0, total) == (0, 238)


# ---------------------------------------------------------------------------
# The fragment cache
# ---------------------------------------------------------------------------


class TestFragmentCache:
    def test_a_warm_read_evaluates_no_fragment(self):
        pdms, query, instance = chain_workload(alternatives=6)
        cache = FragmentCache(max_bytes=256 << 20)
        service = QueryService(pdms, data={"P": instance}, fragment_cache=cache)
        with fragments_evaluated() as first:
            expected = service.answer(query)
        with fragments_evaluated() as warm:
            assert service.answer(query) == expected
        cache.clear()
        with fragments_evaluated() as cold:
            assert service.answer(query) == expected
        assert expected == answer_query(pdms, query, {"P": instance}, engine="backtracking")
        assert (first[0], warm[0], cold[0]) == (12, 0, 12)

    def test_without_a_fragment_cache_every_read_evaluates_every_fragment(self):
        pdms, query, instance = chain_workload(alternatives=6)
        service = QueryService(pdms, data={"P": instance}, fragment_cache_bytes=0)
        expected = service.answer(query)
        with fragments_evaluated() as repeat:
            assert service.answer(query) == expected
        assert repeat[0] == 12

    def test_a_write_mix_keeps_unrelated_fragments_warm(self):
        """A 10 % write mix into one relation: only the fragments over it
        step forward, every other read is a hit."""
        pdms, query, instance = chain_workload(alternatives=6)
        cache = FragmentCache(max_bytes=256 << 20)
        service = QueryService(pdms, data={"P": instance}, fragment_cache=cache)
        service.answer(query)
        before = cache.stats.as_dict()
        rng = random.Random(23)
        for op in range(60):
            if op % 10 == 0:
                instance.add("s_a3_0", (rng.randrange(1200), rng.randrange(1200)))
            else:
                answers = service.answer(query)
        after = cache.stats.as_dict()
        moved = {
            key: after[key] - before[key]
            for key in ("hits", "misses", "deltas", "invalidations")
        }
        # Each read after a write misses the root and steps it (a delta);
        # the shared join below it is still a hit.
        assert moved == {"hits": 54, "misses": 6, "deltas": 6, "invalidations": 0}
        assert answers == answer_query(pdms, query, {"P": instance}, engine="backtracking")


# ---------------------------------------------------------------------------
# The remote source
# ---------------------------------------------------------------------------


class TestRemoteSource:
    def test_a_wave_over_six_peers_is_one_frame(self):
        data = {
            f"P{i}": Instance.from_dict({f"s_r{i}": {(i, j) for j in range(10)}})
            for i in range(6)
        }
        requests = [(f"s_r{i}", ALL) for i in range(6)]
        transport = AsyncSocketTransport(data)
        source = RemotePeerFactSource(transport)
        try:
            source.drop_memo()
            before = transport.rpc_count
            for request in requests:
                source.scan_block(*request)
            serial = transport.rpc_count - before
            source.drop_memo()
            before = transport.rpc_count
            source.prefetch(requests)
            wave = transport.rpc_count - before
            for i in range(6):
                assert set(source.get_matching(f"s_r{i}", ALL)) == {(i, j) for j in range(10)}
            assert (serial, wave, transport.rpc_count - before) == (6, 1, 1)
        finally:
            source.close()
            transport.close()
