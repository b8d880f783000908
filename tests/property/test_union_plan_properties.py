"""Property tests for the union-plan layer's memoised compile and batch
assembly (ISSUE 15).

* **The compile memo keys on shape, not on ``Variable`` identity.**
  Compiling a rewriting again under any body permutation and any variable
  renaming snaps onto the fragments the first compile built: same root
  key, no new node.  (Bodies use one atom per predicate: with repeated
  predicates the canonicaliser's tie budget may legitimately name two
  alpha-equivalent bodies differently — see ``_TIE_BRANCH_BUDGET``.)
* **A batch-assembled answer equals the row-streamed one** for every
  registered engine, and ``limit=k`` returns a k-subset.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.pdms import (
    PeerFactSource,
    evaluate_reformulation,
    reformulate,
    registered_engines,
    stream_answers,
)
from repro.pdms.planning import UnionPlan

from .strategies import CONSTANTS, VARIABLES, pdms_specs
from .test_service_properties import build_pdms

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

PREDICATES = [f"p{i}" for i in range(6)]
terms = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(CONSTANTS))


@st.composite
def rewritings(draw):
    """A safe conjunctive query with one atom per predicate, its body
    permuted, and a renaming of its variables."""
    predicates = draw(st.lists(
        st.sampled_from(PREDICATES), min_size=1, max_size=5, unique=True))
    body = [
        Atom(predicate, draw(st.lists(terms, min_size=1, max_size=3)))
        for predicate in predicates
    ]
    variables = sorted({v for atom in body for v in atom.variable_set()})
    head = draw(st.lists(st.sampled_from(variables), max_size=2)) if variables else []
    order = draw(st.permutations(range(len(body))))
    fresh = draw(st.permutations(range(len(variables))))
    renaming = {v: Variable(f"z{fresh[i]}") for i, v in enumerate(variables)}
    return (
        ConjunctiveQuery(Atom("Q", head), body),
        ConjunctiveQuery(
            Atom("Q", [renaming[v] for v in head]),
            [body[i].substitute(renaming) for i in order],
        ),
    )


def _plan(*queries, **options):
    return UnionPlan(SimpleNamespace(rewritings=lambda: iter(queries)), **options)


class TestCompileMemoKeysOnShape:
    @given(pair=rewritings())
    @settings(max_examples=300, **COMMON)
    def test_permuted_renamed_body_snaps_onto_existing_fragments(self, pair):
        original, variant = pair
        alone = _plan(original)
        (first,) = alone.fragments()
        nodes_after_first = dict(alone.nodes)

        both = _plan(original, variant)
        first_again, second = both.fragments()
        assert first_again.root_key == first.root_key
        assert second.root_key == first.root_key
        assert both.nodes == nodes_after_first
        assert both.stats.unique_fragments == alone.stats.unique_fragments
        assert both.stats.fragment_references == 2 * alone.stats.fragment_references
        # The root reads the same columns for the same head positions.
        assert second.head == first.head
        assert second.comparisons == first.comparisons

    @given(pair=rewritings())
    @settings(max_examples=100, **COMMON)
    def test_left_deep_shares_the_leaf_memo(self, pair):
        original, variant = pair
        plan = _plan(original, variant, bushy=False)
        first, second = plan.fragments()
        scans = [key for key in plan.nodes if " & " not in key]
        assert len(scans) == len(original.relational_body())
        assert {first.root_key, second.root_key} <= set(plan.nodes)


class TestBatchAssembly:
    @given(spec=pdms_specs(), limit=st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, **COMMON)
    def test_batches_and_row_stream_agree_on_every_engine(self, spec, limit):
        pdms, data, queries = build_pdms(spec)
        federated = PeerFactSource(data)
        for query in queries:
            result = reformulate(pdms, query)
            expected = evaluate_reformulation(result, federated, engine="backtracking")
            for engine in registered_engines():
                merged = evaluate_reformulation(result, federated, engine=engine)
                streamed = list(stream_answers(result, federated, engine=engine))
                assert merged == expected, engine
                assert len(streamed) == len(set(streamed)), engine
                assert set(streamed) == expected, engine
                limited = evaluate_reformulation(
                    result, federated, engine=engine, limit=limit)
                assert limited <= expected, engine
                assert len(limited) == min(limit, len(expected)), engine


class TestFirstKLaziness:
    """``limit=k`` is pinned lazy: the batch loop is pulled root by root,
    so a first answer compiles (and evaluates) a small prefix of a large
    union, on every plan-consuming engine."""

    WIDTH = 15  # storage descriptions per relation -> WIDTH ** 2 rewritings

    def _fan_out(self):
        from repro.database import Instance
        from repro.datalog import parse_query
        from repro.pdms import PDMS, StorageDescription

        pdms = PDMS("fan-out")
        top = pdms.add_peer("T")
        data = {}
        for relation in ("A", "B"):
            top.add_relation(relation, ["x", "y"])
            for index in range(self.WIDTH):
                peer, stored = f"P{relation}{index}", f"s{relation.lower()}{index}"
                pdms.add_peer(peer)
                pdms.add_storage_description(StorageDescription(
                    peer, stored, parse_query(f"V(x, y) :- T:{relation}(x, y)"),
                    exact=False, name=f"store_{stored}",
                ))
                data[peer] = Instance.from_dict(
                    {stored: [(index, index + 1), (index + 1, index)]})
        return pdms, data, parse_query("Q(x, z) :- T:A(x, y), T:B(y, z)")

    def test_limit_one_compiles_a_small_prefix(self):
        from repro.pdms import QueryService
        from repro.pdms.planning import ensure_plan

        for engine in ("shared", "columnar", "distributed"):
            pdms, data, query = self._fan_out()
            # adaptive=False: the static path keeps its plan on the result.
            service = QueryService(pdms, data=data, engine=engine, adaptive=False)
            first = service.answer(query, limit=1)
            assert len(first) == 1
            plan = ensure_plan(service.reformulate(query))
            # (a worker pool keeps a window of 2 x workers roots in flight)
            assert 1 <= plan.stats.rewritings <= self.WIDTH, engine
            # The whole answer evaluates the tree: no further rewriting.
            full = service.answer(query)
            assert first <= full and len(full) > 1
            assert plan.stats.rewritings <= self.WIDTH, engine
            # The exhausted row stream is what compiles them all.
            assert set(service.stream(query)) == full
            assert plan.stats.rewritings == self.WIDTH ** 2, engine
