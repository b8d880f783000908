"""Property-based tests for the query-answering service layer.

The central invariant, over random small PDMSs and random catalogue-churn
sequences (join peer → query → remove peer → query):

    ``QueryService.answer`` ≡ a fresh ``answer_query`` ≡ the chase oracle
    (``certain_answers``)

at *every* point of the churn — i.e. the reformulation cache with
provenance-based invalidation is indistinguishable from re-reformulating
from scratch, and both agree with the paper's Definition-2.2 semantics on
the tractable fragment.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Instance
from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    Peer,
    QueryService,
    StorageDescription,
    answer_query,
    certain_answers,
    combine_peer_instances,
    lav_style,
)

from .strategies import churn_specs, pdms_specs

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _chain(name, relations, prefix):
    variables = [Variable(f"{prefix}{i}") for i in range(len(relations) + 1)]
    body = [
        Atom(relation, [variables[i], variables[i + 1]])
        for i, relation in enumerate(relations)
    ]
    return ConjunctiveQuery(Atom(name, [variables[0], variables[-1]]), body)


def build_pdms(spec):
    """Materialise a :func:`pdms_specs` spec into (PDMS, per-peer data)."""
    pdms = PDMS("prop")
    data = {}
    top = pdms.add_peer("T")
    for relation in spec["top_relations"]:
        top.add_relation(relation.partition(":")[2], ["a", "b"])
    for entry in spec["bottom"]:
        peer = pdms.add_peer(entry["peer"])
        peer.add_relation(entry["relation"].partition(":")[2], ["a", "b"])
        pdms.add_storage_description(StorageDescription(
            entry["peer"], entry["stored"],
            _chain(entry["stored"], [entry["relation"]], prefix="s"),
            exact=False, name=f"store_{entry['stored']}",
        ))
        instance = Instance()
        instance.add_all(entry["stored"], entry["rows"])
        data[entry["peer"]] = instance
    for mapping in spec["mappings"]:
        if mapping["kind"] == "definitional":
            pdms.add_peer_mapping(DefinitionalMapping(
                _chain(mapping["head"], mapping["chain"], prefix="d"),
                name=mapping["name"],
            ))
        else:
            pdms.add_peer_mapping(lav_style(
                _chain(mapping["left"], [mapping["left"]], prefix="l").head,
                _chain("R", [mapping["right"]], prefix="r"),
                name=mapping["name"],
            ))
    queries = [_chain("Q", relations, prefix="q") for relations in spec["queries"]]
    return pdms, data, queries


def _join_satellite(service, satellite, top_relations, data):
    """Apply one satellite join through the service; returns its query."""
    target = top_relations[satellite["target_index"] % len(top_relations)]
    peer = Peer(satellite["peer"])
    peer.add_relation(satellite["relation"].partition(":")[2], ["a", "b"])
    service.add_peer(peer)
    if satellite["role"] == "provider":
        service.add_peer_mapping(lav_style(
            _chain(satellite["relation"], [satellite["relation"]], prefix="j").head,
            _chain("R", [target], prefix="k"),
            name=f"sat_map_{satellite['peer']}",
        ))
        stored = f"sat_store_{satellite['peer']}"
        service.add_storage_description(StorageDescription(
            satellite["peer"], stored,
            _chain(stored, [satellite["relation"]], prefix="m"),
            exact=False, name=f"sat_desc_{satellite['peer']}",
        ))
        instance = Instance()
        instance.add_all(stored, satellite["rows"])
        service.set_peer_data(satellite["peer"], instance)
        data[satellite["peer"]] = instance
        return None
    service.add_peer_mapping(DefinitionalMapping(
        _chain(satellite["relation"], [target], prefix="c"),
        name=f"sat_map_{satellite['peer']}",
    ))
    return _chain("Q", [satellite["relation"]], prefix="q")


def _check_three_way(service, query, data):
    combined = combine_peer_instances(data)
    served = service.answer(query)
    fresh = answer_query(service.pdms, query, combined, engine="backtracking")
    oracle = certain_answers(service.pdms, query, combined)
    assert served == fresh, f"service != fresh on {query}"
    assert served == oracle, f"service != oracle on {query}"


class TestServiceEquivalence:
    @given(spec=pdms_specs())
    @settings(max_examples=40, **COMMON)
    def test_static_answers_match_fresh_and_oracle(self, spec):
        pdms, data, queries = build_pdms(spec)
        service = QueryService(pdms, data=data)
        for query in queries:
            _check_three_way(service, query, data)
        # Second pass is served from cache and must still agree.
        for query in queries:
            _check_three_way(service, query, data)
        assert service.stats.hits >= len(queries)

    @given(spec=pdms_specs(), churn=churn_specs())
    @settings(max_examples=30, **COMMON)
    def test_churn_sequence_preserves_equivalence(self, spec, churn):
        """join peer → query → remove peer → query, against both oracles."""
        pdms, data, queries = build_pdms(spec)
        service = QueryService(pdms, data=data)
        for query in queries:
            _check_three_way(service, query, data)
        for satellite in churn:
            extra_query = _join_satellite(
                service, satellite, spec["top_relations"], data)
            for query in queries:
                _check_three_way(service, query, data)
            if extra_query is not None:
                _check_three_way(service, extra_query, data)
            service.remove_peer(satellite["peer"])
            data.pop(satellite["peer"], None)
            for query in queries:
                _check_three_way(service, query, data)

    @given(spec=pdms_specs(), limit=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, **COMMON)
    def test_limited_answers_are_subsets(self, spec, limit):
        pdms, data, queries = build_pdms(spec)
        service = QueryService(pdms, data=data)
        for query in queries:
            full = service.answer(query)
            limited = service.answer(query, limit=limit)
            assert limited <= full
            assert len(limited) == min(limit, len(full))

    @given(spec=pdms_specs())
    @settings(max_examples=20, **COMMON)
    def test_both_engines_agree_through_the_service(self, spec):
        pdms, data, queries = build_pdms(spec)
        backtracking = QueryService(pdms, data=data, engine="backtracking")
        for query in queries:
            assert backtracking.answer(query) == backtracking.answer(
                query, engine="columnar")
