"""The differential transport matrix: one evaluation path over four sources.

Where scans run is the fact source's choice, not the engine name's.  This
suite answers the same queries over each kind of source the library
offers, each built explicitly:

* ``in-process`` — a :class:`PeerFactSource` over the live per-peer
  instances;
* ``loopback`` — a :class:`RemotePeerFactSource` over a
  :class:`LoopbackTransport` serving the same instances;
* ``socket`` — the same over an :class:`AsyncSocketTransport` (real TCP
  on 127.0.0.1, column frames on the wire);
* ``split`` — the same over a loopback serving the data split the PPL way
  (:func:`split_round_robin`): each stored relation dealt round-robin
  into two stored relations at two worker peers, each described by its
  own copy of the original storage description, so every peer relation
  is a union of sibling descriptions.

On every source, for the paper's emergency-services scenario and for
random :func:`pdms_specs` systems, the plan path (a whole answer, the
streamed answer, and a :class:`QueryService` cold and warm) over the
served system ≡ the ``backtracking`` oracle over the same source ≡ the
chase of the *original* system over the *original* data, and a remote
source ends with no failure recorded.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.database import Instance
from repro.pdms import (
    PDMS,
    AsyncSocketTransport,
    LoopbackTransport,
    PeerFactSource,
    QueryService,
    RemotePeerFactSource,
    certain_answers,
    evaluate_reformulation,
    evaluate_rewritings,
    reformulate,
    stream_answers,
)
from repro.workload import (
    build_emergency_services,
    example_queries,
    sample_peer_instances,
)

from .strategies import pdms_specs
from .test_service_properties import build_pdms

SOURCES = ("in-process", "loopback", "socket", "split")


def split_round_robin(pdms, data, ways=2):
    """``(system, worker instances)``: ``pdms`` and its per-peer ``data``
    with every stored relation split the PPL way.

    Stored relation ``s`` becomes ``s#0`` … ``s#{ways-1}``, its rows dealt
    round-robin.  Part ``i`` of peer ``P``'s relations is served by the
    worker peer ``P#i``, and each part is described by a copy of ``s``'s
    storage description with the stored name replaced.  Every description
    split here is sound (``exact=False``), so each copy is too, and the
    split system has the original's certain answers.
    """
    split = PDMS(f"{pdms.name}-split")
    for peer in pdms.peers():
        copy = split.add_peer(peer.name)
        for schema in peer.peer_relations():
            copy.add_relation(schema.name.partition(":")[2], schema.attributes)
    for mapping in pdms.peer_mappings():
        split.add_peer_mapping(mapping)
    for description in pdms.storage_descriptions():
        assert not description.exact, description
        for index in range(ways):
            split.add_storage_description(replace(
                description,
                relation=f"{description.relation}#{index}",
                name=f"{description.name}#{index}",
            ))
    return split, deal_round_robin(data, ways)


def deal_round_robin(data, ways=2):
    """Peer ``P``'s relation ``s`` dealt round-robin into ``s#0`` …, part
    ``i`` held by the worker peer ``P#i``.  A part dealt no row is still
    declared, empty, so each part has its owner from the start."""
    workers = {}
    for peer, instance in data.items():
        parts = [Instance() for _ in range(ways)]
        for relation in instance.relations():
            rows = sorted(instance.get_tuples(relation), key=repr)
            for index, part in enumerate(parts):
                name = f"{relation}#{index}"
                if rows and not rows[index::ways]:
                    part.add(name, rows[0])
                    part.clear(name)
                part.add_all(name, rows[index::ways])
        workers.update((f"{peer}#{index}", part) for index, part in enumerate(parts))
    return workers


def unsplit(instances):
    """The served rows in one instance, under the original stored names."""
    combined = Instance()
    for instance in instances.values():
        for relation in instance.relations():
            combined.add_all(relation.partition("#")[0], instance.get_tuples(relation))
    return combined


@contextmanager
def open_source(kind, data):
    """The ``kind`` source (not ``split``) over per-peer ``data``, closed
    on exit."""
    with open_served(kind, None, data) as (_, source, _):
        yield source


@contextmanager
def open_served(kind, pdms, data):
    """``(system, source, the instances it serves)`` for the ``kind``
    source over per-peer ``data`` — the split source serves
    :func:`split_round_robin`'s system and workers — closed on exit."""
    if kind == "in-process":
        yield pdms, PeerFactSource(data), data
        return
    served, instances = split_round_robin(pdms, data) if kind == "split" else (pdms, data)
    transport = (
        AsyncSocketTransport(instances) if kind == "socket"
        else LoopbackTransport(instances)
    )
    try:
        source = RemotePeerFactSource(transport)
        try:
            yield served, source, instances
        finally:
            source.close()
    finally:
        transport.close()


def check_queries(kind, pdms, queries, data):
    """plan ≡ oracle over the ``kind`` source ≡ the chase of ``pdms`` over
    ``data``, for every query; a remote source records no failure."""
    combined = unsplit(data)
    with open_served(kind, pdms, data) as (served, source, _):
        service = QueryService(served, data=source)
        for query in queries:
            chase = certain_answers(pdms, query, combined)
            result = reformulate(served, query)
            plan = evaluate_reformulation(result, source)
            oracle = evaluate_rewritings(result, source)
            assert plan == oracle == chase, query
            streamed = list(stream_answers(result, source))
            assert len(streamed) == len(set(streamed)), query
            assert set(streamed) == chase, query
            for _ in range(2):  # cold, then warm from the service's caches
                assert service.answer(query) == chase, query
        if isinstance(source, RemotePeerFactSource):
            assert source.complete and source.failure_count == 0


@pytest.mark.parametrize("kind", SOURCES)
def test_golden_scenario(kind):
    queries = list(example_queries().values())
    check_queries(kind, build_emergency_services(), queries, sample_peer_instances())


@pytest.mark.parametrize("kind", SOURCES)
def test_writes_between_reads(kind):
    """Rows appended between the reads of a warm service — new rows, a
    row already stored, both sides of a join — are in the next answer
    (≡ oracle ≡ chase of the original system over the grown data), and
    the stale fragments are stepped by the new rows on every source."""
    pdms = build_emergency_services()
    queries = list(example_queries().values())
    with open_served(kind, pdms, sample_peer_instances()) as (served, source, instances):
        service = QueryService(served, data=source)
        for query in queries:
            service.answer(query)
        written = [
            (instance, relation)
            for instance in instances.values()
            for relation in instance.relations()
            if instance.cardinality(relation)
        ]
        for round_number in range(3):
            for instance, relation in written[round_number::3]:
                stored = sorted(instance.get_tuples(relation), key=repr)
                fresh = tuple(f"new{round_number}" for _ in stored[0])
                instance.add_all(relation, [stored[0], fresh, stored[-1][:1] + fresh[1:]])
            combined = unsplit(instances)
            for query in queries:
                chase = certain_answers(pdms, query, combined)
                result = reformulate(served, query)
                assert service.answer(query) == evaluate_rewritings(result, source) == chase
        if isinstance(source, RemotePeerFactSource):
            assert source.complete and source.failure_count == 0
        assert service.fragment_cache.stats.deltas > 0


@pytest.mark.parametrize("kind", SOURCES)
@given(spec=pdms_specs())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_random_pdms(kind, spec):
    pdms, data, queries = build_pdms(spec)
    check_queries(kind, pdms, queries, data)
