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
* ``split`` — the same over a loopback serving each peer's rows dealt
  round-robin across two worker peers (:func:`split_round_robin`): every
  relation has two owners, so every scan fans out and unions, and every
  version token combines two.

On every source, for the paper's emergency-services scenario and for
random :func:`pdms_specs` systems, the plan path (a whole answer, the
streamed answer, and a :class:`QueryService` cold and warm) ≡ the
``backtracking`` oracle over the same source ≡ the chase over the
combined instances, and a remote source reports ``complete``.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings

from repro.pdms import (
    AsyncSocketTransport,
    LoopbackTransport,
    PeerFactSource,
    QueryService,
    RemotePeerFactSource,
    certain_answers,
    combine_peer_instances,
    evaluate_distributed,
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


def split_round_robin(data, ways=2):
    """Each peer's rows dealt round-robin across ``ways`` worker peers.

    Peer ``P``'s workers are ``P#0`` … and each declares every relation
    ``P`` declares (empty or not), so each relation has ``ways`` owners
    per peer that stores it.  The workers are copies of the data.
    """
    workers = {}
    for peer, instance in data.items():
        parts = [instance.copy() for _ in range(ways)]
        for part in parts:
            part.clear()
        for relation in instance.relations():
            for index, row in enumerate(instance.get_tuples(relation)):
                parts[index % ways].add(relation, row)
        workers.update((f"{peer}#{index}", part) for index, part in enumerate(parts))
    return workers


@contextmanager
def open_source(kind, data):
    """The ``kind`` source over per-peer ``data``, closed on exit."""
    if kind == "in-process":
        yield PeerFactSource(data)
        return
    instances = split_round_robin(data) if kind == "split" else data
    transport = (
        AsyncSocketTransport(instances) if kind == "socket"
        else LoopbackTransport(instances)
    )
    try:
        source = RemotePeerFactSource(transport)
        try:
            yield source
        finally:
            source.close()
    finally:
        transport.close()


def check_queries(pdms, queries, source, data):
    """plan ≡ oracle ≡ chase for every query over ``source``; a remote
    source reports every answer complete."""
    remote = isinstance(source, RemotePeerFactSource)
    service = QueryService(pdms, data=source)
    combined = combine_peer_instances(data)
    for query in queries:
        chase = certain_answers(pdms, query, combined)
        result = reformulate(pdms, query)
        plan = evaluate_reformulation(result, source)
        oracle = evaluate_rewritings(result, source)
        assert plan == oracle == chase, query
        streamed = list(stream_answers(result, source))
        assert len(streamed) == len(set(streamed)), query
        assert set(streamed) == chase, query
        for _ in range(2):  # cold, then warm from the service's caches
            assert service.answer(query) == chase, query
        if remote:
            answer = evaluate_distributed(result, source)
            assert answer.complete and not answer.failures, query
            assert answer.rows == frozenset(chase), query
    if remote:
        assert source.complete and source.failure_count == 0


@pytest.mark.parametrize("kind", SOURCES)
def test_golden_scenario(kind):
    pdms = build_emergency_services()
    data = sample_peer_instances()
    with open_source(kind, data) as source:
        check_queries(pdms, list(example_queries().values()), source, data)


@pytest.mark.parametrize("kind", SOURCES)
@given(spec=pdms_specs())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_random_pdms(kind, spec):
    pdms, data, queries = build_pdms(spec)
    with open_source(kind, data) as source:
        check_queries(pdms, queries, source, data)
