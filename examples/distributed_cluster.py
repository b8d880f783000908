#!/usr/bin/env python3
"""The emergency-services scenario on a real 4-peer socket cluster.

Each data-bearing peer of the Figure-1 scenario — First Hospital (FH),
Lakeview Hospital (LH), the Portland and Vancouver fire districts (PFD,
VFD) — is served over **TCP** behind an
:class:`~repro.pdms.distributed.async_transport.AsyncSocketTransport`.  A
:class:`~repro.pdms.distributed.cluster.ServiceCluster` answers the
scenario's queries through the ``"distributed"`` engine: every stored-
relation scan crosses the socket as a framed RPC, and the scans of one
scatter wave share one batch frame.

The second act injects a peer failure (Lakeview drops off the network)
and shows the runtime degrading honestly: answers shrink to a *sound
subset* and the ``complete`` flag turns ``False`` — then recovery
restores exact answers, because no degraded fragment was ever admitted
to a version-keyed cache.

Run it with::

    python examples/distributed_cluster.py
"""

from repro.datalog import parse_query
from repro.pdms import AsyncSocketTransport, ServiceCluster
from repro.workload import (
    build_emergency_services,
    example_queries,
    sample_peer_instances,
)


def print_answers(label, answers):
    print(f"\n=== {label}")
    for name, answer in answers:
        flag = "complete" if answer.complete else "INCOMPLETE"
        print(f"  {name:34s} -> {len(answer.rows):2d} answers  [{flag}]")
        for failure in answer.failures[:2]:
            print(f"      lost: peer {failure.peer!r} / {failure.relation}")


def print_traffic(transport):
    print("\nper-peer scan traffic so far:")
    for peer in transport.peers():
        print(f"  {peer:4s} {transport.scan_count(peer):4d} scans")


def main() -> None:
    pdms = build_emergency_services()
    per_peer = sample_peer_instances()
    with AsyncSocketTransport(per_peer) as transport:
        host, port = transport.address
        print(f"serving {len(per_peer)} peers on {host}:{port}: {sorted(per_peer)}")
        with ServiceCluster(pdms=pdms, transport=transport, max_inflight=4) as cluster:
            queries = list(example_queries().items())

            # Act 1: the whole prepared query mix, fanned out concurrently.
            answers = cluster.answer_many([query for _, query in queries])
            print_answers("fault-free cluster answers",
                          [(name, answer) for (name, _), answer
                           in zip(queries, answers)])
            print_traffic(transport)

            # Act 2: Lakeview Hospital drops off the network mid-operation.
            print("\n" + "=" * 72)
            print("Injected failure: Lakeview Hospital (LH) is unreachable.")
            print("=" * 72)
            transport.fail_peer("LH")
            bed_query = parse_query("Q(bid, cls) :- ECC:Bed(bid, loc, cls)")
            degraded = cluster.answer(bed_query)
            print_answers("beds the ECC can route victims to, LH down",
                          [("ecc_beds", degraded)])

            # Act 3: recovery — same query, exact again.
            transport.restore_peer("LH")
            healed = cluster.answer(bed_query)
            print_answers("beds the ECC can route victims to, recovered",
                          [("ecc_beds", healed)])
            assert healed.complete and degraded.rows <= healed.rows

            print_traffic(transport)
            snapshot = cluster.describe()
            print(f"\ncluster: served={snapshot['served']} "
                  f"peak_inflight={snapshot['peak_inflight']} "
                  f"(bound {snapshot['max_inflight']}), "
                  f"transport failures={snapshot['transport_failures']}")
            service = snapshot["service"]
            print(f"service cache: {service['hits']} hits / "
                  f"{service['misses']} misses; fragment hit rate "
                  f"{service['fragments']['hit_rate']:.0%}")


if __name__ == "__main__":
    main()
