"""Distributed runtime benchmarks: overhead, scatter-gather, concurrency.

Three measurements:

* **transport_overhead** — the same workload answered by the plan path
  over the in-process federated source vs over a cluster's remote source
  behind the full loopback peer boundary: the wire contract's overhead,
  measured as relative throughput;
* **scatter_gather** — over sockets with injected per-RPC latency, one
  wave (``prefetch``) over a multi-peer scan set must beat the same scans
  issued as one cold scan each by **more than 2×** (the acceptance
  gate): the wave's frame waits out its peers' latencies side by side on
  the server, so *k* latent peers cost one latency, not *k*;
* **concurrent_clients** — N clients hammering one
  :class:`~repro.pdms.distributed.cluster.ServiceCluster` over a
  latency-injected transport vs the same mix issued sequentially.

Like the other benchmark modules, ``BENCH_distributed.json`` is written
next to this file when ``EVAL_BENCH_RECORD=1``, and ``EVAL_BENCH_QUICK=1``
shrinks the workloads for CI smoke runs.  The guarded headline ratios are
registered in ``compare_baselines.py``.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.pdms import (
    PDMS,
    AsyncSocketTransport,
    LoopbackTransport,
    QueryService,
    RemotePeerFactSource,
    ServiceCluster,
    StorageDescription,
)

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

#: Data-bearing peers in the fan-out workload.
PEERS = 6 if QUICK else 8
#: Rows per peer relation.
ROWS = 400 if QUICK else 2000
#: Injected per-RPC latency for the scatter/concurrency cases (seconds).
DELAY = 0.002
#: Concurrent clients in the throughput case.
CLIENTS = 6 if QUICK else 8
#: Queries per client in the throughput case.
CLIENT_QUERIES = 4 if QUICK else 8


def _best_seconds(callable_: Callable[[], object], rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def baseline_recorder():
    """Collect per-case numbers; write BENCH_distributed.json when asked."""
    results: Dict[str, Dict[str, float]] = {}
    yield results
    if os.environ.get("EVAL_BENCH_RECORD") != "1":
        return
    path = Path(__file__).resolve().parent / "BENCH_distributed.json"
    path.write_text(
        json.dumps({"quick_mode": QUICK, "cases": results}, indent=2, sort_keys=True)
        + "\n"
    )


def _fanout_workload(peers=PEERS, rows=ROWS):
    """``Q(x, y) :- T:R_i(x, y)`` per peer — one independent scan each.

    Every peer owns one stored relation feeding one peer relation; the
    union query over all of them scatter-gathers one scan per peer, the
    purest shape for measuring the peer boundary itself.
    """
    pdms = PDMS("fanout")
    top = pdms.add_peer("T")
    data: Dict[str, Instance] = {}
    rng = random.Random(17)
    queries = []
    for index in range(peers):
        relation = f"R{index}"
        top.add_relation(relation, ["x", "y"])
        peer_name = f"P{index}"
        stored = f"s_r{index}"
        pdms.add_peer(peer_name)
        pdms.add_storage_description(StorageDescription(
            peer_name, stored,
            parse_query(f"V(x, y) :- T:{relation}(x, y)"),
            exact=False, name=f"store_{stored}",
        ))
        data[peer_name] = Instance.from_dict({
            stored: {(rng.randrange(10_000), rng.randrange(10_000))
                     for _ in range(rows)},
        })
        queries.append(parse_query(f"Q(x, y) :- T:{relation}(x, y)"))
    # One query that touches every peer (distinct variables per atom pair
    # keep it cheap: it is a scan fan-out, not a giant join).
    return pdms, data, queries


def test_transport_overhead_vs_in_process(baseline_recorder):
    """The loopback peer boundary stays within sane overhead of in-process."""
    pdms, data, queries = _fanout_workload()
    in_process = QueryService(
        pdms, data=data, engine="columnar", fragment_cache_bytes=0)
    cluster = ServiceCluster(
        pdms=pdms, transport=LoopbackTransport(data), fragment_cache_bytes=0)
    expected = [in_process.answer(query) for query in queries]
    observed = [cluster.answer(query).rows for query in queries]
    assert [frozenset(rows) for rows in expected] == list(observed)

    rounds = 3 if QUICK else 5

    def run_in_process():
        for query in queries:
            in_process.answer(query)

    def run_distributed():
        for query in queries:
            cluster.answer(query)

    in_process_seconds = _best_seconds(run_in_process, rounds)
    distributed_seconds = _best_seconds(run_distributed, rounds)
    ratio = in_process_seconds / distributed_seconds

    baseline_recorder["transport_overhead"] = {
        "peers": float(PEERS),
        "rows_per_peer": float(ROWS),
        "in_process_seconds": in_process_seconds,
        "distributed_seconds": distributed_seconds,
        "loopback_relative_throughput": ratio,
    }
    # The boundary may cost something, but not an order of magnitude.
    assert ratio > 0.1, (
        f"loopback boundary is {1 / ratio:.1f}x slower than in-process"
    )
    cluster.close()


def test_scatter_gather_beats_serial_remote_scans(baseline_recorder):
    """Acceptance gate: one wave > 2× one cold scan per relation, on
    latent sockets."""
    pdms, data, queries = _fanout_workload()
    transport = AsyncSocketTransport(data, delay=DELAY)
    source = RemotePeerFactSource(transport)
    requests = [
        (f"s_r{index}", (WILDCARD, WILDCARD)) for index in range(PEERS)
    ]

    rounds = 3 if QUICK else 5

    def serial():
        source.drop_memo()
        for request in requests:
            source.scan_block(*request)

    def scattered():
        source.drop_memo()
        source.prefetch(requests)

    try:
        serial_seconds = _best_seconds(serial, rounds)
        scatter_seconds = _best_seconds(scattered, rounds)
        speedup = serial_seconds / scatter_seconds

        # Both paths fetched identical rows.
        source.drop_memo()
        source.prefetch(requests)
        total = sum(len(source.get_matching(*request)) for request in requests)
        assert total == sum(
            instance.total_rows() for instance in data.values()
        )
    finally:
        source.close()
        transport.close()

    baseline_recorder["scatter_gather"] = {
        "peers": float(PEERS),
        "scans": float(len(requests)),
        "injected_delay_seconds": DELAY,
        "serial_seconds": serial_seconds,
        "scatter_seconds": scatter_seconds,
        "speedup_vs_serial": speedup,
    }
    assert speedup > 2.0, (
        f"scatter-gather only {speedup:.2f}x over serial remote scans"
    )


def test_throughput_under_concurrent_clients(baseline_recorder):
    """N clients over one cluster beat the same mix issued sequentially."""
    pdms, data, queries = _fanout_workload()
    transport = LoopbackTransport(data, delay=DELAY / 2)
    cluster = ServiceCluster(pdms=pdms, transport=transport)
    mix = [
        queries[(client + step) % len(queries)]
        for client in range(CLIENTS)
        for step in range(CLIENT_QUERIES)
    ]
    # Warm the reformulation/plan caches so both arms measure execution.
    for query in queries:
        cluster.answer(query)

    rounds = 3 if QUICK else 4

    def sequential():
        for query in mix:
            cluster.answer(query)

    def concurrent():
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            list(pool.map(cluster.answer, mix))

    sequential_seconds = _best_seconds(sequential, rounds)
    concurrent_seconds = _best_seconds(concurrent, rounds)
    speedup = sequential_seconds / concurrent_seconds

    baseline_recorder["concurrent_clients"] = {
        "clients": float(CLIENTS),
        "queries": float(len(mix)),
        "sequential_seconds": sequential_seconds,
        "concurrent_seconds": concurrent_seconds,
        "concurrency_speedup": speedup,
        "throughput_qps": len(mix) / concurrent_seconds,
    }
    assert speedup > 1.2, (
        f"concurrent clients only {speedup:.2f}x over sequential"
    )
    cluster.close()
