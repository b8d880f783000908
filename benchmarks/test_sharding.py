"""Sharding benchmarks: scale-out and partition pruning.

Backs the ISSUE-8 acceptance criteria:

* **churn_scaling** — a churn workload (every answer is followed by a
  routed insert, so every answer must re-scan) served by one worker vs
  the same relation hash-partitioned across four workers, on a transport
  whose per-row cost is a GIL-released sleep.  The remote source's
  scatter wave scans the four shards concurrently, so QPS must scale **≥ 2.5×** from
  1 → 4 workers (the acceptance gate);
* **partition_pruning** — a constant-bound point lookup must touch only
  the shard that owns the constant (per-shard scan counters), while the
  full scan still fans out to every shard.

``BENCH_sharding.json`` is written next to this file when
``EVAL_BENCH_RECORD=1``; ``EVAL_BENCH_QUICK=1`` shrinks the workloads
for CI smoke runs.  Headline ratios are guarded in
``compare_baselines.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.pdms import (
    PDMS,
    LoopbackTransport,
    ServiceCluster,
    StorageDescription,
    auto_shard,
)

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

#: Rows in the sharded relation.
ROWS = 600 if QUICK else 2000
#: Worker count for the scaled arm (the acceptance gate is 1 → 4).
SHARDS = 4
#: Per-row transport cost (seconds) — a GIL-released sleep, standing in
#: for wire serialisation + remote scan work.  This is what makes shard
#: scans overlap: four concurrent quarter-size scans finish in a quarter
#: of the time of one serial full-size scan.
ROW_COST = 100e-6 if QUICK else 50e-6
#: answer+insert iterations per churn measurement.
CHURN_STEPS = 4 if QUICK else 8


def _best_seconds(callable_: Callable[[], object], rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def baseline_recorder():
    """Collect per-case numbers; write BENCH_sharding.json when asked."""
    results: Dict[str, Dict[str, float]] = {}
    yield results
    if os.environ.get("EVAL_BENCH_RECORD") != "1":
        return
    path = Path(__file__).resolve().parent / "BENCH_sharding.json"
    path.write_text(
        json.dumps({"quick_mode": QUICK, "cases": results}, indent=2, sort_keys=True)
        + "\n"
    )


def _single_relation_pdms() -> PDMS:
    pdms = PDMS("sharding-bench")
    top = pdms.add_peer("T")
    top.add_relation("R", ["x", "y"])
    pdms.add_peer("P")
    pdms.add_storage_description(StorageDescription(
        "P", "sr", parse_query("V(x, y) :- T:R(x, y)"),
        exact=False, name="store_sr",
    ))
    return pdms


def _dataset(rows: int = ROWS) -> Instance:
    return Instance.from_dict({"sr": {(i, i % 97) for i in range(rows)}})


def _sharded_cluster(shards: int, row_cost: float = ROW_COST) -> tuple:
    """A ServiceCluster over ``shards`` workers holding ``sr``."""
    shard_map, workers = auto_shard({"P": _dataset()}, shards)
    transport = LoopbackTransport(workers, row_cost=row_cost)
    # delta=False: this benchmark measures how *full-relation* re-scans
    # scale with scatter width; delta-shipping would reduce every churn
    # re-scan to a single shipped row and both arms would measure fixed
    # overhead (the delta path has its own benchmark in
    # test_tail_latency.py).
    cluster = ServiceCluster(
        pdms=_single_relation_pdms(), transport=transport,
        shard_map=shard_map if shards > 1 else None,
        delta=False,
    )
    return cluster, transport, workers


def test_churn_qps_scales_with_workers(baseline_recorder):
    """Acceptance gate: churn QPS scales ≥ 2.5× from 1 to 4 workers."""
    full_scan = parse_query("Q(x, y) :- T:R(x, y)")

    def churn_arm(shards: int) -> float:
        cluster, _, _ = _sharded_cluster(shards)
        next_key = ROWS
        with cluster:
            # Warm reformulation/plan caches so both arms measure execution.
            cluster.answer(full_scan)

            def steps():
                nonlocal next_key
                for _ in range(CHURN_STEPS):
                    # Insert first: the answer below must re-scan.
                    cluster.insert("sr", [(next_key, next_key % 97)])
                    next_key += 1
                    answer = cluster.answer(full_scan)
                    assert answer.complete
            return _best_seconds(steps, 2 if QUICK else 3)

    single_seconds = churn_arm(1)
    sharded_seconds = churn_arm(SHARDS)
    single_qps = CHURN_STEPS / single_seconds
    sharded_qps = CHURN_STEPS / sharded_seconds
    scaling = sharded_qps / single_qps

    baseline_recorder["churn_scaling"] = {
        "rows": float(ROWS),
        "workers": float(SHARDS),
        "row_cost_seconds": ROW_COST,
        "churn_steps": float(CHURN_STEPS),
        "single_worker_qps": single_qps,
        "sharded_qps": sharded_qps,
        "qps_scaling_1_to_4": scaling,
    }
    assert scaling > 2.5, (
        f"churn QPS only scaled {scaling:.2f}x from 1 to {SHARDS} workers"
    )


def test_point_lookup_touches_only_owning_shard(baseline_recorder):
    """A constant-bound lookup is pruned to one shard; full scans fan out."""
    cluster, transport, workers = _sharded_cluster(SHARDS, row_cost=0.0)
    with cluster:
        # Full scan: every shard is scanned exactly once.
        answer = cluster.answer(parse_query("Q(x, y) :- T:R(x, y)"))
        assert answer.complete and len(answer.rows) == ROWS
        fanout_counts = {p: transport.scan_count(p) for p in workers}
        assert all(count >= 1 for count in fanout_counts.values())

        # Point lookups: only the owning shard's counter may move.
        lookups = 32
        before = {p: transport.scan_count(p) for p in workers}
        for key in range(lookups):
            rows = cluster.answer(parse_query(f"Q(y) :- T:R({key}, y)")).rows
            assert rows == frozenset({(key % 97,)})
        touched = {
            p: transport.scan_count(p) - before[p]
            for p in workers
            if transport.scan_count(p) > before[p]
        }
        total_scans = sum(touched.values())
        scatter = cluster.describe()["scatter"]

    # Each pruned lookup issues exactly one shard scan — N lookups cost N
    # scans instead of N × SHARDS.
    assert total_scans == lookups, touched
    assert scatter["pruned_scans"] >= lookups
    prune_factor = (lookups * SHARDS) / total_scans

    baseline_recorder["partition_pruning"] = {
        "workers": float(SHARDS),
        "point_lookups": float(lookups),
        "shard_scans_issued": float(total_scans),
        "pruned_scans": float(scatter["pruned_scans"]),
        "fanout_scans": float(scatter["fanout_scans"]),
        "scan_prune_factor": prune_factor,
    }
    assert prune_factor == float(SHARDS)
