"""Tail-latency benchmarks: hedging, retry completeness, delta re-scans.

Backs the ISSUE-9 acceptance criteria:

* **hedged_vs_unhedged** — the acceptance gate: with one replica of a
  two-member placement group slowed 10×, the hedge duplicates the request
  to the fast replica after a small fixed delay instead of waiting out
  the slow primary.  Gated on what hedging guarantees under the injected
  delays, whatever the host load: the hedge wins ≥ 90 % of the scans,
  the hedged p99 stays **under** the slow primary's delay and the
  unhedged p99 cannot be under it.  The hedged arm takes 200 samples so
  its p99 is the second-largest latency, not the largest: one scheduler
  stall on a loaded host is the 1 % a p99 leaves out.  Every unhedged
  scan waits out the injected delay, so that arm's gate holds at any
  sample count and it keeps 60.  The p99 ratio (≈ 3× on an idle
  host) is recorded, not asserted: it divides by a 15 ms wall-clock
  sample and read 2.8× whenever the host was busy;
* **retry_completeness** — a churn workload over a transport that drops
  every n-th scan RPC, run under the bounded-retry policy, must end with
  **every** answer ``complete=True``: transient faults are healed, not
  surfaced (``healed_complete`` is the fraction of complete answers and
  is gated at exactly 1.0);
* **delta_vs_full** — repeated re-scans of a growing relation through
  the delta-shipping cursor path vs a ``delta=False`` twin; both agree
  row-for-row while the delta arm ships orders of magnitude fewer rows
  (``rows_ratio`` = full-rescan rows / delta rows, deterministic for a
  given workload size).

``BENCH_tail_latency.json`` is written next to this file when
``EVAL_BENCH_RECORD=1``; ``EVAL_BENCH_QUICK=1`` shrinks the workloads
for CI smoke runs.  Headline ratios are guarded in
``compare_baselines.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.pdms import (
    PDMS,
    AsyncSocketTransport,
    LoopbackTransport,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
    ShardMap,
    StorageDescription,
)

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

#: Per-scan latency samples for the unhedged p99 arm.
SAMPLES = 24 if QUICK else 60
#: Samples for the hedged arm: at 200, ``_p99`` is the second-largest
#: latency, so a single stall of the test process is not its p99.
HEDGED_SAMPLES = 200
#: The fast replica's wire latency and the slow primary's (10× slower).
#: Milliseconds-scale so scheduler jitter cannot swamp the p99 gap.
FAST_DELAY = 5e-3
SLOW_DELAY = 50e-3
#: Fixed hedge delay: fire the duplicate once the primary exceeds the
#: fast replica's expected latency.
HEDGE_DELAY = 5e-3
#: answer+insert iterations for the retry-completeness churn run.
CHURN_STEPS = 12 if QUICK else 30
#: Base relation size and growth rounds for the delta arm.
DELTA_ROWS = 400 if QUICK else 1500
DELTA_ROUNDS = 10 if QUICK else 25

ALL = (WILDCARD, WILDCARD)

#: Deterministic policies: no backoff sleeps, no jitter.
FAST_POLICY = dict(backoff=0.0, backoff_cap=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def baseline_recorder():
    """Collect per-case numbers; write BENCH_tail_latency.json when asked."""
    results: Dict[str, Dict[str, float]] = {}
    yield results
    if os.environ.get("EVAL_BENCH_RECORD") != "1":
        return
    path = Path(__file__).resolve().parent / "BENCH_tail_latency.json"
    path.write_text(
        json.dumps({"quick_mode": QUICK, "cases": results}, indent=2, sort_keys=True)
        + "\n"
    )


def _p99(samples) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _replicated_source(policy: ScanPolicy):
    """One relation on a two-replica placement group; ``A`` is the primary.

    Served over :class:`AsyncSocketTransport`: the hedging race needs
    genuinely cancellable in-flight RPCs — an abandoned slow primary must
    cost nothing, not occupy a worker thread for its full latency.
    """
    instance = Instance.from_dict(
        {"sr": {(i, i % 97) for i in range(HEDGED_SAMPLES * 2)}}
    )
    shard_map = ShardMap().shard_by_hash("sr", 0, [("A", "B")])
    transport = AsyncSocketTransport({"A": instance, "B": instance})
    source = RemotePeerFactSource(transport, shard_map=shard_map, policy=policy)
    # Chaos after construction so the describe round stays fast.
    transport.set_peer_delay("A", SLOW_DELAY)
    transport.set_peer_delay("B", FAST_DELAY)
    return source, transport


def test_hedged_p99_beats_unhedged_with_one_slow_peer(baseline_recorder):
    """Acceptance gate: one peer slowed 10× — the hedge wins the scans and
    keeps p99 under the slow peer's delay, which unhedged scans must pay."""

    def measure(policy: ScanPolicy, samples: int):
        source, transport = _replicated_source(policy)
        try:
            # Unmeasured warmup: establish pooled connections and spin up
            # the executors so start-up cost never lands in a sample.
            for key in range(samples, samples + 3):
                source.get_matching("sr", (key, WILDCARD))
            latencies = []
            for key in range(samples):
                start = time.perf_counter()
                rows = source.get_matching("sr", (key, WILDCARD))
                latencies.append(time.perf_counter() - start)
                assert rows == ((key, key % 97),)
            assert source.complete
            return _p99(latencies), source.scatter_stats()
        finally:
            source.close()
            transport.close()

    unhedged_p99, unhedged_stats = measure(
        ScanPolicy(retries=0, hedging=False, **FAST_POLICY), SAMPLES
    )
    hedged_p99, hedged_stats = measure(
        ScanPolicy(retries=0, hedge=HEDGE_DELAY, hedging=True, **FAST_POLICY),
        HEDGED_SAMPLES,
    )
    assert unhedged_stats["hedges_fired"] == 0
    assert hedged_stats["hedges_fired"] >= HEDGED_SAMPLES * 0.9
    improvement = unhedged_p99 / hedged_p99

    baseline_recorder["hedged_vs_unhedged"] = {
        "samples": float(SAMPLES),
        "hedged_samples": float(HEDGED_SAMPLES),
        "slow_peer_delay_seconds": SLOW_DELAY,
        "fast_peer_delay_seconds": FAST_DELAY,
        "hedge_delay_seconds": HEDGE_DELAY,
        "unhedged_p99_ms": unhedged_p99 * 1000.0,
        "hedged_p99_ms": hedged_p99 * 1000.0,
        "hedges_won": float(hedged_stats["hedges_won"]),
        "p99_improvement": improvement,
    }
    assert hedged_stats["hedges_won"] >= HEDGED_SAMPLES * 0.9
    assert hedged_p99 < SLOW_DELAY <= unhedged_p99, (
        f"p99 {unhedged_p99 * 1e3:.1f}ms unhedged -> {hedged_p99 * 1e3:.1f}ms "
        f"hedged around a {SLOW_DELAY * 1e3:.0f}ms slow peer"
    )


def test_transient_faults_end_complete_under_retries(baseline_recorder):
    """Acceptance gate: a churn run over a drop-every-3rd-scan transport
    ends with every answer ``complete=True`` — retries heal the faults."""
    pdms = PDMS("tail-latency-bench")
    top = pdms.add_peer("T")
    top.add_relation("R", ["x", "y"])
    pdms.add_peer("P")
    pdms.add_storage_description(StorageDescription(
        "P", "sr", parse_query("V(x, y) :- T:R(x, y)"),
        exact=False, name="store_sr",
    ))
    instance = Instance.from_dict({"sr": {(i, i % 97) for i in range(200)}})
    transport = LoopbackTransport({"P": instance}, drop_every_n=3)
    query = parse_query("Q(x, y) :- T:R(x, y)")

    complete_answers = 0
    with ServiceCluster(
        pdms=pdms,
        transport=transport,
        scan_policy=ScanPolicy(retries=2, hedging=False, **FAST_POLICY),
    ) as cluster:
        next_key = 200
        for _ in range(CHURN_STEPS):
            cluster.insert("sr", [(next_key, next_key % 97)])
            next_key += 1
            answer = cluster.answer(query)
            assert len(answer.rows) == next_key
            complete_answers += bool(answer.complete)
        stats = cluster.source.scatter_stats()
        assert cluster.source.failure_count == 0

    assert stats["retries"] >= 1, "the chaos hook never actually dropped a scan"
    healed_complete = complete_answers / CHURN_STEPS

    baseline_recorder["retry_completeness"] = {
        "churn_steps": float(CHURN_STEPS),
        "drop_every_n": 3.0,
        "retries_fired": float(stats["retries"]),
        "complete_answers": float(complete_answers),
        "healed_complete": healed_complete,
    }
    assert healed_complete == 1.0


def test_delta_rescans_ship_a_fraction_of_full_rescans(baseline_recorder):
    """Delta re-scans agree with full re-scans row-for-row while shipping
    only the newly inserted rows across the wire."""
    instance = Instance.from_dict({"sr": {(i, i % 97) for i in range(DELTA_ROWS)}})
    delta_source = RemotePeerFactSource(LoopbackTransport({"P": instance}))
    full_source = RemotePeerFactSource(
        LoopbackTransport({"P": instance}), delta=False
    )
    # Prime both arms with the unavoidable initial full scan.
    assert (
        set(delta_source.get_matching("sr", ALL))
        == set(full_source.get_matching("sr", ALL))
    )
    primed_full_rows = full_source.scatter_stats()["full_rows_shipped"]

    for round_no in range(DELTA_ROUNDS):
        instance.add("sr", (DELTA_ROWS + round_no, round_no % 97))
        delta_source.refresh()
        full_source.refresh()
        merged = set(delta_source.get_matching("sr", ALL))
        rescanned = set(full_source.get_matching("sr", ALL))
        assert merged == rescanned  # the delta-merge == full-rescan property
        assert len(merged) == DELTA_ROWS + round_no + 1

    delta_stats = delta_source.scatter_stats()
    full_stats = full_source.scatter_stats()
    assert delta_stats["delta_scans"] == DELTA_ROUNDS
    assert full_stats["delta_scans"] == 0
    delta_rows = delta_stats["delta_rows_shipped"]
    full_rescan_rows = full_stats["full_rows_shipped"] - primed_full_rows
    rows_ratio = full_rescan_rows / delta_rows

    baseline_recorder["delta_vs_full"] = {
        "base_rows": float(DELTA_ROWS),
        "rescan_rounds": float(DELTA_ROUNDS),
        "delta_rows_shipped": float(delta_rows),
        "full_rescan_rows_shipped": float(full_rescan_rows),
        "rows_ratio": rows_ratio,
    }
    # Every round ships exactly the one inserted row on the delta arm.
    assert delta_rows == DELTA_ROUNDS
    assert rows_ratio > 50.0
