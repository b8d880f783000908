"""Scan-path benchmarks: retry completeness and delta re-scans.

Backs the two survivors of the remote scan path's policy:

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
from pathlib import Path
from typing import Dict

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.datalog.indexing import WILDCARD
from repro.pdms import (
    PDMS,
    LoopbackTransport,
    RemotePeerFactSource,
    ScanPolicy,
    ServiceCluster,
    StorageDescription,
)

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

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
        scan_policy=ScanPolicy(retries=2, **FAST_POLICY),
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
