"""Observability overhead benchmarks: tracing off must be (nearly) free.

Backs the ISSUE-10 acceptance criteria:

* **tracing_off** — the acceptance gate: with the tracer installed but
  disabled (the ``REPRO_TRACE=0`` default), the per-query cost of the
  instrumentation sites must stay **≤ 2%** of the untraced answer time.
  Measured two ways: the projected fraction (spans-per-query × the
  measured cost of one disabled instrumentation site, over the measured
  per-query time) is asserted ≤ 0.02 in-test, and ``overhead_margin``
  (= 0.02 / projected fraction, higher is better) is the guarded
  headline;
* **tracing_on** — the informational twin: the same warm workload with
  full tracing on (every answer builds its complete span tree, no sink).
  ``off_vs_on_ratio`` = off-qps / on-qps documents what ``REPRO_TRACE=1``
  costs; it is guarded loosely so a pathological slowdown in the
  recording path is caught.

``BENCH_observability.json`` is written next to this file when
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
from repro.obs import MetricsRegistry, Tracer, current_span, set_tracer
from repro.pdms import (
    PDMS,
    LoopbackTransport,
    ScanPolicy,
    ServiceCluster,
    StorageDescription,
)

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

#: Warm answer() repetitions per measured arm (plus unmeasured warmup).
QUERIES = 60 if QUICK else 300
WARMUP = 10
#: Iterations for the disabled-instrumentation-site microbenchmark.
SITE_CALLS = 20_000 if QUICK else 200_000
#: The acceptance budget: tracing-off overhead ≤ 2% of answer time.
OFF_BUDGET = 0.02


@pytest.fixture(scope="module")
def baseline_recorder():
    """Collect per-case numbers; write BENCH_observability.json when asked."""
    results: Dict[str, Dict[str, float]] = {}
    yield results
    if os.environ.get("EVAL_BENCH_RECORD") != "1":
        return
    path = Path(__file__).resolve().parent / "BENCH_observability.json"
    path.write_text(
        json.dumps({"quick_mode": QUICK, "cases": results}, indent=2, sort_keys=True)
        + "\n"
    )


def _two_peer_cluster():
    """``Q :- T:A ⨝ T:B`` with A on P1 and B on P2 over loopback."""
    pdms = PDMS("obs-bench")
    top = pdms.add_peer("T")
    top.add_relation("A", ["x", "y"])
    top.add_relation("B", ["x", "y"])
    for peer_name, relation, stored in (("P1", "A", "sa"), ("P2", "B", "sb")):
        pdms.add_peer(peer_name)
        pdms.add_storage_description(StorageDescription(
            peer_name, stored,
            parse_query(f"V(x, y) :- T:{relation}(x, y)"),
            exact=False, name=f"store_{stored}",
        ))
    data = {
        "P1": Instance.from_dict({"sa": [(i, i + 1) for i in range(50)]}),
        "P2": Instance.from_dict({"sb": [(i, i + 100) for i in range(50)]}),
    }
    query = parse_query("Q(x, z) :- T:A(x, y), T:B(y, z)")
    expected = frozenset((i, i + 101) for i in range(49))
    cluster = ServiceCluster(
        pdms=pdms,
        transport=LoopbackTransport(data),
        scan_policy=ScanPolicy(
            retries=0, backoff=0.0, backoff_cap=0.0, jitter=0.0,
        ),
    )
    return cluster, query, expected


def _measure_qps(cluster, query, expected) -> float:
    """Warm answers-per-second for the repeated two-peer join."""
    for _ in range(WARMUP):
        assert cluster.answer(query).rows == expected
    start = time.perf_counter()
    for _ in range(QUERIES):
        cluster.answer(query)
    return QUERIES / (time.perf_counter() - start)


def test_tracing_overhead(baseline_recorder):
    cluster, query, expected = _two_peer_cluster()
    try:
        with cluster:
            # Arm 1: tracer installed but disabled — the REPRO_TRACE=0
            # production default.  Every instrumentation site still runs
            # (start_trace, current_span().child(...)) but returns the
            # shared NULL_SPAN.
            off_tracer = Tracer(enabled=False, registry=MetricsRegistry())
            set_tracer(off_tracer)
            off_qps = _measure_qps(cluster, query, expected)
            assert off_tracer.health()["started"] == 0

            # Arm 2: full tracing on (no sink) — the informational cost
            # of REPRO_TRACE=1, and the span-per-query count used to
            # project the disabled-site overhead below.
            on_tracer = Tracer(
                enabled=True, sample_rate=1.0, sink_path=None,
                registry=MetricsRegistry(),
            )
            set_tracer(on_tracer)
            on_qps = _measure_qps(cluster, query, expected)
            health = on_tracer.health()
            assert health["open"] == 0 and health["double_closes"] == 0
            spans_per_query = (
                (health["started"] + health["adopted"]) / (WARMUP + QUERIES)
            )
            assert spans_per_query >= 3.0

            # Microbenchmark one disabled site: with tracing off the
            # ambient span is NULL_SPAN and child() is a constant no-op.
            set_tracer(off_tracer)
            start = time.perf_counter()
            for _ in range(SITE_CALLS):
                current_span().child("fragment.eval")
            per_site_s = (time.perf_counter() - start) / SITE_CALLS
    finally:
        set_tracer(None)

    # The gate: all instrumentation sites a query hits, at their
    # measured disabled cost, must fit in 2% of the query's time.
    projected_off_fraction = spans_per_query * per_site_s * off_qps
    assert projected_off_fraction <= OFF_BUDGET, (
        f"tracing-off overhead {projected_off_fraction:.4%} exceeds "
        f"{OFF_BUDGET:.0%} budget ({spans_per_query:.1f} sites/query at "
        f"{per_site_s * 1e9:.0f}ns each)"
    )

    baseline_recorder["tracing_off"] = {
        "off_qps": off_qps,
        "per_site_ns": per_site_s * 1e9,
        "spans_per_query": spans_per_query,
        "projected_off_fraction": projected_off_fraction,
        # Guarded headline, clamped at 10× so runner-to-runner noise in a
        # huge margin cannot trip the regression gate: 10.0 means "at
        # least 10× inside the 2% budget"; a drop below the floor means
        # the disabled path is genuinely drifting toward the budget.
        "overhead_margin": min(
            10.0, OFF_BUDGET / max(projected_off_fraction, 1e-9)
        ),
    }
    baseline_recorder["tracing_on"] = {
        "on_qps": on_qps,
        "off_vs_on_ratio": off_qps / on_qps,
    }
