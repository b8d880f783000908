"""Adaptive-optimizer benchmarks: convergence speed and q-error drop.

Backs the ISSUE-7 acceptance criteria on a skewed, correlated workload
the static cost model misjudges — a hot join key hidden behind
near-uniform distinct counts, so the independence assumption prices the
trap join as tiny and the actually-tiny join as large:

* within ten executions of the same query, the adaptive service
  (``REPRO_ADAPTIVE``-style loop: measurement → corrections → racing)
  answers at least **1.3× faster** than the static service executing its
  locked-in plan;
* the **median q-error of join fragments drops at least 2×** between the
  first execution (model estimates) and the converged executions
  (correction-backed estimates).

Both arms run with the cross-call fragment cache off: what is measured
is plan quality, not table reuse.  ``BENCH_adaptive.json`` is written
next to this file when ``EVAL_BENCH_RECORD=1``; ``EVAL_BENCH_QUICK=1``
shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import Dict

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.pdms import PDMS, QueryService, StorageDescription

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

#: Rows of A sharing the hot join key.
HOT_A = 50 if QUICK else 100
#: Rows of B under the hot key (the trap join yields HOT_A * HOT_B rows).
HOT_B = 1000 if QUICK else 2000
#: Near-distinct filler rows of B that hide the hot key from the
#: distinct-count statistics.
FILLER_B = 4000 if QUICK else 8000
#: Executions given to each arm (the acceptance window).
EXECUTIONS = 10


@pytest.fixture(scope="module")
def baseline_recorder():
    """Collect per-case numbers; write BENCH_adaptive.json when asked."""
    results: Dict[str, Dict[str, float]] = {}
    yield results
    if os.environ.get("EVAL_BENCH_RECORD") != "1":
        return
    path = Path(__file__).resolve().parent / "BENCH_adaptive.json"
    path.write_text(
        json.dumps({"quick_mode": QUICK, "cases": results}, indent=2, sort_keys=True)
        + "\n"
    )


def _skewed_workload():
    """``Q :- A(x,y), B(y,z), C(z,w)`` with a correlated hot key.

    B's ``y`` column is almost all distinct (one hot value drowned in
    filler), so the model prices ``A ⋈ B`` at roughly
    ``|A|·|B| / distinct(B.y)`` — a few hundred rows — when the hot key
    actually produces ``HOT_A × HOT_B`` of them.  B's ``z`` column reuses
    a small domain, so ``B ⋈ C`` is priced in the thousands when only
    five rare rows of B reach C's range.  A static plan therefore joins
    A-B first and pays the blowup every execution; measured corrections
    flip the order to B-C first.
    """
    pdms = PDMS()
    peer = pdms.add_peer("P")
    peer.add_relation("A", ["x", "y"])
    peer.add_relation("B", ["y", "z"])
    peer.add_relation("C", ["z", "w"])
    pdms.add_storage_description(
        StorageDescription("P", "sa", parse_query("V(x, y) :- P:A(x, y)")))
    pdms.add_storage_description(
        StorageDescription("P", "sb", parse_query("V(y, z) :- P:B(y, z)")))
    pdms.add_storage_description(
        StorageDescription("P", "sc", parse_query("V(z, w) :- P:C(z, w)")))
    instance = Instance()
    a_rows = [(i, 0) for i in range(HOT_A)]
    a_rows += [(HOT_A + 100 + i, 20000 + i) for i in range(5)]
    a_rows += [(HOT_A + i, 30000 + i) for i in range(95)]
    instance.add_all("sa", a_rows)
    b_rows = [(0, z) for z in range(HOT_B)]
    b_rows += [(20000 + i, 2000 + i) for i in range(5)]
    b_rows += [(40000 + i, i % HOT_B) for i in range(FILLER_B)]
    instance.add_all("sb", b_rows)
    # C is wide enough that |B|·|C| / distinct(B.z) safely out-prices the
    # A-B estimate, yet only B's five rare rows actually reach its range.
    instance.add_all("sc", [(2000 + i, i) for i in range(200)])
    query = parse_query("Q(x, w) :- P:A(x, y), P:B(y, z), P:C(z, w)")
    truth = frozenset((HOT_A + 100 + i, i) for i in range(5))
    return pdms, query, instance, truth


def _median_join_q(observations) -> float:
    """Median q-error over join-fragment observations (scans are exact
    by construction and would drown the signal at a constant 1.0)."""
    qs = [obs.q for obs in observations
          if obs.q is not None and len(obs.relations) >= 2]
    return statistics.median(qs) if qs else 0.0


def test_adaptive_converges_within_ten_executions(baseline_recorder):
    """Acceptance gates: ≥1.3× converged speedup, ≥2× median q-error drop."""
    pdms, query, instance, truth = _skewed_workload()
    adaptive = QueryService(pdms, data={"P": instance}, engine="columnar",
                            adaptive=True, fragment_cache_bytes=0)
    # adaptive=False explicitly: under a REPRO_ADAPTIVE=1 CI leg the
    # static arm must stay the static baseline being measured against.
    static = QueryService(pdms, data={"P": instance}, engine="columnar",
                          adaptive=False, fragment_cache_bytes=0)

    static_times = []
    for _ in range(EXECUTIONS):
        started = time.perf_counter()
        assert static.answer(query) == truth
        static_times.append(time.perf_counter() - started)

    adaptive_times = []
    windows = []  # observation-count boundaries per execution
    log = adaptive.feedback
    for _ in range(EXECUTIONS):
        before = len(log.observations())
        started = time.perf_counter()
        assert adaptive.answer(query) == truth
        adaptive_times.append(time.perf_counter() - started)
        windows.append((before, len(log.observations())))

    observations = log.observations()
    first_lo, first_hi = windows[0]
    last_lo, last_hi = windows[-1]
    q_first = _median_join_q(observations[first_lo:first_hi])
    q_converged = _median_join_q(observations[last_lo:last_hi])
    # A converged window with no fresh join observations (fully corrected
    # and memoized) counts as perfect.
    q_converged = max(q_converged, 1.0)
    q_drop = q_first / q_converged if q_converged else 0.0

    static_seconds = min(static_times)
    converged_seconds = min(adaptive_times[-3:])
    speedup = static_seconds / converged_seconds

    stats = adaptive.stats_snapshot().adaptive
    baseline_recorder["convergence"] = {
        "executions": float(EXECUTIONS),
        "answers": float(len(truth)),
        "static_seconds": static_seconds,
        "adaptive_first_seconds": adaptive_times[0],
        "adaptive_converged_seconds": converged_seconds,
        "adaptive_speedup": speedup,
        "q_error_median_first": q_first,
        "q_error_median_converged": q_converged,
        "q_error_drop": q_drop,
        "observations": float(stats.observations),
        "corrections": float(stats.corrections),
        "corrections_applied": float(stats.corrections_applied),
        "races_run": float(stats.races_run),
        "races_won": float(stats.races_won),
        "replans": float(stats.replans),
    }
    # The loop actually engaged: corrections were learned and a
    # differently-shaped plan was validated by racing.
    assert stats.corrections > 0 and stats.corrections_applied > 0
    assert stats.races_run > 0
    assert stats.races_mismatched == 0
    assert q_drop >= 2.0, (
        f"median join q-error only dropped {q_drop:.1f}x "
        f"({q_first:.1f} -> {q_converged:.1f})"
    )
    assert speedup >= 1.3, (
        f"adaptive converged at only {speedup:.2f}x vs static "
        f"({converged_seconds * 1e3:.2f} ms vs {static_seconds * 1e3:.2f} ms)"
    )


def test_adaptive_overhead_on_well_estimated_data(baseline_recorder):
    """The loop must be ~free when the model is already right: uniform
    data, no corrections above threshold, no races — and latency within
    noise of the static arm."""
    pdms = PDMS()
    peer = pdms.add_peer("P")
    peer.add_relation("A", ["x", "y"])
    peer.add_relation("B", ["y", "z"])
    pdms.add_storage_description(
        StorageDescription("P", "ua", parse_query("V(x, y) :- P:A(x, y)")))
    pdms.add_storage_description(
        StorageDescription("P", "ub", parse_query("V(y, z) :- P:B(y, z)")))
    rows = 1000 if QUICK else 4000
    instance = Instance()
    instance.add_all("ua", [(i, i) for i in range(rows)])
    instance.add_all("ub", [(i, i + 1) for i in range(rows)])
    query = parse_query("Q(x, z) :- P:A(x, y), P:B(y, z)")

    adaptive = QueryService(pdms, data={"P": instance}, engine="columnar",
                            adaptive=True, fragment_cache_bytes=0)
    static = QueryService(pdms, data={"P": instance}, engine="columnar",
                          adaptive=False, fragment_cache_bytes=0)
    expected = static.answer(query)
    assert len(expected) == rows

    rounds = 5
    static_seconds = min(
        _timed(static, query) for _ in range(rounds))
    adaptive_seconds = min(
        _timed(adaptive, query) for _ in range(rounds))
    stats = adaptive.stats_snapshot().adaptive

    baseline_recorder["overhead"] = {
        "rows": float(rows),
        "static_seconds": static_seconds,
        "adaptive_seconds": adaptive_seconds,
        "relative_overhead": adaptive_seconds / static_seconds,
        "races_run": float(stats.races_run),
        "corrections": float(stats.corrections),
    }
    assert stats.races_run == 0  # nothing mis-estimated, nothing to race
    # Measurement overhead stays small (generous bound for CI noise).
    assert adaptive_seconds <= static_seconds * 3.0


def _timed(service, query) -> float:
    started = time.perf_counter()
    service.answer(query)
    return time.perf_counter() - started
