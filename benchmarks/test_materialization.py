"""Materialization benchmarks: warm vs cold, write-mix hit rate, bushy sharing.

Backs the ISSUE-4 acceptance criteria:

* repeated queries over **stable** data answer ≥ 5× faster through a warm
  :class:`~repro.pdms.materialization.FragmentCache` than with the cache
  cleared before every call (reformulation and plan caches stay warm in
  both arms — the measured gap is pure fragment materialization);
* under a **10% write mix** into one predicate, the fragment hit rate
  stays above 50%: a single-predicate update invalidates only the
  fragments that read it, the rest of the working set stays warm;
* **bushy** fragment extraction measurably increases the shared-subgoal
  ratio over the PR 3 left-deep-prefix shape on a workload whose shared
  pair is never a cost-order prefix.

Like the other benchmark modules, ``BENCH_materialization.json`` is
written next to this file when ``EVAL_BENCH_RECORD=1``, and
``EVAL_BENCH_QUICK=1`` shrinks the workloads for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.pdms import (
    PDMS,
    FragmentCache,
    QueryService,
    StorageDescription,
    compile_reformulation,
    evaluate_plan,
    reformulate,
    stream_plan_answers,
)

QUICK = os.environ.get("EVAL_BENCH_QUICK") == "1"

#: Storage alternatives for the variant chain subgoal (one rewriting each).
ALTERNATIVES = 6 if QUICK else 16
#: Rows in each of the two shared chain relations.
ROWS = 3000 if QUICK else 15000
#: Rows in each variant relation.
VARIANT_ROWS = 100 if QUICK else 400
#: Join-key domain (sparse: intermediate results stay small).
DOMAIN = 12000 if QUICK else 60000
#: Operations in the write-mix stream.
MIX_OPS = 60 if QUICK else 200


def _best_seconds(callable_: Callable[[], object], rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def baseline_recorder():
    """Collect per-case numbers; write BENCH_materialization.json when asked."""
    results: Dict[str, Dict[str, float]] = {}
    yield results
    if os.environ.get("EVAL_BENCH_RECORD") != "1":
        return
    path = Path(__file__).resolve().parent / "BENCH_materialization.json"
    path.write_text(
        json.dumps({"quick_mode": QUICK, "cases": results}, indent=2, sort_keys=True)
        + "\n"
    )


def _chain_workload(alternatives=ALTERNATIVES, rows=ROWS):
    """``Q :- A1, A2, A3`` with one storage alternative per A3 rewriting.

    A1/A2 are big and shared by every rewriting; the A3 variants are small
    and distinct — the canonical repeated-traffic shape: one expensive
    shared join plus per-rewriting cheap tails.
    """
    pdms = PDMS()
    peer = pdms.add_peer("P")
    for relation in ("A1", "A2", "A3"):
        peer.add_relation(relation, ["x", "y"])
    pdms.add_storage_description(
        StorageDescription("P", "s_a1", parse_query("V(x, y) :- P:A1(x, y)")))
    pdms.add_storage_description(
        StorageDescription("P", "s_a2", parse_query("V(x, y) :- P:A2(x, y)")))
    for i in range(alternatives):
        pdms.add_storage_description(
            StorageDescription("P", f"s_a3_{i}", parse_query("V(x, y) :- P:A3(x, y)")))
    rng = random.Random(7)
    instance = Instance()
    instance.add_all(
        "s_a1", {(rng.randrange(DOMAIN), rng.randrange(DOMAIN)) for _ in range(rows)})
    instance.add_all(
        "s_a2", {(rng.randrange(DOMAIN), rng.randrange(DOMAIN)) for _ in range(rows)})
    for i in range(alternatives):
        instance.add_all(f"s_a3_{i}", {
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN))
            for _ in range(VARIANT_ROWS)
        })
    for j in range(20):
        instance.add("s_a1", (j, DOMAIN + j))
        instance.add("s_a2", (DOMAIN + j, 2 * DOMAIN + j))
        for i in range(alternatives):
            instance.add(f"s_a3_{i}", (2 * DOMAIN + j, 1000 + i))
    query = parse_query("Q(x0, x3) :- P:A1(x0, x1), P:A2(x1, x2), P:A3(x2, x3)")
    return pdms, query, instance


def test_warm_cache_beats_cold_on_stable_data(baseline_recorder):
    """Acceptance gate: ≥ 5× warm vs cold on repeated queries, stable data."""
    pdms, query, instance = _chain_workload()
    cache = FragmentCache(max_bytes=256 << 20)
    service = QueryService(
        pdms, data={"P": instance}, engine="shared", fragment_cache=cache)
    expected = service.answer(query)  # pays reformulation + plan + fragments
    assert expected
    assert service.answer(query) == expected  # warm agrees

    rounds = 3 if QUICK else 5

    def cold():
        cache.clear()
        return service.answer(query)

    cold_seconds = _best_seconds(cold, rounds)
    cache.clear()
    service.answer(query)  # re-warm
    warm_seconds = _best_seconds(lambda: service.answer(query), rounds)
    speedup = cold_seconds / warm_seconds

    baseline_recorder["warm_vs_cold"] = {
        "answers": float(len(expected)),
        "rewritings": float(ALTERNATIVES),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": speedup,
        "cache_entries": float(len(cache)),
        "cache_bytes": float(cache.current_bytes),
    }
    assert speedup >= 5.0, (
        f"warm fragment cache only {speedup:.1f}x faster than cold "
        f"({warm_seconds * 1e3:.2f} ms vs {cold_seconds * 1e3:.2f} ms)"
    )


def test_write_mix_keeps_unrelated_fragments_warm(baseline_recorder):
    """10% writes into one predicate: fragment hit rate stays above 50%."""
    pdms, query, instance = _chain_workload()
    cache = FragmentCache(max_bytes=256 << 20)
    service = QueryService(
        pdms, data={"P": instance}, engine="shared", fragment_cache=cache)
    expected = service.answer(query)  # warm up
    assert expected

    rng = random.Random(23)
    hits_before = cache.stats.hits
    lookups_before = cache.stats.lookups
    invalidations_before = cache.stats.invalidations
    writes = 0
    started = time.perf_counter()
    for op in range(MIX_OPS):
        if op % 10 == 0:
            # The 10% write mix: every write touches the same single
            # predicate, so only its dependent fragments go stale.
            instance.add("s_a3_0", (rng.randrange(DOMAIN), rng.randrange(DOMAIN)))
            writes += 1
        else:
            service.answer(query)
    elapsed = time.perf_counter() - started
    hits = cache.stats.hits - hits_before
    lookups = cache.stats.lookups - lookups_before
    hit_rate = hits / lookups if lookups else 0.0

    baseline_recorder["write_mix"] = {
        "operations": float(MIX_OPS),
        "writes": float(writes),
        "write_fraction": writes / MIX_OPS,
        "fragment_hit_rate": hit_rate,
        "fragment_lookups": float(lookups),
        "stale_invalidations": float(
            cache.stats.invalidations - invalidations_before),
        "stream_seconds": elapsed,
        "ops_per_second": MIX_OPS / elapsed if elapsed else 0.0,
    }
    # Answers stay correct under the trickle of writes.
    assert service.answer(query) >= expected
    assert hit_rate > 0.5, (
        f"fragment hit rate fell to {hit_rate:.0%} under a 10% write mix"
    )


def test_bushy_sharing_beats_left_deep(baseline_recorder):
    """Bushy fragment extraction reuses the non-prefix {M,R} pair."""
    pdms = PDMS()
    peer = pdms.add_peer("P")
    for relation in ("L", "M", "R"):
        peer.add_relation(relation, ["x", "y"])
    alternatives = ALTERNATIVES
    for i in range(alternatives):
        pdms.add_storage_description(StorageDescription(
            "P", f"s_l_{i}", parse_query("V(x, y) :- P:L(x, y)")))
    pdms.add_storage_description(StorageDescription(
        "P", "s_m", parse_query("V(x, y) :- P:M(x, y)")))
    pdms.add_storage_description(StorageDescription(
        "P", "s_r", parse_query("V(x, y) :- P:R(x, y)")))
    rng = random.Random(11)
    rows = ROWS
    data = {}
    # L_i tiny (the cost order's *first atom* is always some L_i), M big
    # with few distinct y (so L_i ⋈ M fans out) and near-unique z (so
    # M ⋈ R is tiny): the cheapest *join* pair {M,R} — shared by every
    # rewriting — is never a left-deep prefix.
    for i in range(alternatives):
        data[f"s_l_{i}"] = {
            (rng.randrange(200), rng.randrange(50)) for _ in range(20)}
    data["s_m"] = {
        (rng.randrange(50), rng.randrange(DOMAIN)) for _ in range(rows)}
    data["s_r"] = {(rng.randrange(DOMAIN), rng.randrange(200)) for _ in range(40)}
    for j in range(10):
        data["s_m"].add((j % 50, 2 * DOMAIN + j))
        data["s_r"].add((2 * DOMAIN + j, j))
    query = parse_query("Q(x, w) :- P:L(x, y), P:M(y, z), P:R(z, w)")
    result = reformulate(pdms, query)
    result.all_rewritings()

    bushy = compile_reformulation(result, data, bushy=True)
    left = compile_reformulation(result, data, bushy=False)

    # The two shapes are shapes of the *enumerated* compile, which the lazy
    # row stream drives (a whole answer over the bushy plan would evaluate
    # the factored rule-goal tree and enumerate nothing).
    def enumerated(plan):
        return set(stream_plan_answers(plan, data))

    bushy_answers = enumerated(bushy)
    assert bushy_answers
    assert enumerated(left) == bushy_answers == evaluate_plan(bushy, data)

    rounds = 3 if QUICK else 5
    bushy_seconds = _best_seconds(lambda: enumerated(bushy), rounds)
    left_seconds = _best_seconds(lambda: enumerated(left), rounds)

    baseline_recorder["bushy_sharing"] = {
        "rewritings": float(bushy.stats.rewritings),
        "bushy_shared_subgoal_ratio": bushy.stats.sharing_ratio,
        "left_deep_shared_subgoal_ratio": left.stats.sharing_ratio,
        "bushy_unique_fragments": float(bushy.stats.unique_fragments),
        "left_deep_unique_fragments": float(left.stats.unique_fragments),
        "bushy_seconds": bushy_seconds,
        "left_deep_seconds": left_seconds,
        "bushy_speedup": left_seconds / bushy_seconds,
    }
    assert bushy.stats.sharing_ratio > left.stats.sharing_ratio, (
        f"bushy sharing {bushy.stats.sharing_ratio:.0%} did not beat "
        f"left-deep {left.stats.sharing_ratio:.0%}"
    )
