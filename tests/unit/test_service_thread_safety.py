"""Concurrency hammer for :class:`QueryService` (ISSUE 5 satellite).

Before this PR the service's caches and :class:`ServiceStats` counters
were mutated without synchronisation — a latent bug the cluster work
exposed: two threads missing on the same signature could double-insert,
LRU eviction could race `move_to_end`, and `hits`/`misses` lost updates.
These tests hammer ``answer`` (and churn) from many threads and assert
the exact counter arithmetic that unsynchronised updates would break.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.database import Instance
from repro.datalog import parse_query
from repro.pdms import (
    PDMS,
    QueryService,
    StorageDescription,
    certain_answers,
    combine_peer_instances,
)

THREADS = 8
ROUNDS = 30


def build_service(engine="shared", max_entries=1024):
    pdms = PDMS("hammer")
    top = pdms.add_peer("T")
    for relation in ("A", "B", "C"):
        top.add_relation(relation, ["x", "y"])
    for peer_name, relation, stored in (
        ("P1", "A", "sa"), ("P2", "B", "sb"), ("P3", "C", "sc"),
    ):
        pdms.add_peer(peer_name)
        pdms.add_storage_description(StorageDescription(
            peer_name, stored,
            parse_query(f"V(x, y) :- T:{relation}(x, y)"),
            exact=False, name=f"store_{stored}",
        ))
    data = {
        "P1": Instance.from_dict({"sa": [(i, i + 1) for i in range(12)]}),
        "P2": Instance.from_dict({"sb": [(i, i + 2) for i in range(12)]}),
        "P3": Instance.from_dict({"sc": [(i, i % 3) for i in range(12)]}),
    }
    queries = [
        parse_query("Q(x, y) :- T:A(x, y)"),
        parse_query("Q(x, z) :- T:A(x, y), T:B(y, z)"),
        parse_query("Q(x, z) :- T:B(x, y), T:C(y, z)"),
        parse_query("Q(x) :- T:A(x, y), T:C(y, z)"),
    ]
    service = QueryService(pdms, data=data, engine=engine)
    return service, data, queries


@pytest.mark.parametrize("engine", ["backtracking", "shared", "columnar", "distributed"])
def test_concurrent_answers_keep_counters_exact(engine):
    """N threads x M rounds: totals must add up to the call count exactly."""
    service, data, queries = build_service(engine=engine)
    combined = combine_peer_instances(data)
    expected = [certain_answers(service.pdms, q, combined) for q in queries]
    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(seed: int):
        try:
            barrier.wait(timeout=30)
            for round_number in range(ROUNDS):
                index = (seed + round_number) % len(queries)
                answers = service.answer(queries[index])
                if answers != expected[index]:
                    errors.append(
                        f"thread {seed} round {round_number}: wrong answers"
                    )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"thread {seed}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors[:5]
    stats = service.stats_snapshot()
    total = THREADS * ROUNDS
    # Lost updates would make these sums fall short of the call count.
    assert stats.lookups == total
    assert stats.misses == len(queries)
    assert stats.hits == total - len(queries)
    assert service.cache_size == len(queries)


def test_concurrent_answers_with_lru_eviction_pressure():
    """A 1-entry cache under contention: every counter still adds up."""
    service, data, queries = build_service(engine="shared", max_entries=1024)
    # Rebuild with a tiny cache to force constant eviction races.
    service = QueryService(
        service.pdms, data=data, engine="shared", max_entries=1,
    )
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(
            lambda seed: [
                service.answer(queries[(seed + r) % len(queries)])
                for r in range(ROUNDS)
            ],
            range(THREADS),
        ))
    stats = service.stats_snapshot()
    total = THREADS * ROUNDS
    assert stats.lookups == total
    assert stats.hits + stats.misses == total
    assert stats.evictions == stats.misses - 1  # all but the survivor evicted
    assert service.cache_size == 1


def test_concurrent_answers_during_catalogue_churn():
    """Answers stay sound and the service stays consistent under churn."""
    service, data, queries = build_service(engine="shared")
    combined = combine_peer_instances(data)
    # The base peers and descriptions never leave, so every answer set —
    # whatever churn is in flight — must contain the base answers.
    baselines = [certain_answers(service.pdms, q, combined) for q in queries]
    stop = threading.Event()
    errors = []

    def churner():
        try:
            toggle = 0
            while not stop.is_set():
                toggle += 1
                name = f"S{toggle % 2}"
                instance = Instance.from_dict({f"extra_{name}": [(1, 2)]})
                service.add_peer(name, data=instance)
                service.add_storage_description(StorageDescription(
                    name, f"extra_{name}",
                    parse_query("V(x, y) :- T:A(x, y)"),
                    exact=False, name=f"churn_{name}_{toggle}",
                ))
                service.remove_peer(name)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"churner: {type(exc).__name__}: {exc}")

    def asker(seed: int):
        try:
            for round_number in range(ROUNDS):
                index = (seed + round_number) % len(queries)
                answers = service.answer(queries[index])
                if not answers >= baselines[index]:
                    errors.append(f"asker {seed}: lost base answers")
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"asker {seed}: {type(exc).__name__}: {exc}")

    churn_thread = threading.Thread(target=churner)
    ask_threads = [
        threading.Thread(target=asker, args=(seed,)) for seed in range(4)
    ]
    churn_thread.start()
    for thread in ask_threads:
        thread.start()
    for thread in ask_threads:
        thread.join(timeout=120)
    stop.set()
    churn_thread.join(timeout=120)
    assert not errors, errors[:5]
    # The churn log was fully replayed: the caches converge afterwards.
    final = service.answer(queries[0])
    assert final == certain_answers(
        service.pdms, queries[0], combine_peer_instances(data))


def wide_service(**options):
    """A 3-atom chain with four stored alternatives per atom (64 rewritings)."""
    pdms = PDMS("wide")
    top = pdms.add_peer("T")
    data = {}
    for relation in ("A", "B", "C"):
        top.add_relation(relation, ["x", "y"])
        for index in range(4):
            peer, stored = f"P{relation}{index}", f"s{relation.lower()}{index}"
            pdms.add_peer(peer)
            pdms.add_storage_description(StorageDescription(
                peer, stored, parse_query(f"V(x, y) :- T:{relation}(x, y)"),
                exact=False, name=f"store_{stored}",
            ))
            data[peer] = Instance.from_dict(
                {stored: [(i, (i + index) % 5) for i in range(10)]})
    query = parse_query("Q(x, w) :- T:A(x, y), T:B(y, z), T:C(z, w)")
    service = QueryService(pdms, data=data, engine="shared", adaptive=False, **options)
    return service, query, certain_answers(pdms, query, combine_peer_instances(data))


def test_worker_pool_computes_each_fragment_once_per_answer(monkeypatch):
    """Concurrent exhausted ``stream`` calls — the lazy root-by-root loop,
    the one a worker pool serves (a whole ``answer`` has a single root) —
    each fanning its rewriting roots over four pool threads: within one
    call every fragment is still built exactly once (the compute-once
    memo's contract — its waiters block on an event that only exists while
    somebody waits), and the answers are right.  The cross-call cache is
    off so nothing else can absorb a duplicate build."""
    from repro.pdms import planning

    monkeypatch.setenv("REPRO_SHARED_WORKERS", "4")
    monkeypatch.setenv("REPRO_SHARED_EXECUTOR", "thread")
    service, query, expected = wide_service(fragment_cache_bytes=0)

    builds = {}
    lock = threading.Lock()
    original = planning._Evaluation._build

    def counting(self, key, node):
        with lock:
            # Keyed by the evaluation itself: that pins it, so ids cannot recycle.
            builds[(self, key)] = builds.get((self, key), 0) + 1
        return original(self, key, node)

    monkeypatch.setattr(planning._Evaluation, "_build", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside the memo
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            answers = list(pool.map(
                lambda _: set(service.stream(query)), range(THREADS * 3),
                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(rows == expected for rows in answers)
    assert builds and set(builds.values()) == {1}
    # 64 rewritings share far fewer fragments than they reference.
    plan = planning.ensure_plan(service.reformulate(query))
    assert plan.stats.rewritings == 64
    assert len(builds) == THREADS * 3 * plan.stats.unique_fragments
    assert service.answer(query) == expected


def test_whole_and_first_k_compiles_of_one_plan_share_one_lock(monkeypatch):
    """``answer(q)`` compiles the rule-goal tree and ``answer(q, limit=1)``
    the first rewritings into the *same* node table and compile memo: run
    concurrently on one plan they must never be inside the compiler
    together (one lock serialises both front-ends), and both answer right."""
    from repro.pdms import planning

    inside, overlaps, gauge = [0], [], threading.Lock()

    def guarded(method):
        def wrapper(self, *args):
            with gauge:
                inside[0] += 1
                if inside[0] > 1:
                    overlaps.append(method.__name__)
            try:
                time.sleep(0.002)  # widen the window an unserialised peer needs
                return method(self, *args)
            finally:
                with gauge:
                    inside[0] -= 1
        return wrapper

    for name in ("_compile_tree", "_compile_rewriting"):
        monkeypatch.setattr(
            planning.UnionPlan, name, guarded(getattr(planning.UnionPlan, name)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(6):  # a fresh plan each round: both compiles are cold
            service, query, expected = wide_service()
            barrier = threading.Barrier(THREADS)

            def call(seed):
                barrier.wait(timeout=30)
                return service.answer(query, limit=1 if seed % 2 else None)

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                answers = list(pool.map(call, range(THREADS), timeout=120))
            for seed, rows in enumerate(answers):
                assert rows == expected if seed % 2 == 0 else (
                    len(rows) == 1 and rows <= expected)
            plan = planning.ensure_plan(service.reformulate(query))
            assert plan.stats.factored and 1 <= plan.stats.rewritings < 64
    finally:
        sys.setswitchinterval(interval)
    assert not overlaps
