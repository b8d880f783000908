"""Answers under concurrent churn and writes are linearizable.

Herlihy & Wing (*Linearizability*, TOPLAS 1990): a concurrent read is
correct when it returns what a sequential execution would return at some
point between its call and its return.  Here that point is a *state* of
the system: a catalogue and a prefix of the writes.

A harness records a history.  Askers answer queries through one
:class:`~repro.pdms.service.QueryService` while one thread churns a
satellite peer (it joins, gains its storage description, leaves, and
rejoins, so the catalogue returns to earlier states and the service
revives their plans, kept answers and all) and one thread appends rows
to a stored relation (so cached fragments and kept answers are stepped).
Every mutation is logged, stamped with the catalogue version and the
write count it reached, under one lock that askers also read the log
under at their call and at their return.  The checker then accepts an
answer only if it equals :func:`~repro.pdms.execution.answer_query` over
a fresh catalogue for one state in the answer's window: the catalogue of
one point and the data of the same or a later one (see :func:`check`).
Each state's answer is computed once.

A failing history is written out as JSON with its seed; :func:`check`
re-checks a loaded one (``check(json.load(open(path)))``).
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.database import Instance
from repro.datalog import parse_query
from repro.pdms import PDMS, QueryService, StorageDescription, answer_query

QUERIES = (
    "Q(x, y) :- T:A(x, y)",
    "Q(x, z) :- T:A(x, y), T:B(y, z)",
    "Q(x) :- T:A(x, y), T:C(y, z)",
    "Q(x, z) :- T:B(x, y), T:C(y, z)",
)
#: The satellite's churn cycle; the catalogue after ``leave`` is the base's.
CYCLE = ("join", "describe", "leave")
ASKERS = 4
CYCLES = 12
WRITES = 48
SATELLITE = [(i, (i * 5) % 12) for i in range(0, 24, 3)]


def build_pdms(phase: str) -> PDMS:
    """The catalogue after churn event ``phase`` (``"leave"``: the base)."""
    pdms = PDMS("history")
    top = pdms.add_peer("T")
    for relation in ("A", "B", "C"):
        top.add_relation(relation, ["x", "y"])
    for peer, relation, stored in (("P1", "A", "sa"), ("P2", "B", "sb"), ("P3", "C", "sc")):
        pdms.add_peer(peer)
        pdms.add_storage_description(describe(peer, stored, relation))
    if phase in ("join", "describe"):
        pdms.add_peer("S")
    if phase == "describe":
        pdms.add_storage_description(describe("S", "extra", "A"))
    return pdms


def describe(peer: str, stored: str, relation: str) -> StorageDescription:
    return StorageDescription(
        peer, stored, parse_query(f"V(x, y) :- T:{relation}(x, y)"),
        exact=False, name=f"store_{stored}",
    )


def base_data() -> Dict[str, Instance]:
    return {
        "P1": Instance.from_dict({"sa": [(i, i + 1) for i in range(12)]}),
        "P2": Instance.from_dict({"sb": [(i, i + 2) for i in range(12)]}),
        "P3": Instance.from_dict({"sc": [(i, i % 3) for i in range(12)]}),
    }


def written_rows(seed: int) -> List[Tuple[int, int]]:
    """The rows the writer appends to ``sa``, in order."""
    rng = random.Random(seed)
    return [(100 + i, rng.randrange(14)) for i in range(WRITES)]


def record_history(seed: int) -> dict:
    """Run askers, a churner and a writer against one service; return the
    history: the seed, the logged mutations and every answer's window."""
    rng = random.Random(seed)
    writes = written_rows(seed)
    data = base_data()
    service = QueryService(build_pdms("leave"), data=data)
    queries = [parse_query(text) for text in QUERIES]
    lock = threading.Lock()
    # One entry per mutation, in the order they took effect:
    # (event, catalogue version, write count).
    events: List[Tuple[str, int, int]] = []
    written = [0]
    answers: list = []
    errors: List[str] = []
    stop = threading.Event()

    def mutate(event: str, action) -> None:
        with lock:
            action()
            events.append((event, service.catalogue_version, written[0]))

    def churner() -> None:
        try:
            for _ in range(CYCLES):
                mutate("join", lambda: service.add_peer(
                    "S", data=Instance.from_dict({"extra": SATELLITE})))
                time.sleep(0.002)
                mutate("describe", lambda: service.add_storage_description(
                    describe("S", "extra", "A")))
                time.sleep(0.002)
                mutate("leave", lambda: service.remove_peer("S"))
                time.sleep(0.002)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"churner: {type(exc).__name__}: {exc}")

    def writer() -> None:
        def append(row):
            data["P1"].add("sa", row)
            written[0] += 1

        try:
            for row in writes:
                mutate("write", lambda: append(row))
                time.sleep(0.001)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"writer: {type(exc).__name__}: {exc}")

    def asker(order: List[int]) -> None:
        try:
            for index in order:
                if stop.is_set():
                    return
                with lock:
                    start = (len(events), service.catalogue_version, written[0])
                rows = service.answer(queries[index])
                with lock:
                    end = (len(events), service.catalogue_version, written[0])
                answers.append((index, start, end, sorted(rows)))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"asker: {type(exc).__name__}: {exc}")

    orders = [[rng.randrange(len(queries)) for _ in range(10_000)] for _ in range(ASKERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the askers with the mutations
    try:
        askers = [threading.Thread(target=asker, args=(order,)) for order in orders]
        mutators = [threading.Thread(target=churner), threading.Thread(target=writer)]
        for thread in askers + mutators:
            thread.start()
        for thread in mutators:
            thread.join(timeout=60)
        stop.set()
        for thread in askers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in askers + mutators)
    assert not errors, errors[:5]
    counters = service.metrics_snapshot()["counters"]
    return {"seed": seed, "events": events, "answers": answers, "counters": counters}


class States:
    """Each state's answer to each query, computed once with ``answer_query``
    over a fresh catalogue and the base data plus the writes' prefix."""

    def __init__(self, seed: int):
        self.writes = written_rows(seed)
        self.catalogues = {phase: build_pdms(phase) for phase in CYCLE}
        self.queries = [parse_query(text) for text in QUERIES]
        self.answers: Dict[tuple, frozenset] = {}

    def answer(self, index: int, phase: str, count: int) -> frozenset:
        key = (index, phase, count)
        found = self.answers.get(key)
        if found is None:
            data = base_data()
            data["P1"].add_all("sa", self.writes[:count])
            if phase != "leave":
                data["S"] = Instance.from_dict({"extra": SATELLITE})
            found = self.answers[key] = answer_query(
                self.catalogues[phase], self.queries[index], data)
        return found


def check(history: dict, together: bool = False) -> List[dict]:
    """The answers of ``history`` that equal no state's answer in their
    window, each with the states it was checked against.

    An answer reads the catalogue when it starts (under the service
    mutex) and each relation's rows when it first scans it, so the state
    it answers over is the catalogue after ``p`` mutations and the data
    after ``q >= p`` of them, both within the window.  ``together``
    demands ``q == p``: one point for both, which the service does not
    promise (an answer under a departing peer's catalogue still reads
    the appends that land while it runs)."""
    states = States(history["seed"])
    # The catalogue phase and the write count after the first ``p`` mutations.
    phases, counts, phase, count = ["leave"], [0], "leave", 0
    for event, _, written in history["events"]:
        if event == "write":
            count = written
        else:
            phase = event
        phases.append(phase)
        counts.append(count)
    violations = []
    for index, start, end, rows in history["answers"]:
        got = frozenset(map(tuple, rows))
        points = range(start[0], end[0] + 1)
        window = dict.fromkeys(
            (phases[p], counts[q]) for p in points for q in points
            if q == p or (q > p and not together)
        )
        if not any(states.answer(index, *state) == got for state in window):
            violations.append({
                "query": QUERIES[index], "start": start, "end": end, "rows": rows,
                "window": list(window),
            })
    return violations


def test_every_answer_is_one_states_answer_within_its_window(tmp_path):
    seed = 46
    history = record_history(seed)
    violations = check(json.loads(json.dumps(history)))
    if violations:
        path = tmp_path / f"history-seed{seed}.json"
        path.write_text(json.dumps(dict(history, violations=violations), indent=1))
        raise AssertionError(
            f"{len(violations)} of {len(history['answers'])} answers match no state "
            f"in their window (seed {seed}); history written to {path}: "
            f"{violations[0]}"
        )
    # The history exercised what it checks: revived plans, and whole
    # answers assembled from kept answers rather than built.
    counters = history["counters"]
    assert counters.get("reformulation.revived", 0) > 0
    assert counters.get("answer.stepped", 0) + counters.get("answer.maintained", 0) > 0
    assert len(history["answers"]) >= 100
