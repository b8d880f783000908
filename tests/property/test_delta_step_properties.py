"""Stepped fragments ≡ recomputed fragments, under seeded interleavings.

A read after appends steps its stale cache entries forward by the rows
the appends added (``evaluator._Evaluation._step``) instead of recomputing
them.  This suite drives one service through random interleavings of

* appends — to one relation, to both sides of a join at once, of rows
  already stored (no-ops), of string and float values (list columns);
* removals, which are not appends and must fall back to a recompute;
* satellite peers joining and leaving (the catalogue changes, the data
  does not): one gives a goal that had one stored alternative a second,
  the other grows a union of two, so a read after it joins steps the new
  fragments from the ones they replace and a read after it leaves steps
  from what was kept before the join;
* reads of queries that share fragments — a join, the same join through
  a definitional mapping, a self-join, a union, a constant selection —
  so that entries sit at different tokens when they are stepped;

and after every read asserts that the answer equals the ``backtracking``
oracle and a fresh service's, that every cached fragment equals its
recompute from scratch at its token as a multiset
(:func:`tests.oracles.fragments.check_cached_fragments`), and that a read
right after a removal under its root recomputed that root.  It runs over
an in-process federated source and over a loopback remote source (whose
deltas come from its cursors' chains); the churn sequences also run on
the list kernels, with NumPy hidden.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Instance, columnar
from repro.datalog import parse_query
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    Peer,
    QueryService,
    StorageDescription,
    answer_query,
)
from repro.pdms.planning import ensure_plan
from tests.oracles.fragments import VersionHistory, check_cached_fragments

from .test_transport_matrix import open_source

QUERIES = [
    parse_query("Q(x, z) :- T:A(x, y), T:B(y, z)"),
    parse_query("Q(x, z) :- T:C(x, z)"),
    parse_query("Q(x, z) :- T:A(x, y), T:A(y, z)"),
    parse_query("Q(x, y) :- T:A(x, y)"),
    parse_query("Q(x) :- T:B(x, 2)"),
]

#: stored relation -> (peer, peer relation it stores into)
STORES = {"s1": ("P1", "A"), "s2": ("P2", "B"), "s3": ("P3", "A")}
VALUES = [0, 1, 2, 3, 4, 2.5, -0.0, "a", "b"]


def build_pdms():
    pdms = PDMS("delta-steps")
    top = pdms.add_peer("T")
    for relation in ("A", "B", "C"):
        top.add_relation(relation, ["x", "y"])
    for stored, (peer, relation) in STORES.items():
        pdms.add_peer(peer)
        pdms.add_storage_description(StorageDescription(
            peer, stored, parse_query(f"V(x, y) :- T:{relation}(x, y)"),
            exact=False, name=f"store_{stored}",
        ))
    pdms.add_peer_mapping(DefinitionalMapping(
        parse_query("T:C(x, z) :- T:A(x, y), T:B(y, z)"), name="c_def"))
    return pdms


def join_satellite(service):
    satellite = Peer("SAT")
    satellite.add_relation("X", ["x", "y"])
    service.add_peer(satellite)
    service.add_storage_description(StorageDescription(
        "SAT", "sx", parse_query("V(x, y) :- T:B(x, y)"), exact=False, name="store_sx"))


def join_union_satellite(service):
    """A second store of ``T:A``, whose goal is already a union of two."""
    service.add_peer("SATA")
    service.add_storage_description(StorageDescription(
        "SATA", "sy", parse_query("V(x, y) :- T:A(x, y)"), exact=False, name="store_sy"))


def build_data(rng):
    data = {
        peer: Instance.from_dict({stored: [
            (rng.randrange(5), rng.randrange(5)) for _ in range(6)
        ]})
        for stored, (peer, _) in STORES.items()
    }
    data["SAT"] = Instance.from_dict({"sx": [(1, 2), (3, 4), (2, 2)]})
    data["SATA"] = Instance.from_dict({"sy": [(0, 1), (4, 4), (2, 3)]})
    return data


class World:
    def __init__(self, source, data, rng):
        self.data, self.rng = data, rng
        self.pdms = build_pdms()
        self.service = QueryService(self.pdms, data=source)
        self.history = VersionHistory(data)
        self.plans = []
        self.joined = False
        self.union_joined = False
        #: (stored relation, its instance token right after a removal)
        self.removals = []

    def row(self):
        return (self.rng.choice(VALUES), self.rng.choice(VALUES))

    def append(self, *relations):
        for stored in relations:
            peer = STORES[stored][0]
            rows = [self.row() for _ in range(self.rng.randrange(1, 4))]
            if self.rng.random() < 0.3:
                rows.append(next(iter(self.data[peer].get_tuples(stored)), rows[0]))
            self.data[peer].add_all(stored, rows)
        self.history.record()

    def remove(self, stored):
        peer = STORES[stored][0]
        rows = sorted(self.data[peer].get_tuples(stored), key=repr)
        if rows:
            self.data[peer].remove(stored, self.rng.choice(rows))
            self.removals.append((stored, self.data[peer].data_version(stored)))
        self.history.record()

    def churn(self):
        if self.joined:
            self.service.remove_peer("SAT")
        else:
            join_satellite(self.service)
        self.joined = not self.joined

    def churn_union(self):
        if self.union_joined:
            self.service.remove_peer("SATA")
        else:
            join_union_satellite(self.service)
        self.union_joined = not self.union_joined

    def removed_since(self, token) -> bool:
        """Did a row leave a relation of ``token`` after it was taken?"""
        versions = dict(token)
        return any(
            relation in versions
            and any(owner[0] == after[0] and owner[1] < after[1] for owner in versions[relation])
            for relation, after in self.removals
        )

    def read(self, index):
        query = QUERIES[index]
        cache = self.service.fragment_cache
        tokens = {key: entry.token for key, entry in cache._entries.items()}
        before = cache.stats.as_dict()
        rows = self.service.answer(query)
        after = cache.stats.as_dict()
        assert rows == answer_query(self.pdms, query, dict(self.data), engine="backtracking")
        assert rows == QueryService(self.pdms, data=dict(self.data)).answer(query)
        root = ensure_plan(self.service.reformulate(query)).factored_root()
        if root in tokens and self.removed_since(tokens[root]):
            # A removal is no append: the stale root could not be stepped.
            assert after["invalidations"] > before["invalidations"]
        self.plans.extend(self.service._plans.values())
        check_cached_fragments(cache, self.plans, self.history)
        return after["deltas"] - before["deltas"]


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, len(QUERIES) - 1)),
        st.tuples(st.just("append"), st.sampled_from(sorted(STORES))),
        st.tuples(st.just("append-both"), st.just("")),
        st.tuples(st.just("remove"), st.sampled_from(sorted(STORES))),
        st.tuples(st.just("churn"), st.just("")),
    ),
    min_size=4,
    max_size=24,
)


def run(kind, seed, ops):
    rng = random.Random(seed)
    data = build_data(rng)
    with open_source(kind, data) as source:
        world = World(source, data, rng)
        stepped = 0
        for index in range(len(QUERIES)):
            world.read(index)
        for op, arg in ops:
            if op == "read":
                stepped += world.read(arg)
            elif op == "append":
                world.append(arg)
            elif op == "append-both":
                world.append("s1", "s2")
            elif op == "remove":
                world.remove(arg)
            else:
                world.churn()
        for index in range(len(QUERIES)):
            stepped += world.read(index)
        return world, stepped


@pytest.mark.parametrize("kind", ["in-process", "loopback"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(seed=st.integers(0, 2 ** 16), ops=OPS)
def test_stepped_fragments_equal_their_recompute(kind, seed, ops):
    run(kind, seed, ops)


@pytest.mark.parametrize("kind", ["in-process", "loopback"])
@pytest.mark.parametrize("seed", range(4))
def test_appends_between_reads_are_stepped(kind, seed):
    """Appends only, every query read between them: entries are stepped
    (the counter moves), and every check above still holds."""
    rng = random.Random(seed)
    ops = []
    for _ in range(6):
        ops.append(("append", rng.choice(sorted(STORES))))
        ops.extend(("read", index) for index in range(len(QUERIES)))
    ops.append(("append-both", ""))
    _, stepped = run(kind, seed, ops)
    assert stepped > 0


def traced_read(world, index) -> int:
    """``world.read(index)``, traced; returns how many fragments it
    stepped from a predecessor."""
    from repro.obs import set_tracer
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    tracer = Tracer(enabled=True, sample_rate=1.0, sink_path=None, registry=MetricsRegistry())
    set_tracer(tracer)
    try:
        world.read(index)
    finally:
        set_tracer(None)
    return sum(
        1
        for tid in tracer.trace_ids()
        for span in tracer.trace(tid)
        if span["name"] == "fragment.cache" and "since" in span["attrs"]
    )


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "lists"])
@pytest.mark.parametrize("kind", ["in-process", "loopback"])
@pytest.mark.parametrize("seed", range(3))
def test_churn_steps_equal_their_recompute(kind, seed, numpy, monkeypatch):
    """Seeded sequences of both satellites joining and leaving between
    appends and reads: every answer equals the oracle and every cached
    fragment — those stepped from a predecessor too — its recompute, and
    the union satellite's joins are stepped."""
    if not numpy:
        monkeypatch.setattr(columnar, "np", None)
    rng = random.Random(seed)
    data = build_data(rng)
    with open_source(kind, data) as source:
        world = World(source, data, rng)
        for index in range(len(QUERIES)):
            world.read(index)
        grown = 0
        for _ in range(16):
            op = rng.choice(["union", "union", "satellite", "append", "append"])
            if op == "union":
                world.churn_union()
            elif op == "satellite":
                world.churn()
            else:
                world.append(rng.choice(sorted(STORES)))
            for index in rng.sample(range(len(QUERIES)), 3) + [0]:
                grown += traced_read(world, index)
        assert grown > 0
