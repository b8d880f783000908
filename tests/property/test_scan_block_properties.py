"""The one scan boundary: ``scan_block`` ≡ ``get_matching``, on every source.

A seeded suite over random relations — ints, floats with NaN, bools,
strings, ints beyond int64, mixed columns, empty relations — driven
through random add / remove / clear sequences.  After every step the
column table :func:`~repro.database.columnar.scan_block` returns must
hold, as a row set, exactly what ``get_matching`` returns, with no row
twice, on:

* a bare :class:`~repro.database.Instance` (blocks kept per version);
* a :class:`~repro.pdms.execution.PeerFactSource` over two owners that
  share rows (the owners' blocks unioned distinctly);
* a plain-mapping source (the adapter's dedup-and-transpose fallback);
* a :class:`~repro.pdms.RemotePeerFactSource` over loopback, over
  sockets and split 2-way, through full → delta → delta rescans, and a
  full rescan that races inserts on a second thread.

A pattern whose width clashes with the relation stays an
:class:`~repro.errors.EvaluationError` on every source.  NaN compares
unequal to itself and a socket hands back fresh float objects, so rows
are compared with NaN mapped to one sentinel.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.database import Instance
from repro.database.columnar import ColumnTable, scan_block, scan_columns
from repro.datalog.evaluation import as_fact_source
from repro.datalog.indexing import WILDCARD
from repro.errors import EvaluationError
from repro.pdms import AsyncSocketTransport, LoopbackTransport, RemotePeerFactSource
from repro.pdms.execution import PeerFactSource

from .test_transport_matrix import split_round_robin

SEEDS = range(12)
STEPS = 12

#: One NaN object: a set holds a NaN row once only when it is the same object.
NAN = float("nan")
_NAN_KEY = object()

KINDS = ("int", "float", "nan", "bool", "str", "bigint", "mixed")


def _value(rng: random.Random, kind: str) -> object:
    if kind == "mixed":
        kind = rng.choice(KINDS[:-1])
    if kind == "int":
        return rng.randint(-3, 6)
    if kind == "float":
        return rng.choice((0.5, -1.25, 2.0, 3.75))
    if kind == "nan":
        return rng.choice((NAN, 1.5, -2.5))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "str":
        return rng.choice(("a", "b", "", "é", "a b"))
    return rng.choice((2 ** 63, 2 ** 70 + 1, -(2 ** 63) - 7, 5))


def _schema(rng: random.Random, relations: int = 3):
    """Relation name → per-column value kinds."""
    return {
        f"r{index}": tuple(rng.choice(KINDS) for _ in range(rng.randint(1, 3)))
        for index in range(relations)
    }


def _row(rng: random.Random, kinds) -> tuple:
    return tuple(_value(rng, kind) for kind in kinds)


def _key(row) -> tuple:
    return tuple(_NAN_KEY if value != value else value for value in row)


def _keys(rows) -> set:
    return {_key(row) for row in rows}


def _patterns(rng: random.Random, kinds, rows):
    """The all-wildcard pattern plus one constant probe."""
    width = len(kinds)
    wildcard = (WILDCARD,) * width
    position = rng.randrange(width)
    sample = rng.choice(sorted(rows, key=repr)) if rows and rng.random() < 0.7 else None
    value = sample[position] if sample is not None else _value(rng, kinds[position])
    if value != value:
        # A NaN constant matches by identity only, which a socket's fresh
        # float objects never share; probe the other positions' data.
        value = 1.5
    constant = tuple(value if i == position else WILDCARD for i in range(width))
    return wildcard, constant


def _assert_block(block: ColumnTable, expected_rows, width: int) -> None:
    assert block.columns == scan_columns(width)
    rows = list(block.iter_rows())
    assert len(rows) == len(block)
    assert _keys(rows) == _keys(expected_rows)
    assert len(_keys(rows)) == len(rows), "scan block holds a row twice"


def _check(source, schema, rng, truth) -> None:
    """``scan_block`` ≡ ``get_matching`` ≡ ``truth`` for every relation."""
    for relation, kinds in schema.items():
        for pattern in _patterns(rng, kinds, truth(relation, (WILDCARD,) * len(kinds))):
            block = scan_block(source, relation, pattern)
            _assert_block(block, set(source.get_matching(relation, pattern)), len(kinds))
            _assert_block(block, truth(relation, pattern), len(kinds))


def _mutate(rng: random.Random, schema, instances, row_pool) -> None:
    """One random add / remove / clear on the given instances."""
    relation = rng.choice(sorted(schema))
    instance = rng.choice(instances)
    roll = rng.random()
    rows = list(instance.get_tuples(relation))
    if roll < 0.6 or not rows:
        for _ in range(rng.randint(1, 4)):
            pooled = row_pool[relation] and rng.random() < 0.3
            row = rng.choice(row_pool[relation]) if pooled else _row(rng, schema[relation])
            row_pool[relation].append(row)
            instance.add(relation, row)
    elif roll < 0.9:
        instance.remove(relation, rng.choice(rows))
    else:
        instance.clear(relation)


def _populate(rng: random.Random, schema, instances, row_pool) -> None:
    for relation, kinds in schema.items():
        row_pool[relation] = []
        if rng.random() < 0.2:
            instances[0].add(relation, _row(rng, kinds))
            instances[0].clear(relation)  # exists, but empty
            continue
        for _ in range(rng.randint(1, 8)):
            row = _row(rng, kinds)
            row_pool[relation].append(row)
            rng.choice(instances).add(relation, row)


def _truth_over(instances):
    def truth(relation, pattern):
        rows = set()
        for instance in instances:
            rows |= set(instance.get_matching(relation, pattern))
        return rows
    return truth


@pytest.mark.parametrize("seed", SEEDS)
def test_instance_blocks_match_get_matching(seed):
    rng = random.Random(seed)
    schema = _schema(rng)
    instance = Instance()
    pool = {}
    _populate(rng, schema, [instance], pool)
    truth = _truth_over([instance])
    _check(instance, schema, rng, truth)
    for _ in range(STEPS):
        _mutate(rng, schema, [instance], pool)
        _check(instance, schema, rng, truth)
        # An unchanged relation version hands back the very same block.
        relation, kinds = next(iter(schema.items()))
        wildcard = (WILDCARD,) * len(kinds)
        assert instance.scan_block(relation, wildcard) is instance.scan_block(relation, wildcard)


@pytest.mark.parametrize("seed", SEEDS)
def test_federated_owners_sharing_rows(seed):
    rng = random.Random(seed)
    schema = _schema(rng)
    owners = [Instance(), Instance()]
    pool = {}
    _populate(rng, schema, owners, pool)
    for relation in schema:  # every relation on both owners, some rows on both
        for row in list(owners[0].get_tuples(relation))[::2]:
            owners[1].add(relation, row)
        if relation not in owners[1]:
            owners[1].add(relation, _row(rng, schema[relation]))
    source = PeerFactSource({"A": owners[0], "B": owners[1]})
    truth = _truth_over(owners)
    _check(source, schema, rng, truth)
    for _ in range(STEPS):
        _mutate(rng, schema, owners, pool)
        _check(source, schema, rng, truth)


class _Twice:
    """A plain indexed source that serves every matching row twice."""

    def __init__(self, inner):
        self._inner = inner

    def get_tuples(self, relation):
        return list(self._inner.get_tuples(relation)) * 2

    def get_matching(self, relation, pattern):
        return list(self._inner.get_matching(relation, pattern)) * 2


@pytest.mark.parametrize("seed", SEEDS)
def test_plain_sources_take_the_fallback(seed):
    rng = random.Random(seed)
    schema = _schema(rng)
    instance = Instance()
    pool = {}
    _populate(rng, schema, [instance], pool)
    truth = _truth_over([instance])
    for _ in range(STEPS):
        _mutate(rng, schema, [instance], pool)
        mapping = as_fact_source({rel: set(instance.get_tuples(rel)) for rel in schema})
        assert not hasattr(mapping, "scan_block")
        _check(mapping, schema, rng, truth)
        _check(_Twice(instance), schema, rng, truth)


def _remote(kind: str, data):
    """(transport, source, instances a test may mutate, row router)."""
    if kind == "split":
        workers = split_round_robin(data)
        transport = LoopbackTransport(workers)
        source = RemotePeerFactSource(transport)
        parts = list(workers.values())
        dealt = []

        def route(relation, row):
            # A new row lands on one of the relation's owners, dealt in turn.
            owners = [part for part in parts if relation in part.relations()]
            dealt.append(row)
            return [owners[len(dealt) % len(owners)]]

        return transport, source, parts, route
    transport = (AsyncSocketTransport if kind == "socket" else LoopbackTransport)(data)
    source = RemotePeerFactSource(transport)
    owner = {rel: inst for inst in data.values() for rel in inst.relations()}
    return transport, source, list(data.values()), lambda relation, row: [owner[relation]]


def _remote_schema(rng: random.Random):
    schema = _schema(rng, relations=4)
    data = {"P0": Instance(), "P1": Instance()}
    for index, (relation, kinds) in enumerate(schema.items()):
        instance = data[f"P{index % 2}"]
        for _ in range(rng.randint(1, 8)):
            instance.add(relation, _row(rng, kinds))
    return schema, data


@pytest.mark.parametrize("kind", ["loopback", "socket", "split"])
@pytest.mark.parametrize("seed", range(6))
def test_remote_full_then_deltas(kind, seed):
    rng = random.Random(seed)
    schema, data = _remote_schema(rng)
    transport, source, instances, route = _remote(kind, data)
    truth = _truth_over(instances)
    try:
        _check(source, schema, rng, truth)  # full scans
        for _ in range(2):  # deltas: additive writes, then a refresh
            added = 0
            for _ in range(rng.randint(1, 5)):
                relation = rng.choice(sorted(schema))
                row = _row(rng, schema[relation])
                for instance in route(relation, row):
                    added += row not in set(instance.get_tuples(relation))
                    instance.add(relation, row)
            before = source.scatter_stats()["delta_scans"]
            source.refresh()
            _check(source, schema, rng, truth)
            assert source.scatter_stats()["delta_scans"] > before or not added
        # A removal and a clear take full rescans again.
        relation = rng.choice(sorted(schema))
        for instance in instances:
            rows = list(instance.get_tuples(relation))
            if rows:
                instance.remove(relation, rows[0])
        instances[-1].clear(rng.choice(sorted(schema)))
        source.refresh()
        _check(source, schema, rng, truth)
        # A width clash stays an evaluation error across the boundary.
        relation, kinds = next(iter(schema.items()))
        if any(instance.cardinality(relation) for instance in instances):
            with pytest.raises(EvaluationError):
                scan_block(source, relation, (WILDCARD,) * (len(kinds) + 1))
        assert source.complete
    finally:
        source.close()
        transport.close()


@pytest.mark.parametrize("kind", ["loopback", "socket", "split"])
def test_full_rescan_racing_inserts_stays_duplicate_free(kind):
    rng = random.Random(7)
    schema, data = _remote_schema(rng)
    transport, source, instances, route = _remote(kind, data)
    truth = _truth_over(instances)
    relation = sorted(schema)[0]
    kinds = schema[relation]
    rows = [(index,) + _row(rng, kinds)[1:] for index in range(3000)]
    stop = threading.Event()

    def writer():
        for row in rows:
            if stop.is_set():
                return
            for instance in route(relation, row):
                instance.add(relation, row)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=writer)
    try:
        thread.start()
        while thread.is_alive():
            source.drop_memo()  # a full rescan, then a delta, while the writer inserts
            for _ in range(2):
                source.refresh()
                block = scan_block(source, relation, (WILDCARD,) * len(kinds))
                assert len(_keys(block.iter_rows())) == len(block)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        source.refresh()  # deltas from tokens the race may have left stale
        _check(source, schema, rng, truth)
    finally:
        stop.set()
        thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
        source.close()
        transport.close()


def test_a_delta_reshipping_held_rows_merges_duplicate_free():
    """A token read that raced an insert re-ships rows the memo holds."""

    class Reships(LoopbackTransport):
        def scan_batch_since(self, peer, requests):
            replies = super().scan_batch_since(peer, requests)
            instance = self.instance(peer)
            return [
                (full, token, table if full else ColumnTable.from_rows(
                    table.columns,
                    list(table.iter_rows()) + list(instance.get_tuples(relation))[:2],
                ))
                for (relation, _, _), (full, token, table) in zip(requests, replies)
            ]

    instance = Instance.from_dict({"r": [(1, "a"), (2, "b"), (3, "c")]})
    transport = Reships({"P": instance})
    source = RemotePeerFactSource(transport)
    pattern = (WILDCARD, WILDCARD)
    assert scan_block(source, "r", pattern).row_set() == set(instance.get_tuples("r"))
    instance.add("r", (4, "d"))
    source.refresh()
    block = scan_block(source, "r", pattern)
    assert source.scatter_stats()["delta_scans"] == 1
    assert len(block) == 4 and block.row_set() == set(instance.get_tuples("r"))
