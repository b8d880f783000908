"""A scan unit is one owning peer: its retry budget, its isolation, its deltas.

Each grid below pins one contract of :class:`RemotePeerFactSource` on
both backends — the loopback reference, and the socket wire, where the
first attempts of a wave ride one ``scan_many`` batch frame and every
retry is a per-unit RPC:

* a unit retries up to ``ScanPolicy.retries`` times, then degrades with
  exactly one :class:`ScanFailure` per relation, however many attempts
  it made;
* a faulting unit retries alone: the other owners of the same relation
  are scanned once;
* a dead owner costs only its own rows (a sound subset), and a refresh
  after it returns re-earns ``complete``;
* a re-scan ships the rows added since the peer's cursor and nothing
  else, unless delta shipping is off;
* the describe round spends the same retry budget;
* a wave costs one batch frame on the socket and one RPC per unit on a
  transport without one, plus one RPC per retry.

Faults are scripted client-side (the next *n* admissions to a peer
raise), so every count asserted here is exact.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.database import Instance
from repro.datalog.indexing import WILDCARD
from repro.errors import TransportError
from repro.pdms import (
    AsyncSocketTransport,
    LoopbackTransport,
    RemotePeerFactSource,
    ScanPolicy,
)

ALL = (WILDCARD, WILDCARD)

#: No-sleep, no-jitter policies so tests stay fast and deterministic.
FAST = dict(backoff=0.0, backoff_cap=0.0, jitter=0.0)


def scripted(base):
    """``base`` with scripted faults: the next *n* scans or describes of a peer raise.

    ``scan_faults`` / ``describe_faults`` hold the faults still to come
    per peer; ``scan_attempts`` / ``describe_attempts`` count every
    admission, faulted or not.  Faults are injected at client-side
    admission, where both backends refuse a failed peer, so a scripted
    fault looks exactly like an unreachable peer on that one attempt.
    """

    class Scripted(base):
        def __init__(self, instances):
            self.scan_faults = Counter()
            self.describe_faults = Counter()
            self.scan_attempts = Counter()
            self.describe_attempts = Counter()
            self._script_lock = threading.Lock()
            super().__init__(instances)

        def _admit(self, peer, scan=False, frame=True):
            with self._script_lock:
                attempts = self.scan_attempts if scan else self.describe_attempts
                attempts[peer] += 1
            super()._admit(peer, scan=scan, frame=frame)
            with self._script_lock:
                faults = self.scan_faults if scan else self.describe_faults
                if faults[peer] > 0:
                    faults[peer] -= 1
                    raise TransportError(
                        f"{'scan' if scan else 'describe'} of {peer!r} lost "
                        "(scripted)",
                        peer=peer,
                    )

    Scripted.__name__ = f"Scripted{base.__name__}"
    return Scripted


@pytest.fixture(params=[LoopbackTransport, AsyncSocketTransport],
                ids=["loopback", "socket"])
def backend(request):
    """Build scripted transports of one backend; every one built is closed after."""
    cls = scripted(request.param)
    built = []

    def build(instances):
        built.append(cls(instances))
        return built[-1]

    yield build
    for transport in built:
        transport.close()


def owners_of_r(*peers):
    """``r`` stored piecewise on ``peers``: three distinct rows each."""
    return {
        peer: Instance.from_dict({"r": [(index, row) for row in range(3)]})
        for index, peer in enumerate(peers)
    }


def rows_at(data, peers=None):
    return {
        row
        for peer, instance in data.items()
        if peers is None or peer in peers
        for row in instance.get_matching("r", ALL)
    }


# ---------------------------------------------------------------------------
# The retry budget of one unit
# ---------------------------------------------------------------------------

BUDGETS = [
    (retries, faults) for retries in range(3) for faults in range(retries + 2)
]


@pytest.mark.parametrize(
    "retries,faults", BUDGETS,
    ids=[f"retries{retries}-faults{faults}" for retries, faults in BUDGETS],
)
def test_a_unit_retries_within_its_budget_then_degrades_once(
    backend, retries, faults
):
    data = owners_of_r("A")
    transport = backend(data)
    source = RemotePeerFactSource(
        transport, policy=ScanPolicy(retries=retries, **FAST)
    )
    transport.scan_faults["A"] = faults
    assert source.prefetch([("r", ALL)]) == 1
    spent = min(faults, retries)
    assert transport.scan_attempts["A"] == spent + 1
    assert source.scatter_stats()["retries"] == spent
    if faults <= retries:
        assert set(source.get_matching("r", ALL)) == rows_at(data)
        assert source.failure_count == 0
        assert source.complete
        assert source.data_version("r") == (data["A"].data_version("r"),)
        return
    # Out of budget: one failure for the unit, not one per attempt.
    assert source.get_matching("r", ALL) == ()
    [failure] = source.failures()
    assert (failure.peer, failure.relation) == ("A", "r")
    assert "scripted" in failure.error
    assert source.degraded_relations == ("r",)
    assert not source.complete
    assert source.data_version("r") is None
    # The peer answers again: a refresh drops the partial memo entry.
    source.refresh()
    assert set(source.get_matching("r", ALL)) == rows_at(data)
    assert source.complete
    assert source.failure_count == 1


# ---------------------------------------------------------------------------
# Units of one relation are independent
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("faulty", ["A", "B", "C"])
def test_a_faulting_owner_retries_alone(backend, faulty):
    data = owners_of_r("A", "B", "C")
    transport = backend(data)
    source = RemotePeerFactSource(transport, policy=ScanPolicy(retries=1, **FAST))
    transport.scan_faults[faulty] = 1
    source.prefetch([("r", ALL)])
    assert set(source.get_matching("r", ALL)) == rows_at(data)
    assert source.scatter_stats()["retries"] == 1
    assert transport.scan_attempts == Counter(
        {peer: 2 if peer == faulty else 1 for peer in data}
    )
    assert source.failure_count == 0
    assert source.complete


DEAD = [(), ("A",), ("A", "C"), ("A", "B", "C")]


@pytest.mark.parametrize(
    "dead", DEAD, ids=["none"] + ["+".join(peers) for peers in DEAD[1:]]
)
def test_dead_owners_cost_only_their_own_rows(backend, dead):
    data = owners_of_r("A", "B", "C")
    transport = backend(data)
    source = RemotePeerFactSource(transport, policy=ScanPolicy(retries=1, **FAST))
    for peer in dead:
        transport.fail_peer(peer)
    source.prefetch([("r", ALL)])
    assert set(source.get_matching("r", ALL)) == rows_at(
        data, set(data) - set(dead)
    )
    assert sorted((f.peer, f.relation) for f in source.failures()) == [
        (peer, "r") for peer in dead
    ]
    for peer in dead:
        assert transport.scan_attempts[peer] == 2
    assert source.degraded_relations == (("r",) if dead else ())
    assert source.complete is (not dead)
    for peer in dead:
        transport.restore_peer(peer)
    source.refresh()
    assert set(source.get_matching("r", ALL)) == rows_at(data)
    assert source.complete


# ---------------------------------------------------------------------------
# Delta cursors
# ---------------------------------------------------------------------------


def read_r(source, path):
    """Scan ``r`` in full by one of the two scan paths."""
    if path == "wave":
        source.prefetch([("r", ALL)])
    return set(source.get_matching("r", ALL))


@pytest.mark.parametrize("path", ["wave", "cold"])
@pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
@pytest.mark.parametrize("added", [1, 16])
def test_a_rescan_ships_only_what_was_added(backend, added, delta, path):
    instance = Instance.from_dict({"r": [(row, row) for row in range(5)]})
    transport = backend({"A": instance})
    source = RemotePeerFactSource(transport, delta=delta)
    assert len(read_r(source, path)) == 5
    for row in range(100, 100 + added):
        instance.add("r", (row, -row))
    source.refresh()
    assert read_r(source, path) == set(instance.get_matching("r", ALL))
    stats = source.scatter_stats()
    if delta:
        assert (stats["full_scans"], stats["full_rows_shipped"]) == (1, 5)
        assert (stats["delta_scans"], stats["delta_rows_shipped"]) == (1, added)
    else:
        assert (stats["full_scans"], stats["full_rows_shipped"]) == (
            2, 5 + 5 + added
        )
        assert (stats["delta_scans"], stats["delta_rows_shipped"]) == (0, 0)


@pytest.mark.parametrize("advanced", ["A", "B"])
def test_each_owner_ships_its_own_delta(backend, advanced):
    data = owners_of_r("A", "B")
    transport = backend(data)
    source = RemotePeerFactSource(transport)
    source.prefetch([("r", ALL)])
    still = "B" if advanced == "A" else "A"
    token_still = data[still].data_version("r")
    data[advanced].add("r", (50, 1))
    data[advanced].add("r", (50, 2))
    source.refresh()
    assert data[still].data_version("r") == token_still
    source.prefetch([("r", ALL)])
    assert set(source.get_matching("r", ALL)) == rows_at(data)
    stats = source.scatter_stats()
    # Both owners ride their cursors; only the advanced one has rows to send.
    assert (stats["delta_scans"], stats["delta_rows_shipped"]) == (2, 2)
    assert (stats["full_scans"], stats["full_rows_shipped"]) == (2, 6)


# ---------------------------------------------------------------------------
# The describe round
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("faults", range(4), ids=lambda n: f"faults{n}")
def test_the_describe_round_spends_the_same_budget(backend, faults):
    data = {
        "A": Instance.from_dict({"ra": [(1,)]}),
        "B": Instance.from_dict({"rb": [(2,)]}),
    }
    transport = backend(data)
    transport.describe_faults["B"] = faults
    source = RemotePeerFactSource(transport, policy=ScanPolicy(retries=2, **FAST))
    assert transport.describe_attempts == Counter(
        {"A": 1, "B": min(faults, 2) + 1}
    )
    if faults <= 2:
        assert source.relations() == ("ra", "rb")
        assert source.complete
        return
    assert source.relations() == ("ra",)
    assert source.unreachable_peers == ("B",)
    [failure] = source.failures()
    assert (failure.peer, failure.relation) == ("B", "*")
    assert not source.complete
    assert source.get_matching("rb", (WILDCARD,)) == ()
    source.refresh()
    assert source.relations() == ("ra", "rb")
    assert source.get_matching("rb", (WILDCARD,)) == ((2,),)
    assert source.complete


# ---------------------------------------------------------------------------
# What a wave costs on the wire
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "one-retry"])
@pytest.mark.parametrize("owners", [1, 4])
def test_a_wave_costs_one_frame_or_one_rpc_per_unit(backend, owners, fault):
    data = owners_of_r(*[f"P{index}" for index in range(owners)])
    transport = backend(data)
    source = RemotePeerFactSource(transport, policy=ScanPolicy(retries=1, **FAST))
    if fault:
        transport.scan_faults["P0"] = 1
    before = transport.rpc_count
    source.prefetch([("r", ALL)])
    if hasattr(transport, "scan_many"):
        # One frame carries the admitted first attempts; a first attempt
        # refused at admission is not sent, so a frame of none is no RPC.
        first_attempts = int(owners > int(fault))
    else:
        # Every unit is its own RPC, counted even when refused.
        first_attempts = owners
    assert transport.rpc_count - before == first_attempts + int(fault)
    assert set(source.get_matching("r", ALL)) == rows_at(data)
    assert transport.rpc_count - before == first_attempts + int(fault)
