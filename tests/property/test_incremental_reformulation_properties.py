"""Rebuilding an invalidated reformulation from its stale tree ≡ from nothing.

When the catalogue changes under a cached reformulation, ``QueryService``
keeps the invalidated entry and rebuilds it by replaying its rule-goal tree
(``reformulate(..., previous=stale)``), re-expanding only what the change
touched, and compiles the new plan reusing the stale plan's compile of the
subtrees that did not change.  Over seeded random change sequences on small
generated PDMSs — satellite peers joining and leaving, inclusion and
definitional mappings (some with comparisons) added and removed, peer
relations turning productive and unproductive, a relation turning stored
and back, and a change log short enough to be truncated — every rebuilt
result must equal a fresh ``reformulate()`` in

* its rewritings, up to the names of variables (canonical signatures),
* every ``TreeStatistics`` field but ``memoization_hits``,
* its ``ReformulationProvenance``,

and every service answer must equal the chase.  Replaying is also work
proportional to the change: toggling one satellite in and out repeats the
same expansion and compile work every second toggle, with a node table
that does not grow.

Each case is one seed of ``random.Random``: a failure names the seed, and
rerunning that parameter replays it exactly.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.database import Instance
from repro.datalog.atoms import Atom, ComparisonAtom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    InclusionMapping,
    Peer,
    QueryService,
    StorageDescription,
    answer_query,
    certain_answers,
    combine_peer_instances,
    lav_style,
)
from repro.pdms import reformulation as reformulation_module
from repro.pdms import system as system_module
from repro.pdms.optimizations import ExpansionOrder, ReformulationConfig
from repro.pdms.planning import UnionPlan
from repro.pdms.reformulation import _TreeBuilder, canonicalize_query, reformulate

A, B, C = Variable("a"), Variable("b"), Variable("c")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")

BOTTOM = ("B0:r", "B1:r", "B2:r")
MIDDLE = ("M:m0", "M:m1", "M:m2")
TOP = ("T:t0", "T:t1")

CONFIGS = (
    ReformulationConfig(),
    # Dead ends stay in the tree, so a copied goal can flip to stored.
    ReformulationConfig(prune_dead_ends=False),
    ReformulationConfig(expansion_order=ExpansionOrder.DEPTH_FIRST),
    ReformulationConfig(expansion_order=ExpansionOrder.FEWEST_OPTIONS_FIRST),
)


def _atom(predicate, *terms):
    return Atom(predicate, list(terms))


def _query(head_terms, *body):
    return ConjunctiveQuery(Atom("Q", list(head_terms)), list(body))


def _rows(rng, count=4):
    return {(rng.randrange(4), rng.randrange(4)) for _ in range(count)}


def mapping_pool():
    """Every mapping a sequence may add, by name: data flows bottom → middle
    → top (acyclic, so the chase is exact), with definitional unions,
    two-sibling views, a synthetic-predicate inclusion, comparisons, and a
    rule over the stored-relation name ``w``."""
    pool = {}
    for i, bottom in enumerate(BOTTOM):
        for k, middle in enumerate(MIDDLE):
            pool[f"up_{i}_{k}"] = lav_style(
                _atom(bottom, A, B), _query((A, B), _atom(middle, A, B)), name=f"up_{i}_{k}")
            pool[f"mdef_{k}_{i}"] = DefinitionalMapping(
                ConjunctiveQuery(_atom(middle, X, Y), [_atom(bottom, X, Y)]), name=f"mdef_{k}_{i}")
        for k, l in ((0, 1), (1, 2)):
            # A view over two middle atoms joined on an existential: its MCD
            # covers both goals of a query joining them.
            pool[f"pair_{i}_{k}{l}"] = lav_style(
                _atom(bottom, A, B),
                _query((A, B), _atom(MIDDLE[k], A, C), _atom(MIDDLE[l], C, B)),
                name=f"pair_{i}_{k}{l}",
            )
    for k, middle in enumerate(MIDDLE):
        for j, top in enumerate(TOP):
            pool[f"top_{k}_{j}"] = lav_style(
                _atom(middle, A, B), _query((A, B), _atom(top, A, B)), name=f"top_{k}_{j}")
            pool[f"tdef_{j}_{k}"] = DefinitionalMapping(
                ConjunctiveQuery(_atom(top, X, Y), [_atom(middle, X, Z), _atom(MIDDLE[k - 1], Z, Y)]),
                name=f"tdef_{j}_{k}",
            )
            pool[f"tcmp_{j}_{k}"] = DefinitionalMapping(
                ConjunctiveQuery(
                    _atom(top, X, Y), [_atom(middle, X, Y), ComparisonAtom(X, "<", Constant(2))]),
                name=f"tcmp_{j}_{k}",
            )
        pool[f"wdef_{k}"] = DefinitionalMapping(
            ConjunctiveQuery(_atom(middle, X, Y), [_atom("B0:r", X, Z), _atom("w", Z, Y)]),
            name=f"wdef_{k}",
        )
    pool["glav_01_2"] = InclusionMapping(
        ConjunctiveQuery(_atom("G", X, Y), [_atom("B0:r", X, Z), _atom("B1:r", Z, Y)]),
        _query((X, Y), _atom("M:m2", X, Y)),
        name="glav_01_2",
    )
    return pool


QUERIES = (
    _query((X, Y), _atom("T:t0", X, Y)),
    _query((X, Y), _atom("T:t0", X, Z), _atom("T:t1", Z, Y)),
    _query((X, Y), _atom("M:m0", X, Z), _atom("M:m1", Z, Y)),
    _query((X, Y), _atom("M:m1", X, Z), _atom("M:m2", Z, Y)),
    _query((X, Y), _atom("T:t1", X, Y), ComparisonAtom(Y, ">", Constant(0))),
    _query((X,), _atom("M:m2", X, Y)),
)


class World:
    """One random PDMS behind a ``QueryService``, the live per-peer data,
    and the random changes that drive both."""

    def __init__(self, seed: int, direct: bool = False, adaptive=None):
        self.rng = rng = random.Random(seed)
        self.config = CONFIGS[seed % len(CONFIGS)]
        #: Apply mapping changes to the PDMS behind the service's back (the
        #: service replays its change log, which may have been truncated).
        self.direct = direct
        self.pool = mapping_pool()
        self.data = {}
        pdms = PDMS(f"incremental-{seed}")
        for name, relations in (("M", MIDDLE), ("T", TOP)):
            peer = pdms.add_peer(name)
            for relation in relations:
                peer.add_relation(relation.partition(":")[2], ["a", "b"])
        for i, bottom in enumerate(BOTTOM):
            peer = pdms.add_peer(f"B{i}")
            peer.add_relation("r", ["a", "b"])
            pdms.add_storage_description(StorageDescription(
                f"B{i}", f"s{i}", ConjunctiveQuery(_atom(f"s{i}", A, B), [_atom(bottom, A, B)]),
                name=f"store_{i}",
            ))
            self.data[f"B{i}"] = Instance.from_dict({f"s{i}": _rows(rng)})
        self.present = set()
        for name in rng.sample(sorted(self.pool), 9):
            pdms.add_peer_mapping(self.pool[name])
            self.present.add(name)
        self.queries = rng.sample(QUERIES, 3)
        # A plan engine, so rebuilt plans compile (and carry) too.
        self.service = QueryService(
            pdms, config=self.config, engine="columnar", data=dict(self.data), adaptive=adaptive
        )
        self.serial = 0
        self.satellites = []  # peers a leave may remove
        self.checked = 0

    @property
    def pdms(self) -> PDMS:
        return self.service.pdms

    # -- changes ---------------------------------------------------------------

    def join(self) -> None:
        """A satellite provider: ``SATn:x ⊆ <middle or top relation>``."""
        self.serial += 1
        name, target = f"SAT{self.serial}", self.rng.choice(MIDDLE + TOP)
        peer = Peer(name)
        peer.add_relation("x", ["a", "b"])
        self.service.add_peer(peer)
        self.service.add_peer_mapping(lav_style(
            _atom(f"{name}:x", A, B), _query((A, B), _atom(target, A, B)), name=f"sat_map_{name}"))
        stored = f"sat_store_{self.serial}"
        self.service.add_storage_description(StorageDescription(
            name, stored, ConjunctiveQuery(_atom(stored, A, B), [_atom(f"{name}:x", A, B)]),
            name=f"sat_desc_{name}",
        ))
        self.attach(name, Instance.from_dict({stored: _rows(self.rng)}))

    def provide(self) -> None:
        """A peer storing a middle or top relation directly: a predicate
        that was unproductive may turn productive."""
        self.serial += 1
        name, relation = f"P{self.serial}", self.rng.choice(MIDDLE + TOP)
        self.service.add_peer(name)
        stored = f"ps_{self.serial}"
        self.service.add_storage_description(StorageDescription(
            name, stored, ConjunctiveQuery(_atom(stored, A, B), [_atom(relation, A, B)]),
            name=f"provide_{name}",
        ))
        self.attach(name, Instance.from_dict({stored: _rows(self.rng)}))

    def store_w(self) -> None:
        """``w`` turns into a stored relation (and productive)."""
        if "W" in self.pdms:
            return
        peer = Peer("W")
        peer.add_stored_relation("w", ["a", "b"])
        self.service.add_peer(peer, data=Instance.from_dict({"w": _rows(self.rng)}))
        self.data["W"] = self.service._peer_data["W"]
        self.satellites.append("W")

    def attach(self, name: str, instance: Instance) -> None:
        self.service.set_peer_data(name, instance)
        self.data[name] = instance
        self.satellites.append(name)

    def leave(self) -> None:
        if self.satellites:
            name = self.satellites.pop(self.rng.randrange(len(self.satellites)))
            self.service.remove_peer(name)
            self.data.pop(name, None)

    def add_mapping(self) -> None:
        absent = sorted(set(self.pool) - self.present)
        if absent:
            name = self.rng.choice(absent)
            (self.pdms if self.direct else self.service).add_peer_mapping(self.pool[name])
            self.present.add(name)

    def remove_mapping(self) -> None:
        if self.present:
            name = self.rng.choice(sorted(self.present))
            (self.pdms if self.direct else self.service).remove_peer_mapping(name)
            self.present.discard(name)

    def change(self) -> None:
        getattr(self, self.rng.choice((
            "join", "join", "leave", "leave", "provide", "store_w",
            "add_mapping", "add_mapping", "remove_mapping", "remove_mapping",
        )))()

    # -- checks ----------------------------------------------------------------

    def complete(self) -> bool:
        """Is the reformulation complete here?  A view with an existential
        variable (``pair_*``) loses the answers whose join runs through it
        across two branches of the tree — fresh and rebuilt alike."""
        return not any(name.startswith("pair_") for name in self.present)

    def check_answer(self, query) -> None:
        """The service's answer is a fresh one's, and the chase's where the
        reformulation is complete."""
        rows = self.service.answer(query)
        combined = combine_peer_instances(self.data)
        assert rows == answer_query(self.pdms, query, combined, engine="backtracking")
        if self.complete():
            assert rows == certain_answers(self.pdms, query, combined), f"{query}"

    def check(self) -> None:
        for query in self.queries:
            self.check_answer(query)
            served = self.service.reformulate(query)
            assert_same_as_fresh(served, reformulate(self.pdms, served.query, self.config))
            self.checked += 1


def _signatures(result):
    return sorted(canonicalize_query(rewriting).signature for rewriting in result.all_rewritings())


def _statistics(result):
    fields = dataclasses.asdict(result.statistics)
    del fields["memoization_hits"]
    return fields


def assert_same_as_fresh(result, fresh) -> None:
    assert _statistics(result) == _statistics(fresh)
    assert result.provenance == fresh.provenance
    assert _signatures(result) == _signatures(fresh)


def run_sequence(seed: int, steps: int = 14, direct: bool = False) -> World:
    world = World(seed, direct=direct)
    world.check()
    for _ in range(steps):
        world.change()
        if world.rng.random() < 0.6:
            world.check()
    world.check()
    return world


@pytest.mark.parametrize("seed", range(36))
def test_rebuilt_reformulations_equal_fresh_ones_and_answers_the_chase(seed):
    world = run_sequence(seed)
    assert world.checked
    # The sequences exercise the replay, not only fresh builds.
    assert _replayed(world.service) > 0 or not world.service.stats.invalidations


def _replayed(service) -> int:
    return service.metrics_snapshot()["counters"].get("reformulation.replayed", 0)


@pytest.mark.parametrize("seed", range(8))
def test_a_truncated_change_log_rebuilds_from_nothing(seed, monkeypatch):
    # Mapping changes bypass the service; with a log of two entries its
    # cursor falls out of the log, and every entry goes at once.
    monkeypatch.setattr(system_module, "MAX_CHANGE_LOG", 2)
    world = World(seed, direct=True)
    world.check()
    for _ in range(3):
        replayed = _replayed(world.service)
        for _ in range(3):
            world.add_mapping()
        assert world.pdms.changes_since(world.service._seen_version)[0].full
        world.check()
        assert _replayed(world.service) == replayed and not world.service._stale
    run_sequence(seed, direct=True)


def test_rebuilding_from_a_result_of_another_query_or_config_is_a_fresh_build():
    world = World(0)
    one, other = world.queries[:2]
    stale = reformulate(world.pdms, one)
    world.join()
    rebuilt = reformulate(world.pdms, other, previous=stale)
    assert_same_as_fresh(rebuilt, reformulate(world.pdms, other))
    rebuilt = reformulate(world.pdms, one, ReformulationConfig(prune_dead_ends=False), previous=stale)
    assert_same_as_fresh(rebuilt, reformulate(world.pdms, one, ReformulationConfig(prune_dead_ends=False)))


class _Work:
    """Counts entries expanded afresh (a definitional rule unified with a
    goal, an inclusion's MCDs formed for one) and rules compiled; replayed
    entries and carried compiles are not counted."""

    def __init__(self, monkeypatch):
        self.expansions = self.compiles = 0
        for owner, name, counter in (
            (reformulation_module, "unify_atoms", "expansions"),
            (_TreeBuilder, "_mcds_for", "expansions"),
            (UnionPlan, "_rule_alternatives", "compiles"),
        ):
            original = getattr(owner, name)

            def counted(*args, _original=original, _counter=counter, **kwargs):
                setattr(self, _counter, getattr(self, _counter) + 1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

    def take(self):
        taken = (self.expansions, self.compiles)
        self.expansions = self.compiles = 0
        return taken


def test_a_pure_reformulate_keeps_nothing_between_calls(monkeypatch):
    world = World(2)
    query = world.queries[0]
    work = _Work(monkeypatch)
    results, per_call = [], []
    for _ in range(3):
        results.append(reformulate(world.pdms, query))
        per_call.append(work.take())
    assert per_call[0][0] > 0 and per_call == [per_call[0]] * 3
    for result in results:
        assert result._seed_plan is None
        assert not any(rule.source for rule in result.tree.rule_nodes())


def _toggle_world():
    """The benchmark's churn shape in small: a satellite that maps onto the
    first goal of a two-goal query.  Not adaptive: adaptive plans compile
    from scratch, carrying nothing."""
    world = World(1, adaptive=False)
    for name in ("up_0_0", "up_1_1", "top_0_0", "top_1_1", "pair_2_01", "tdef_0_1"):
        if name not in world.present:
            world.service.add_peer_mapping(world.pool[name])
            world.present.add(name)
    return world


def test_toggling_a_satellite_repeats_the_same_work_and_the_node_table_holds(monkeypatch):
    world = _toggle_world()
    query = QUERIES[1]
    world.service.answer(query)
    satellite = Peer("SAT")
    satellite.add_relation("x", ["a", "b"])
    mapping = lav_style(_atom("SAT:x", A, B), _query((A, B), _atom("T:t0", A, B)), name="sat_map")
    description = StorageDescription(
        "SAT", "sat_store", ConjunctiveQuery(_atom("sat_store", A, B), [_atom("SAT:x", A, B)]),
        name="sat_desc",
    )

    fresh_work = _Work(monkeypatch)
    reformulate(world.pdms, world.service.reformulate(query).query, world.config)
    full_expansions, _ = fresh_work.take()

    work, tables = [], []
    for toggle in range(8):
        if toggle % 2 == 0:
            world.service.add_peer(satellite)
            world.service.add_peer_mapping(mapping)
            world.service.add_storage_description(description)
            world.service.set_peer_data("SAT", Instance.from_dict({"sat_store": {(1, 2)}}))
            world.data["SAT"] = world.service._peer_data["SAT"]
        else:
            world.service.remove_peer("SAT")
            world.data.pop("SAT")
        world.service.answer(query)
        work.append(fresh_work.take())
        result = world.service.reformulate(query)
        tables.append(len(result._shared_plan.nodes))
        assert_same_as_fresh(result, reformulate(world.pdms, result.query, world.config))
        fresh_work.take()
        assert result._seed_plan is None  # taken, and dropped, by the compile
        assert not any(rule.source for rule in result.tree.rule_nodes())
    assert all(expansions < full_expansions for expansions, _ in work)
    for toggle in range(2, 8):
        assert work[toggle] == work[toggle - 2], work
        assert tables[toggle] == tables[toggle - 2], tables
    world.check_answer(query)
