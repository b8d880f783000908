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

A miss whose catalogue is back in a state a kept result was built for
revives that result instead, with no work at all.  Over seeded sequences
of satellites joining, leaving and re-joining — as they were, with new
data, or under the same names with a changed mapping or description —
every revived result must equal a fresh build in the same three ways,
every answer the oracle's, and a changed re-join must not revive.

Each case is one seed of ``random.Random``: a failure names the seed, and
rerunning that parameter replays it exactly.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

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
from repro.pdms.planning import UnionPlan
from repro.pdms.reformulation import (
    ReformulationConfig,
    _TreeBuilder,
    canonicalize_query,
    reformulate,
)

A, B, C = Variable("a"), Variable("b"), Variable("c")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")

BOTTOM = ("B0:r", "B1:r", "B2:r")
MIDDLE = ("M:m0", "M:m1", "M:m2")
TOP = ("T:t0", "T:t1")

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

    def __init__(self, seed: int, direct: bool = False):
        self.rng = rng = random.Random(seed)
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
        self.service = QueryService(pdms, engine="columnar", data=dict(self.data))
        self.serial = 0
        self.satellites = []  # peers a leave may remove
        #: Joined satellites, and departed ones a re-join may bring back:
        #: name -> (the relation its mapping targets, its stored relation).
        self.joined, self.departed = {}, {}
        self.checked = 0

    @property
    def pdms(self) -> PDMS:
        return self.service.pdms

    # -- changes ---------------------------------------------------------------

    def join(self) -> None:
        """A satellite provider: ``SATn:x ⊆ <middle or top relation>``."""
        self.serial += 1
        name, target = f"SAT{self.serial}", self.rng.choice(MIDDLE + TOP)
        self.enter(name, target, f"sat_store_{self.serial}")

    def rejoin(self, changed: bool = False, name: Optional[str] = None) -> None:
        """A departed satellite comes back under its name, with new data,
        and with the mapping and description it had or (``changed``) with a
        mapping onto another relation or a description of another stored
        relation."""
        if self.departed:
            name = name if name is not None else self.rng.choice(sorted(self.departed))
            target, stored = self.departed.pop(name)
            if changed and self.rng.random() < 0.5:
                target = self.rng.choice([t for t in MIDDLE + TOP if t != target])
            elif changed:
                stored = f"{stored}_r"
            self.enter(name, target, stored)

    def rejoin_changed(self) -> None:
        self.rejoin(changed=True)

    def enter(self, name: str, target: str, stored: str) -> None:
        """Satellite ``name`` joins, storing ``stored`` and mapped onto ``target``."""
        peer = Peer(name)
        peer.add_relation("x", ["a", "b"])
        self.service.add_peer(peer)
        self.service.add_peer_mapping(lav_style(
            _atom(f"{name}:x", A, B), _query((A, B), _atom(target, A, B)), name=f"sat_map_{name}"))
        self.service.add_storage_description(StorageDescription(
            name, stored, ConjunctiveQuery(_atom(stored, A, B), [_atom(f"{name}:x", A, B)]),
            name=f"sat_desc_{name}",
        ))
        self.attach(name, Instance.from_dict({stored: _rows(self.rng)}))
        self.joined[name] = (target, stored)

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

    def leave(self, name: Optional[str] = None) -> None:
        """A random peer leaves, or the one called ``name``."""
        if name is not None:
            self.satellites.remove(name)
        elif self.satellites:
            name = self.satellites.pop(self.rng.randrange(len(self.satellites)))
        if name is not None:
            self.service.remove_peer(name)
            self.data.pop(name, None)
            if name in self.joined:
                self.departed[name] = self.joined.pop(name)

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
            assert_same_as_fresh(served, reformulate(self.pdms, served.query))
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


def _revived(service) -> int:
    return service.metrics_snapshot()["counters"].get("reformulation.revived", 0)


def _forget_older_states(service) -> None:
    """Keep only each signature's newest result, so that the next miss
    replays it instead of reviving an older one."""
    for kept in service._kept.values():
        del kept[:-1]


def churn_sequence(seed: int, steps: int = 16) -> World:
    """Satellites joining, leaving and re-joining — unchanged, or with a
    changed mapping or description under the same names — every step
    checked."""
    world = World(seed)
    world.check()
    for _ in range(steps):
        world.rng.choice((
            world.join, world.leave, world.leave, world.rejoin, world.rejoin,
            world.rejoin_changed,
        ))()
        world.check()
    return world


@pytest.mark.parametrize("seed", range(24))
def test_revived_reformulations_equal_fresh_ones_and_answers_the_chase(seed):
    # World.check holds every served result, revived ones included, ≡ a
    # fresh build, and every answer ≡ backtracking (and the chase).
    world = churn_sequence(seed)
    assert world.checked
    if not world.joined:
        world.join()
        world.check()
    # The last satellite to join leaves and comes back as it was: every
    # miss after it returns is a catalogue state read before it left.
    (name, _), service = list(world.joined.items())[-1], world.service
    world.leave(name)
    world.check()
    misses, revived = service.stats.misses, _revived(service)
    world.rejoin(name=name)
    world.check()
    assert _revived(service) - revived == service.stats.misses - misses


def test_a_rejoin_revives_only_an_unchanged_catalogue():
    """A satellite that comes back as it was — with other data — revives
    the results built while it was joined; one that comes back under the
    same names with a changed mapping or a changed description does not."""
    world = _toggle_world()
    query = QUERIES[1]
    service = world.service

    def read(revives: bool) -> None:
        counters = (_revived(service), _replayed(service), service.stats.plans_compiled)
        world.check_answer(query)
        served = service.reformulate(query)
        assert_same_as_fresh(served, reformulate(world.pdms, served.query))
        if revives:
            assert (_revived(service), _replayed(service), service.stats.plans_compiled) == (
                counters[0] + 1, counters[1], counters[2])
        else:
            assert _revived(service) == counters[0] and _replayed(service) == counters[1] + 1

    world.check_answer(query)
    world.enter("SAT", "T:t0", "sat_store")
    read(revives=False)
    for target, stored, revives in (
        ("T:t0", "sat_store", True),  # as it was, with new rows
        ("T:t1", "sat_store", False),  # a changed mapping, same name
        ("T:t1", "sat_other", False),  # a changed description and stored relation
        ("T:t1", "sat_other", True),  # the changed one again, as it was
    ):
        world.leave()
        read(revives=True)  # the catalogue is the one before the join
        world.enter("SAT", target, stored)
        read(revives=revives)


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
        assert _replayed(world.service) == replayed
        # Nothing from before the truncation is kept.
        assert all(len(kept) == 1 for kept in world.service._kept.values())
    run_sequence(seed, direct=True)


def test_rebuilding_from_a_result_of_another_query_or_config_is_a_fresh_build():
    world = World(0)
    one, other = world.queries[:2]
    stale = reformulate(world.pdms, one)
    world.join()
    rebuilt = reformulate(world.pdms, other, previous=stale)
    assert_same_as_fresh(rebuilt, reformulate(world.pdms, other))
    capped = ReformulationConfig(max_depth=8)
    rebuilt = reformulate(world.pdms, one, capped, previous=stale)
    assert_same_as_fresh(rebuilt, reformulate(world.pdms, one, capped))


def test_a_copied_goal_that_turned_stored_is_not_replayed():
    """``w`` is productive whether stored or not (``wdef`` defines it), so
    no predicate's status moves when peer W starts storing it: ``mdef`` is
    copied, and its copied goal ``w`` — a stored leaf now — differs from
    the stale goal it copies.  The rebuilt tree, and the plan compiled
    from the stale plan, must not reuse what the stale tree expanded
    under ``w``; and the same holds when W leaves again."""
    pdms = PDMS("stored-flip")
    pdms.add_peer("M").add_relation("m", ["a", "b"])
    pdms.add_peer("B0").add_relation("r", ["a", "b"])
    pdms.add_storage_description(StorageDescription(
        "B0", "s0", ConjunctiveQuery(_atom("s0", A, B), [_atom("B0:r", A, B)]), name="store_0"))
    pdms.add_peer_mapping(DefinitionalMapping(
        ConjunctiveQuery(_atom("M:m", X, Y), [_atom("B0:r", X, Z), _atom("w", Z, Y)]),
        name="mdef"))
    pdms.add_peer_mapping(DefinitionalMapping(
        ConjunctiveQuery(_atom("w", X, Y), [_atom("B0:r", X, Y)]), name="wdef"))
    data = {"B0": Instance.from_dict({"s0": {(1, 2), (2, 3), (3, 1)}})}
    service = QueryService(pdms, engine="columnar", data=dict(data))
    query = _query((X, Y), _atom("M:m", X, Y))

    def check(stored: bool) -> None:
        served = service.reformulate(query)
        assert_same_as_fresh(served, reformulate(pdms, served.query))
        (goal,) = [g for g in served.tree.goal_nodes() if g.label.predicate == "w"]
        assert goal.is_stored is stored and bool(goal.children) is not stored
        assert ("wdef" in served.provenance.used_origins) is not stored
        rows = service.answer(query)
        combined = combine_peer_instances(data)
        assert rows == answer_query(pdms, query, combined, engine="backtracking")
        assert rows

    check(stored=False)
    for _ in range(2):
        replayed = _replayed(service)
        # Each change replays, in either direction: nothing older is revived.
        _forget_older_states(service)
        peer = Peer("W")
        peer.add_stored_relation("w", ["a", "b"])
        data["W"] = Instance.from_dict({"w": {(2, 7), (1, 8)}})
        service.add_peer(peer, data=data["W"])
        check(stored=True)
        _forget_older_states(service)
        service.remove_peer("W")
        data.pop("W")
        check(stored=False)
        assert _replayed(service) == replayed + 2


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
    first goal of a two-goal query."""
    world = World(1)
    for name in ("up_0_0", "up_1_1", "top_0_0", "top_1_1", "pair_2_01", "tdef_0_1"):
        if name not in world.present:
            world.service.add_peer_mapping(world.pool[name])
            world.present.add(name)
    return world


def _toggles(world, query, monkeypatch, replay: bool):
    """Toggle one satellite in and out eight times, reading ``query``
    after each; with ``replay`` every read rebuilds from the result it
    replaces.  Returns the full build's expansions, and per toggle the
    work done and the size of the plan's node table."""
    world.service.answer(query)
    satellite = Peer("SAT")
    satellite.add_relation("x", ["a", "b"])
    mapping = lav_style(_atom("SAT:x", A, B), _query((A, B), _atom("T:t0", A, B)), name="sat_map")
    description = StorageDescription(
        "SAT", "sat_store", ConjunctiveQuery(_atom("sat_store", A, B), [_atom("SAT:x", A, B)]),
        name="sat_desc",
    )

    fresh_work = _Work(monkeypatch)
    reformulate(world.pdms, world.service.reformulate(query).query)
    full_expansions, _ = fresh_work.take()

    work, tables = [], []
    for toggle in range(8):
        if replay:
            _forget_older_states(world.service)
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
        assert_same_as_fresh(result, reformulate(world.pdms, result.query))
        fresh_work.take()
        assert result._seed_plan is None  # taken, and dropped, by the compile
        assert not any(rule.source for rule in result.tree.rule_nodes())
    world.check_answer(query)
    return full_expansions, work, tables


def test_toggling_a_satellite_repeats_the_same_work_and_the_node_table_holds(monkeypatch):
    world = _toggle_world()
    full_expansions, work, tables = _toggles(world, QUERIES[1], monkeypatch, replay=True)
    assert all(expansions < full_expansions for expansions, _ in work)
    for toggle in range(2, 8):
        assert work[toggle] == work[toggle - 2], work
        assert tables[toggle] == tables[toggle - 2], tables
    assert _replayed(world.service) == 8 and _revived(world.service) == 0


def test_a_toggled_satellite_costs_no_work_from_the_second_toggle_on(monkeypatch):
    """Every catalogue state after the first join recurs: each read after
    a toggle revives the result (and the compiled plan) built for it."""
    world = _toggle_world()
    full_expansions, work, tables = _toggles(world, QUERIES[1], monkeypatch, replay=False)
    assert 0 < work[0][0] < full_expansions
    assert work[1:] == [(0, 0)] * 7, work
    for toggle in range(2, 8):
        assert tables[toggle] == tables[toggle - 2], tables
    assert _replayed(world.service) == 1 and _revived(world.service) == 7
