"""The maintained catalogue against a fresh normalisation.

Once built, :meth:`PDMS.catalogue` is never rebuilt: every mutation edits
it in place through the PDMS's indexes (the owner of each stored
relation, origins per peer, mapping origins per single-atom head).  Over
random sequences of joins (with and without stored relations), the three
mapping kinds (some with a stored relation on the left), storage
descriptions (some querying other peers), leaves, mapping removals and
stored relations declared or undeclared directly on a registered peer,
after every step:

* the catalogue has the content of ``pdms._normalise()``;
* each predicate's index tuple lists its entries in the order their
  origins were added, whatever was removed in between;
* ``stored_relation_names()`` is the union of the peers' own declarations;
* the productive and coverable predicates are the naive fixpoints;
* ``changes_since(v)``, for every earlier ``v``, is the suffix of the
  changes a reference model of each mutation expects.

The pool of stored-relation names is shared by every peer, and draws keep
naming relations another peer already stores: a join, an auto-declaring
storage description or a declaration on a registered peer that would give
one a second owner is refused with :class:`PDMSConfigurationError` naming
both peers, and changes nothing (version, stored relations, peers,
origins, the built catalogue's content).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.errors import PDMSConfigurationError
from repro.pdms import (
    PDMS,
    DefinitionalMapping,
    EqualityMapping,
    InclusionMapping,
    Peer,
    StorageDescription,
    lav_style,
    replication,
)

from .test_productive_predicates_properties import naive_productive

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
PEERS = ("A", "B", "C", "D")
PEER_RELATIONS = tuple(f"{peer}:{relation}" for peer in PEERS for relation in ("r", "t"))
STORED = ("s0", "s1", "s2")
#: Left-hand sides of single-atom inclusions and equalities: a stored
#: relation there flips its entry's ``stored`` flag with the relation.
LEFT = PEER_RELATIONS + STORED
KINDS = (
    "join", "join", "lav", "general", "equality", "definitional", "storage", "storage",
    "leave", "remove_mapping", "declare", "build",
)


def _chain(head: str, predicates) -> ConjunctiveQuery:
    """``head(x, y) :- p1(x, y)`` or ``head(x, y) :- p1(x, z), p2(z, y)``."""
    if len(predicates) == 1:
        return ConjunctiveQuery(Atom(head, [X, Y]), [Atom(predicates[0], [X, Y])])
    first, second = predicates
    return ConjunctiveQuery(Atom(head, [X, Y]), [Atom(first, [X, Z]), Atom(second, [Z, Y])])


def _body(b: int, c: int, d: int):
    relations = (PEER_RELATIONS[b % len(PEER_RELATIONS)], PEER_RELATIONS[c % len(PEER_RELATIONS)])
    return relations[: 1 + d % 2]


# -- the reference model of the change log ---------------------------------------------


def _inclusion_footprint(inclusion: InclusionMapping) -> set:
    predicates = set(inclusion.right.predicates())
    if not inclusion.left_is_single_atom():
        predicates.add(f"__ppl_{inclusion.name}")
    return predicates


def expected_footprint(mapping) -> set:
    """The predicates whose goals ``mapping`` can expand."""
    if isinstance(mapping, DefinitionalMapping):
        return {mapping.head_predicate}
    if isinstance(mapping, EqualityMapping):
        forward, backward = mapping.as_inclusions()
        return _inclusion_footprint(forward) | _inclusion_footprint(backward)
    return _inclusion_footprint(mapping)


def expected_leave(pdms: PDMS, name: str):
    """The change ``remove_peer(name)`` records, by a scan of everything."""
    peer = pdms.peer(name)
    affected = set(peer.peer_relation_names()) | set(peer.stored_relation_names())
    removed = set()
    for description in pdms.storage_descriptions():
        if description.peer == name or name in description.references_peers():
            removed.add(description.name)
            affected |= description.query.predicates() | {description.relation}
    for mapping in pdms.peer_mappings():
        if name in mapping.references_peers():
            removed.add(mapping.name)
            affected |= expected_footprint(mapping)
    return ("remove-peer", frozenset(affected), frozenset(removed))


# -- the checks ------------------------------------------------------------------------


def _signature(entry) -> tuple:
    if hasattr(entry, "rule"):
        return ("rule", entry.origin, str(entry.rule), entry.synthetic)
    return ("inclusion", entry.origin, str(entry.view.definition), entry.view.kind, entry.stored)


def _content(catalogue) -> tuple:
    """Every entry and index tuple, as sorted signatures (a multiset)."""
    return (
        sorted(map(_signature, catalogue.rules)),
        sorted(map(_signature, catalogue.inclusions)),
        catalogue.stored_relations,
        {p: sorted(map(_signature, rs)) for p, rs in catalogue.rules_by_head.items()},
        {
            p: sorted(map(_signature, entries))
            for p, entries in catalogue.inclusions_by_body_predicate.items()
        },
    )


def check_catalogue(pdms: PDMS, order: list) -> None:
    catalogue = pdms.catalogue()
    fresh = pdms._normalise()
    assert _content(catalogue) == _content(fresh)
    # Per predicate, the fresh entries sorted (stably) by when their origin
    # was added are the maintained tuple, entry for entry.
    position = {origin: index for index, origin in enumerate(order)}
    for maintained, rebuilt in (
        (catalogue.rules_by_head, fresh.rules_by_head),
        (catalogue.inclusions_by_body_predicate, fresh.inclusions_by_body_predicate),
    ):
        for predicate, entries in rebuilt.items():
            expected = sorted(entries, key=lambda entry: position[entry.origin])
            assert list(map(_signature, maintained[predicate])) == list(map(_signature, expected))
    assert catalogue.productive_predicates() == naive_productive(fresh)
    coverable = set()
    for inclusion in fresh.inclusions:
        coverable |= inclusion.view.definition.predicates()
    assert catalogue.coverable_predicates() == coverable


def check_changes(pdms: PDMS, expected: list) -> None:
    """``expected[i]`` is the (kind, affected, removed) of version i + 1."""
    assert pdms.catalogue_version == len(expected)
    for version in range(len(expected) + 1):
        changes = pdms.changes_since(version)
        assert [
            (c.version, c.kind, c.affected_predicates, c.removed_origins, c.full) for c in changes
        ] == [
            (index + 1, kind, affected, removed, False)
            for index, (kind, affected, removed) in enumerate(expected)
        ][version:]


# -- the mutations ---------------------------------------------------------------------


class World:
    """A PDMS driven by drawn steps, with what the checks compare it to."""

    def __init__(self) -> None:
        self.pdms = PDMS("maintained")
        self.expected: list = []
        #: Origins in the order the catalogue saw them (once built).
        self.order: list = []
        self.serial = 0

    def registered(self):
        return [peer.name for peer in self.pdms.peers()]

    def origins(self):
        return [m.name for m in self.pdms.peer_mappings()] + [
            d.name for d in self.pdms.storage_descriptions()
        ]

    def built(self) -> bool:
        return self.pdms._catalogue is not None

    def added(self, origin: str) -> None:
        if self.built():
            self.order.append(origin)

    def owner_of(self, relation: str):
        """The registered peer storing ``relation``, if any."""
        for peer in self.pdms.peers():
            if relation in peer.stored_relation_names():
                return peer.name
        return None

    def state(self) -> tuple:
        pdms = self.pdms
        return (
            pdms.catalogue_version,
            pdms.stored_relation_names(),
            self.registered(),
            self.origins(),
            _content(pdms.catalogue()) if self.built() else None,
        )

    def refused(self, mutate, relation: str, peer_name: str) -> None:
        """``mutate`` would make ``peer_name`` a second owner of
        ``relation``: it raises naming both peers, and nothing changes."""
        owner = self.owner_of(relation)
        assert owner is not None and owner != peer_name
        before = self.state()
        with pytest.raises(PDMSConfigurationError) as excinfo:
            mutate()
        message = str(excinfo.value)
        assert repr(relation) in message
        assert repr(owner) in message and repr(peer_name) in message
        assert self.state() == before

    def add_mapping(self, mapping) -> None:
        self.pdms.add_peer_mapping(mapping)
        self.expected.append(("add-mapping", frozenset(expected_footprint(mapping)), frozenset()))
        self.added(mapping.name)

    def step(self, kind: str, a: int, b: int, c: int, d: int) -> None:
        self.serial += 1
        name = f"o{self.serial}"
        pdms = self.pdms
        if kind == "join":
            peer_name = PEERS[a % len(PEERS)]
            if peer_name in pdms:
                return
            peer = Peer(peer_name)
            peer.add_relation("r", ["x", "y"])
            peer.add_relation("t", ["x", "y"])
            for index, relation in enumerate(STORED):
                if b >> index & 1:
                    peer.add_stored_relation(relation, ["x", "y"])
            owned = [r for r in peer.stored_relation_names() if self.owner_of(r)]
            if owned:
                self.refused(lambda: pdms.add_peer(peer), owned[0], peer_name)
                return
            pdms.add_peer(peer)
            self.expected.append(
                ("add-peer", frozenset(peer.stored_relation_names()), frozenset())
            )
        elif kind == "lav":
            left = LEFT[a % len(LEFT)]
            self.add_mapping(lav_style(Atom(left, [X, Y]), _chain("V", _body(b, c, d)), name=name))
        elif kind == "general":
            left = ConjunctiveQuery(Atom("L", [X]), [Atom(LEFT[a % len(LEFT)], [X, Y])])
            right = ConjunctiveQuery(
                Atom("R", [X]), [Atom(PEER_RELATIONS[b % len(PEER_RELATIONS)], [X, Z])]
            )
            self.add_mapping(InclusionMapping(left, right, name=name))
        elif kind == "equality":
            left = LEFT[a % len(LEFT)]
            right = PEER_RELATIONS[b % len(PEER_RELATIONS)]
            self.add_mapping(replication(Atom(left, [X, Y]), Atom(right, [X, Y]), name=name))
        elif kind == "definitional":
            head = PEER_RELATIONS[a % len(PEER_RELATIONS)]
            self.add_mapping(DefinitionalMapping(_chain(head, _body(b, c, d)), name=name))
        elif kind == "storage":
            peers = self.registered()
            if not peers:
                return
            owner, relation = peers[a % len(peers)], STORED[b % len(STORED)]
            query = _chain(relation, _body(c, d, a + b))
            description = StorageDescription(
                owner, relation, query, exact=bool(d % 2), name=name
            )
            if self.owner_of(relation) not in (None, owner):
                self.refused(
                    lambda: pdms.add_storage_description(description), relation, owner
                )
                return
            pdms.add_storage_description(description)
            self.expected.append(
                ("add-storage", frozenset(query.predicates() | {relation}), frozenset())
            )
            self.added(name)
        elif kind == "leave":
            peers = self.registered()
            if not peers:
                return
            leaving = peers[a % len(peers)]
            self.expected.append(expected_leave(pdms, leaving))
            change = pdms.remove_peer(leaving)
            assert (change.kind, change.affected_predicates, change.removed_origins) == (
                self.expected[-1]
            )
        elif kind == "remove_mapping":
            mappings = pdms.peer_mappings()
            if not mappings:
                return
            mapping = mappings[a % len(mappings)]
            change = pdms.remove_peer_mapping(mapping.name)
            footprint = frozenset(expected_footprint(mapping))
            self.expected.append(("remove-mapping", footprint, frozenset({mapping.name})))
            assert (change.kind, change.affected_predicates, change.removed_origins) == (
                self.expected[-1]
            )
        elif kind == "declare":
            peers = self.registered()
            if not peers:
                return
            peer = pdms.peer(peers[a % len(peers)])
            relation = STORED[b % len(STORED)]
            if relation in peer.stored_relation_names():
                peer.remove_stored_relation(relation)
                self.expected.append(("undeclare-stored", frozenset({relation}), frozenset()))
            elif self.owner_of(relation) is not None:
                self.refused(
                    lambda: peer.add_stored_relation(relation, ["x", "y"]),
                    relation, peer.name,
                )
                assert relation not in peer.stored_relation_names()
            else:
                peer.add_stored_relation(relation, ["x", "y"])
                self.expected.append(("declare-stored", frozenset({relation}), frozenset()))
        elif kind == "build" and not self.built():
            self.order = [m.name for m in pdms.peer_mappings()] + [
                d.name for d in pdms.storage_descriptions()
            ]
            pdms.catalogue()
        surviving = set(self.origins())
        self.order = [origin for origin in self.order if origin in surviving]

    def check(self) -> None:
        pdms = self.pdms
        scanned = frozenset(r for peer in pdms.peers() for r in peer.stored_relation_names())
        assert pdms.stored_relation_names() == scanned
        assert all(pdms.is_stored_relation(r) == (r in scanned) for r in STORED)
        if self.built():
            check_catalogue(pdms, self.order)
        check_changes(pdms, self.expected)


steps = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, 15), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15),
    ),
    min_size=1,
    max_size=30,
)


@given(build_first=st.booleans(), steps=steps)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_maintained_catalogue_equals_a_fresh_normalisation(build_first, steps):
    world = World()
    if build_first:
        world.step("build", 0, 0, 0, 0)
    for step in steps:
        world.step(*step)
        world.check()
    world.step("build", 0, 0, 0, 0)
    world.check()


@pytest.mark.parametrize("seed", range(8))
def test_seeded_random_sequences(seed):
    """Long uniform sequences, which reach removals among many entries
    more often than the drawn ones do; a failure names its seed."""
    rng = random.Random(seed)
    for _ in range(25):
        world = World()
        if rng.random() < 0.5:
            world.step("build", 0, 0, 0, 0)
        for _ in range(rng.randint(1, 40)):
            world.step(rng.choice(KINDS), *(rng.randrange(16) for _ in range(4)))
            world.check()


def test_a_flip_replaces_only_the_flipped_entries_in_their_places():
    """A relation turning stored swaps each inclusion headed by it for a
    copy with the flag set; every other entry stays the same object."""
    pdms = PDMS()
    pdms.add_peer("A")
    catalogue = pdms.catalogue()
    pdms.add_peer_mapping(lav_style(Atom("A:r", [X, Y]), _chain("V", ("A:t",)), name="a"))
    pdms.add_peer_mapping(lav_style(Atom("s0", [X, Y]), _chain("V", ("A:r",)), name="b"))
    pdms.add_peer_mapping(replication(Atom("s0", [X, Y]), Atom("A:t", [X, Y]), name="c"))
    before = catalogue.inclusions
    assert [i.stored for i in before] == [False, False, False, False]
    pdms.peer("A").add_stored_relation("s0", ["x", "y"])
    after = catalogue.inclusions
    assert [i.stored for i in after] == [False, True, True, False]
    assert after[0] is before[0] and after[3] is before[3]
    assert catalogue.inclusions_mentioning("A:r") == (after[1],)
    assert catalogue.inclusions_mentioning("A:t") == (after[0], after[2])
    pdms.peer("A").remove_stored_relation("s0")
    assert [i.stored for i in catalogue.inclusions] == [False, False, False, False]
    assert catalogue.inclusions[0] is before[0]
