"""The PDMS object: peers, mappings, and the normalised PPL catalogue.

A :class:`PDMS` collects peers, storage descriptions, and peer mappings,
validates them, and produces the *normalised* form the reformulation
algorithm works on (Step 1 of Section 4.2):

* every equality peer mapping becomes two inclusion mappings;
* every inclusion ``Q1 ⊆ Q2`` becomes a pair ``V ⊆ Q2`` (an inclusion whose
  left-hand side is a single atom) plus a definitional rule ``V :- Q1``,
  where ``V`` is a fresh predicate — unless ``Q1`` is already a single
  atom, in which case that atom itself plays the role of ``V``;
* storage descriptions are already of the shape ``R ⊆ Q`` / ``R = Q`` with
  a single stored atom on the left.

The normalised catalogue indexes definitional rules by head predicate (for
GAV-style *definitional expansion*) and inclusion descriptions by the
predicates of their right-hand sides (for LAV-style *inclusion expansion*).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..datalog.atoms import Atom
from ..datalog.queries import ConjunctiveQuery, DatalogRule
from ..datalog.terms import FreshVariableFactory
from ..errors import MappingError, PDMSConfigurationError
from ..integration.minicon import PreparedView
from ..integration.views import View, ViewKind
from .mappings import (
    DefinitionalMapping,
    EqualityMapping,
    InclusionMapping,
    StorageDescription,
)
from .peer import Peer, StoredRelation

#: Any of the three peer-mapping flavours.
AnyPeerMapping = Union[InclusionMapping, EqualityMapping, DefinitionalMapping]


def _renamed_query(query: ConjunctiveQuery, predicate: str) -> ConjunctiveQuery:
    """``query`` under the head predicate ``predicate``: same head arguments,
    same body, hence as safe as ``query`` is."""
    return ConjunctiveQuery.trusted(Atom.trusted(predicate, query.head.args), query.body)


@dataclass(frozen=True)
class CatalogueChange:
    """One catalogue mutation, as reported from the PDMS change log.

    ``affected_predicates`` over-approximates the predicates whose
    reformulation behaviour may differ after the change: goal nodes over
    them may gain or lose expansions, or their stored/productive status
    may flip.  ``removed_origins`` names descriptions that no longer
    exist; any cached reformulation whose rule-goal tree used one of them
    is stale.  :class:`repro.pdms.service.QueryService` consumes these to
    invalidate only the affected cache entries.
    """

    version: int
    kind: str
    affected_predicates: frozenset = frozenset()
    removed_origins: frozenset = frozenset()
    #: ``True`` for the synthetic change returned when the requested
    #: history has been pruned from the bounded log: the caller cannot
    #: invalidate selectively and must treat *everything* as affected.
    full: bool = False


def _directions(mapping: AnyPeerMapping) -> Tuple[InclusionMapping, ...]:
    """The inclusions a mapping stands for: itself, an equality's two
    directions, none for a definitional mapping."""
    if isinstance(mapping, InclusionMapping):
        return (mapping,)
    if isinstance(mapping, EqualityMapping):
        return mapping.as_inclusions()
    return ()


def _synthetic_predicate(inclusion: InclusionMapping) -> str:
    """The fresh predicate ``V`` normalising a non-atomic left-hand side
    introduces."""
    return f"__ppl_{inclusion.name}"


def _as_change(record: tuple) -> CatalogueChange:
    """The :class:`CatalogueChange` of one change-log record."""
    version, kind, affected, removed = record
    return CatalogueChange(version, kind, frozenset(affected), frozenset(removed))


#: Retained change-log length; older entries are pruned and reads that
#: reach past the window degrade to one full-invalidation change.
MAX_CHANGE_LOG = 4096


@dataclass(frozen=True)
class NormalizedRule:
    """A definitional rule in the normalised catalogue.

    ``synthetic`` rules are the ``V :- Q1`` halves produced by normalising
    non-atomic inclusion left-hand sides; they are exempt from the
    "never reuse a description on a path" termination rule because using
    them is part of applying the *same* original description.
    """

    rule: DatalogRule
    origin: str
    synthetic: bool = False

    @property
    def head_predicate(self) -> str:
        """Predicate defined by the rule."""
        return self.rule.name

    def body_predicates(self) -> frozenset[str]:
        """Predicates of the rule's relational body (computed once)."""
        predicates = self.__dict__.get("_body_predicates")
        if predicates is None:
            # A frozen dataclass only blocks ``__setattr__``.
            predicates = self.__dict__["_body_predicates"] = self.rule.predicates()
        return predicates


@dataclass(frozen=True)
class NormalizedInclusion:
    """An inclusion description ``V ⊆ Q2`` (or ``V = Q2``) in normal form.

    ``view``'s head is the single left-hand-side atom (peer relation,
    stored relation, or synthetic predicate); its body is the right-hand
    side query.  ``stored`` records whether the head is a stored relation
    (then a goal node labelled with it is a leaf of the rule-goal tree).
    """

    view: View
    origin: str
    stored: bool = False

    @property
    def head_predicate(self) -> str:
        """The left-hand-side (view) predicate."""
        return self.view.name

    def body_predicates(self) -> frozenset[str]:
        """Predicates of the right-hand-side query (computed once)."""
        predicates = self.__dict__.get("_body_predicates")
        if predicates is None:
            # A frozen dataclass only blocks ``__setattr__``.
            predicates = self.__dict__["_body_predicates"] = self.view.definition.predicates()
        return predicates

    def with_stored(self, stored: bool) -> "NormalizedInclusion":
        """This entry with its ``stored`` flag set to ``stored`` (what it
        prepared so far carries over)."""
        flipped = NormalizedInclusion(self.view, self.origin, stored)
        flipped.__dict__.update(
            (key, value) for key, value in self.__dict__.items() if key.startswith("_")
        )
        return flipped

    def prepared_view(self) -> PreparedView:
        """The view renamed apart for MCD formation (prepared once).

        The renamed variables end in ``_<digits>`` after a non-empty stem;
        the reformulation poses its MCD queries over variables named
        ``_x<digits>``, which therefore never collide with them.
        """
        prepared = self.__dict__.get("_prepared_view")
        if prepared is None:
            prepared = self.__dict__["_prepared_view"] = PreparedView(
                self.view, FreshVariableFactory()
            )
        return prepared


class _Productivity:
    """The productive predicates plus the two indexes that grow the set.

    Productivity propagates along a worklist: a predicate turning
    productive fires the rules whose body mentions it (a rule fires when
    its last body predicate turns productive) and the inclusions it is the
    left-hand side of (their right-hand-side predicates turn productive).
    Adding entries only ever grows the set, so :meth:`grown` seeds the
    worklist with what the new entries make productive and leaves the rest
    of the set alone.  Immutable: growing builds a new object, so a set
    already handed to a reformulation never changes under it.
    """

    __slots__ = ("predicates", "rules_by_body", "inclusions_by_head")

    def __init__(
        self,
        predicates: frozenset,
        rules_by_body: Dict[str, Tuple[NormalizedRule, ...]],
        inclusions_by_head: Dict[str, Tuple[NormalizedInclusion, ...]],
    ) -> None:
        self.predicates = predicates
        self.rules_by_body = rules_by_body
        self.inclusions_by_head = inclusions_by_head

    def grown(
        self,
        rules: Sequence[NormalizedRule],
        inclusions: Sequence[NormalizedInclusion],
        stored: Iterable[str],
    ) -> "_Productivity":
        """The productivity of this catalogue plus ``rules``, ``inclusions``
        and the stored relations ``stored``."""
        productive = set(self.predicates)
        worklist: List[str] = []

        def mark(predicate: str) -> None:
            if predicate not in productive:
                productive.add(predicate)
                worklist.append(predicate)

        for predicate in stored:
            mark(predicate)
        # A new entry over already-productive predicates fires as it is
        # indexed; the rest fire from the worklist once their inputs do.
        rules_by_body = dict(self.rules_by_body)
        for rule in rules:
            body = rule.body_predicates()
            for predicate in body:
                rules_by_body[predicate] = rules_by_body.get(predicate, ()) + (rule,)
            if body and body <= productive:
                mark(rule.head_predicate)
        inclusions_by_head = dict(self.inclusions_by_head)
        for inclusion in inclusions:
            head = inclusion.head_predicate
            inclusions_by_head[head] = inclusions_by_head.get(head, ()) + (inclusion,)
            if head in productive:
                for predicate in inclusion.body_predicates():
                    mark(predicate)
        while worklist:
            predicate = worklist.pop()
            for rule in rules_by_body.get(predicate, ()):
                if rule.head_predicate not in productive and rule.body_predicates() <= productive:
                    mark(rule.head_predicate)
            for inclusion in inclusions_by_head.get(predicate, ()):
                for body_predicate in inclusion.body_predicates():
                    mark(body_predicate)
        return _Productivity(frozenset(productive), rules_by_body, inclusions_by_head)

    def shrunk(
        self,
        catalogue: "NormalizedCatalogue",
        gone: frozenset,
        rules: Sequence[NormalizedRule],
        inclusions: Sequence[NormalizedInclusion],
        unstored: Iterable[str],
    ) -> "_Productivity":
        """The productivity once the entries of the origins ``gone`` —
        ``rules`` and ``inclusions`` — are removed and the predicates
        ``unstored`` stopped being stored relations.

        Delete and re-derive: every productive predicate the removed
        entries or relations could have made productive, directly or
        along the indexes, is taken out; of those, the ones the remaining
        entries of ``catalogue`` still derive from what is left are put
        back, and the worklist grows the set from them."""
        productive = self.predicates
        lost: set = set()
        worklist: List[str] = []

        def lose(predicate: str) -> None:
            if predicate in productive and predicate not in lost:
                lost.add(predicate)
                worklist.append(predicate)

        for predicate in unstored:
            lose(predicate)
        for rule in rules:
            lose(rule.head_predicate)
        for inclusion in inclusions:
            for predicate in inclusion.body_predicates():
                lose(predicate)
        while worklist:
            predicate = worklist.pop()
            for rule in self.rules_by_body.get(predicate, ()):
                lose(rule.head_predicate)
            for inclusion in self.inclusions_by_head.get(predicate, ()):
                for body_predicate in inclusion.body_predicates():
                    lose(body_predicate)
        rules_by_body = _without(
            self.rules_by_body, gone, [p for rule in rules for p in rule.body_predicates()]
        )
        inclusions_by_head = _without(
            self.inclusions_by_head, gone, [inclusion.head_predicate for inclusion in inclusions]
        )
        left = frozenset(productive - lost)
        revived = [
            predicate for predicate in lost
            if catalogue.is_stored(predicate)
            or any(
                rule.body_predicates() and rule.body_predicates() <= left
                for rule in catalogue.definitional_for(predicate)
            )
            or any(
                inclusion.head_predicate in left
                for inclusion in catalogue.inclusions_mentioning(predicate)
            )
        ]
        return _Productivity(left, rules_by_body, inclusions_by_head).grown((), (), revived)


def _without(index: Dict[str, tuple], gone: frozenset, keys: Iterable[str]) -> Dict[str, tuple]:
    """A copy of ``index`` whose tuples under ``keys`` drop the entries of
    the origins ``gone``."""
    index = dict(index)
    for key in set(keys):
        kept = tuple([entry for entry in index.get(key, ()) if entry.origin not in gone])
        if kept:
            index[key] = kept
        else:
            index.pop(key, None)
    return index


class _DerivedState:
    """What the reformulation derives from the catalogue's entries alone.

    Every slot is filled on first use, never eagerly, and the whole object
    is replaced when the entries change, so a mutation pays nothing for it.
    A change keeps the way to the new productive set short: ``growth``
    is the last computed :class:`_Productivity` plus the entries added
    since, ``shrink`` the same plus what was removed since
    (:meth:`_Productivity.shrunk`); a mix of the two starts from nothing.
    """

    __slots__ = ("productivity", "coverable", "growth", "shrink", "entries")

    def __init__(self, growth: Optional[tuple] = None, shrink: Optional[tuple] = None) -> None:
        self.productivity: Optional[_Productivity] = None
        self.coverable: Optional[frozenset] = None
        self.growth = growth
        self.shrink = shrink
        #: predicate -> its (definitional, inclusion) entry tuples.
        self.entries: Dict[str, Tuple[tuple, tuple]] = {}

    @property
    def productive(self) -> Optional[frozenset]:
        """The productive predicates, once derived."""
        return None if self.productivity is None else self.productivity.predicates

    def after_adding(
        self, rules: List[NormalizedRule], inclusions: List[NormalizedInclusion], stored: frozenset
    ) -> "_DerivedState":
        """The state once these entries are added: nothing derived yet, but
        the productive set grows from this state's instead of restarting."""
        if self.productivity is not None:
            return _DerivedState((self.productivity, rules, inclusions, stored))
        if self.growth is not None:
            base, grown_rules, grown_inclusions, grown_stored = self.growth
            return _DerivedState((
                base, grown_rules + rules, grown_inclusions + inclusions, grown_stored | stored
            ))
        return _DerivedState()

    def after_removing(
        self,
        gone: frozenset,
        rules: List[NormalizedRule],
        inclusions: List[NormalizedInclusion],
        unstored: frozenset,
    ) -> "_DerivedState":
        """The state once these entries or stored relations are gone: the
        productive set shrinks from this state's instead of restarting."""
        if self.productivity is not None:
            return _DerivedState(shrink=(self.productivity, gone, rules, inclusions, unstored))
        if self.shrink is not None:
            base, shrunk_gone, shrunk_rules, shrunk_inclusions, shrunk_unstored = self.shrink
            return _DerivedState(shrink=(
                base, shrunk_gone | gone, shrunk_rules + rules,
                shrunk_inclusions + inclusions, shrunk_unstored | unstored,
            ))
        return _DerivedState()


class NormalizedCatalogue:
    """The complete normalised PPL catalogue of a PDMS.

    Entries are held per origin, origins in the order they were added, and
    indexed by predicate: definitional rules by head, inclusions by the
    predicates of their right-hand sides.  Every mutation touches only the
    origins and predicates it names, and an index tuple lists its entries
    in the order their origins were added, whatever was removed between.
    """

    def __init__(
        self,
        rules: Iterable[NormalizedRule] = (),
        inclusions: Iterable[NormalizedInclusion] = (),
        stored_relations: Iterable[str] = frozenset(),
    ) -> None:
        self.stored_relations = frozenset(stored_relations)
        self.rules_by_head: Dict[str, Tuple[NormalizedRule, ...]] = {}
        self.inclusions_by_body_predicate: Dict[str, Tuple[NormalizedInclusion, ...]] = {}
        #: origin -> (its rules, its inclusions).
        self._by_origin: Dict[str, Tuple[tuple, tuple]] = {}
        self._derived = _DerivedState()
        self._insert(rules, inclusions)

    @property
    def rules(self) -> List[NormalizedRule]:
        """Every definitional rule, grouped by origin."""
        return [rule for rules, _ in self._by_origin.values() for rule in rules]

    @property
    def inclusions(self) -> List[NormalizedInclusion]:
        """Every inclusion description, grouped by origin."""
        return [
            inclusion for _, inclusions in self._by_origin.values() for inclusion in inclusions
        ]

    def _insert(
        self, rules: Iterable[NormalizedRule], inclusions: Iterable[NormalizedInclusion]
    ) -> None:
        by_origin = self._by_origin
        for rule in rules:
            own_rules, own_inclusions = by_origin.get(rule.origin, ((), ()))
            by_origin[rule.origin] = (own_rules + (rule,), own_inclusions)
            head = rule.head_predicate
            self.rules_by_head[head] = self.rules_by_head.get(head, ()) + (rule,)
        index = self.inclusions_by_body_predicate
        for inclusion in inclusions:
            own_rules, own_inclusions = by_origin.get(inclusion.origin, ((), ()))
            by_origin[inclusion.origin] = (own_rules, own_inclusions + (inclusion,))
            for predicate in inclusion.body_predicates():
                index[predicate] = index.get(predicate, ()) + (inclusion,)

    def add_entries(
        self,
        rules: Iterable[NormalizedRule] = (),
        inclusions: Iterable[NormalizedInclusion] = (),
    ) -> None:
        """Append entries and update the indexes in place (incremental add)."""
        rules, inclusions = list(rules), list(inclusions)
        self._insert(rules, inclusions)
        # Last, so state derived while the entries were changing is dropped too.
        self._derived = self._derived.after_adding(rules, inclusions, frozenset())

    def remove_origins(self, origins: Iterable[str]) -> None:
        """Drop every entry whose origin is in ``origins``.

        Only the index tuples of the dropped entries' predicates are
        rebuilt; each keeps its surviving entries in their order.
        """
        gone = frozenset(origins)
        heads: set = set()
        bodies: set = set()
        removed_rules: List[NormalizedRule] = []
        removed_inclusions: List[NormalizedInclusion] = []
        for origin in gone:
            rules, inclusions = self._by_origin.pop(origin, ((), ()))
            removed_rules.extend(rules)
            removed_inclusions.extend(inclusions)
            heads.update(rule.head_predicate for rule in rules)
            for inclusion in inclusions:
                bodies.update(inclusion.body_predicates())
        for index, predicates in (
            (self.rules_by_head, heads), (self.inclusions_by_body_predicate, bodies)
        ):
            for predicate in predicates:
                kept = tuple(entry for entry in index[predicate] if entry.origin not in gone)
                if kept:
                    index[predicate] = kept
                else:
                    del index[predicate]
        self._derived = self._derived.after_removing(
            gone, removed_rules, removed_inclusions, frozenset()
        )

    def mark_stored(
        self, predicates: Iterable[str], stored: bool, origins_by_head: Dict[str, Iterable[str]]
    ) -> None:
        """Add ``predicates`` to the stored relations (``stored``) or take
        them out, and flip the ``stored`` flag of the single-atom
        inclusions headed by one of them: ``origins_by_head`` names their
        origins.  A flipped entry is a new object in the old one's place.
        """
        predicates = frozenset(predicates)
        flipped: Dict[int, NormalizedInclusion] = {}
        for predicate in predicates:
            for origin in origins_by_head.get(predicate, ()):
                rules, inclusions = self._by_origin[origin]
                replaced = []
                for inclusion in inclusions:
                    if inclusion.head_predicate == predicate and inclusion.stored != stored:
                        flipped[id(inclusion)] = inclusion.with_stored(stored)
                    replaced.append(flipped.get(id(inclusion), inclusion))
                self._by_origin[origin] = (rules, tuple(replaced))
        index = self.inclusions_by_body_predicate
        for inclusion in flipped.values():
            for predicate in inclusion.body_predicates():
                index[predicate] = tuple(
                    flipped.get(id(entry), entry) for entry in index[predicate]
                )
        if stored:
            self.stored_relations = self.stored_relations | predicates
            self._derived = self._derived.after_adding([], [], predicates)
        else:
            self.stored_relations = self.stored_relations - predicates
            self._derived = self._derived.after_removing(frozenset(), [], [], predicates)

    def definitional_for(self, predicate: str) -> Tuple[NormalizedRule, ...]:
        """Definitional rules whose head is ``predicate``."""
        return self.rules_by_head.get(predicate, ())

    def inclusions_mentioning(self, predicate: str) -> Tuple[NormalizedInclusion, ...]:
        """Inclusion descriptions whose right-hand side mentions ``predicate``."""
        return self.inclusions_by_body_predicate.get(predicate, ())

    def entries_for(self, predicate: str) -> Tuple[tuple, tuple]:
        """``(definitional_for(predicate), inclusions_mentioning(predicate))``,
        one shared pair per predicate until the entries change — what a goal
        over ``predicate`` records as the entries its expansion considered."""
        entries = self._derived.entries
        pair = entries.get(predicate)
        if pair is None:
            pair = entries[predicate] = (
                self.definitional_for(predicate), self.inclusions_mentioning(predicate)
            )
        return pair

    def is_stored(self, predicate: str) -> bool:
        """Is ``predicate`` a stored relation?"""
        return predicate in self.stored_relations

    # -- catalogue-derived state (lazy; dropped with every change of entries) ------

    def productive_predicates(self) -> frozenset:
        """Predicates from which the reformulation can possibly reach stored data.

        A predicate is *productive* if it is a stored relation, if some
        definitional rule for it has an all-productive body, or if it occurs
        on the right-hand side of an inclusion description whose left-hand
        side predicate is productive.  Goal nodes over non-productive
        predicates that also cannot be covered by a sibling (they appear on no
        inclusion right-hand side) are dead ends (Section 4.3).

        Computed by a worklist (:class:`_Productivity`); after additions it
        grows from the set computed before them, after removals it shrinks
        from it (delete what they could have made productive, re-derive
        that over the remaining entries).
        """
        derived = self._derived
        if derived.productivity is None:
            if derived.growth is not None:
                base, rules, inclusions, stored = derived.growth
                derived.productivity = base.grown(rules, inclusions, stored)
            elif derived.shrink is not None:
                base, gone, rules, inclusions, unstored = derived.shrink
                derived.productivity = base.shrunk(self, gone, rules, inclusions, unstored)
            else:
                derived.productivity = _Productivity(frozenset(), {}, {}).grown(
                    self.rules, self.inclusions, self.stored_relations
                )
            derived.growth = derived.shrink = None
        return derived.productivity.predicates

    def coverable_predicates(self) -> frozenset:
        """Predicates on some inclusion's right-hand side: a goal over one
        may be covered by a sibling's inclusion expansion."""
        derived = self._derived
        if derived.coverable is None:
            derived.coverable = frozenset(self.inclusions_by_body_predicate)
        return derived.coverable


class PDMS:
    """A peer data management system: peers + storage descriptions + peer mappings.

    The methods mirror Section 2's formal definition: a PDMS is a set of
    peers with schemas, stored relations at each peer, peer mappings
    ``L_N``, and storage descriptions ``D_N``.

    Every mutation costs what it touches: the indexes below are filled
    when a peer, description or mapping is added, so no mutation scans
    the peers or the descriptions, and once :meth:`catalogue` has been
    built it is maintained in place and never rebuilt.
    """

    def __init__(self, name: str = "pdms"):
        self.name = name
        self._peers: Dict[str, Peer] = {}
        #: Descriptions and mappings by name, in the order they were added.
        #: Names double as catalogue *origins* (provenance, no-reuse rule,
        #: removal by origin), so they are unique across both.
        self._storage_descriptions: Dict[str, StorageDescription] = {}
        self._peer_mappings: Dict[str, AnyPeerMapping] = {}
        #: origin -> (the peers whose removal removes it, the predicates its
        #: removal affects, the heads of its single-atom inclusions).
        self._footprints: Dict[str, Tuple[tuple, tuple, tuple]] = {}
        #: peer -> the origins that reference it, in the order they were added.
        self._referencing: Dict[str, Dict[str, None]] = {}
        #: stored relation -> the registered peer declaring it: a stored
        #: relation has one owner, and a second declaring peer is refused.
        self._stored: Dict[str, str] = {}
        #: predicate -> the mappings with a single-atom inclusion headed by
        #: it: the entries whose ``stored`` flag flips with the predicate.
        self._heads: Dict[str, Dict[str, None]] = {}
        #: Stored relations declared implicitly by add_storage_description,
        #: as (peer, relation) -> the number of descriptions defining it:
        #: undeclared again when the last one goes, unlike explicitly
        #: declared stored relations.
        self._auto_declared: Dict[Tuple[str, str], int] = {}
        self._catalogue: Optional[NormalizedCatalogue] = None
        self._version: int = 0
        #: (version, kind, affected predicates, removed origins) per change;
        #: tuples of strings, which the cyclic collector stops tracking.
        self._changes: List[tuple] = []

    def _claim_origin(self, name: str) -> None:
        if name in self._peer_mappings or name in self._storage_descriptions:
            raise MappingError(
                f"description name {name!r} is already in use; names are "
                f"catalogue origins and must be unique"
            )

    # -- versioning ----------------------------------------------------------------

    @property
    def catalogue_version(self) -> int:
        """Monotonically increasing counter, bumped on every mutation."""
        return self._version

    def changes_since(self, version: int) -> Tuple[CatalogueChange, ...]:
        """All recorded changes with ``change.version > version``.

        O(answer size): versions are assigned contiguously (every mutation
        appends exactly one change), so the suffix is an index slice.  If
        ``version`` predates the bounded log's retention window, a single
        synthetic change with ``full=True`` is returned — the caller must
        then invalidate wholesale rather than selectively.
        """
        if version >= self._version or not self._changes:
            return ()
        first_retained = self._changes[0][0]
        if version < first_retained - 1:
            return (
                CatalogueChange(
                    version=self._version, kind="history-truncated", full=True
                ),
            )
        return tuple(map(_as_change, self._changes[version + 1 - first_retained:]))

    def _record_change(
        self,
        kind: str,
        affected: Iterable[str] = (),
        removed_origins: Iterable[str] = (),
    ) -> tuple:
        self._version += 1
        record = (self._version, kind, tuple(affected), tuple(removed_origins))
        self._changes.append(record)
        if len(self._changes) > MAX_CHANGE_LOG:
            del self._changes[: len(self._changes) - MAX_CHANGE_LOG]
        return record

    # -- stored relations and their owners -------------------------------------------

    def _check_unowned(self, peer_name: str, relations: Iterable[str]) -> None:
        """Refuse ``peer_name`` a stored relation another peer stores."""
        for relation in relations:
            owner = self._stored.get(relation, peer_name)
            if owner != peer_name:
                raise PDMSConfigurationError(
                    f"stored relation {relation!r} is already stored at peer "
                    f"{owner!r}; peer {peer_name!r} cannot store it too (a "
                    f"stored relation has one owner)"
                )

    def _claim(self, peer_name: str, relations: Iterable[str]) -> None:
        """Make ``peer_name`` the owner of ``relations``, or refuse before
        anything changes."""
        relations = list(relations)
        self._check_unowned(peer_name, relations)
        self._stored.update(dict.fromkeys(relations, peer_name))
        self._flip_stored(relations, True)

    def _release(self, relations: Iterable[str]) -> List[str]:
        """Forget the owner of each of ``relations``; returns them."""
        relations = list(relations)
        for relation in relations:
            del self._stored[relation]
        return relations

    def _flip_stored(self, relations: List[str], stored: bool) -> None:
        """Tell the catalogue, if built, that ``relations`` became stored
        relations (``stored``) or stopped being ones."""
        if relations and self._catalogue is not None:
            self._catalogue.mark_stored(relations, stored, self._heads)

    def _peer_declared(self, peer_name: str, relation: str, declared: bool) -> None:
        """A registered peer declared (or undeclared) a stored relation
        itself: claimed or released, and recorded like any other mutation."""
        if declared:
            self._claim(peer_name, (relation,))
        else:
            self._auto_declared.pop((peer_name, relation), None)
            self._flip_stored(self._release((relation,)), False)
        self._record_change(
            "declare-stored" if declared else "undeclare-stored", affected=(relation,)
        )

    # -- peers ---------------------------------------------------------------------

    def add_peer(self, peer: Union[Peer, str]) -> Peer:
        """Register a peer (created on the fly when given a name).

        The normalised catalogue is maintained incrementally: joining a
        peer that brings no descriptions yet affects no catalogue entry,
        so existing reformulations stay valid (the paper's ad hoc ECC
        join only becomes visible once its mappings are added).  A peer
        declaring a stored relation another peer stores is refused with
        :class:`PDMSConfigurationError`, and nothing changes.
        """
        if isinstance(peer, str):
            peer = Peer(peer)
        if peer.name in self._peers:
            raise PDMSConfigurationError(f"duplicate peer name {peer.name!r}")
        new_stored = peer.stored_relation_names()
        self._claim(peer.name, new_stored)
        self._peers[peer.name] = peer
        # Weak, so that a dropped PDMS is freed by reference counting.
        peer._registry = weakref.ref(self)
        self._record_change("add-peer", affected=new_stored)
        return peer

    def remove_peer(self, peer_name: str) -> CatalogueChange:
        """Remove a peer plus every description that references it.

        Storage descriptions owned by (or querying) the peer and peer
        mappings mentioning any of its relations are dropped; the
        normalised catalogue is updated incrementally.  Returns the
        recorded :class:`CatalogueChange`, whose ``removed_origins`` and
        ``affected_predicates`` let caches invalidate precisely.
        """
        try:
            peer = self._peers.pop(peer_name)
        except KeyError as exc:
            raise PDMSConfigurationError(f"no peer named {peer_name!r}") from exc
        if peer._registry is not None and peer._registry() is self:
            peer._registry = None
        stored = peer.stored_relation_names()
        affected: set = set(peer.peer_relation_names())
        affected.update(stored)
        unstored = self._release(stored)
        for relation in stored:
            self._auto_declared.pop((peer_name, relation), None)
        removed_origins = tuple(self._referencing.pop(peer_name, ()))
        for origin in removed_origins:
            affected.update(self._forget(origin, unstored))
        if self._catalogue is not None:
            self._catalogue.remove_origins(removed_origins)
        self._flip_stored(unstored, False)
        return _as_change(self._record_change(
            "remove-peer", affected=affected, removed_origins=removed_origins
        ))

    def _forget(self, origin: str, unstored: List[str]) -> tuple:
        """Unregister the description or mapping ``origin`` from every
        index; returns the predicates its removal affects.  A stored
        relation it had auto-declared on a surviving peer is undeclared
        once no description defines it any more (appended to
        ``unstored`` if that flips it), so no phantom stored relation
        outlives its descriptions."""
        peers, affected, heads = self._footprints.pop(origin)
        for peer_name in peers:
            referencing = self._referencing.get(peer_name)
            if referencing is not None:
                del referencing[origin]
                if not referencing:
                    del self._referencing[peer_name]
        for head in heads:
            origins = self._heads[head]
            del origins[origin]
            if not origins:
                del self._heads[head]
        description = self._storage_descriptions.pop(origin, None)
        if description is None:
            del self._peer_mappings[origin]
            return affected
        key = (description.peer, description.relation)
        defining = self._auto_declared.get(key)
        if defining is not None:
            if defining > 1:
                self._auto_declared[key] = defining - 1
            else:
                del self._auto_declared[key]
                owner = self._peers.get(description.peer)
                if owner is not None:
                    owner._unstore(description.relation)
                    unstored.extend(self._release((description.relation,)))
        return affected

    def _register(
        self, origin: str, peers: Iterable[str], affected: Iterable[str], heads: Iterable[str] = ()
    ) -> None:
        """Index a new description or mapping under the peers whose removal
        removes it, with the footprint its own removal will report."""
        peers = tuple(peers)
        self._footprints[origin] = (peers, tuple(affected), tuple(heads))
        for peer_name in peers:
            self._referencing.setdefault(peer_name, {})[origin] = None
        for head in heads:
            self._heads.setdefault(head, {})[origin] = None

    def peer(self, name: str) -> Peer:
        """Look up a peer by name."""
        try:
            return self._peers[name]
        except KeyError as exc:
            raise PDMSConfigurationError(f"no peer named {name!r}") from exc

    def peers(self) -> Tuple[Peer, ...]:
        """All registered peers."""
        return tuple(self._peers.values())

    def __contains__(self, peer_name: str) -> bool:
        return peer_name in self._peers

    # -- relations ------------------------------------------------------------------

    def stored_relation_names(self) -> frozenset[str]:
        """Names of every stored relation in the system."""
        return frozenset(self._stored)

    def peer_relation_names(self) -> frozenset[str]:
        """Qualified names of every peer relation in the system."""
        names = set()
        for peer in self._peers.values():
            names.update(peer.peer_relation_names())
        return frozenset(names)

    def is_stored_relation(self, predicate: str) -> bool:
        """Is ``predicate`` a stored relation of some peer?"""
        return predicate in self._stored

    def is_peer_relation(self, predicate: str) -> bool:
        """Is ``predicate`` a declared peer relation?  Asked of the peer its
        qualified name (``peer:relation``) names, not of every peer."""
        peer_name, qualified, _ = predicate.partition(":")
        peer = self._peers.get(peer_name) if qualified else None
        return peer is not None and peer.has_relation(predicate)

    # -- descriptions -----------------------------------------------------------------

    def add_storage_description(self, description: StorageDescription) -> StorageDescription:
        """Register a storage description; the owning peer must exist.

        A stored relation the peer does not declare is declared for it,
        unless another peer stores it: that raises
        :class:`PDMSConfigurationError`, and nothing changes."""
        if description.peer not in self._peers:
            raise PDMSConfigurationError(
                f"storage description references unknown peer {description.peer!r}"
            )
        self._claim_origin(description.name)
        owner = self._peers[description.peer]
        key = (description.peer, description.relation)
        if description.relation not in owner.stored_relation_names():
            # Auto-declare the stored relation with positional attributes so
            # small examples and generated workloads stay concise.
            self._claim(description.peer, (description.relation,))
            owner._store(description.relation, [f"a{i}" for i in range(description.arity)])
            self._auto_declared[key] = 0
        if key in self._auto_declared:
            self._auto_declared[key] += 1
        self._storage_descriptions[description.name] = description
        affected = tuple(description.query.predicates() | {description.relation})
        self._register(
            description.name, {description.peer} | description.references_peers(), affected
        )
        if self._catalogue is not None:
            self._catalogue.add_entries(inclusions=[self._normalised_storage_entry(description)])
        self._record_change("add-storage", affected=affected)
        return description

    def add_peer_mapping(self, mapping: AnyPeerMapping) -> AnyPeerMapping:
        """Register a peer mapping (inclusion, equality, or definitional)."""
        if not isinstance(
            mapping, (InclusionMapping, EqualityMapping, DefinitionalMapping)
        ):
            raise MappingError(f"unsupported peer mapping type {type(mapping).__name__}")
        self._claim_origin(mapping.name)
        self._peer_mappings[mapping.name] = mapping
        affected, mentioned, heads = self._mapping_footprint(mapping)
        affected = tuple(affected)
        self._register(
            mapping.name, {p.partition(":")[0] for p in mentioned if ":" in p}, affected, heads
        )
        if self._catalogue is not None:
            self._catalogue.add_entries(*self._normalised_mapping_entries(mapping))
        self._record_change("add-mapping", affected=affected)
        return mapping

    def remove_peer_mapping(self, name: str) -> CatalogueChange:
        """Remove the peer mapping called ``name`` (its stable origin)."""
        if name not in self._peer_mappings:
            raise MappingError(f"no peer mapping named {name!r}")
        affected = self._forget(name, [])
        if self._catalogue is not None:
            self._catalogue.remove_origins((name,))
        return _as_change(
            self._record_change("remove-mapping", affected=affected, removed_origins=(name,))
        )

    def storage_descriptions(self) -> Tuple[StorageDescription, ...]:
        """All storage descriptions (D_N)."""
        return tuple(self._storage_descriptions.values())

    def peer_mappings(self) -> Tuple[AnyPeerMapping, ...]:
        """All peer mappings (L_N)."""
        return tuple(self._peer_mappings.values())

    # -- normalisation -----------------------------------------------------------------

    def catalogue(self) -> NormalizedCatalogue:
        """Return the normalised PPL catalogue: built on first use, then
        maintained in place by every mutation."""
        if self._catalogue is None:
            self._catalogue = self._normalise()
        return self._catalogue

    def _normalise(self) -> NormalizedCatalogue:
        catalogue = NormalizedCatalogue(stored_relations=self._stored)
        for mapping in self._peer_mappings.values():
            catalogue._insert(*self._normalised_mapping_entries(mapping))
        descriptions = self._storage_descriptions.values()
        catalogue._insert((), map(self._normalised_storage_entry, descriptions))
        return catalogue

    @staticmethod
    def _mapping_footprint(mapping: AnyPeerMapping) -> Tuple[set, set, Dict[str, None]]:
        """What normalising ``mapping`` yields, read off the mapping: the
        predicates of the goals its entries expand (rule heads, inclusion
        right-hand sides), the predicates it mentions, and the heads of its
        single-atom inclusions.  The expanded predicates are what a cache
        must invalidate when the mapping is added or removed."""
        affected: set = set()
        mentioned: set = set()
        heads: Dict[str, None] = {}
        if isinstance(mapping, DefinitionalMapping):
            affected.add(mapping.head_predicate)
            mentioned.add(mapping.head_predicate)
            mentioned.update(mapping.body_predicates())
        for inclusion in _directions(mapping):
            right = inclusion.right_predicates()
            affected.update(right)
            mentioned.update(right)
            left = inclusion.left_predicates()
            mentioned.update(left)
            if inclusion.left_is_single_atom():
                heads.update(dict.fromkeys(left))
            else:
                affected.add(_synthetic_predicate(inclusion))
        return affected, mentioned, heads

    def _normalised_mapping_entries(
        self, mapping: AnyPeerMapping
    ) -> Tuple[List[NormalizedRule], List[NormalizedInclusion]]:
        """Normalise one peer mapping into catalogue entries (Step 1)."""
        rules: List[NormalizedRule] = []
        inclusions: List[NormalizedInclusion] = []
        if isinstance(mapping, DefinitionalMapping):
            rules.append(
                NormalizedRule(mapping.rule, origin=mapping.name, synthetic=False)
            )
        # Both directions of an equality share its origin so the
        # termination rule treats them as one description.
        exact = isinstance(mapping, EqualityMapping)
        for inclusion in _directions(mapping):
            self._normalise_inclusion(
                inclusion, mapping.name, exact=exact, rules=rules, inclusions=inclusions
            )
        return rules, inclusions

    def _normalised_storage_entry(
        self, description: StorageDescription
    ) -> NormalizedInclusion:
        """Normalise one storage description into its catalogue inclusion."""
        view = View(
            _renamed_query(description.query, description.relation),
            ViewKind.EXACT if description.exact else ViewKind.CONTAINED,
        )
        return NormalizedInclusion(view, origin=description.name, stored=True)

    def _normalise_inclusion(
        self,
        mapping: InclusionMapping,
        origin: str,
        exact: bool,
        rules: List[NormalizedRule],
        inclusions: List[NormalizedInclusion],
    ) -> None:
        kind = ViewKind.EXACT if exact else ViewKind.CONTAINED
        if mapping.left_is_single_atom():
            head_predicate = mapping.left.relational_body()[0].predicate
            view = View(_renamed_query(mapping.right, head_predicate), kind)
            inclusions.append(
                NormalizedInclusion(
                    view,
                    origin=origin,
                    stored=head_predicate in self._stored,
                )
            )
            return
        # General left-hand side: introduce a synthetic predicate V.
        synthetic_predicate = _synthetic_predicate(mapping)
        view = View(_renamed_query(mapping.right, synthetic_predicate), kind)
        inclusions.append(NormalizedInclusion(view, origin=origin, stored=False))
        rule_head = Atom(synthetic_predicate, mapping.left.head.args)
        rule = DatalogRule(rule_head, mapping.left.body)
        rules.append(NormalizedRule(rule, origin=origin, synthetic=True))

    # -- high-level operations ------------------------------------------------------------

    def reformulate(self, query: ConjunctiveQuery, config=None):
        """Reformulate ``query`` over stored relations (see :mod:`repro.pdms.reformulation`)."""
        from .reformulation import reformulate as _reformulate

        return _reformulate(self, query, config=config)

    def answer(self, query: ConjunctiveQuery, data, config=None):
        """Reformulate and evaluate ``query`` over stored-relation data."""
        from .execution import answer_query

        return answer_query(self, query, data, config=config)

    def analyze(self):
        """Classify query-answering complexity per Theorems 3.1–3.3."""
        from .analysis import analyze_pdms

        return analyze_pdms(self)

    # -- display -----------------------------------------------------------------------

    def describe(self) -> str:
        """A human-readable multi-line summary of the PDMS."""
        lines = [f"PDMS {self.name!r}"]
        for peer in self._peers.values():
            lines.append(f"  {peer}")
        lines.append(f"  {len(self._storage_descriptions)} storage descriptions")
        lines.append(f"  {len(self._peer_mappings)} peer mappings")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PDMS({self.name!r}: {len(self._peers)} peers, "
            f"{len(self._peer_mappings)} mappings, "
            f"{len(self._storage_descriptions)} storage descriptions)"
        )
