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

from dataclasses import dataclass, field
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
    """One catalogue mutation, as recorded in the PDMS change log.

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


class _DerivedState:
    """What the reformulation derives from the catalogue's entries alone.

    Every slot is filled on first use, never eagerly, and the whole object
    is replaced when the entries change, so a mutation pays nothing for it.
    An addition keeps the way to the new productive set short: ``growth``
    is the last computed :class:`_Productivity` plus the entries added
    since (a removal starts from nothing).
    """

    __slots__ = ("productivity", "coverable", "growth", "entries")

    def __init__(self, growth: Optional[tuple] = None) -> None:
        self.productivity: Optional[_Productivity] = None
        self.coverable: Optional[frozenset] = None
        self.growth = growth
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


@dataclass
class NormalizedCatalogue:
    """The complete normalised PPL catalogue of a PDMS."""

    rules: List[NormalizedRule] = field(default_factory=list)
    inclusions: List[NormalizedInclusion] = field(default_factory=list)
    stored_relations: frozenset = frozenset()
    rules_by_head: Dict[str, Tuple[NormalizedRule, ...]] = field(default_factory=dict)
    inclusions_by_body_predicate: Dict[str, Tuple[NormalizedInclusion, ...]] = field(
        default_factory=dict
    )
    _derived: _DerivedState = field(
        default_factory=_DerivedState, init=False, repr=False, compare=False
    )

    def index(self) -> None:
        """(Re)build the by-predicate indexes."""
        rules_by_head: Dict[str, List[NormalizedRule]] = {}
        for rule in self.rules:
            rules_by_head.setdefault(rule.head_predicate, []).append(rule)
        by_body_predicate: Dict[str, List[NormalizedInclusion]] = {}
        for inclusion in self.inclusions:
            for predicate in inclusion.body_predicates():
                by_body_predicate.setdefault(predicate, []).append(inclusion)
        self.rules_by_head = {p: tuple(rs) for p, rs in rules_by_head.items()}
        self.inclusions_by_body_predicate = {
            p: tuple(entries) for p, entries in by_body_predicate.items()
        }
        self._derived = _DerivedState()

    def add_entries(
        self,
        rules: Iterable[NormalizedRule] = (),
        inclusions: Iterable[NormalizedInclusion] = (),
        stored: Iterable[str] = (),
    ) -> None:
        """Append entries and update the indexes in place (incremental add)."""
        rules, inclusions, stored = list(rules), list(inclusions), frozenset(stored)
        for rule in rules:
            self.rules.append(rule)
            head = rule.head_predicate
            self.rules_by_head[head] = self.rules_by_head.get(head, ()) + (rule,)
        for inclusion in inclusions:
            self.inclusions.append(inclusion)
            index = self.inclusions_by_body_predicate
            for predicate in inclusion.body_predicates():
                index[predicate] = index.get(predicate, ()) + (inclusion,)
        if stored:
            self.stored_relations = self.stored_relations | stored
        # Last, so state derived while the entries were changing is dropped too.
        self._derived = self._derived.after_adding(rules, inclusions, stored)

    def remove_origins(self, origins: frozenset, stored: frozenset) -> None:
        """Drop every entry whose origin is in ``origins``; reset stored set."""
        self.rules = [r for r in self.rules if r.origin not in origins]
        self.inclusions = [i for i in self.inclusions if i.origin not in origins]
        self.stored_relations = stored
        self.index()

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
        grows from the set computed before them.
        """
        derived = self._derived
        if derived.productivity is None:
            if derived.growth is not None:
                base, rules, inclusions, stored = derived.growth
                derived.productivity = base.grown(rules, inclusions, stored)
            else:
                derived.productivity = _Productivity(frozenset(), {}, {}).grown(
                    self.rules, self.inclusions, self.stored_relations
                )
            derived.growth = None
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
    """

    def __init__(self, name: str = "pdms"):
        self.name = name
        self._peers: Dict[str, Peer] = {}
        self._storage_descriptions: List[StorageDescription] = []
        self._peer_mappings: List[AnyPeerMapping] = []
        self._catalogue: Optional[NormalizedCatalogue] = None
        self._version: int = 0
        self._changes: List[CatalogueChange] = []
        #: Description/mapping names in use.  Names double as catalogue
        #: *origins* (provenance, no-reuse rule, removal by origin), so
        #: they must be unique across mappings and storage descriptions.
        self._origins: set = set()
        #: Stored relations declared implicitly by add_storage_description,
        #: as (peer, relation) — removed again when their last description
        #: disappears, unlike explicitly declared stored relations.
        self._auto_declared: set = set()

    def _claim_origin(self, name: str) -> None:
        if name in self._origins:
            raise MappingError(
                f"description name {name!r} is already in use; names are "
                f"catalogue origins and must be unique"
            )
        self._origins.add(name)

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
        first_retained = self._changes[0].version
        if version < first_retained - 1:
            return (
                CatalogueChange(
                    version=self._version, kind="history-truncated", full=True
                ),
            )
        return tuple(self._changes[version + 1 - first_retained:])

    def _record_change(
        self,
        kind: str,
        affected: Iterable[str] = (),
        removed_origins: Iterable[str] = (),
    ) -> CatalogueChange:
        self._version += 1
        change = CatalogueChange(
            version=self._version,
            kind=kind,
            affected_predicates=frozenset(affected),
            removed_origins=frozenset(removed_origins),
        )
        self._changes.append(change)
        if len(self._changes) > MAX_CHANGE_LOG:
            del self._changes[: len(self._changes) - MAX_CHANGE_LOG]
        return change

    # -- peers ---------------------------------------------------------------------

    def add_peer(self, peer: Union[Peer, str]) -> Peer:
        """Register a peer (created on the fly when given a name).

        The normalised catalogue is maintained incrementally: joining a
        peer that brings no descriptions yet affects no catalogue entry,
        so existing reformulations stay valid (the paper's ad hoc ECC
        join only becomes visible once its mappings are added).
        """
        if isinstance(peer, str):
            peer = Peer(peer)
        if peer.name in self._peers:
            raise PDMSConfigurationError(f"duplicate peer name {peer.name!r}")
        self._peers[peer.name] = peer
        new_stored = frozenset(peer.stored_relation_names())
        if new_stored and self._catalogue is not None:
            if self._stored_flags_stale(new_stored):
                self._catalogue = None
            else:
                self._catalogue.add_entries(stored=new_stored)
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

        removed_origins: set = set()
        affected: set = set(peer.peer_relation_names())
        affected.update(peer.stored_relation_names())

        kept_descriptions: List[StorageDescription] = []
        removed_descriptions: List[StorageDescription] = []
        for description in self._storage_descriptions:
            if description.peer == peer_name or peer_name in description.references_peers():
                removed_origins.add(description.name)
                affected.add(description.relation)
                affected.update(description.query.predicates())
                removed_descriptions.append(description)
            else:
                kept_descriptions.append(description)
        self._storage_descriptions = kept_descriptions
        self._auto_declared = {
            (owner, relation)
            for owner, relation in self._auto_declared
            if owner != peer_name
        }
        # A cross-peer description may have auto-declared its stored
        # relation on a *surviving* owner peer; undeclare it again unless
        # another description still defines it, so no phantom stored
        # relation outlives its descriptions.
        still_defined = {
            (d.peer, d.relation) for d in kept_descriptions
        }
        for description in removed_descriptions:
            key = (description.peer, description.relation)
            if (
                description.peer != peer_name
                and key in self._auto_declared
                and key not in still_defined
            ):
                self._peers[description.peer].remove_stored_relation(description.relation)
                self._auto_declared.discard(key)

        kept_mappings: List[AnyPeerMapping] = []
        for mapping in self._peer_mappings:
            if peer_name in mapping.references_peers():
                removed_origins.add(mapping.name)
                # Only goals over these predicates can gain or lose
                # expansions from this mapping's presence; reformulations
                # that merely mention the mapping's other predicates are
                # untouched by its removal (they are caught through
                # ``used_origins`` when they actually applied it).
                affected.update(self._mapping_expansion_predicates(mapping))
            else:
                kept_mappings.append(mapping)
        self._peer_mappings = kept_mappings

        self._origins -= removed_origins
        if self._catalogue is not None:
            remaining_stored = self.stored_relation_names()
            self._catalogue.remove_origins(frozenset(removed_origins), remaining_stored)
            if any(
                inclusion.stored and inclusion.head_predicate not in remaining_stored
                for inclusion in self._catalogue.inclusions
            ):
                self._catalogue = None
        return self._record_change(
            "remove-peer", affected=affected, removed_origins=removed_origins
        )

    def _mapping_expansion_predicates(self, mapping: AnyPeerMapping) -> frozenset:
        """Predicates whose goal nodes this mapping can expand.

        This is the invalidation footprint a cache needs for both adding
        and removing the mapping.
        """
        return self._entry_expansion_predicates(*self._normalised_mapping_entries(mapping))

    @staticmethod
    def _entry_expansion_predicates(
        rules: Iterable[NormalizedRule], inclusions: Iterable[NormalizedInclusion]
    ) -> frozenset:
        """Expansion footprint of normalised entries: definitional rules
        expand goals over their head predicate, inclusions expand goals
        over their right-hand-side (body) predicates."""
        affected: set = set()
        for rule in rules:
            affected.add(rule.head_predicate)
        for inclusion in inclusions:
            affected.update(inclusion.body_predicates())
        return frozenset(affected)

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
        names = set()
        for peer in self._peers.values():
            names.update(peer.stored_relation_names())
        return frozenset(names)

    def peer_relation_names(self) -> frozenset[str]:
        """Qualified names of every peer relation in the system."""
        names = set()
        for peer in self._peers.values():
            names.update(peer.peer_relation_names())
        return frozenset(names)

    def is_stored_relation(self, predicate: str) -> bool:
        """Is ``predicate`` a stored relation of some peer?"""
        return predicate in self.stored_relation_names()

    def is_peer_relation(self, predicate: str) -> bool:
        """Is ``predicate`` a declared peer relation?"""
        return predicate in self.peer_relation_names()

    # -- descriptions -----------------------------------------------------------------

    def add_storage_description(self, description: StorageDescription) -> StorageDescription:
        """Register a storage description; the owning peer must exist."""
        if description.peer not in self._peers:
            raise PDMSConfigurationError(
                f"storage description references unknown peer {description.peer!r}"
            )
        self._claim_origin(description.name)
        owner = self._peers[description.peer]
        if description.relation not in owner.stored_relation_names():
            # Auto-declare the stored relation with positional attributes so
            # small examples and generated workloads stay concise.
            owner.add_stored_relation(
                description.relation,
                [f"a{i}" for i in range(description.arity)],
            )
            self._auto_declared.add((description.peer, description.relation))
        self._storage_descriptions.append(description)
        if self._catalogue is not None:
            if self._stored_flags_stale(frozenset({description.relation})):
                # A pre-existing entry's head just became a stored relation;
                # its frozen ``stored`` flag is stale — rebuild lazily.
                self._catalogue = None
            else:
                self._catalogue.add_entries(
                    inclusions=[self._normalised_storage_entry(description)],
                    stored={description.relation},
                )
        self._record_change(
            "add-storage",
            affected=description.query.predicates() | {description.relation},
        )
        return description

    def add_peer_mapping(self, mapping: AnyPeerMapping) -> AnyPeerMapping:
        """Register a peer mapping (inclusion, equality, or definitional)."""
        if not isinstance(
            mapping, (InclusionMapping, EqualityMapping, DefinitionalMapping)
        ):
            raise MappingError(f"unsupported peer mapping type {type(mapping).__name__}")
        self._claim_origin(mapping.name)
        self._peer_mappings.append(mapping)
        rules, inclusions = self._normalised_mapping_entries(mapping)
        if self._catalogue is not None:
            self._catalogue.add_entries(rules=rules, inclusions=inclusions)
        self._record_change(
            "add-mapping", affected=self._entry_expansion_predicates(rules, inclusions)
        )
        return mapping

    def remove_peer_mapping(self, name: str) -> CatalogueChange:
        """Remove the peer mapping called ``name`` (its stable origin)."""
        for index, mapping in enumerate(self._peer_mappings):
            if mapping.name == name:
                del self._peer_mappings[index]
                self._origins.discard(name)
                if self._catalogue is not None:
                    self._catalogue.remove_origins(
                        frozenset({name}), self.stored_relation_names()
                    )
                return self._record_change(
                    "remove-mapping",
                    affected=self._mapping_expansion_predicates(mapping),
                    removed_origins={name},
                )
        raise MappingError(f"no peer mapping named {name!r}")

    def _stored_flags_stale(self, new_stored: frozenset) -> bool:
        """Would marking ``new_stored`` as stored relations invalidate the
        frozen ``stored`` flags of already-normalised catalogue entries?"""
        assert self._catalogue is not None
        return any(
            not inclusion.stored and inclusion.head_predicate in new_stored
            for inclusion in self._catalogue.inclusions
        )

    def storage_descriptions(self) -> Tuple[StorageDescription, ...]:
        """All storage descriptions (D_N)."""
        return tuple(self._storage_descriptions)

    def peer_mappings(self) -> Tuple[AnyPeerMapping, ...]:
        """All peer mappings (L_N)."""
        return tuple(self._peer_mappings)

    # -- normalisation -----------------------------------------------------------------

    def catalogue(self) -> NormalizedCatalogue:
        """Return the normalised PPL catalogue (cached until the PDMS changes)."""
        if self._catalogue is None:
            self._catalogue = self._normalise()
        return self._catalogue

    def _normalise(self) -> NormalizedCatalogue:
        stored = self.stored_relation_names()
        catalogue = NormalizedCatalogue(stored_relations=stored)

        for mapping in self._peer_mappings:
            rules, inclusions = self._normalised_mapping_entries(mapping, stored)
            catalogue.rules.extend(rules)
            catalogue.inclusions.extend(inclusions)

        for description in self._storage_descriptions:
            catalogue.inclusions.append(self._normalised_storage_entry(description))

        catalogue.index()
        return catalogue

    def _normalised_mapping_entries(
        self, mapping: AnyPeerMapping, stored: Optional[frozenset] = None
    ) -> Tuple[List[NormalizedRule], List[NormalizedInclusion]]:
        """Normalise one peer mapping into catalogue entries (Step 1).

        ``stored`` is the system's stored-relation names when the caller
        already has them (normalising a whole catalogue would otherwise
        rescan every peer per inclusion).
        """
        rules: List[NormalizedRule] = []
        inclusions: List[NormalizedInclusion] = []
        if isinstance(mapping, DefinitionalMapping):
            rules.append(
                NormalizedRule(mapping.rule, origin=mapping.name, synthetic=False)
            )
        elif isinstance(mapping, InclusionMapping):
            self._normalise_inclusion(
                mapping, mapping.name, exact=False, stored=stored,
                rules=rules, inclusions=inclusions,
            )
        elif isinstance(mapping, EqualityMapping):
            forward, backward = mapping.as_inclusions()
            # Both directions share the equality's origin so the
            # termination rule treats them as one description.
            self._normalise_inclusion(
                forward, mapping.name, exact=True, stored=stored,
                rules=rules, inclusions=inclusions,
            )
            self._normalise_inclusion(
                backward, mapping.name, exact=True, stored=stored,
                rules=rules, inclusions=inclusions,
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
        stored: Optional[frozenset],
        rules: List[NormalizedRule],
        inclusions: List[NormalizedInclusion],
    ) -> None:
        kind = ViewKind.EXACT if exact else ViewKind.CONTAINED
        if mapping.left_is_single_atom():
            head_predicate = mapping.left.relational_body()[0].predicate
            view = View(_renamed_query(mapping.right, head_predicate), kind)
            if stored is None:
                stored = self.stored_relation_names()
            inclusions.append(
                NormalizedInclusion(
                    view,
                    origin=origin,
                    stored=head_predicate in stored,
                )
            )
            return
        # General left-hand side: introduce a synthetic predicate V.
        synthetic_predicate = f"__ppl_{mapping.name}"
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
