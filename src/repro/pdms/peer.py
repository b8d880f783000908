"""Peers, peer schemas, and stored relations.

Section 2 of the paper: each peer defines a relational *peer schema*
(virtual relations queries are posed over) and may contribute *stored
relations* (actual data, "analogous to data sources in a data integration
system").  Relation names are qualified as ``peer:relation`` so they are
globally unique; stored-relation names must be distinct from peer-relation
names.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..database.schema import RelationSchema
from ..errors import PDMSConfigurationError


def qualified_name(peer_name: str, relation_name: str) -> str:
    """Return the fully qualified ``peer:relation`` name.

    If ``relation_name`` is already qualified with this peer's name it is
    returned unchanged; qualification with a *different* peer name is an
    error (a peer cannot declare another peer's relations).
    """
    if ":" in relation_name:
        prefix, _, _ = relation_name.partition(":")
        if prefix != peer_name:
            raise PDMSConfigurationError(
                f"relation {relation_name!r} is qualified with peer {prefix!r}, "
                f"not {peer_name!r}"
            )
        return relation_name
    return f"{peer_name}:{relation_name}"


@dataclass(frozen=True)
class StoredRelation:
    """A stored relation contributed by a peer.

    Stored relations hold actual data; every reformulated query refers
    only to stored relations.  Their names are *not* peer-qualified in the
    paper's examples (``doc``, ``sched``, ``S1``); we keep them unqualified
    but remember the owning peer.
    """

    name: str
    peer: str
    schema: RelationSchema

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return self.schema.arity

    def __str__(self) -> str:
        return f"{self.name}@{self.peer}({', '.join(self.schema.attributes)})"


class Peer:
    """A peer: a named schema of peer relations plus optional stored relations.

    Parameters
    ----------
    name:
        Peer name (``H``, ``9DC``, ``FS``, ...).  Used as the qualification
        prefix of its peer relations.
    """

    def __init__(self, name: str):
        if not name or ":" in name:
            raise PDMSConfigurationError(f"invalid peer name {name!r}")
        self.name = name
        self._peer_relations: Dict[str, RelationSchema] = {}
        self._stored_relations: Dict[str, StoredRelation] = {}
        #: Weak reference to the PDMS the peer is registered with, which
        #: records this peer as the owner of the stored relations declared
        #: here.
        self._registry: Optional[weakref.ref] = None

    # -- peer relations ----------------------------------------------------------

    def add_relation(self, name: str, attributes: Sequence[str]) -> RelationSchema:
        """Declare a peer relation; returns its schema (with qualified name)."""
        full_name = qualified_name(self.name, name)
        if full_name in self._peer_relations:
            raise PDMSConfigurationError(
                f"peer {self.name} already declares relation {full_name}"
            )
        schema = RelationSchema(full_name, attributes)
        self._peer_relations[full_name] = schema
        return schema

    def relation(self, name: str) -> RelationSchema:
        """Look up a peer relation by (qualified or unqualified) name."""
        full_name = qualified_name(self.name, name)
        try:
            return self._peer_relations[full_name]
        except KeyError as exc:
            raise PDMSConfigurationError(
                f"peer {self.name} has no relation {full_name!r}"
            ) from exc

    def peer_relations(self) -> Tuple[RelationSchema, ...]:
        """All declared peer relations."""
        return tuple(self._peer_relations.values())

    def peer_relation_names(self) -> Tuple[str, ...]:
        """Qualified names of all declared peer relations."""
        return tuple(self._peer_relations)

    def has_relation(self, name: str) -> bool:
        """Does this peer declare the given (qualified or unqualified) relation?"""
        try:
            return qualified_name(self.name, name) in self._peer_relations
        except PDMSConfigurationError:
            return False

    # -- stored relations ----------------------------------------------------------

    def add_stored_relation(
        self, name: str, attributes: Sequence[str]
    ) -> StoredRelation:
        """Declare a stored relation contributed by this peer (a registered
        peer reports it to its PDMS, which first refuses a relation another
        of its peers stores)."""
        pdms = self._registry() if self._registry is not None else None
        if pdms is not None:
            pdms._check_unowned(self.name, (name,))
        stored = self._store(name, attributes)
        self._report(name, True)
        return stored

    def remove_stored_relation(self, name: str) -> StoredRelation:
        """Undeclare a stored relation (a registered peer reports it to its
        PDMS)."""
        stored = self._unstore(name)
        self._report(name, False)
        return stored

    def _store(self, name: str, attributes: Sequence[str]) -> StoredRelation:
        if name in self._stored_relations:
            raise PDMSConfigurationError(
                f"peer {self.name} already stores relation {name!r}"
            )
        if ":" in name:
            raise PDMSConfigurationError(
                f"stored relation names must not be peer-qualified: {name!r}"
            )
        stored = StoredRelation(name, self.name, RelationSchema(name, attributes))
        self._stored_relations[name] = stored
        return stored

    def _unstore(self, name: str) -> StoredRelation:
        try:
            return self._stored_relations.pop(name)
        except KeyError as exc:
            raise PDMSConfigurationError(
                f"peer {self.name} stores no relation {name!r}"
            ) from exc

    def _report(self, name: str, declared: bool) -> None:
        """Tell the PDMS this peer is registered with, if it still exists."""
        pdms = self._registry() if self._registry is not None else None
        if pdms is not None:
            pdms._peer_declared(self.name, name, declared)

    def stored_relations(self) -> Tuple[StoredRelation, ...]:
        """All stored relations contributed by this peer."""
        return tuple(self._stored_relations.values())

    def stored_relation_names(self) -> Tuple[str, ...]:
        """Names of this peer's stored relations."""
        return tuple(self._stored_relations)

    def __str__(self) -> str:
        return (
            f"peer {self.name}: {len(self._peer_relations)} peer relations, "
            f"{len(self._stored_relations)} stored relations"
        )

    def __repr__(self) -> str:
        return f"Peer({self.name!r})"
