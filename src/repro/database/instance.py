"""In-memory database instances.

An :class:`Instance` stores, for each relation name, a set of rows
(tuples of plain Python values) wrapped in a
:class:`repro.datalog.indexing.PredicateIndex`.  It implements both the
:class:`repro.datalog.evaluation.FactSource` protocol and the indexed
extension (``get_matching``), so query and datalog evaluation probe hash
indexes on bound argument positions instead of scanning whole relations.
Indexes are built lazily per (relation, position-set) on the first probe
and maintained incrementally across inserts — important for the chase
oracle, which interleaves inserts with many query evaluations over the
same growing instance.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from ..datalog.indexing import Pattern, PredicateIndex
from ..errors import InstanceError, SchemaError
from .schema import DatabaseSchema

Row = Tuple[object, ...]


class _RelationCreationClock:
    """A process-wide monotone clock ticked whenever any instance creates
    a relation.

    Federated views over live instances
    (:class:`repro.pdms.execution.PeerFactSource`) compare one cached
    reading against :meth:`read` — a single attribute access — on every
    probe, and only re-derive their relation-routing tables when the clock
    moved.  Ticks happen *after* the new relation is visible, so a reader
    that observes the new clock value also observes the relation; the lock
    keeps the value strictly monotone under concurrent creators.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def tick(self) -> None:
        with self._lock:
            self._value += 1

    def read(self) -> int:
        return self._value


#: The clock shared by every :class:`Instance` in the process.
relation_creation_clock = _RelationCreationClock()

#: Process-unique instance ids (thread-safe under the GIL); a fresh id per
#: Instance makes data-version tokens globally unambiguous — two instances
#: that happen to share relation names can never alias in a version-keyed
#: cache.
_instance_ids = itertools.count(1)

#: Data-version token of a relation the instance has never created.
_ABSENT_VERSION = -1


class Instance:
    """A mutable set-semantics database instance.

    Parameters
    ----------
    schema:
        Optional :class:`DatabaseSchema`.  When provided, inserts are
        validated against it and unknown relation names are rejected;
        without it, relations are created lazily with inferred arity.
    """

    def __init__(self, schema: Optional[DatabaseSchema] = None):
        self._schema = schema
        self._relations: Dict[str, PredicateIndex] = {}
        self._arities: Dict[str, int] = {}
        self._relations_version = 0
        self._instance_id = next(_instance_ids)
        if schema is not None:
            for relation in schema:
                self._relations[relation.name] = PredicateIndex()
                self._arities[relation.name] = relation.arity
            self._relations_version = len(self._relations)
            relation_creation_clock.tick()

    # -- FactSource protocol ---------------------------------------------------

    def get_tuples(self, predicate: str) -> Iterable[Row]:
        """Return the rows stored for ``predicate`` (empty if unknown)."""
        index = self._relations.get(predicate)
        return index.rows() if index is not None else set()

    def get_matching(self, predicate: str, pattern: Pattern) -> Iterable[Row]:
        """Rows of ``predicate`` matching ``pattern`` (see :mod:`repro.datalog.indexing`)."""
        index = self._relations.get(predicate)
        return index.matching(pattern) if index is not None else ()

    # -- mutation ----------------------------------------------------------------

    def add(self, relation: str, row: Sequence[object]) -> None:
        """Insert one row into ``relation``.

        With a schema, the relation must exist and the row must validate.
        Without one, the relation is created on first insert and later
        inserts must match its arity.
        """
        values = tuple(row)
        if self._schema is not None:
            try:
                rel_schema = self._schema.relation(relation)
            except SchemaError as exc:
                raise InstanceError(str(exc)) from exc
            values = rel_schema.validate_row(values)
        else:
            known_arity = self._arities.get(relation)
            if known_arity is None:
                self._arities[relation] = len(values)
            elif known_arity != len(values):
                raise InstanceError(
                    f"relation {relation} has arity {known_arity} but got a row "
                    f"of width {len(values)}"
                )
        index = self._relations.get(relation)
        if index is None:
            index = self._relations[relation] = PredicateIndex()
            self._relations_version += 1
            relation_creation_clock.tick()
        index.add(values)

    def add_all(self, relation: str, rows: Iterable[Sequence[object]]) -> None:
        """Insert many rows into ``relation``."""
        for row in rows:
            self.add(relation, row)

    def remove(self, relation: str, row: Sequence[object]) -> None:
        """Remove a row; raises :class:`InstanceError` if it is not present."""
        values = tuple(row)
        stored = self._relations.get(relation)
        if stored is None or not stored.discard(values):
            raise InstanceError(f"row {values} is not in relation {relation}")

    def clear(self, relation: Optional[str] = None) -> None:
        """Remove all rows of ``relation``, or of every relation if ``None``."""
        if relation is None:
            for index in self._relations.values():
                index.clear()
        elif relation in self._relations:
            self._relations[relation].clear()

    # -- inspection ---------------------------------------------------------------

    @property
    def schema(self) -> Optional[DatabaseSchema]:
        """The schema this instance validates against, if any."""
        return self._schema

    def relations(self) -> Tuple[str, ...]:
        """Names of relations that currently hold at least one row or are declared."""
        return tuple(self._relations)

    @property
    def relations_version(self) -> int:
        """Monotone counter bumped whenever a *new* relation is created.

        Federated views (:class:`repro.pdms.execution.PeerFactSource`) sum
        it over their owned instances — after the process-wide
        :data:`relation_creation_clock` signals that *some* instance
        created a relation — to decide whether their own routing tables
        actually need re-deriving.
        """
        return self._relations_version

    def arity(self, relation: str) -> Optional[int]:
        """Arity of ``relation`` (declared or inferred), or ``None`` if unknown."""
        if self._schema is not None:
            try:
                return self._schema.relation(relation).arity
            except SchemaError:
                return None
        return self._arities.get(relation)

    def cardinality(self, relation: str) -> int:
        """Number of rows in ``relation``."""
        index = self._relations.get(relation)
        return len(index) if index is not None else 0

    @property
    def instance_id(self) -> int:
        """A process-unique id for this instance (part of version tokens)."""
        return self._instance_id

    def data_version(self, relation: str) -> Tuple[int, int]:
        """The data-version token of ``relation``: ``(instance id, version)``.

        The second component is the relation's monotone
        :attr:`~repro.datalog.indexing.PredicateIndex.version` counter —
        bumped on every insert, delete, and clear — or a sentinel when the
        relation does not exist here.  Tokens from different instances
        never compare equal (the instance id differs), so caches keyed on
        them survive swapping one data set for another.
        """
        index = self._relations.get(relation)
        version = index.version if index is not None else _ABSENT_VERSION
        return (self._instance_id, version)

    def rows_since(self, relation: str, version: int) -> Optional[Tuple[Row, ...]]:
        """Rows added to ``relation`` after index-version ``version``.

        ``None`` when the additive history is unavailable (removals,
        clears, log overflow, unknown relation) and the caller must take
        a full rescan.  Together with :meth:`data_version` this backs the
        delta-shipping scan protocol: a caller holding the token
        ``(instance_id, v)`` asks for ``rows_since(relation, v)`` and
        unions the result into its memoized full scan at ``v``.
        """
        index = self._relations.get(relation)
        if index is None:
            return None
        return index.rows_since(version)

    def version_vector(
        self, relations: Optional[Iterable[str]] = None
    ) -> Dict[str, Tuple[int, int]]:
        """Per-relation data-version tokens (all relations by default)."""
        names = tuple(relations) if relations is not None else tuple(self._relations)
        return {name: self.data_version(name) for name in names}

    def total_rows(self) -> int:
        """Total number of rows across all relations."""
        return sum(len(index) for index in self._relations.values())

    def active_domain(self) -> Set[object]:
        """All values occurring anywhere in the instance."""
        domain: Set[object] = set()
        for index in self._relations.values():
            for row in index.rows():
                domain.update(row)
        return domain

    def __contains__(self, relation: str) -> bool:
        return relation in self._relations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        mine = {name: set(index.rows()) for name, index in self._relations.items() if index}
        theirs = {name: set(index.rows()) for name, index in other._relations.items() if index}
        return mine == theirs

    def __hash__(self) -> int:  # pragma: no cover - instances are mutable
        raise TypeError("Instance objects are mutable and unhashable")

    # -- conversion ---------------------------------------------------------------

    def as_dict(self) -> Dict[str, Set[Row]]:
        """Return a copy of the underlying relation->rows mapping."""
        return {name: set(index.rows()) for name, index in self._relations.items()}

    def copy(self) -> "Instance":
        """Return a deep copy of the instance (schema object is shared)."""
        clone = Instance(self._schema)
        for name, index in self._relations.items():
            clone._relations[name] = PredicateIndex(index.rows())
            clone._arities[name] = self._arities.get(name, 0)
        clone._relations_version = len(clone._relations)
        relation_creation_clock.tick()
        return clone

    def merge(self, other: "Instance") -> "Instance":
        """Return a new instance holding the union of both instances' rows."""
        merged = self.copy()
        for name, index in other._relations.items():
            for row in index.rows():
                merged.add(name, row)
        return merged

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Iterable[Sequence[object]]],
        schema: Optional[DatabaseSchema] = None,
    ) -> "Instance":
        """Build an instance from a mapping of relation name to rows."""
        instance = cls(schema)
        for name, rows in data.items():
            instance.add_all(name, rows)
        return instance

    def __str__(self) -> str:
        lines = []
        for name in sorted(self._relations):
            lines.append(f"{name}: {len(self._relations[name])} rows")
        return "\n".join(lines) if lines else "(empty instance)"

    def __repr__(self) -> str:
        return f"Instance({self.total_rows()} rows in {len(self._relations)} relations)"

