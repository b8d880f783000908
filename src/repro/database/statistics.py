"""Versioned relation statistics for cost-based planning.

The planners so far estimated scan outputs with a fixed "shrink one notch
per restriction" heuristic — fine for picking *some* join order, useless
for deciding whether a fragment is worth materialising or which bushy
join pair to build first.  This module maintains cheap per-relation
statistics over any fact source:

* **cardinality** — row count;
* **distinct counts per column** — the number of distinct values at each
  argument position, which turns a constant filter into a real point
  selectivity (``cardinality / distinct``) and a repeated-variable or
  join equality into the textbook ``1 / max(d_left, d_right)``;
* **selectivities** derived from the two.

Statistics are *version-validated*: a relation's stats are computed in
one pass over its rows and cached under the source's **data version**
for that relation (see :meth:`repro.database.instance.Instance.data_version`
— a ``(instance id, PredicateIndex.version)`` pair that moves on every
insert/delete).  A later lookup re-reads the version (an O(1) attribute
probe) and recomputes only when the relation actually changed, so a
workload that trickles writes into one relation pays one rescan of that
relation and nothing else.  Sources that expose no ``data_version``
(plain mappings, one-off snapshots) get snapshot semantics: stats are
computed once and never revalidated, matching how long such sources live.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

Row = Tuple[object, ...]


def source_data_version(source: object, relation: str) -> Optional[object]:
    """The source's data-version token for ``relation``, if it has one.

    Returns ``None`` for unversioned sources; tokens are opaque hashable
    values that change whenever the relation's contents may have changed
    (and differ across distinct source objects, so a cache keyed on them
    can never confuse two instances that happen to share relation names).
    """
    reader = getattr(source, "data_version", None)
    if not callable(reader):
        return None
    return reader(relation)


@dataclass(frozen=True)
class RelationStats:
    """One relation's statistics, stamped with the version they describe."""

    relation: str
    cardinality: int
    #: Distinct value count per column position (empty for empty relations).
    distinct: Tuple[int, ...]
    #: Data version the stats were computed at (``None`` when unversioned).
    version: object = None

    def distinct_at(self, position: int) -> int:
        """Distinct values at ``position`` (>= 1; falls back to cardinality)."""
        if 0 <= position < len(self.distinct):
            return max(self.distinct[position], 1)
        return max(self.cardinality, 1)

    def selectivity(self, position: int) -> float:
        """Fraction of rows matched by one constant at ``position``."""
        if self.cardinality <= 0:
            return 0.0
        return 1.0 / self.distinct_at(position)


def compute_relation_stats(
    relation: str, rows: Iterable[Row], version: object = None
) -> RelationStats:
    """One-pass cardinality + per-column distinct counts over ``rows``.

    Tolerates ragged widths (a malformed relation still gets stats for the
    positions it has; probes on it fail elsewhere with a real error).
    """
    cardinality = 0
    seen: list = []
    for row in rows:
        cardinality += 1
        while len(seen) < len(row):
            seen.append(set())
        for position, value in enumerate(row):
            seen[position].add(value)
    return RelationStats(
        relation=relation,
        cardinality=cardinality,
        distinct=tuple(len(values) for values in seen),
        version=version,
    )


class StatisticsCatalog:
    """Per-relation statistics over one fact source, revalidated by version.

    ``stats(relation)`` returns a :class:`RelationStats`, recomputing only
    when the source's data version for that relation moved since the last
    computation.  :meth:`freeze` turns the catalog into a pure snapshot
    that drops its source reference — safe to keep on long-lived compiled
    plans without pinning a removed peer's instance in memory.
    """

    __slots__ = ("_source", "_cache")

    def __init__(self, source: Optional[object] = None):
        self._source = source
        self._cache: Dict[str, RelationStats] = {}

    @property
    def source(self) -> Optional[object]:
        """The live source (``None`` once frozen or constructed without one)."""
        return self._source

    def live_source(self) -> Optional[object]:
        """The source this catalog currently reads, if it is still alive.

        This is what version-scoped consumers (cardinality-feedback
        corrections) use to compute current data-version tokens; a frozen
        catalog returns ``None`` — no live source, no valid token, no
        correction served.
        """
        return self._source

    def stats(self, relation: str) -> RelationStats:
        """Current statistics for ``relation`` (empty stats when unknown)."""
        cached = self._cache.get(relation)
        if self._source is None:
            if cached is not None:
                return cached
            return RelationStats(relation, 0, ())
        version = source_data_version(self._source, relation)
        if cached is not None and (version is None or cached.version == version):
            return cached
        rows = self._source.get_tuples(relation)  # type: ignore[attr-defined]
        computed = compute_relation_stats(relation, rows, version)
        self._cache[relation] = computed
        return computed

    def cardinality(self, relation: str) -> int:
        """Row count of ``relation`` (0 when unknown).

        Served without a row scan whenever possible: a valid cached stats
        entry, else the source's own O(1) ``cardinality`` counter (hash
        indexes track their size).  Full stats — distinct counts — are
        computed only when an estimate actually needs them.
        """
        cached = self._cache.get(relation)
        if cached is not None and (
            self._source is None
            or cached.version == source_data_version(self._source, relation)
        ):
            return cached.cardinality
        if self._source is not None:
            counter = getattr(self._source, "cardinality", None)
            if callable(counter):
                return int(counter(relation))
        return self.stats(relation).cardinality

    def column_distinct(self, relation: str, position: int) -> int:
        """Distinct values at one column position (>= 1)."""
        return self.stats(relation).distinct_at(position)

    def selectivity(self, relation: str, position: int) -> float:
        """Point selectivity of one constant filter at ``position``."""
        return self.stats(relation).selectivity(position)

    def known_relations(self) -> Tuple[str, ...]:
        """Relations with currently cached statistics."""
        return tuple(self._cache)

    def freeze(self) -> "StatisticsCatalog":
        """Capture stats for every enumerable relation, then drop the source.

        Requires a source whose relations can be listed (a ``relations()``
        method — instances and federated sources qualify); sources that
        cannot be enumerated keep whatever is already cached.  Mutates
        *this* catalog — never call it on a catalog obtained from
        :func:`shared_statistics`; use :meth:`frozen_copy` there.
        """
        if self._source is not None:
            lister = getattr(self._source, "relations", None)
            if callable(lister):
                for relation in lister():
                    self.stats(relation)
            self._source = None
        return self

    def frozen_copy(self) -> "StatisticsCatalog":
        """A detached snapshot of this catalog (the original stays live).

        Computes (and caches, benefiting future snapshots of the same
        unchanged source) stats for every enumerable relation, then
        returns a new source-less catalog holding the captured entries.
        """
        if self._source is not None:
            lister = getattr(self._source, "relations", None)
            if callable(lister):
                for relation in lister():
                    self.stats(relation)
        clone = StatisticsCatalog(None)
        clone._cache = dict(self._cache)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = "live" if self._source is not None else "frozen"
        return f"StatisticsCatalog({len(self._cache)} relations, {live})"


class WeakStatisticsCatalog(StatisticsCatalog):
    """A catalog that never pins its source.

    Holds the source through a weak reference and delegates to the
    source's *shared* catalog while it is alive — estimates stay fully
    stats-driven, computed lazily and only for the relations actually
    asked about, at zero eager cost.  Entries observed during the
    source's lifetime are mirrored locally, so once the source is
    dropped the catalog degrades to frozen-snapshot behaviour instead of
    keeping the data alive.  This is what long-lived compiled plans use
    (see ``ensure_plan``): a cached plan must not pin a removed peer's
    instance, and must not pay a full rescan of every relation up front
    the way an eager snapshot would.
    """

    __slots__ = ("_source_ref",)

    def __init__(self, source: object):
        super().__init__(None)
        try:
            self._source_ref: Optional["weakref.ref"] = weakref.ref(source)
        except TypeError:
            # Not weak-referenceable: capture eagerly (the pre-weakref
            # snapshot behaviour) rather than silently pinning it.
            self._source_ref = None
            self._cache = dict(shared_statistics(source).frozen_copy()._cache)

    def _live(self) -> Optional[object]:
        return self._source_ref() if self._source_ref is not None else None

    def live_source(self) -> Optional[object]:
        return self._live()

    def stats(self, relation: str) -> RelationStats:
        source = self._live()
        if source is not None:
            computed = shared_statistics(source).stats(relation)
            self._cache[relation] = computed
            return computed
        return super().stats(relation)

    def cardinality(self, relation: str) -> int:
        source = self._live()
        if source is not None:
            return shared_statistics(source).cardinality(relation)
        return super().cardinality(relation)


_CATALOG_ATTRIBUTE = "_repro_statistics"


def shared_statistics(source: object) -> StatisticsCatalog:
    """One shared catalog per live fact source.

    Every compilation against the same source — including the per-call
    cost model the plan engine builds for each rewriting — reuses the
    same version-validated statistics instead of rescanning relations per
    call.  Sharing is safe because every entry is revalidated on read.
    The catalog rides on the source object itself (instances have a
    ``__dict__``; federated sources reserve a slot), so its lifetime —
    and the lifetime of everything it references — exactly equals the
    source's: no registry that could pin a dropped source.  The
    source→catalog→source cycle is ordinary gc-collectable garbage.
    Sources that cannot carry the attribute get a private catalog
    (per-call dict adapters die with the call anyway).
    """
    cached = getattr(source, _CATALOG_ATTRIBUTE, None)
    if isinstance(cached, StatisticsCatalog):
        return cached
    catalog = StatisticsCatalog(source)
    try:
        setattr(source, _CATALOG_ATTRIBUTE, catalog)
    except (AttributeError, TypeError):
        pass
    return catalog


def cached_statistics(source: object) -> Dict[str, RelationStats]:
    """The entries ``source``'s shared catalog holds right now.

    Plain values stamped with the versions they describe, holding no
    reference to the source, so they can outlive it.
    """
    catalog = getattr(source, _CATALOG_ATTRIBUTE, None)
    return dict(catalog._cache) if isinstance(catalog, StatisticsCatalog) else {}


def adopt_statistics(source: object, entries: Mapping[str, RelationStats]) -> None:
    """Seed ``source``'s shared catalog with ``entries`` taken from another
    source over mostly the same data (a federated view rebuilt after a
    peer joined or left).

    Every entry is still revalidated against ``source``'s own data
    version on read, so only relations whose version differs there — new
    rows, or a changed owner set — are rescanned.  Unversioned entries
    could never be revalidated and are not adopted.
    """
    catalog = shared_statistics(source)
    for relation, stats in entries.items():
        if stats.version is not None:
            catalog._cache.setdefault(relation, stats)
