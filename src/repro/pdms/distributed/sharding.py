"""Shard-aware placement: partitioning peer relations across workers.

Until this module, a stored relation lived wholly on the one transport
peer that described it, so a popular relation's scans all landed on one
worker and adding workers added nothing.  This module makes placement a
first-class, planner-visible object:

* a :class:`ShardMap` records, per stored relation, a *partition scheme*
  (:class:`HashPartition` or :class:`RangePartition` over one column) and
  a *placement*: for each shard index, the group of transport peers
  holding that shard (a group has more than one member only under
  replication).  Shards are ordinary transport peers — the
  :class:`~repro.pdms.distributed.source.RemotePeerFactSource` routing
  table lists every shard as an owner of the relation, its ``describe``
  aggregation sums per-shard cardinalities, and the sorted tuple of
  per-shard version tokens *is* the relation's composite version token,
  so the :class:`~repro.pdms.materialization.FragmentCache` invalidation
  contract survives sharding with no new machinery;
* :meth:`ShardMap.owners_for_pattern` is the **pruning rule**: a scan
  whose pattern binds the partition column to a constant touches only the
  owning shard group; any other scan fans out to the full placement.
  Pruning is consulted by :meth:`UnionPlan.scan_requests
  <repro.pdms.planning.UnionPlan.scan_requests>` and by the remote
  source's scatter path, and it is *sound by construction*: rows that
  hash (or range) elsewhere cannot exist on other shards, so the pruned
  union equals the fan-out union;
* :meth:`ShardMap.route_rows` is the write path: inserts route to the
  owning shard group (every group member under replication), keeping the
  placement invariant the pruning rule relies on;
* :func:`auto_shard` hash-partitions every relation of a per-peer
  instance map across ``n`` fresh worker instances, returning the shard
  map to build a sharded source or cluster with.  A caller splits once
  and keeps the result: every call mints fresh worker instances (fresh
  version tokens).

Hash placement must agree across *processes* (a client routes an insert
that a worker-process shard later serves), and Python's builtin ``hash``
is seed-randomized for strings, so :func:`stable_shard_hash` hashes a
canonical byte encoding instead.  Numeric values that compare equal
(``1 == 1.0 == True``) canonicalize identically — otherwise a row
inserted as ``1`` could be probed as ``1.0`` on the wrong shard.

See ``docs/sharding.md`` for the full placement/pruning/failure story.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ...database.instance import Instance
from ...datalog.indexing import WILDCARD, Pattern
from ...errors import PDMSConfigurationError
from ...obs.metrics import METRICS_SCHEMA_VERSION
from ...obs.trace import current_span

Row = Tuple[object, ...]


# ---------------------------------------------------------------------------
# Stable hashing (placement must agree across processes)
# ---------------------------------------------------------------------------

def _canonical_bytes(value: object) -> bytes:
    """A byte encoding under which equal values encode equally.

    Covers the wire-friendly value types (``None``, bools, ints, floats,
    strings, bytes, nested tuples/frozensets); anything else falls back to
    ``repr``, which is stable within a process but should not be relied on
    for cross-process placement of exotic types.
    """
    if value is None:
        return b"n"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        # Integral floats collapse onto the equal int (1.0 == 1 must land
        # on 1's shard); everything else uses the exact hex form.
        if value.is_integer() and abs(value) < 2**63:
            return b"i" + str(int(value)).encode("ascii")
        return b"f" + value.hex().encode("ascii")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, tuple):
        return b"t" + b"\x1f".join(_canonical_bytes(item) for item in value)
    if isinstance(value, frozenset):
        return b"F" + b"\x1f".join(
            sorted(_canonical_bytes(item) for item in value)
        )
    return b"r" + repr(value).encode("utf-8", "backslashreplace")


def stable_shard_hash(value: object) -> int:
    """A process-independent 64-bit hash of one partition-column value."""
    digest = hashlib.blake2b(_canonical_bytes(value), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# Partition schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HashPartition:
    """Hash partitioning of one column into ``shards`` buckets."""

    column: int
    shards: int

    def __post_init__(self):
        if self.shards < 1:
            raise PDMSConfigurationError("HashPartition needs at least 1 shard")
        if self.column < 0:
            raise PDMSConfigurationError("partition column must be >= 0")

    def shard_of(self, value: object) -> int:
        """The shard index owning rows whose partition column is ``value``."""
        return stable_shard_hash(value) % self.shards


@dataclass(frozen=True)
class RangePartition:
    """Range partitioning by sorted split points.

    ``bounds = (b0, b1, ..., bk)`` defines ``k + 1`` shards: shard 0 holds
    values ``< b0``, shard ``i`` holds ``b(i-1) <= value < b(i)``, and the
    last shard holds ``>= bk``.  Values that do not compare with the
    bounds (mixed types) raise ``TypeError`` from :meth:`shard_of`; the
    pruning rule treats that as "cannot prune" while the write path
    treats it as a data error.
    """

    column: int
    bounds: Tuple[object, ...]

    def __post_init__(self):
        if not self.bounds:
            raise PDMSConfigurationError("RangePartition needs split points")
        if self.column < 0:
            raise PDMSConfigurationError("partition column must be >= 0")
        try:
            ordered = list(self.bounds) == sorted(self.bounds)
        except TypeError:
            raise PDMSConfigurationError(
                "RangePartition bounds must be mutually comparable"
            ) from None
        if not ordered:
            raise PDMSConfigurationError("RangePartition bounds must be sorted")

    @property
    def shards(self) -> int:
        return len(self.bounds) + 1

    def shard_of(self, value: object) -> int:
        """The shard index owning ``value`` (``TypeError`` if incomparable)."""
        return bisect_right(list(self.bounds), value)


@dataclass(frozen=True)
class _ShardSpec:
    """One relation's partition scheme plus its shard-indexed placement."""

    partition: object  # HashPartition | RangePartition
    #: ``placement[i]`` is the group of transport peers holding shard i
    #: (more than one member only under replication).
    placement: Tuple[Tuple[str, ...], ...]


# ---------------------------------------------------------------------------
# The shard map
# ---------------------------------------------------------------------------

class ShardMap:
    """Relation → (partition scheme, shard placement), the catalogue's twin.

    Lives alongside the PDMS catalogue and is handed to the transport
    layer (:class:`~repro.pdms.distributed.source.RemotePeerFactSource`,
    :class:`~repro.pdms.distributed.cluster.ServiceCluster`).  Relations
    absent from the map are simply unsharded: routing falls back to the
    describe-derived owner set, exactly as before this module existed.

    The map is immutable-after-registration in spirit: register every
    relation before serving queries; the object itself is safe to share
    across threads because registration only adds dict entries.
    """

    def __init__(self):
        self._specs: Dict[str, _ShardSpec] = {}

    # -- registration ------------------------------------------------------

    def _register(self, relation: str, partition, placement) -> "ShardMap":
        groups = tuple(
            (entry,) if isinstance(entry, str) else tuple(entry)
            for entry in placement
        )
        if len(groups) != partition.shards:
            raise PDMSConfigurationError(
                f"relation {relation!r}: placement lists {len(groups)} shard "
                f"groups but the partition scheme has {partition.shards}"
            )
        if any(not group for group in groups):
            raise PDMSConfigurationError(
                f"relation {relation!r}: every shard needs at least one peer"
            )
        if relation in self._specs:
            raise PDMSConfigurationError(
                f"relation {relation!r} is already sharded"
            )
        self._specs[relation] = _ShardSpec(partition, groups)
        return self

    def shard_by_hash(
        self,
        relation: str,
        column: int,
        placement: Sequence[object],
    ) -> "ShardMap":
        """Hash-partition ``relation`` on ``column`` across ``placement``.

        ``placement[i]`` is the peer (or peer group, under replication)
        holding shard ``i``; the shard count is ``len(placement)``.
        Returns ``self`` for chaining.
        """
        return self._register(
            relation, HashPartition(column, len(placement)), placement
        )

    def shard_by_range(
        self,
        relation: str,
        column: int,
        bounds: Sequence[object],
        placement: Sequence[object],
    ) -> "ShardMap":
        """Range-partition ``relation`` on ``column`` at ``bounds``.

        ``placement`` needs ``len(bounds) + 1`` entries (one per range).
        Returns ``self`` for chaining.
        """
        return self._register(
            relation, RangePartition(column, tuple(bounds)), placement
        )

    # -- introspection -----------------------------------------------------

    def is_sharded(self, relation: str) -> bool:
        return relation in self._specs

    def relations(self) -> Tuple[str, ...]:
        """Every sharded relation."""
        return tuple(self._specs)

    def partition(self, relation: str):
        """The partition scheme of ``relation`` (``None`` if unsharded)."""
        spec = self._specs.get(relation)
        return spec.partition if spec is not None else None

    def placement(self, relation: str) -> Tuple[Tuple[str, ...], ...]:
        """Shard-indexed peer groups of ``relation`` (empty if unsharded)."""
        spec = self._specs.get(relation)
        return spec.placement if spec is not None else ()

    def all_peers(self, relation: str) -> Tuple[str, ...]:
        """Every peer holding any shard of ``relation`` (dedup, in order)."""
        seen: Dict[str, None] = {}
        for group in self.placement(relation):
            for peer in group:
                seen.setdefault(peer)
        return tuple(seen)

    def describe(self) -> Dict[str, Dict[str, object]]:
        """A JSON-friendly snapshot (cluster ``describe()`` embeds this)."""
        out: Dict[str, Dict[str, object]] = {}
        for relation, spec in self._specs.items():
            out[relation] = {
                "scheme": type(spec.partition).__name__,
                "column": spec.partition.column,
                "shards": spec.partition.shards,
                "peers": list(self.all_peers(relation)),
            }
        return out

    def as_dict(self) -> Dict[str, object]:
        """The schema-versioned twin of :meth:`describe`.

        ``describe()`` keeps its relation-keyed shape (cluster snapshots
        embed it under ``"sharding"``); metrics surfaces register this
        wrapper instead so every collected snapshot carries the version.
        """
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "relations": self.describe(),
        }

    # -- the pruning rule --------------------------------------------------

    def owners_for_pattern(
        self, relation: str, pattern: Pattern
    ) -> Optional[Tuple[str, ...]]:
        """The peers a scan with ``pattern`` must touch.

        ``None`` means "no placement knowledge" (unsharded relation): the
        caller falls back to the describe-derived owner set.  A pattern
        binding the partition column to a constant prunes to the owning
        shard group; anything else — wildcard partition column, a pattern
        too short to cover it, or a range-incomparable constant — returns
        the full placement (sound fan-out).
        """
        spec = self._specs.get(relation)
        if spec is None:
            return None
        column = spec.partition.column
        value = pattern[column] if column < len(pattern) else WILDCARD
        if value is WILDCARD:
            return self.all_peers(relation)
        try:
            index = spec.partition.shard_of(value)
        except TypeError:
            # Range bounds cannot order this value; fan out soundly.
            return self.all_peers(relation)
        return spec.placement[index]

    def groups_for_pattern(
        self, relation: str, pattern: Pattern
    ) -> Optional[Tuple[Tuple[str, ...], ...]]:
        """The replica groups a scan with ``pattern`` must cover.

        The group-structured twin of :meth:`owners_for_pattern`: instead
        of a flat peer set it returns one group per shard the scan must
        touch, each group listing the replicas holding that shard — any
        *one* live member of each group suffices for a complete answer,
        which is what makes hedging and replica failover sound.  ``None``
        means "no placement knowledge" (unsharded relation).
        """
        spec = self._specs.get(relation)
        if spec is None:
            return None
        column = spec.partition.column
        value = pattern[column] if column < len(pattern) else WILDCARD
        if value is not WILDCARD:
            try:
                return (spec.placement[spec.partition.shard_of(value)],)
            except TypeError:
                pass  # Range bounds cannot order this value; fan out.
        return spec.placement

    # -- the write path ----------------------------------------------------

    def owners_for_row(self, relation: str, row: Row) -> Tuple[str, ...]:
        """The shard group an inserted ``row`` belongs on."""
        spec = self._specs.get(relation)
        if spec is None:
            raise PDMSConfigurationError(f"relation {relation!r} is not sharded")
        column = spec.partition.column
        if column >= len(row):
            raise ValueError(
                f"relation {relation!r} rows have width {len(row)}, but the "
                f"partition column is {column}"
            )
        try:
            index = spec.partition.shard_of(row[column])
        except TypeError as exc:
            raise ValueError(
                f"relation {relation!r}: partition value {row[column]!r} "
                f"does not compare with the range bounds"
            ) from exc
        return spec.placement[index]

    def route_rows(
        self, relation: str, rows: Iterable[Row]
    ) -> Dict[str, List[Row]]:
        """Group ``rows`` by destination peer (replicas get every copy)."""
        routed: Dict[str, List[Row]] = {}
        for row in rows:
            row = tuple(row)
            for peer in self.owners_for_row(relation, row):
                routed.setdefault(peer, []).append(row)
        return routed

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardMap({len(self._specs)} sharded relations)"


# ---------------------------------------------------------------------------
# Automatic sharding of per-peer instances
# ---------------------------------------------------------------------------

def shard_peer_names(peer: str, shards: int) -> Tuple[str, ...]:
    """The worker-peer names ``peer``'s shards live on (``peer#0`` …)."""
    return tuple(f"{peer}#{index}" for index in range(shards))


def _split_instance(
    peer: str, instance: Instance, shards: int, column: int
) -> Dict[str, Instance]:
    """Split one peer instance into ``shards`` worker instances.

    Relations wide enough to carry the partition column are hash-routed
    row by row; narrower relations (e.g. arity ≤ ``column``) stay whole
    on shard 0 — they are served unsharded through normal describe-based
    routing.
    """
    names = shard_peer_names(peer, shards)
    with current_span().child("shard.split", peer=peer, shards=shards):
        parts: Dict[str, Instance] = {name: Instance() for name in names}
        for relation in instance.relations():
            arity = instance.arity(relation)
            if arity is None:
                continue
            if arity > column:
                partition = HashPartition(column, shards)
                for row in instance.get_tuples(relation):
                    parts[names[partition.shard_of(row[column])]].add(
                        relation, row
                    )
            else:
                for row in instance.get_tuples(relation):
                    parts[names[0]].add(relation, row)
    return parts


def auto_shard(
    instances: Mapping[str, Instance], shards: int, column: int = 0
) -> Tuple[ShardMap, Dict[str, Instance]]:
    """Hash-partition every peer's relations across ``shards`` workers.

    Returns the :class:`ShardMap` plus the worker instance map (peer
    ``P``'s shards are named ``P#0`` … ``P#{shards-1}``), ready to hand to
    any transport.  Relations too narrow for the partition column are
    left unsharded (whole on shard 0, absent from the map).  The workers
    are copies: split once, build the transport over them, and write
    through that transport (:func:`insert_routed`) from then on.
    """
    if shards < 1:
        raise PDMSConfigurationError("auto_shard needs at least 1 shard")
    shard_map = ShardMap()
    workers: Dict[str, Instance] = {}
    placements: Dict[str, List[Tuple[str, ...]]] = {}
    for peer, instance in instances.items():
        parts = _split_instance(peer, instance, shards, column)
        workers.update(parts)
        names = shard_peer_names(peer, shards)
        for relation in instance.relations():
            arity = instance.arity(relation)
            if arity is None or arity <= column:
                continue
            groups = placements.setdefault(
                relation, [() for _ in range(shards)]
            )
            for index in range(shards):
                groups[index] = groups[index] + (names[index],)
    for relation, groups in placements.items():
        shard_map.shard_by_hash(relation, column, groups)
    return shard_map, workers


def insert_routed(
    transport,
    shard_map: Optional[ShardMap],
    relation: str,
    rows: Iterable[Row],
    fallback_peers: Sequence[str] = (),
) -> int:
    """Insert ``rows`` through ``transport``, routed by the shard map.

    Sharded relations route each row to its owning shard group (every
    member under replication); unsharded relations go to
    ``fallback_peers`` whole.  Returns the number of distinct rows routed
    (replica copies are not counted twice).  Transport faults propagate —
    a write that did not land must not look like one that did.
    """
    rows = [tuple(row) for row in rows]
    if not rows:
        return 0
    if shard_map is not None and shard_map.is_sharded(relation):
        routed = shard_map.route_rows(relation, rows)
    else:
        if not fallback_peers:
            raise PDMSConfigurationError(
                f"relation {relation!r} is unsharded and no fallback peer "
                f"owns it"
            )
        routed = {peer: rows for peer in fallback_peers}
    for peer, peer_rows in routed.items():
        transport.insert(peer, relation, peer_rows)
    return len(rows)
