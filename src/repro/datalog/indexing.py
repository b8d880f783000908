"""Hash indexes over relations for the indexed join engine.

The join engine in :mod:`repro.datalog.evaluation` probes relations on the
argument positions that are already bound (constants in the atom, or
variables bound by earlier atoms in the join order).  A
:class:`PredicateIndex` holds the rows of one relation together with hash
indexes on subsets of positions, built lazily the first time a probe asks
for them and maintained incrementally as rows are added.

Probes are phrased as *patterns*: one entry per column, either the
:data:`WILDCARD` sentinel (position unconstrained) or a concrete value the
row must hold at that position.  ``None`` is not used as the wildcard
because ``None`` could in principle appear as a data value.

:class:`IndexedFactSource` extends the evaluation ``FactSource`` protocol
with pattern probes; :func:`ensure_indexed` upgrades any plain fact source
to an indexed one by snapshotting its relations on first use.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Protocol, Tuple

Row = Tuple[object, ...]


class _Wildcard:
    """Singleton marker for an unconstrained pattern position."""

    _instance: "_Wildcard | None" = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "*"


#: Pattern entry meaning "any value at this position".
WILDCARD = _Wildcard()

#: A pattern: one entry per column, WILDCARD or a required value.
Pattern = Tuple[object, ...]

#: Maximum insertion-log length kept per relation for delta scans.  Beyond
#: this the log is dropped and the next delta request degrades to a full
#: rescan (correct, just less efficient).
DELTA_LOG_CAP = 8192


class PredicateIndex:
    """Rows of one relation plus lazily built positional hash indexes.

    The index owns its row set.  Adding a row updates every index that has
    already been built (O(#indexes) per row); building an index for a new
    position subset is a single scan of the rows.  Removal invalidates the
    built indexes (it is rare on the hot paths).
    """

    __slots__ = ("_rows", "_indexes", "_version", "_widths", "_log", "_log_floor")

    def __init__(self, rows: Iterable[Row] = ()):
        self._rows: set[Row] = set(map(tuple, rows))
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[object, ...], List[Row]]] = {}
        self._version = 0
        self._widths: Dict[int, int] = {}
        # Bounded insertion log backing delta scans (rows_since): log[i] is
        # the row whose add moved the version to _log_floor + i + 1.
        self._log: List[Row] = []
        self._log_floor = 0
        for row in self._rows:
            self._widths[len(row)] = self._widths.get(len(row), 0) + 1

    # -- mutation ---------------------------------------------------------

    def add(self, row: Row) -> bool:
        """Add ``row``; returns ``True`` iff it was new."""
        if row in self._rows:
            return False
        # Log entry, then row, then version: a reader on another thread
        # that sees the new version finds the row in the delta log, and
        # one that copied the row finds it there too (see tagged_rows).
        self._log.append(row)
        self._rows.add(row)
        self._version += 1
        self._widths[len(row)] = self._widths.get(len(row), 0) + 1
        if len(self._log) > DELTA_LOG_CAP:
            # The log is soft state: dropping it only downgrades later
            # delta requests to full rescans, it never loses rows.
            self._log = []
            self._log_floor = self._version
        for positions, buckets in self._indexes.items():
            key = _bucket_key(row, positions)
            buckets.setdefault(key, []).append(row)
        return True

    def add_all(self, rows: Iterable[Row]) -> int:
        """Add many rows; returns how many were new."""
        return sum(1 for row in rows if self.add(tuple(row)))

    def discard(self, row: Row) -> bool:
        """Remove ``row`` if present, dropping built indexes."""
        if row not in self._rows:
            return False
        self._rows.remove(row)
        self._version += 1
        # Removals are not representable as an additive delta: invalidate
        # the log so delta requests from older versions get a full rescan.
        self._log = []
        self._log_floor = self._version
        width = len(row)
        remaining = self._widths.get(width, 0) - 1
        if remaining > 0:
            self._widths[width] = remaining
        else:
            self._widths.pop(width, None)
        self._indexes.clear()
        return True

    def clear(self) -> None:
        """Remove every row and every index."""
        if self._rows:
            self._version += 1
        self._rows.clear()
        self._indexes.clear()
        self._widths.clear()
        self._log = []
        self._log_floor = self._version

    # -- access -----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation (for cache validation)."""
        return self._version

    def rows(self) -> Collection[Row]:
        """The live row set (treat as read-only)."""
        return self._rows

    def rows_since(self, version: int, until: int) -> "Tuple[Row, ...] | None":
        """Rows added after ``version`` and up to ``until``, or ``None`` if
        unanswerable.

        ``None`` means the additive history from ``version`` to ``until``
        is gone (a removal or ``clear`` happened, the log overflowed),
        ``until`` precedes ``version`` or lies in the future, or a reset
        raced the read; the caller must take a full rescan.  A
        non-``None`` result is exactly the rows whose ``add`` moved the
        version past ``version`` and not past ``until``, in insertion
        order — never a row newer than ``until``.
        """
        log, floor = self._log, self._log_floor
        if version < floor or version > until or until > self._version:
            return None
        rows = log[version - floor:until - floor]
        # A reset between reading the log and its floor shows as a short
        # slice: each add up to ``until`` logged exactly one row.
        return tuple(rows) if len(rows) == until - version else None

    def tagged_rows(self, pattern: Pattern) -> "Tuple[int | None, Tuple[Row, ...]]":
        """``(version, rows)``: :meth:`matching` copied *exactly* at
        ``version``, even while another thread appends.

        A row appended after the version was read and copied anyway is in
        the log by then (:meth:`add` logs before it inserts), so it is
        taken out again.  The version is ``None`` when a removal or
        ``clear`` raced the copy and no version describes the rows.
        """
        version = self._version
        rows = tuple(self.matching(pattern))
        log, floor = self._log, self._log_floor
        newer = log[version - floor:] if floor <= version else None
        if newer is None or len(newer) < self._version - version:
            return None, rows
        if newer:
            drop = set(newer)
            rows = tuple([row for row in rows if row not in drop])
        return version, rows

    def matching(self, pattern: Pattern) -> Collection[Row]:
        """Rows whose values equal ``pattern`` at every non-wildcard position.

        Raises :class:`ValueError` when the relation holds any row whose
        width differs from the pattern's — the relation is malformed with
        respect to the probing atom, and a scanning evaluator would have
        raised on that row.  This keeps error detection deterministic
        regardless of which index bucket a probe hits.
        """
        expected = len(pattern)
        widths = self._widths
        if widths and not (len(widths) == 1 and expected in widths):
            raise ValueError(
                f"holds rows of widths {sorted(widths)} but the probing atom "
                f"has arity {expected}"
            )
        positions = tuple(
            i for i, value in enumerate(pattern) if value is not WILDCARD
        )
        if not positions:
            return self._rows
        buckets = self._indexes.get(positions)
        if buckets is None:
            buckets = {}
            for row in self._rows:
                buckets.setdefault(_bucket_key(row, positions), []).append(row)
            self._indexes[positions] = buckets
        return buckets.get(tuple(pattern[p] for p in positions), ())

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __contains__(self, row: Row) -> bool:
        return row in self._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PredicateIndex({len(self._rows)} rows, {len(self._indexes)} indexes)"


def rows_matching(rows: Iterable[Row], pattern: Pattern) -> List[Row]:
    """The ``rows`` that agree with ``pattern`` at every non-wildcard position.

    Raises :class:`ValueError` on a row whose width differs from the
    pattern's, like :meth:`PredicateIndex.matching` (delta rows are
    filtered here, outside any index)."""
    width = len(pattern)
    bound = [(i, value) for i, value in enumerate(pattern) if value is not WILDCARD]
    matched: List[Row] = []
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"holds a row of width {len(row)} but the probing atom has "
                f"arity {width}"
            )
        if all(row[i] == value for i, value in bound):
            matched.append(row)
    return matched


def _bucket_key(row: Row, positions: Tuple[int, ...]) -> Tuple[object, ...]:
    """Values of ``row`` at ``positions``.

    Raises :class:`ValueError` when the row is narrower than a probed
    position — deterministic detection of malformed data, independent of
    which bucket a probe would have hit.  The evaluation engine translates
    this into its :class:`~repro.errors.EvaluationError` with the relation
    name attached.
    """
    if len(row) <= max(positions):
        raise ValueError(
            f"row {row!r} of width {len(row)} is too narrow for an index on "
            f"positions {positions}"
        )
    return tuple(row[p] for p in positions)


class IndexedFactSource(Protocol):
    """A fact source that can answer positional pattern probes.

    ``get_matching(predicate, pattern)`` returns the rows of ``predicate``
    agreeing with ``pattern`` at every non-:data:`WILDCARD` position.  It
    must return the same rows a scan-and-filter of ``get_tuples`` would.
    """

    def get_tuples(self, predicate: str) -> Iterable[Row]:  # pragma: no cover
        ...

    def get_matching(
        self, predicate: str, pattern: Pattern
    ) -> Iterable[Row]:  # pragma: no cover
        ...


class SnapshotIndexedSource:
    """Upgrade a plain ``get_tuples`` source to an indexed one.

    Relations are snapshotted (and indexed) lazily, one
    :class:`PredicateIndex` per predicate, the first time they are touched.
    The snapshot is taken once per adapter, so an adapter must not outlive
    mutations of the underlying source — the evaluation entry points create
    one adapter per evaluation call.
    """

    __slots__ = ("_source", "_cache")

    def __init__(self, source: object):
        self._source = source
        self._cache: Dict[str, PredicateIndex] = {}

    def _index(self, predicate: str) -> PredicateIndex:
        index = self._cache.get(predicate)
        if index is None:
            index = PredicateIndex(self._source.get_tuples(predicate))  # type: ignore[attr-defined]
            self._cache[predicate] = index
        return index

    def get_tuples(self, predicate: str) -> Iterable[Row]:
        return self._index(predicate).rows()

    def get_matching(self, predicate: str, pattern: Pattern) -> Iterable[Row]:
        return self._index(predicate).matching(pattern)


def ensure_indexed(source: object) -> IndexedFactSource:
    """Return ``source`` if it already answers pattern probes, else wrap it."""
    if hasattr(source, "get_matching"):
        return source  # type: ignore[return-value]
    return SnapshotIndexedSource(source)
