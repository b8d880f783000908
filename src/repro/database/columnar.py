"""Columnar batch execution: tables as tuples of columns, batch kernels.

A row algebra processes one Python tuple at a time over ``frozenset``
rows — clean, but every operator pays per-row interpreter overhead.  This
module is the batch-at-a-time representation every plan fragment is
evaluated in (a row algebra is the kernels' reference in the tests,
``tests/oracles/algebra.py``):

* a :class:`ColumnTable` stores a relation as one container per column —
  a NumPy ``int64``/``float64`` array when dtype sniffing proves the
  column safely numeric, a plain Python list otherwise (and always, when
  NumPy is not installed);
* batch kernels — run-index/hash equi-join, fused selection, zero-copy
  project/rename, column-wise distinct, n-way union — operate on whole
  columns; on the NumPy path the heavy loops run in C;
* rows are transposed only at the boundaries (scans in, answer sets
  out).  A stored relation is transposed once per data version, where
  it is stored (:func:`scan_block`), and a fragment pipeline stays
  columnar from there up; an answer kept from an earlier root table is
  updated by only the rows the two tables differ in
  (:func:`row_difference`).

Dtype sniffing is deliberately conservative so columnar results are
*value-identical* to the row algebra under Python equality semantics:

* ``int``/``bool`` columns within ``int64`` range → ``int64`` (Python's
  ``True == 1`` already collapses them inside row sets);
* pure ``float`` columns without NaNs → ``float64``;
* anything else — mixed numeric kinds, big integers, strings, ``None``,
  NaN — stays a Python list and flows through the pure-Python kernel
  fallback, which mirrors dict/set semantics exactly.

Cross-kind comparisons (an ``int64`` column against a ``float`` constant,
say) fall back element-wise through
:func:`repro.datalog.atoms.compare_values` rather than risking NumPy's
int→float casting, which disagrees with Python's exact mixed-type
equality beyond 2**53.

See ``docs/columnar.md`` for the representation notes and the full
kernel/fallback matrix.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datalog.atoms import compare_values
from ..errors import EvaluationError

try:  # NumPy is optional: every kernel has a pure-Python fallback.
    import numpy as np  # type: ignore
except Exception:  # pragma: no cover - exercised via monkeypatched import
    np = None  # type: ignore

Row = Tuple[object, ...]

#: True when the NumPy fast path is available in this process.
HAVE_NUMPY = np is not None

#: Code-combination guard: pairwise key-code products stay below this, so
#: combined join codes never overflow int64.
_CODE_LIMIT = 2 ** 62

#: Join codes stay dense: an integer key whose span is at most this many
#: times both sides' rows codes itself as ``value - low``, and a combined
#: code space larger than that is re-ranked.  The run index is a
#: bincount + cumsum over the span, which at four codes a row still costs
#: less than the ``np.unique`` sort it saves.
_DENSE_SPAN = 4

#: Largest integer magnitude that float64 represents exactly; NumPy
#: comparisons that would cast ints past this fall back to Python.
_EXACT_FLOAT_INT = 2 ** 53


def _is_array(col: object) -> bool:
    return np is not None and isinstance(col, np.ndarray)


def _pylist(col) -> list:
    """The column as a plain Python list (NumPy scalars → Python values)."""
    return col.tolist() if _is_array(col) else col


def _sniff_column(values: list):
    """Choose a column container: ``int64``/``float64`` array or list."""
    if np is None or not values:
        return values
    kinds = set(map(type, values))
    if kinds <= {int, bool} and kinds != {bool}:
        # All-bool columns stay Python lists so True renders as True after
        # a round trip (int64 storage would hand back 1 — equal under set
        # semantics, but golden output renders values).
        if -(2 ** 63) <= min(values) and max(values) < 2 ** 63:
            return np.fromiter(values, dtype=np.int64, count=len(values))
        return values
    if kinds == {float}:
        array = np.fromiter(values, dtype=np.float64, count=len(values))
        # NaN breaks Python's identity-based set membership semantics;
        # keep such columns on the object path.
        if not np.isnan(array).any():
            return array
    return values


def _take(col, indices):
    """Gather ``col`` at ``indices`` (array or list of int)."""
    if _is_array(col):
        return col[indices] if _is_array(indices) else col[np.asarray(indices, dtype=np.intp)] if indices else col[:0]
    if _is_array(indices):
        indices = indices.tolist()
    return [col[i] for i in indices]


def _apply_mask(col, mask):
    if _is_array(col):
        if _is_array(mask):
            return col[mask]
        return col[np.fromiter(mask, dtype=bool, count=len(mask))]
    if _is_array(mask):
        mask = mask.tolist()
    return list(compress(col, mask))


def _mask_and(first, second):
    if first is None:
        return second
    if _is_array(first) and _is_array(second):
        return first & second
    return [a and b for a, b in zip(_pylist(first), _pylist(second))]


def _mask_count(mask) -> int:
    return int(mask.sum()) if _is_array(mask) else sum(1 for m in mask if m)


class ColumnTable:
    """An immutable relation stored column-wise (bag semantics internally).

    ``columns`` names the columns; each entry of the parallel ``data``
    tuple holds that column's values — a NumPy array or a Python list
    (see :func:`_sniff_column`).  Operators share column objects freely
    (project/rename are zero-copy), so instances must be treated as
    immutable.

    Rows are *not* implicitly deduplicated the way a ``frozenset`` of rows
    is; kernels that can introduce duplicates (projection to fewer
    columns, union) call :meth:`distinct` explicitly.
    """

    __slots__ = ("columns", "data", "_length")

    def __init__(self, columns: Sequence[str], data: Sequence[object], length: int):
        self.columns: Tuple[str, ...] = tuple(columns)
        self.data: Tuple[object, ...] = tuple(data)
        self._length = length

    # -- construction / conversion ----------------------------------------

    @classmethod
    def from_rows(
        cls, columns: Sequence[str], rows: Iterable[Row]
    ) -> "ColumnTable":
        """Transpose rows into sniffed columns (the scan boundary)."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        width = len(columns)
        if not rows:
            return cls(columns, tuple([] for _ in range(width)), 0)
        transposed = list(zip(*rows)) if width else []
        return cls(
            columns,
            tuple(_sniff_column(list(col)) for col in transposed),
            len(rows),
        )

    def iter_rows(self) -> Iterator[Row]:
        """Iterate rows as Python tuples (duplicates included)."""
        if not self.columns:
            return iter([()] * self._length)
        return zip(*(_pylist(col) for col in self.data))

    def __len__(self) -> int:
        return self._length

    def column(self, name: str):
        """The storage of one column; raises on unknown names."""
        try:
            return self.data[self.columns.index(name)]
        except ValueError:
            raise EvaluationError(f"unknown column {name!r}") from None

    def estimated_bytes(self) -> int:
        """O(1)-ish footprint estimate (what the fragment cache charges)."""
        total = 128
        for col in self.data:
            if _is_array(col):
                total += int(col.nbytes) + 112
            else:
                total += 56 + 16 * len(col)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = "".join(
            "n" if _is_array(col) else "o" for col in self.data
        )
        return f"ColumnTable({self._length}x{len(self.columns)} [{kinds}])"

    # -- zero-copy structural operators ------------------------------------

    def project_positions(
        self, positions: Sequence[int], names: Sequence[str]
    ) -> "ColumnTable":
        """Project to ``positions``, renamed to ``names`` — zero-copy."""
        return ColumnTable(
            names, tuple(self.data[p] for p in positions), self._length
        )

    def project(self, names: Sequence[str]) -> "ColumnTable":
        """Project (and reorder) to existing column ``names`` — zero-copy."""
        indices = []
        for name in names:
            try:
                indices.append(self.columns.index(name))
            except ValueError:
                raise EvaluationError(f"unknown column {name!r}") from None
        return self.project_positions(indices, tuple(names))

    def rename(self, mapping: Mapping[str, str]) -> "ColumnTable":
        """Rename columns — zero-copy."""
        return ColumnTable(
            tuple(mapping.get(c, c) for c in self.columns),
            self.data,
            self._length,
        )

    # -- filtering kernels --------------------------------------------------

    def take(self, indices) -> "ColumnTable":
        """Gather rows at ``indices``."""
        length = len(indices)
        return ColumnTable(
            self.columns,
            tuple(_take(col, indices) for col in self.data),
            length,
        )

    def select_mask(self, mask) -> "ColumnTable":
        """Keep rows where ``mask`` is true (bool array or list)."""
        return ColumnTable(
            self.columns,
            tuple(_apply_mask(col, mask) for col in self.data),
            _mask_count(mask),
        )

    def fused_filter_mask(
        self,
        const_filters: Sequence[Tuple[int, object]] = (),
        equal_pairs: Sequence[Tuple[int, int]] = (),
    ):
        """One combined mask for position=const and position=position filters.

        Returns ``None`` when there is nothing to filter (keep everything).
        """
        mask = None
        for position, value in const_filters:
            mask = _mask_and(mask, _eq_const_mask(self.data[position], value, self._length))
        for first, second in equal_pairs:
            mask = _mask_and(
                mask, _eq_cols_mask(self.data[first], self.data[second], self._length)
            )
        return mask

    def fused_select(
        self,
        const_filters: Sequence[Tuple[int, object]] = (),
        equal_pairs: Sequence[Tuple[int, int]] = (),
    ) -> "ColumnTable":
        """Apply constant and column-equality filters in one pass."""
        mask = self.fused_filter_mask(const_filters, equal_pairs)
        return self if mask is None else self.select_mask(mask)

    # -- dedup --------------------------------------------------------------

    def distinct(self) -> "ColumnTable":
        """Duplicate elimination via column-wise hashing/encoding."""
        if self._length <= 1:
            return self
        if not self.columns:
            return ColumnTable(self.columns, self.data, 1)
        if np is not None and all(_is_array(col) for col in self.data):
            # No run index here, so any int span up to 2**31 codes itself.
            codes, _ = _codes(self.data, 2 ** 31)
            # One unstable sort; each run of equal codes keeps its smallest
            # row index, i.e. its first occurrence, in code order.
            order = np.argsort(codes)
            ordered = codes[order]
            heads = np.empty(self._length, dtype=bool)
            heads[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
            starts = np.flatnonzero(heads)
            if len(starts) == self._length:
                return self
            return self.take(np.minimum.reduceat(order, starts))
        seen: Set[Row] = set()
        keep: List[bool] = []
        for row in zip(*(col if isinstance(col, list) else _pylist(col) for col in self.data)):
            if row in seen:
                keep.append(False)
            else:
                seen.add(row)
                keep.append(True)
        if all(keep):
            return self
        return self.select_mask(keep)

    # -- join ---------------------------------------------------------------

    def natural_join(
        self, other: "ColumnTable", build_right: Optional[bool] = None
    ) -> "ColumnTable":
        """Natural join on all shared column names.

        Output columns are the shared ones, then left-only, then
        right-only.  ``build_right`` forces the build (sorted/hashed)
        side; by default the smaller input builds — a caller holding
        cardinality estimates can override from its cost model.
        """
        shared = [c for c in self.columns if c in other.columns]
        left_only = [c for c in self.columns if c not in shared]
        right_only = [c for c in other.columns if c not in shared]
        if not shared:
            return self._cross(other)
        left_idx, right_idx = join_indices(
            [self.column(c) for c in shared],
            [other.column(c) for c in shared],
            len(self),
            len(other),
            build_right=build_right,
        )
        length = len(left_idx)
        out_cols: List[object] = []
        for name in shared + left_only:
            out_cols.append(_take(self.column(name), left_idx))
        for name in right_only:
            out_cols.append(_take(other.column(name), right_idx))
        return ColumnTable(shared + left_only + right_only, out_cols, length)

    def _cross(self, other: "ColumnTable") -> "ColumnTable":
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise EvaluationError(
                f"cross product requires disjoint columns; shared: {overlap}"
            )
        nl, nr = len(self), len(other)
        if np is not None:
            left_idx = np.repeat(np.arange(nl, dtype=np.intp), nr)
            right_idx = np.tile(np.arange(nr, dtype=np.intp), nl)
        else:
            left_idx = [i for i in range(nl) for _ in range(nr)]
            right_idx = [j for _ in range(nl) for j in range(nr)]
        return ColumnTable(
            self.columns + other.columns,
            tuple(_take(col, left_idx) for col in self.data)
            + tuple(_take(col, right_idx) for col in other.data),
            nl * nr,
        )


# ---------------------------------------------------------------------------
# Join kernel
# ---------------------------------------------------------------------------

def join_indices(
    left_cols: Sequence[object],
    right_cols: Sequence[object],
    left_len: int,
    right_len: int,
    build_right: Optional[bool] = None,
):
    """Matching row-index pairs of an equi-join on parallel key columns.

    Returns ``(left_indices, right_indices)`` — equal-length index
    sequences such that row ``left_indices[i]`` joins row
    ``right_indices[i]``.  When every key column pair is numeric arrays of
    the same kind, both sides are encoded into one dense code space and
    each probe row reads its match run from a run index over the build
    side; otherwise a dict-based hash join with Python equality semantics.
    """
    if left_len == 0 or right_len == 0:
        empty = np.empty(0, dtype=np.intp) if np is not None else []
        return empty, empty
    numeric = np is not None and all(
        _is_array(l) and _is_array(r) and l.dtype.kind == r.dtype.kind
        for l, r in zip(left_cols, right_cols)
    )
    if build_right is None:
        build_right = right_len <= left_len
    if numeric:
        key, card = _shared_codes(left_cols, right_cols)
        lkey, rkey = key[:left_len], key[left_len:]
        if build_right:
            probe_idx, build_idx = _run_probe(rkey, lkey, card)
            return probe_idx, build_idx
        probe_idx, build_idx = _run_probe(lkey, rkey, card)
        return build_idx, probe_idx
    return _dict_join(left_cols, right_cols, left_len, right_len, build_right)


def _shared_codes(left_cols, right_cols):
    """Codes of both sides' keys (left rows first) in one dense space.

    Returns ``(codes, card)`` with ``card`` at most ``_DENSE_SPAN`` times
    the rows of both sides, so a run index over it stays small.
    """
    both = [np.concatenate([lcol, rcol]) for lcol, rcol in zip(left_cols, right_cols)]
    span = _DENSE_SPAN * len(both[0])
    key, card = _codes(both, span)
    if card > span:
        uniq, key = np.unique(key, return_inverse=True)
        card = len(uniq)
    return key, card


def row_difference(
    old: ColumnTable, new: ColumnTable
) -> Optional[Tuple[ColumnTable, ColumnTable]]:
    """``(removed, added)``: the rows of ``old`` that ``new`` lacks and the
    rows of ``new`` that ``old`` lacks — an anti-join in each direction.

    Both tables' concatenated columns are coded into one lossless int64
    key per row (:func:`_codes`, which ranks only columns too wide to code
    by offset).  The keys, tagged with their side in the low bit, are
    sorted together and deduplicated: a key that then has no neighbour
    with the same key is on one side only, and only its rows are kept.

    ``None`` when the pair has no exact NumPy encoding, and the caller
    compares rows instead: no columns, different widths, a list column, or
    two columns of differing dtypes (concatenating ``int64`` with
    ``float64`` would compare big integers through float).
    """
    if (
        np is None
        or not new.columns
        or len(old.columns) != len(new.columns)
        or not all(
            _is_array(o) and _is_array(n) and o.dtype == n.dtype
            for o, n in zip(old.data, new.data)
        )
    ):
        return None
    if not len(old) or not len(new):
        return old, new
    both = [np.concatenate(pair) for pair in zip(old.data, new.data)]
    # As in distinct: an int span up to 2**31 codes itself, a wider column
    # is ranked, so no column's codes outgrow what the combination re-ranks.
    key, _ = _codes(both, 2 ** 31)  # below 2**62, so 2 * key + 1 fits
    old_key, new_key = key[: len(old)], key[len(old):]
    tagged = np.sort(np.concatenate([old_key * 2, new_key * 2 + 1]))
    tagged = tagged[np.concatenate(([True], tagged[1:] != tagged[:-1]))]
    shared = (tagged[1:] >> 1) == (tagged[:-1] >> 1)
    alone = np.ones(len(tagged), dtype=bool)
    alone[1:] &= ~shared
    alone[:-1] &= ~shared
    lone = tagged[alone]
    gone, came = lone[(lone & 1) == 0] >> 1, lone[(lone & 1) == 1] >> 1
    return old.select_mask(_among(old_key, gone)), new.select_mask(_among(new_key, came))


def rows_absent(table: ColumnTable, other: ColumnTable) -> ColumnTable:
    """The rows of ``table`` that ``other`` lacks, in ``table``'s order —
    an anti-join on every column (what a union's delta keeps).

    On exact NumPy encodings (:func:`row_difference`'s condition) both
    tables' columns are coded into one key space and ``table``'s keys
    probed against ``other``'s; otherwise membership is tested against a
    set of ``other``'s rows, Python equality throughout.
    """
    if not len(table) or not len(other):
        return table
    if not table.columns:
        return table.take([])
    if np is not None and all(
        _is_array(mine) and _is_array(theirs) and mine.dtype == theirs.dtype
        for mine, theirs in zip(table.data, other.data)
    ):
        both = [np.concatenate(pair) for pair in zip(table.data, other.data)]
        key, _ = _codes(both, 2 ** 31)
        mine, theirs = key[: len(table)], key[len(table):]
        # Probe ``other``'s keys into ``table``'s sorted ones: O(n log d)
        # for the usual small ``table``, no hashing of the large side.
        sorted_mine = np.sort(mine)
        found = np.searchsorted(sorted_mine, theirs)
        hit = sorted_mine[np.minimum(found, len(mine) - 1)] == theirs
        return table.select_mask(~_among(mine, np.sort(theirs[hit])))
    present = set(other.iter_rows())
    return table.select_mask([row not in present for row in table.iter_rows()])


def _among(keys, sorted_keys):
    """Mask of the ``keys`` found in the sorted array ``sorted_keys``."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    found = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(found, len(sorted_keys) - 1)] == keys


def _run_probe(build, probe, card):
    """Run-index core: returns (probe_indices, build_indices).

    The build side is stably sorted once; ``bincount``/``cumsum`` over the
    ``card`` codes give every code's run (start, length) in that order, so
    each probe row reads its matches by lookup and they come out in
    build-row order, as a sort-merge would emit them.
    """
    order = np.argsort(build, kind="stable")
    counts = np.bincount(build, minlength=card)
    lengths = counts[probe]
    run_ends = np.cumsum(counts)[probe]
    pair_ends = np.cumsum(lengths)
    probe_idx = np.repeat(np.arange(len(probe), dtype=np.intp), lengths)
    # Output pair k of probe row i reads sorted position
    # k + run_ends[i] - pair_ends[i]: its run, walked from the start.
    shift = np.repeat(run_ends - pair_ends, lengths)
    build_idx = order[shift + np.arange(len(probe_idx))]
    return probe_idx, build_idx


def _dict_join(left_cols, right_cols, left_len, right_len, build_right):
    """Hash join with Python equality (the mixed-dtype / no-NumPy path)."""
    left_lists = [_pylist(col) for col in left_cols]
    right_lists = [_pylist(col) for col in right_cols]

    def keys_of(lists, length):
        if len(lists) == 1:
            return lists[0]
        return list(zip(*lists)) if lists else [()] * length

    left_keys = keys_of(left_lists, left_len)
    right_keys = keys_of(right_lists, right_len)
    if build_right:
        build_keys, probe_keys = right_keys, left_keys
    else:
        build_keys, probe_keys = left_keys, right_keys
    buckets: Dict[object, List[int]] = {}
    for index, key in enumerate(build_keys):
        buckets.setdefault(key, []).append(index)
    probe_idx: List[int] = []
    build_idx: List[int] = []
    for index, key in enumerate(probe_keys):
        for match in buckets.get(key, ()):
            probe_idx.append(index)
            build_idx.append(match)
    if build_right:
        return probe_idx, build_idx
    return build_idx, probe_idx


# ---------------------------------------------------------------------------
# Key codes (join and distinct)
# ---------------------------------------------------------------------------

def _codes(cols, span):
    """Combine non-empty numeric columns into one order-preserving code.

    Returns ``(codes, card)``: equal rows get equal codes, all within
    ``range(card)``.  An integer column whose values span at most ``span``
    codes itself as ``value - low`` (no sort); any other is ranked by
    ``np.unique``.
    """
    key = None
    card_bound = 1
    for col in cols:
        ranged = col.dtype.kind == "i"
        low = int(col.min()) if ranged else 0
        card = int(col.max()) - low + 1 if ranged else 0
        if 0 < card <= span:
            code = col - low
        else:
            uniq, code = np.unique(col, return_inverse=True)
            card = len(uniq)
        if key is None:
            key, card_bound = code, card
            continue
        if card_bound > _CODE_LIMIT // card:
            # Re-densify before multiplying so codes stay within int64.
            uniq, key = np.unique(key, return_inverse=True)
            card_bound = len(uniq)
        key = key * card + code
        card_bound *= card
    return key, card_bound


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------

def union_all(
    tables: Sequence[ColumnTable], columns: Optional[Sequence[str]] = None
) -> ColumnTable:
    """Bag concatenation of column-compatible tables (no dedup).

    Inputs must share the first table's column list; ``columns`` names
    the output of an empty union.
    """
    tables = [t for t in tables if t is not None]
    if not tables:
        if columns is None:
            raise EvaluationError("union of zero tables needs explicit columns")
        return ColumnTable(columns, tuple([] for _ in columns), 0)
    first = tables[0]
    for table in tables[1:]:
        if table.columns != first.columns:
            raise EvaluationError(
                f"union requires identical columns: {first.columns} vs "
                f"{table.columns}"
            )
    if len(tables) == 1:
        return first
    length = sum(len(t) for t in tables)
    out_cols = []
    for position in range(len(first.columns)):
        parts = [t.data[position] for t in tables]
        if np is not None and all(_is_array(p) for p in parts) and len(
            {p.dtype for p in parts}
        ) == 1:
            out_cols.append(np.concatenate(parts))
        else:
            merged: List[object] = []
            for part in parts:
                merged.extend(_pylist(part))
            out_cols.append(merged)
    return ColumnTable(first.columns, out_cols, length)


@lru_cache(maxsize=64)
def scan_columns(width: int) -> Tuple[str, ...]:
    """The columns of a scan block over ``width`` positions: ``__p0, …``."""
    return tuple(f"__p{i}" for i in range(width))


def scan_block(source, relation: str, pattern: Sequence[object]) -> ColumnTable:
    """The distinct rows of ``relation`` matching ``pattern``, column-wise.

    The one scan boundary of the plan engine.  A source with its own
    ``scan_block`` (an :class:`~repro.database.instance.Instance`, the
    federated and the remote peer sources) answers directly, from blocks
    transposed once per data version where the relation is stored.  Any
    other indexed fact source is deduplicated and transposed here, on
    every call.  A relation whose rows clash in width with ``pattern``
    raises :class:`~repro.errors.EvaluationError`.
    """
    native = getattr(source, "scan_block", None)
    try:
        if native is not None:
            return native(relation, pattern)
        # A plain source may serve the same fact twice; drop the repeats.
        rows = list(dict.fromkeys(source.get_matching(relation, pattern)))
    except ValueError as exc:
        raise EvaluationError(f"relation {relation!r}: {exc}") from exc
    return ColumnTable.from_rows(scan_columns(len(pattern)), rows)


def union_blocks(blocks: Sequence[ColumnTable], width: int) -> ColumnTable:
    """The distinct union of scan blocks over ``width`` positions.

    Empty blocks drop out first, so an owner or a delta without rows
    never turns a NumPy column of the others into a list.
    """
    blocks = [block for block in blocks if len(block)]
    if len(blocks) == 1:
        return blocks[0]
    return union_distinct(blocks, scan_columns(width))


def union_distinct(
    tables: Sequence[ColumnTable], columns: Optional[Sequence[str]] = None
) -> ColumnTable:
    """Set union of many column-compatible tables."""
    return union_all(tables, columns).distinct()


def distinct_count(col) -> int:
    """How many distinct values a column holds, under Python set
    semantics (``-0.0 == 0.0``; a NumPy column holds no NaN)."""
    if _is_array(col):
        return len(np.unique(col))
    return len(set(col))


def const_column(value, length: int):
    """A column holding ``value`` at every position (sniffed like data)."""
    if np is not None:
        vtype = type(value)
        # bool constants stay Python lists so True survives as True (an
        # int64 column would hand back 1 — same set semantics, but the
        # rendered value matters to golden output).
        if vtype is int and -(2 ** 63) <= value < 2 ** 63:
            return np.full(length, value, dtype=np.int64)
        if vtype is float and value == value:  # excludes NaN
            return np.full(length, value, dtype=np.float64)
    return [value] * length


# ---------------------------------------------------------------------------
# Comparison masks (the fused-select building block)
# ---------------------------------------------------------------------------

def _full_mask(value: bool, length: int):
    if np is not None:
        return np.full(length, value, dtype=bool)
    return [value] * length


def _loop_mask(left_values, op: str, right_values):
    return [
        compare_values(a, op, b) for a, b in zip(left_values, right_values)
    ]


def _numeric_const(col, value) -> bool:
    """Can ``col <op> value`` run in NumPy with exact Python semantics?"""
    kind = col.dtype.kind
    vtype = type(value)
    if kind == "i":
        return vtype in (int, bool) and -(2 ** 63) <= value < 2 ** 63
    if kind == "f":
        if vtype is float:
            return True
        return vtype in (int, bool) and abs(value) <= _EXACT_FLOAT_INT
    return False


_NUMPY_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _eq_const_mask(col, value, length: int):
    return compare_mask(col, "=", value, length)


def _eq_cols_mask(first, second, length: int):
    return compare_cols_mask(first, "=", second, length)


def compare_mask(col, op: str, value, length: int):
    """Element-wise ``col <op> value`` under Python comparison semantics."""
    if _is_array(col):
        if _numeric_const(col, value):
            return _NUMPY_OPS[op](col, value)
        if op in ("=", "!=") and type(value) not in (int, bool, float):
            # A non-numeric constant never equals a numeric cell.
            return _full_mask(op == "!=", length)
        values = col.tolist()
        if np is not None:
            return np.fromiter(
                (compare_values(v, op, value) for v in values),
                dtype=bool,
                count=length,
            )
        return [compare_values(v, op, value) for v in values]
    return [compare_values(v, op, value) for v in col]


def compare_cols_mask(first, op: str, second, length: int):
    """Element-wise ``first <op> second`` under Python semantics."""
    if _is_array(first) and _is_array(second) and first.dtype.kind == second.dtype.kind:
        return _NUMPY_OPS[op](first, second)
    mask = _loop_mask(_pylist(first), op, _pylist(second))
    if np is not None:
        return np.fromiter(mask, dtype=bool, count=length)
    return mask
