"""Columnar batch execution: tables as tuples of columns, batch kernels.

The row engine (:mod:`repro.database.algebra`) processes one Python tuple
at a time over ``frozenset`` rows — clean, but every operator pays per-row
interpreter overhead and the GIL serialises any thread-pooled execution of
it.  This module is the batch-at-a-time alternative:

* a :class:`ColumnTable` stores a relation as one container per column —
  a NumPy ``int64``/``float64`` array when dtype sniffing proves the
  column safely numeric, a plain Python list otherwise (and always, when
  NumPy is not installed);
* batch kernels — hash/merge equi-join, fused selection, zero-copy
  project/rename, column-wise distinct, n-way union — operate on whole
  columns; on the NumPy path the heavy loops run in C **with the GIL
  released**, which is what lets thread-pooled union-plan execution
  finally scale on multicore;
* conversion to and from :class:`~repro.database.algebra.Table` happens
  only at representation boundaries (scans in, answer sets out), so a
  fragment pipeline transposes each input once and stays columnar.

Dtype sniffing is deliberately conservative so columnar results are
*value-identical* to the row engine under Python equality semantics:

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
from .algebra import Row, Table

try:  # NumPy is optional: every kernel has a pure-Python fallback.
    import numpy as np  # type: ignore
except Exception:  # pragma: no cover - exercised via monkeypatched import
    np = None  # type: ignore

#: True when the NumPy fast path is available in this process.
HAVE_NUMPY = np is not None

#: Code-combination guard: pairwise key-code products stay below this, so
#: combined join codes never overflow int64.
_CODE_LIMIT = 2 ** 62

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
    immutable, exactly like :class:`~repro.database.algebra.Table`.

    Rows are *not* implicitly deduplicated the way ``Table``'s frozenset
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

    @classmethod
    def from_table(cls, table: Table) -> "ColumnTable":
        """Columnar view of a row table (rows are already distinct)."""
        return cls.from_rows(table.columns, list(table.rows))

    def to_table(self) -> Table:
        """Row-table conversion (dedups via the frozenset representation)."""
        return Table._trusted(self.columns, frozenset(self.row_set()))

    def row_set(self) -> Set[Row]:
        """The rows as a set of plain Python tuples."""
        if not self.columns:
            return {()} if self._length else set()
        return set(zip(*(_pylist(col) for col in self.data)))

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
        """O(1)-ish footprint estimate (mirrors ``estimate_result_bytes``)."""
        total = 128
        for col in self.data:
            if _is_array(col):
                total += int(col.nbytes) + 112
            else:
                total += 56 + 16 * len(col)
        return total

    def __reduce__(self):
        # Ships across process boundaries for the process-pool executor;
        # NumPy arrays pickle natively, lists trivially.
        return (ColumnTable, (self.columns, self.data, self._length))

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
            codes = _self_codes(self.data)
            _, first = np.unique(codes, return_index=True)
            if len(first) == self._length:
                return self
            return self.take(first)
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

        Column order matches :meth:`Table.natural_join`: shared, then
        left-only, then right-only.  ``build_right`` forces the build
        (sorted/hashed) side; by default the smaller input builds — a
        caller holding cardinality estimates (the vectorized planner) can
        override from its cost model.
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
    ``right_indices[i]``.  Uses the NumPy sort-merge kernel when every
    key column pair is numeric arrays of the same kind; otherwise a
    dict-based hash join with Python equality semantics.
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
        lkey, rkey = _combined_codes(left_cols, right_cols, left_len)
        if build_right:
            probe_idx, build_idx = _sorted_probe(rkey, lkey)
            return probe_idx, build_idx
        probe_idx, build_idx = _sorted_probe(lkey, rkey)
        return build_idx, probe_idx
    return _dict_join(left_cols, right_cols, left_len, right_len, build_right)


def _combined_codes(left_cols, right_cols, left_len):
    """Encode multi-column keys of both sides into one shared int64 space."""
    if len(left_cols) == 1 and left_cols[0].dtype == right_cols[0].dtype:
        return left_cols[0], right_cols[0]
    lkey = rkey = None
    card_bound = 1
    for lcol, rcol in zip(left_cols, right_cols):
        concat = np.concatenate([lcol, rcol])
        uniq, inverse = np.unique(concat, return_inverse=True)
        lcode, rcode = inverse[:left_len], inverse[left_len:]
        card = len(uniq)
        if lkey is None:
            lkey, rkey, card_bound = lcode, rcode, card
            continue
        if card_bound > _CODE_LIMIT // max(card, 1):
            # Re-densify before multiplying so codes stay within int64.
            both = np.concatenate([lkey, rkey])
            _, inverse2 = np.unique(both, return_inverse=True)
            lkey, rkey = inverse2[:left_len], inverse2[left_len:]
            card_bound = len(lkey) + len(rkey)
        lkey = lkey * card + lcode
        rkey = rkey * card + rcode
        card_bound *= card
    return lkey, rkey


def _sorted_probe(build, probe):
    """Sort-merge core: returns (probe_indices, build_indices)."""
    order = np.argsort(build, kind="stable")
    sorted_build = build[order]
    lo = np.searchsorted(sorted_build, probe, "left")
    hi = np.searchsorted(sorted_build, probe, "right")
    counts = hi - lo
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe), dtype=np.intp), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    build_idx = order[starts + offsets]
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
# Self-encoding (distinct) helper
# ---------------------------------------------------------------------------

def _self_codes(cols):
    """Combine one table's numeric columns into a single int64 code column."""
    key = None
    card_bound = 1
    for col in cols:
        ranged = col.dtype.kind == "i" and len(col)
        low = int(col.min()) if ranged else 0
        card = int(col.max()) - low + 1 if ranged else 0
        if 0 < card <= 2 ** 31:
            code = col - low  # integers in a narrow range code themselves, unsorted
        else:
            _, code = np.unique(col, return_inverse=True)
            card = int(code.max()) + 1 if len(code) else 1
        if key is None:
            key, card_bound = code, card
            continue
        if card_bound > _CODE_LIMIT // max(card, 1):
            _, key = np.unique(key, return_inverse=True)
            card_bound = len(key)
        key = key * card + code
        card_bound *= card
    if key is None:
        return np.zeros(0, dtype=np.int64)
    return key


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------

def union_all(
    tables: Sequence[ColumnTable], columns: Optional[Sequence[str]] = None
) -> ColumnTable:
    """Bag concatenation of column-compatible tables (no dedup).

    Inputs must share the first table's column list (like
    :func:`repro.database.algebra.union_many`); ``columns`` names the
    output of an empty union.
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


def union_distinct(
    tables: Sequence[ColumnTable], columns: Optional[Sequence[str]] = None
) -> ColumnTable:
    """Set union of many column-compatible tables."""
    return union_all(tables, columns).distinct()


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
