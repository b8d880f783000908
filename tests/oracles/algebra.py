"""The row algebra: the columnar kernels' reference.

Every plan fragment is evaluated on :class:`repro.database.ColumnTable`
batches.  This module keeps the plain one-tuple-at-a-time algebra over
:class:`Table` objects (an ordered list of column names plus a frozenset
of rows) so the tests can check each kernel against an independent
evaluation path, and so the columnar benchmark has a baseline to beat.

Provided operators: selection (by predicate or by column/constant and
column/column equality), projection, renaming, natural join, union,
difference, cross product and distinct (implicit — tables are sets);
:func:`from_table` / :func:`to_table` convert to and from the columnar
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.database.columnar import ColumnTable
from repro.errors import EvaluationError

Row = Tuple[object, ...]


@dataclass(frozen=True)
class Table:
    """An immutable relation: ordered columns plus a set of rows."""

    columns: Tuple[str, ...]
    rows: frozenset

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[object]] = ()):
        cols = tuple(columns)
        if len(set(cols)) != len(cols):
            raise EvaluationError(f"duplicate column names: {cols}")
        frozen = frozenset(tuple(row) for row in rows)
        for row in frozen:
            if len(row) != len(cols):
                raise EvaluationError(
                    f"row width {len(row)} does not match {len(cols)} columns"
                )
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rows", frozen)

    @classmethod
    def _trusted(cls, columns: Tuple[str, ...], rows: Iterable[Row]) -> "Table":
        """Fast-path constructor for algebra/planner internals.

        Skips the per-row width re-validation that ``__init__`` performs:
        operator outputs are built from rows of an already-validated table,
        so re-checking every intermediate result is O(n) wasted per
        operator.  Callers must pass a tuple of unique column names and
        rows that are width-matching tuples; validation stays at API
        boundaries (``__init__``).
        """
        table = object.__new__(cls)
        object.__setattr__(table, "columns", columns)
        object.__setattr__(
            table, "rows", rows if isinstance(rows, frozenset) else frozenset(rows)
        )
        return table

    # -- helpers -----------------------------------------------------------------

    def column_index(self, column: str) -> int:
        """Index of a column; raises :class:`EvaluationError` if unknown."""
        try:
            return self.columns.index(column)
        except ValueError as exc:
            raise EvaluationError(f"unknown column {column!r}") from exc

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_set(self) -> Set[Row]:
        """Return the rows as a plain set of tuples."""
        return set(self.rows)

    # -- operators ---------------------------------------------------------------

    def select(self, predicate: Callable[[Mapping[str, object]], bool]) -> "Table":
        """Keep rows for which ``predicate`` returns true.

        The predicate receives a dict mapping column names to values.
        """
        kept = [
            row
            for row in self.rows
            if predicate(dict(zip(self.columns, row)))
        ]
        return Table._trusted(self.columns, kept)

    def select_eq(self, column: str, value: object) -> "Table":
        """Keep rows whose ``column`` equals ``value``."""
        index = self.column_index(column)
        return Table._trusted(
            self.columns, [row for row in self.rows if row[index] == value]
        )

    def select_columns_equal(self, first: str, second: str) -> "Table":
        """Keep rows where two columns hold the same value."""
        i, j = self.column_index(first), self.column_index(second)
        return Table._trusted(
            self.columns, [row for row in self.rows if row[i] == row[j]]
        )

    def project(self, columns: Sequence[str]) -> "Table":
        """Project onto ``columns`` (duplicates in the argument are allowed
        and produce repeated output columns with suffixes)."""
        indices = [self.column_index(c) for c in columns]
        out_columns: List[str] = []
        seen: Dict[str, int] = {}
        for column in columns:
            count = seen.get(column, 0)
            out_columns.append(column if count == 0 else f"{column}#{count}")
            seen[column] = count + 1
        rows = [tuple(row[i] for i in indices) for row in self.rows]
        return Table._trusted(tuple(out_columns), rows)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns according to ``mapping`` (missing keys unchanged)."""
        new_columns = tuple(mapping.get(c, c) for c in self.columns)
        if len(set(new_columns)) != len(new_columns):
            raise EvaluationError(f"duplicate column names: {new_columns}")
        return Table._trusted(new_columns, self.rows)

    def natural_join(self, other: "Table") -> "Table":
        """Natural join on all shared column names (hash join)."""
        shared = [c for c in self.columns if c in other.columns]
        left_only = [c for c in self.columns if c not in shared]
        right_only = [c for c in other.columns if c not in shared]
        out_columns = shared + left_only + right_only

        left_shared_idx = [self.column_index(c) for c in shared]
        left_only_idx = [self.column_index(c) for c in left_only]
        right_shared_idx = [other.column_index(c) for c in shared]
        right_only_idx = [other.column_index(c) for c in right_only]

        index: Dict[Tuple[object, ...], List[Row]] = {}
        for row in other.rows:
            key = tuple(row[i] for i in right_shared_idx)
            index.setdefault(key, []).append(row)

        out_rows: List[Row] = []
        for row in self.rows:
            key = tuple(row[i] for i in left_shared_idx)
            for match in index.get(key, ()):
                out_rows.append(
                    key
                    + tuple(row[i] for i in left_only_idx)
                    + tuple(match[i] for i in right_only_idx)
                )
        return Table._trusted(tuple(out_columns), out_rows)

    def union(self, other: "Table") -> "Table":
        """Set union; requires identical column lists."""
        if self.columns != other.columns:
            raise EvaluationError(
                f"union requires identical columns: {self.columns} vs {other.columns}"
            )
        return Table._trusted(self.columns, self.rows | other.rows)

    def distinct(self) -> "Table":
        """Explicit duplicate elimination.

        Tables are set-semantics already, so this is the identity — but the
        operator exists so that plans (and any future bag-semantics table)
        can mark dedup points explicitly rather than relying on the
        representation.
        """
        return self

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Table":
        """An empty table with the given column list."""
        return cls(columns, [])

    def difference(self, other: "Table") -> "Table":
        """Set difference; requires identical column lists."""
        if self.columns != other.columns:
            raise EvaluationError(
                f"difference requires identical columns: {self.columns} vs {other.columns}"
            )
        return Table._trusted(self.columns, self.rows - other.rows)

    def cross(self, other: "Table") -> "Table":
        """Cartesian product; column names must be disjoint."""
        overlap = set(self.columns) & set(other.columns)
        if overlap:
            raise EvaluationError(f"cross product requires disjoint columns; shared: {overlap}")
        out_rows = [left + right for left in self.rows for right in other.rows]
        return Table._trusted(self.columns + other.columns, out_rows)

    def __str__(self) -> str:
        header = " | ".join(self.columns)
        lines = [header, "-" * len(header)]
        for row in sorted(self.rows, key=repr):
            lines.append(" | ".join(str(v) for v in row))
        return "\n".join(lines)


def union_many(tables: Sequence[Table], columns: Optional[Sequence[str]] = None) -> Table:
    """Set union of many compatible tables in one pass.

    ``columns`` names the output columns of the empty union; with one or
    more inputs every table must share the first table's column list.
    """
    if not tables:
        if columns is None:
            raise EvaluationError("union of zero tables needs explicit columns")
        return Table.empty(columns)
    first = tables[0].columns
    rows: Set[Row] = set()
    for table in tables:
        if table.columns != first:
            raise EvaluationError(
                f"union requires identical columns: {first} vs {table.columns}"
            )
        rows |= table.rows
    return Table._trusted(first, rows)


def table_from_instance(instance, relation: str, columns: Optional[Sequence[str]] = None) -> Table:
    """Build a :class:`Table` from one relation of an instance.

    ``columns`` defaults to the schema's attribute names when the instance
    has a schema, else to ``c0, c1, ...``.
    """
    rows = list(instance.get_tuples(relation))
    if columns is None:
        schema = getattr(instance, "schema", None)
        if schema is not None and relation in schema:
            columns = schema.relation(relation).attributes
        else:
            width = len(rows[0]) if rows else 0
            columns = [f"c{i}" for i in range(width)]
    return Table(columns, rows)


def from_table(table: Table) -> ColumnTable:
    """Columnar view of a row table (rows are already distinct)."""
    return ColumnTable.from_rows(table.columns, list(table.rows))


def to_table(table: ColumnTable) -> Table:
    """Row-table conversion (dedups via the frozenset representation)."""
    return Table._trusted(table.columns, frozenset(table.iter_rows()))
