"""The ``ColumnTable`` join and distinct kernels, over key columns drawn to
hit every branch of their encoding.

Key columns come from four domains: dense ints (coded as ``value - low``),
sparse ints whose span is at least 2**40 times the rows (ranked by
``np.unique``), negative values and the int64 extremes, and floats with
``-0.0`` / ``0.0`` and integers past 2**53.  Keys have one or two columns;
sides may be empty or repeat one row throughout.

* ``natural_join`` under both build sides, ``distinct`` and
  ``union_distinct`` equal the row algebra (``tests.oracles.Table``); the
  join's shared code space stays within ``_DENSE_SPAN`` codes a row.
* ``join_indices`` returns the same index pairs, in the same order, as the
  sort-merge kernel (stable argsort + two ``searchsorted`` passes) copied
  below, and ``distinct`` the same rows in the same order as the
  ``np.unique(return_index=True)`` kernel copied below: every fragment
  table stays row-for-row what it was.
* With NumPy absent (or patched out) the list path equals ``Table``.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.database import columnar
from repro.database.columnar import ColumnTable, join_indices, union_all, union_distinct
from tests.oracles import Table

np = columnar.np
needs_numpy = pytest.mark.skipif(np is None, reason="NumPy not installed")

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

MAX_ROWS = 12
#: Distinct sparse values lie this far apart: 2**40 times both sides' rows.
SPARSE_STEP = 2 ** 40 * 2 * MAX_ROWS
INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1

DOMAINS = {
    "dense": st.integers(-3, 8),
    "sparse": st.integers(-3, 3).map(lambda k: k * SPARSE_STEP),
    "extreme": st.sampled_from(
        [INT64_MIN, INT64_MIN + 1, -7, -1, 0, 1, INT64_MAX - 1, INT64_MAX]
    ),
    "float": st.sampled_from(
        [-0.0, 0.0, 1.5, -2.25, 2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 60), 1e300]
    ),
}


@st.composite
def sides(draw, count):
    """``(key names, [rows of each side])``: ``count`` sides sharing one to
    two key columns (one domain per column) and a small payload column."""
    domains = draw(st.lists(st.sampled_from(sorted(DOMAINS)), min_size=1, max_size=2))
    row = st.tuples(*(DOMAINS[d] for d in domains), st.integers(0, 3))
    tables = []
    for _ in range(count):
        rows = draw(st.lists(row, max_size=MAX_ROWS))
        if draw(st.booleans()):
            rows = rows[:1] * len(rows)  # every row the same
        tables.append(rows)
    return tuple(f"k{i}" for i in range(len(domains))), tables


def repr_rows(table):
    """Rows with their values' reprs, so ``-0.0`` and ``0.0`` differ."""
    return [tuple(map(repr, row)) for row in table.iter_rows()]


# ---------------------------------------------------------------------------
# Reference: the sort-merge join and the np.unique distinct these kernels
# replaced, copied unchanged.
# ---------------------------------------------------------------------------

_CODE_LIMIT = 2 ** 62


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


def reference_join_indices(left_cols, right_cols, left_len, right_len, build_right):
    """The numeric branch of the sort-merge ``join_indices``."""
    if left_len == 0 or right_len == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    lkey, rkey = _combined_codes(left_cols, right_cols, left_len)
    if build_right:
        return _sorted_probe(rkey, lkey)
    probe_idx, build_idx = _sorted_probe(lkey, rkey)
    return build_idx, probe_idx


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


def reference_distinct(table):
    """The numeric branch of the ``np.unique(return_index=True)`` distinct."""
    if len(table) <= 1:
        return table
    _, first = np.unique(_self_codes(table.data), return_index=True)
    if len(first) == len(table):
        return table
    return table.take(first)


# ---------------------------------------------------------------------------
# NumPy kernels
# ---------------------------------------------------------------------------

@needs_numpy
class TestJoinKernel:
    @given(inputs=sides(2), build_right=st.booleans())
    @settings(max_examples=300, **COMMON)
    def test_natural_join_equals_table(self, inputs, build_right):
        keys, (left_rows, right_rows) = inputs
        left = ColumnTable.from_rows(keys + ("a",), left_rows)
        right = ColumnTable.from_rows(keys + ("b",), right_rows)
        expected = Table(left.columns, left_rows).natural_join(
            Table(right.columns, right_rows))
        got = left.natural_join(right, build_right=build_right)
        assert got.columns == expected.columns
        assert set(got.iter_rows()) == set(expected.rows)

    @given(inputs=sides(2), build_right=st.booleans())
    @settings(max_examples=300, **COMMON)
    def test_join_indices_equal_sort_merge(self, inputs, build_right):
        keys, (left_rows, right_rows) = inputs
        left = ColumnTable.from_rows(keys + ("a",), left_rows)
        right = ColumnTable.from_rows(keys + ("b",), right_rows)
        left_cols = [left.column(k) for k in keys]
        right_cols = [right.column(k) for k in keys]
        got = join_indices(left_cols, right_cols, len(left), len(right), build_right)
        want = reference_join_indices(
            left_cols, right_cols, len(left), len(right), build_right)
        for got_idx, want_idx in zip(got, want):
            assert np.asarray(got_idx).tolist() == want_idx.tolist()

    @given(inputs=sides(2))
    @settings(max_examples=200, **COMMON)
    def test_shared_code_space_stays_dense(self, inputs):
        keys, (left_rows, right_rows) = inputs
        assume(left_rows and right_rows)
        left = ColumnTable.from_rows(keys + ("a",), left_rows)
        right = ColumnTable.from_rows(keys + ("b",), right_rows)
        codes, card = columnar._shared_codes(
            [left.column(k) for k in keys], [right.column(k) for k in keys])
        assert len(codes) == len(left) + len(right)
        assert 0 < card <= columnar._DENSE_SPAN * len(codes)
        assert 0 <= codes.min() and codes.max() < card


@needs_numpy
class TestDistinctKernel:
    @given(inputs=sides(1))
    @settings(max_examples=300, **COMMON)
    def test_distinct_equals_table_and_unique_first_occurrence(self, inputs):
        keys, (rows,) = inputs
        table = ColumnTable.from_rows(keys + ("a",), rows)
        got = table.distinct()
        assert set(got.iter_rows()) == set(Table(table.columns, rows).rows)
        assert repr_rows(got) == repr_rows(reference_distinct(table))
        key_only = table.project(keys)
        assert repr_rows(key_only.distinct()) == repr_rows(reference_distinct(key_only))

    @given(inputs=sides(2))
    @settings(max_examples=200, **COMMON)
    def test_union_distinct_equals_table(self, inputs):
        keys, (first_rows, second_rows) = inputs
        columns = keys + ("a",)
        first = ColumnTable.from_rows(columns, first_rows)
        second = ColumnTable.from_rows(columns, second_rows)
        got = union_distinct([first, second])
        expected = Table(columns, first_rows).union(Table(columns, second_rows))
        assert set(got.iter_rows()) == set(expected.rows)
        merged = union_all([first, second])
        if all(isinstance(col, np.ndarray) for col in merged.data):
            assert repr_rows(got) == repr_rows(reference_distinct(merged))


# ---------------------------------------------------------------------------
# The list path (NumPy absent)
# ---------------------------------------------------------------------------

class TestListPath:
    @given(inputs=sides(2), build_right=st.booleans())
    @settings(max_examples=150, **COMMON)
    def test_list_kernels_equal_table(self, inputs, build_right):
        keys, (left_rows, right_rows) = inputs
        left_columns, right_columns = keys + ("a",), keys + ("b",)
        left_table = Table(left_columns, left_rows)
        right_table = Table(right_columns, right_rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columnar, "np", None)
            left = ColumnTable.from_rows(left_columns, left_rows)
            right = ColumnTable.from_rows(right_columns, right_rows)
            assert all(isinstance(col, list) for col in left.data + right.data)
            joined = left.natural_join(right, build_right=build_right)
            expected = left_table.natural_join(right_table)
            assert joined.columns == expected.columns
            assert set(joined.iter_rows()) == set(expected.rows)
            assert set(left.distinct().iter_rows()) == set(left_table.rows)
            assert len(left.distinct()) == len(left_table)
            union = union_distinct([left, ColumnTable.from_rows(left_columns, right_rows)])
            assert set(union.iter_rows()) == set(
                left_table.union(Table(left_columns, right_rows)).rows)
            assert len(union) == len(set(union.iter_rows()))
