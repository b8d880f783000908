"""A plan's kept whole answer, maintained by the row difference of two root
tables, always equals the new root table's rows.

Columns are drawn from domains that hit every branch of the difference
kernel (``columnar.row_difference``) and of its fallback: small and
negative ints (coded as ``value - low``), ints near ±2**62 (ranked by
``np.unique``), floats with ``-0.0`` / ``0.0`` and integers past 2**53,
and strings (a list column).  Tables have zero to three columns, may be
empty and may repeat rows; the new table's columns are drawn afresh a
quarter of the time, so an ``int64`` column can meet a ``float64`` one.

* ``_whole_answer`` over the old table, then the new one, returns
  ``frozenset(new.iter_rows())``, keeps it with the new table, and reuses
  it for that table object.
* ``row_difference`` declines exactly the pairs it documents (no NumPy,
  no columns, a width change, a list column, a dtype change); otherwise
  its two tables are the set differences in each direction.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.database import columnar
from repro.database.columnar import ColumnTable, row_difference, scan_columns
from repro.obs.metrics import MetricsRegistry
from repro.pdms.materialization import FragmentCache
from repro.pdms.evaluator import _whole_answer

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

DOMAINS = {
    "small": st.integers(-3, 5),
    "near62": st.sampled_from(
        [-(2 ** 62) - 1, -(2 ** 62), -(2 ** 62) + 1, 0, 2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1]
    ),
    "float": st.sampled_from([-0.0, 0.0, 1.5, -2.25, 2.0 ** 53, 2.0 ** 53 + 2]),
    "str": st.sampled_from(["a", "b", "c"]),
}


def _table(draw, domains):
    row = st.tuples(*(DOMAINS[d] for d in domains))
    rows = draw(st.lists(row, min_size=draw(st.sampled_from([0, 1, 1, 1])), max_size=10))
    if rows and draw(st.booleans()):
        rows = rows + rows[: draw(st.integers(1, len(rows)))]  # duplicates
    return ColumnTable.from_rows(scan_columns(len(domains)), rows)


#: Weighted towards the NumPy domains, so most pairs take the kernel.
_DOMAIN_DRAW = st.sampled_from(["small", "small", "near62", "float", "float", "str"])


@st.composite
def table_pairs(draw):
    width = draw(st.sampled_from([0, 1, 2, 2, 3]))
    old = draw(st.lists(_DOMAIN_DRAW, min_size=width, max_size=width))
    if draw(st.integers(0, 3)):
        new = old
    else:
        new = draw(st.lists(_DOMAIN_DRAW, min_size=width, max_size=width))
    return _table(draw, old), _table(draw, new)


#: One column holding both -3 and -(2**62) - 1 spans just under 2**62:
#: coded by offset, two such columns overflowed the combined key.
WIDE_SPANS = (
    ColumnTable.from_rows(scan_columns(2), [(-3, -3)]),
    ColumnTable.from_rows(scan_columns(2), [(-(2 ** 62) - 1, -(2 ** 62) - 1)]),
)


def _declines(old: ColumnTable, new: ColumnTable) -> bool:
    """The pairs ``row_difference`` documents it returns ``None`` for."""
    if columnar.np is None or not new.columns or len(old.columns) != len(new.columns):
        return True
    arrays = [columnar._is_array(col) for col in old.data + new.data]
    if not all(arrays):
        return True
    return any(o.dtype != n.dtype for o, n in zip(old.data, new.data))


@settings(max_examples=300, **COMMON)
@given(table_pairs())
@example(WIDE_SPANS)
def test_the_maintained_answer_is_the_new_tables_rows(pair):
    old, new = pair
    plan = SimpleNamespace(_answer=None, _base=None)
    cache = FragmentCache()
    metrics = MetricsRegistry()
    first = _whole_answer(plan, old, cache, metrics)
    assert first == frozenset(old.iter_rows())
    assert _whole_answer(plan, old, cache, metrics) is first
    got = _whole_answer(plan, new, cache, metrics)
    assert isinstance(got, frozenset) and got == frozenset(new.iter_rows())
    assert plan._answer[0] is new and plan._answer[1] is got
    counters = metrics.snapshot()["counters"]
    assert counters["answer.built"] == 1 + _declines(old, new)
    assert counters["answer.reused"] == 1
    assert counters.get("answer.maintained", 0) == (not _declines(old, new))


@settings(max_examples=300, **COMMON)
@given(table_pairs())
@example(WIDE_SPANS)
def test_the_difference_is_an_anti_join_each_way(pair):
    old, new = pair
    diff = row_difference(old, new)
    assert (diff is None) == _declines(old, new)
    if diff is not None:
        removed, added = diff
        old_rows, new_rows = set(old.iter_rows()), set(new.iter_rows())
        assert set(removed.iter_rows()) == old_rows - new_rows
        assert set(added.iter_rows()) == new_rows - old_rows
        assert removed.columns == old.columns and added.columns == new.columns
