"""Unit tests for the columnar batch-execution layer (ISSUE 6).

Covers the :class:`~repro.database.columnar.ColumnTable` kernels (join,
fused select, project/rename, distinct, union, comparison masks) against
the row algebra as oracle, the dtype-sniffing edge cases that force the
pure-Python fallback (mixed dtypes, NaN, big integers, NumPy absent), and
the union plan's fragments evaluated on them.
"""

import random
from types import SimpleNamespace

import pytest

from repro.database import columnar
from repro.database.columnar import (
    ColumnTable,
    compare_cols_mask,
    compare_mask,
    join_indices,
    union_all,
    union_distinct,
)
from repro.database.planner import CardinalityCostModel
from repro.database.instance import Instance
from repro.datalog import evaluate_query, parse_query
from repro.errors import EvaluationError
from repro.pdms import evaluate_plan
from repro.pdms.materialization import estimate_result_bytes
from repro.pdms.evaluator import _Evaluation
from repro.pdms.planning import UnionPlan
from tests.oracles import Table, from_table, to_table


def as_rows(ct: ColumnTable):
    return set(ct.iter_rows())


@pytest.fixture
def no_numpy(monkeypatch):
    """Force every kernel onto the pure-Python fallback path."""
    monkeypatch.setattr(columnar, "np", None)


class TestConversions:
    def test_round_trip_preserves_rows_and_columns(self):
        table = Table(("a", "b"), [(1, "x"), (2, "y"), (3, "z")])
        ct = from_table(table)
        assert ct.columns == table.columns
        assert len(ct) == 3
        back = to_table(ct)
        assert back.columns == table.columns
        assert back.rows == table.rows

    def test_empty_and_zero_width_tables(self):
        empty = ColumnTable.from_rows(("a",), [])
        assert len(empty) == 0
        assert as_rows(empty) == set()
        nullary = ColumnTable.from_rows((), [(), (), ()])
        assert as_rows(nullary) == {()}
        assert to_table(nullary).rows == frozenset({()})

    def test_numeric_columns_use_numpy_but_hand_back_python_values(self):
        if columnar.np is None:
            pytest.skip("NumPy not installed")
        ct = ColumnTable.from_rows(("a",), [(1,), (2,)])
        assert isinstance(ct.data[0], columnar.np.ndarray)
        for row in set(ct.iter_rows()):
            assert type(row[0]) is int

    def test_dtype_sniffing_fallbacks(self):
        cases = [
            [(2 ** 70,), (1,)],          # beyond int64
            [(1.5,), (float("nan"),)],   # NaN poisons the float path
            [(1,), ("x",)],              # mixed kinds
            [(None,), (None,)],          # non-numeric
            [(True,), (False,)],         # pure bool stays Python bool
        ]
        for rows in cases:
            ct = ColumnTable.from_rows(("a",), rows)
            assert isinstance(ct.data[0], list)
        # NaN identity semantics survive the fallback exactly like a set's.
        nan = float("nan")
        ct = ColumnTable.from_rows(("a",), [(nan,), (1.0,)])
        assert as_rows(ct) == {(nan,), (1.0,)}

    def test_estimated_bytes_feeds_cache_sizing(self):
        ct = ColumnTable.from_rows(("a", "b"), [(i, str(i)) for i in range(100)])
        assert estimate_result_bytes(ct) == ct.estimated_bytes() > 0


class TestJoinKernel:
    def randomized_tables(self, seed, values):
        rng = random.Random(seed)
        left = Table(
            ("a", "b"),
            {(rng.choice(values), rng.choice(values)) for _ in range(30)},
        )
        right = Table(
            ("b", "c"),
            {(rng.choice(values), rng.choice(values)) for _ in range(30)},
        )
        return left, right

    @pytest.mark.parametrize("seed", range(5))
    def test_join_matches_row_engine_on_ints(self, seed):
        left, right = self.randomized_tables(seed, list(range(6)))
        expected = left.natural_join(right)
        got = from_table(left).natural_join(
            from_table(right))
        assert got.columns == expected.columns
        assert as_rows(got) == set(expected.rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_join_matches_row_engine_on_mixed_values(self, seed):
        values = [0, 1, "x", "y", 2.5, True, 2 ** 70]
        left, right = self.randomized_tables(seed, values)
        expected = left.natural_join(right)
        got = from_table(left).natural_join(
            from_table(right))
        assert as_rows(got) == set(expected.rows)

    def test_multi_column_keys(self):
        left = Table(("a", "b", "c"), [(1, 2, 9), (1, 3, 8), (2, 2, 7)])
        right = Table(("a", "b", "d"), [(1, 2, "u"), (2, 2, "v"), (3, 3, "w")])
        expected = left.natural_join(right)
        got = from_table(left).natural_join(
            from_table(right))
        assert got.columns == expected.columns
        assert as_rows(got) == set(expected.rows)

    def test_empty_side_yields_empty(self):
        left = ColumnTable.from_rows(("a", "b"), [(1, 2)])
        right = ColumnTable.from_rows(("b", "c"), [])
        assert len(left.natural_join(right)) == 0
        assert len(right.natural_join(left)) == 0

    def test_disjoint_columns_cross_product(self):
        left = ColumnTable.from_rows(("a",), [(1,), (2,)])
        right = ColumnTable.from_rows(("b",), [("x",), ("y",)])
        assert as_rows(left.natural_join(right)) == {
            (1, "x"), (1, "y"), (2, "x"), (2, "y")}

    def test_build_side_override_changes_nothing_observable(self):
        left = Table(("a", "b"), [(i, i % 3) for i in range(10)])
        right = Table(("b", "c"), [(i % 3, i) for i in range(4)])
        lct, rct = from_table(left), from_table(right)
        assert as_rows(lct.natural_join(rct, build_right=True)) == \
            as_rows(lct.natural_join(rct, build_right=False))

    def test_cost_model_steers_build_side_without_changing_answers(self):
        instance = build_instance()
        cost = CardinalityCostModel(instance)
        r = Table(("x", "y"), instance.get_tuples("r"))
        s = Table(("y", "z"), instance.get_tuples("s"))
        build_right = cost.cardinality("s") < cost.cardinality("r")
        assert build_right  # s is the smaller input by the statistics
        rct, sct = from_table(r), from_table(s)
        expected = set(r.natural_join(s).rows)
        assert as_rows(rct.natural_join(sct, build_right=build_right)) == expected
        assert as_rows(rct.natural_join(sct, build_right=not build_right)) == expected

    def test_int_float_cross_dtype_joins_exactly(self):
        # 2**53 + 1 is where float64 loses integer exactness; Python
        # equality stays exact, so the kernel must not cast.
        big = 2 ** 53 + 1
        left = Table(("k", "l"), [(big, 1), (2, 2)])
        right = Table(("k", "r"), [(float(big), "f"), (2.0, "g")])
        expected = left.natural_join(right)
        got = from_table(left).natural_join(
            from_table(right))
        assert as_rows(got) == set(expected.rows)

    def test_join_indices_shape(self):
        li, ri = join_indices(
            [ColumnTable.from_rows(("k",), [(1,), (2,)]).data[0]],
            [ColumnTable.from_rows(("k",), [(2,), (2,)]).data[0]],
            2,
            2,
        )
        assert len(li) == len(ri) == 2


class TestSelectProjectDistinctUnion:
    def test_fused_select_matches_row_filters(self):
        rows = [(i % 4, i % 3, i % 4) for i in range(24)]
        table = Table(("x", "y", "z"), rows)
        ct = from_table(table)
        expected = table.select_eq("x", 1).select_columns_equal("x", "z")
        got = ct.fused_select(const_filters=[(0, 1)], equal_pairs=[(0, 2)])
        assert as_rows(got) == set(expected.rows)

    def test_project_positions_is_zero_copy(self):
        ct = ColumnTable.from_rows(("a", "b"), [(1, 2), (3, 4)])
        projected = ct.project_positions((1,), ("bb",))
        assert projected.data[0] is ct.data[1]
        assert projected.columns == ("bb",)

    def test_rename_is_zero_copy(self):
        ct = ColumnTable.from_rows(("a", "b"), [(1, 2)])
        renamed = ct.rename({"a": "aa"})
        assert renamed.columns == ("aa", "b")
        assert renamed.data[0] is ct.data[0]

    def test_distinct_numeric_and_object_paths(self):
        dup_rows = [(1, "x"), (1, "x"), (2, "y")]
        ct = ColumnTable.from_rows(("a", "b"), dup_rows)
        assert len(ct) == 3
        assert len(ct.distinct()) == 2
        numeric = ColumnTable.from_rows(("a", "b"), [(1, 2), (1, 2), (3, 4)])
        assert len(numeric.distinct()) == 2

    def test_union_all_and_distinct(self):
        first = ColumnTable.from_rows(("a",), [(1,), (2,)])
        second = ColumnTable.from_rows(("a",), [(2,), (3,)])
        assert len(union_all([first, second])) == 4
        assert as_rows(union_distinct([first, second])) == {(1,), (2,), (3,)}
        empty = union_distinct([], columns=("a",))
        assert len(empty) == 0 and empty.columns == ("a",)
        with pytest.raises(EvaluationError):
            union_all([])
        with pytest.raises(EvaluationError):
            union_all([first, ColumnTable.from_rows(("b",), [(1,)])])

    def test_union_of_mixed_storage_columns(self):
        numeric = ColumnTable.from_rows(("a",), [(1,), (2,)])
        textual = ColumnTable.from_rows(("a",), [("x",)])
        assert as_rows(union_all([numeric, textual])) == {(1,), (2,), ("x",)}


class TestComparisonMasks:
    def test_numeric_and_fallback_semantics_match_compare_values(self):
        from repro.datalog.atoms import compare_values

        values = [0, 1, 3, 2 ** 54, -5]
        consts = [1, 2.5, float(2 ** 54), "x", True]
        ct = ColumnTable.from_rows(("a",), [(v,) for v in values])
        col = ct.data[0]
        stored = [row[0] for row in ct.iter_rows()]
        for op in ("=", "!=", "<", "<=", ">", ">="):
            for const in consts:
                mask = list(compare_mask(col, op, const, len(ct)))
                expected = [compare_values(v, op, const) for v in stored]
                assert mask == expected, (op, const)

    def test_column_vs_column_masks(self):
        ct = ColumnTable.from_rows(
            ("a", "b"), [(1, 1), (2, 3), (4, 2.0), (5, "x")])
        mask = list(compare_cols_mask(ct.data[0], "=", ct.data[1], len(ct)))
        stored = list(ct.iter_rows())
        assert mask == [a == b for a, b in stored]


class TestPurePythonFallback:
    def test_kernels_without_numpy(self, no_numpy):
        left = Table(("a", "b"), [(1, 2), (3, 4), (5, 2)])
        right = Table(("b", "c"), [(2, "x"), (4, "y")])
        lct = from_table(left)
        rct = from_table(right)
        assert isinstance(lct.data[0], list)
        joined = lct.natural_join(rct)
        assert as_rows(joined) == set(left.natural_join(right).rows)
        assert len(joined.distinct()) == len(joined)
        assert as_rows(lct.fused_select(const_filters=[(0, 1)])) == {(1, 2)}
        mask = compare_mask(lct.data[0], ">", 2, len(lct))
        assert list(mask) == [v > 2 for v, _ in lct.iter_rows()]
        assert as_rows(union_distinct([lct, lct])) == set(left.rows)


def build_instance():
    return Instance.from_dict({
        "r": [(i, i % 5) for i in range(50)],
        "s": [(i % 5, i % 7) for i in range(40)],
    })


def union_plan(instance, *queries):
    """An enumerated union plan over ``queries`` read as rewritings."""
    return UnionPlan(
        SimpleNamespace(rewritings=lambda: iter(queries)),
        CardinalityCostModel(instance),
    )


class TestVectorizedPlanner:
    def test_vectorized_and_row_paths_agree(self):
        instance = build_instance()
        query = parse_query("Q(x, z) :- r(x, y), s(y, z), y > 1")
        r = Table(("x", "y"), instance.get_tuples("r"))
        s = Table(("y", "z"), instance.get_tuples("s"))
        row = r.natural_join(s).select(lambda row: row["y"] > 1).project(("x", "z"))
        assert evaluate_plan(union_plan(instance, query), instance) == row.to_set()

    def test_union_plan_with_shared_memo(self):
        instance = build_instance()
        queries = [
            parse_query("Q(x) :- r(x, y)"),
            parse_query("Q(x) :- s(x, y)"),
            parse_query("Q(x) :- r(x, y), s(y, z)"),
        ]
        plan = union_plan(instance, *queries)
        evaluation = _Evaluation(plan, instance)
        rows = set()
        for root in plan.fragments():
            rows.update(evaluation.root_rows(root))
        # One column batch per fragment; the join reused both scans.
        assert set(evaluation.memo) == set(plan.nodes)
        assert all(isinstance(value, ColumnTable) for value in evaluation.memo.values())
        assert plan.stats.reused_references == 2
        r = Table(("x", "y"), instance.get_tuples("r"))
        s = Table(("x", "y"), instance.get_tuples("s"))
        joined = r.natural_join(s.rename({"x": "y", "y": "z"}))
        assert rows == r.project(("x",)).to_set() | s.project(("x",)).to_set() \
            | joined.project(("x",)).to_set()

    def test_vectorized_planner_without_numpy(self, no_numpy):
        instance = build_instance()
        query = parse_query("Q(x, z) :- r(x, y), s(y, z), y != 2")
        plan = union_plan(instance, query)
        evaluation = _Evaluation(plan, instance)
        (root,) = plan.fragments()
        assert set(evaluation.root_rows(root)) == evaluate_query(query, instance)
        assert all(
            isinstance(column, list)
            for table in evaluation.memo.values()
            for column in table.data
        )
