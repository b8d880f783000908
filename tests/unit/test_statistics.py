"""Versioned relation statistics and the stats-driven cost model."""

import pytest

from repro.database import Instance, StatisticsCatalog
from repro.database.planner import CardinalityCostModel
from repro.database.statistics import compute_relation_stats, source_data_version
from repro.datalog.parser import parse_query


def _atom(text):
    return parse_query(text).relational_body()[0]


class TestRelationStats:
    def test_one_pass_cardinality_and_distinct(self):
        stats = compute_relation_stats("r", [(1, 2), (1, 3), (2, 3)])
        assert stats.cardinality == 3
        assert stats.distinct == (2, 2)

    def test_distinct_at_out_of_range_falls_back_to_cardinality(self):
        stats = compute_relation_stats("r", [(1, 2)] * 1)
        assert stats.distinct_at(5) == 1

    def test_selectivity(self):
        stats = compute_relation_stats("r", [(1, 2), (1, 3), (2, 3), (3, 3)])
        assert stats.selectivity(0) == pytest.approx(1 / 3)
        assert compute_relation_stats("r", []).selectivity(0) == 0.0

    def test_ragged_rows_tolerated(self):
        stats = compute_relation_stats("r", [(1,), (1, 2)])
        assert stats.cardinality == 2
        assert stats.distinct == (1, 1)

    def test_scan_block_counts_equal_python_set_semantics(self):
        """Statistics read off a relation's scan block (NumPy ``int64`` /
        ``float64`` columns, or lists) count like Python sets: ``-0.0 ==
        0.0``, ``1 == 1.0 == True``, strings as they are."""
        rows = [
            (1, 0.0, "a", 1), (2, -0.0, "b", 1.0), (2, 1.5, "a", True),
            (-3, 2.0 ** 53, "c", "x"), (7, 2.0 ** 53 + 2, "a", None),
        ]
        instance = Instance.from_dict({"r": rows})
        stats = StatisticsCatalog(instance).stats("r")
        columns = list(zip(*rows))
        assert stats.cardinality == len(set(rows)) == 5
        assert stats.distinct == tuple(len(set(column)) for column in columns) == (4, 4, 3, 3)
        assert compute_relation_stats("r", rows).distinct == stats.distinct
        assert StatisticsCatalog(Instance()).stats("r").distinct == ()


class TestStatisticsCatalog:
    def test_revalidates_only_when_version_moves(self):
        instance = Instance()
        instance.add_all("r", [(1, 2), (2, 3)])
        catalog = StatisticsCatalog(instance)
        first = catalog.stats("r")
        assert first.cardinality == 2
        assert catalog.stats("r") is first  # version unchanged: cached object
        instance.add("r", (5, 6))
        second = catalog.stats("r")
        assert second is not first
        assert second.cardinality == 3

    def test_delete_also_moves_the_version(self):
        instance = Instance()
        instance.add_all("r", [(1, 2), (2, 3)])
        catalog = StatisticsCatalog(instance)
        assert catalog.cardinality("r") == 2
        instance.remove("r", (1, 2))
        assert catalog.cardinality("r") == 1

    def test_freeze_drops_the_source_but_keeps_stats(self):
        instance = Instance()
        instance.add_all("r", [(1, 2)])
        catalog = StatisticsCatalog(instance).freeze()
        assert catalog.source is None
        assert catalog.cardinality("r") == 1
        instance.add("r", (3, 4))
        assert catalog.cardinality("r") == 1  # frozen: no revalidation

    def test_unknown_relation_is_empty(self):
        catalog = StatisticsCatalog(Instance())
        assert catalog.cardinality("nope") == 0
        assert catalog.column_distinct("nope", 0) == 1


class TestDataVersions:
    def test_instance_tokens_move_on_mutation(self):
        instance = Instance()
        absent = instance.data_version("r")
        instance.add("r", (1, 2))
        created = instance.data_version("r")
        assert created != absent
        instance.add("r", (3, 4))
        grown = instance.data_version("r")
        assert grown != created
        instance.remove("r", (1, 2))
        assert instance.data_version("r") != grown

    def test_tokens_from_different_instances_never_alias(self):
        a, b = Instance(), Instance()
        a.add("r", (1, 2))
        b.add("r", (1, 2))
        assert a.data_version("r") != b.data_version("r")
        assert a.instance_id != b.instance_id

    def test_version_vector(self):
        instance = Instance()
        instance.add("r", (1, 2))
        instance.add("s", (3,))
        vector = instance.version_vector()
        assert set(vector) == {"r", "s"}
        assert vector["r"] == instance.data_version("r")
        assert instance.version_vector(["r"]).keys() == {"r"}

    def test_source_data_version_helper(self):
        instance = Instance()
        assert source_data_version(instance, "r") == instance.data_version("r")
        assert source_data_version({"r": [(1, 2)]}, "r") is None


class TestStatsDrivenCostModel:
    def test_constant_filter_uses_point_selectivity(self):
        instance = Instance()
        # 100 rows, 10 distinct values in column 0, 100 in column 1.
        instance.add_all("r", [(i % 10, i) for i in range(100)])
        model = CardinalityCostModel(instance)
        assert model.cardinality("r") == 100
        assert model.column_distinct("r", 0) == 10
        # A constant at position 0 matches ~1/10 of the rows.
        assert model.atom_estimate(_atom("Q(y) :- r(3, y)")) == 10
        # A constant at position 1 matches ~1/100 of the rows.
        assert model.atom_estimate(_atom("Q(x) :- r(x, 42)")) == 1
        # No restrictions: the full cardinality.
        assert model.atom_estimate(_atom("Q(x, y) :- r(x, y)")) == 100

    def test_repeated_variable_uses_max_distinct(self):
        instance = Instance()
        # 40 distinct rows, 20 distinct values left, 10 right.
        instance.add_all("r", [(i // 2, i % 10) for i in range(40)])
        model = CardinalityCostModel(instance)
        # 1 / max(d0, d1) = 1/20 of 40 rows => 2.
        assert model.atom_estimate(_atom("Q(x) :- r(x, x)")) == 2

    def test_snapshot_does_not_pin_the_source(self):
        instance = Instance()
        instance.add_all("r", [(1, 2), (2, 3)])
        model = CardinalityCostModel.snapshot(instance)
        assert model.statistics.source is None
        instance.add("r", (9, 9))
        assert model.cardinality("r") == 2

    def test_snapshot_of_plain_mapping(self):
        model = CardinalityCostModel.snapshot({"r": [(1, 2), (3, 4)]})
        assert model.cardinality("r") == 2

    def test_pinless_does_not_pin_or_eagerly_scan(self):
        import gc
        import weakref

        instance = Instance()
        instance.add_all("r", [(1, 2), (2, 3)])
        model = CardinalityCostModel.pinless(instance)
        assert model.cardinality("r") == 2
        instance.add("r", (9, 9))
        assert model.cardinality("r") == 3  # live: revalidates
        ref = weakref.ref(instance)
        del instance
        gc.collect()
        assert ref() is None, "pinless model kept the source alive"

    def test_pinless_of_plain_mapping_captures_eagerly(self):
        # The mapping adapter is throwaway; a weak reference to it would
        # die before any stats read — eager capture keeps estimates real.
        model = CardinalityCostModel.pinless({"r": [(1, 2), (3, 4)]})
        assert model.cardinality("r") == 2

    def test_populated_relation_never_ties_with_an_empty_one(self):
        """However restricted, a scan of real data ranks strictly above a
        genuinely empty relation, so join ordering can tell them apart."""
        instance = Instance()
        instance.add_all("tiny", [(1, 1), (2, 2), (3, 3)])
        model = CardinalityCostModel(instance)
        for args in ("x, y", "1, y", "x, 1", "1, 1", "x, x", "7, 7"):
            populated = model.atom_estimate(_atom(f"Q() :- tiny({args})"))
            empty = model.atom_estimate(_atom(f"Q() :- void({args})"))
            assert populated >= 1 > empty, args

    def test_modelless_estimates_are_zero(self):
        model = CardinalityCostModel()
        assert model.cardinality("r") == 0
        assert model.atom_estimate(_atom("Q(x) :- r(x, 1)")) == 0
