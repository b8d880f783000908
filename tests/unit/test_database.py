"""Unit tests for repro.database (schema, instance) and the row-algebra oracle."""

import pytest

from repro.database import DatabaseSchema, Instance, RelationSchema
from repro.datalog.indexing import WILDCARD
from repro.errors import EvaluationError, InstanceError, SchemaError
from tests.oracles import Table, table_from_instance


class TestRelationSchema:
    def test_basic_properties(self):
        schema = RelationSchema("R", ["a", "b"])
        assert schema.arity == 2
        assert schema.position_of("b") == 1
        assert str(schema) == "R(a, b)"

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a", "a"])

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a"]).position_of("z")

    def test_typed_validation(self):
        schema = RelationSchema("R", ["a", "b"], [int, str])
        assert schema.validate_row([1, "x"]) == (1, "x")
        with pytest.raises(SchemaError):
            schema.validate_row(["not-int", "x"])
        with pytest.raises(SchemaError):
            schema.validate_row([1])

    def test_type_count_must_match(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a", "b"], [int])

    def test_rename(self):
        assert RelationSchema("R", ["a"]).rename("S").name == "S"


class TestDatabaseSchema:
    def test_add_and_lookup(self):
        schema = DatabaseSchema("db", [RelationSchema("R", ["a"])])
        assert "R" in schema
        assert schema.relation("R").arity == 1
        assert schema.relation_names() == ("R",)

    def test_duplicate_relation_rejected(self):
        schema = DatabaseSchema("db", [RelationSchema("R", ["a"])])
        with pytest.raises(SchemaError):
            schema.add(RelationSchema("R", ["b"]))

    def test_unknown_relation(self):
        with pytest.raises(SchemaError):
            DatabaseSchema("db").relation("missing")


class TestInstance:
    def test_add_and_get(self):
        instance = Instance()
        instance.add("R", (1, 2))
        instance.add_all("R", [(3, 4), (1, 2)])
        assert set(instance.get_tuples("R")) == {(1, 2), (3, 4)}
        assert instance.cardinality("R") == 2

    def test_arity_enforced_without_schema(self):
        instance = Instance()
        instance.add("R", (1, 2))
        with pytest.raises(InstanceError):
            instance.add("R", (1,))

    def test_schema_validation(self):
        schema = DatabaseSchema("db", [RelationSchema("R", ["a"], [int])])
        instance = Instance(schema)
        instance.add("R", (1,))
        with pytest.raises(InstanceError):
            instance.add("S", (1,))

    def test_remove_and_clear(self):
        instance = Instance.from_dict({"R": [(1,), (2,)]})
        instance.remove("R", (1,))
        assert set(instance.get_tuples("R")) == {(2,)}
        with pytest.raises(InstanceError):
            instance.remove("R", (9,))
        instance.clear("R")
        assert instance.cardinality("R") == 0

    def test_copy_and_merge_and_equality(self):
        first = Instance.from_dict({"R": [(1,)]})
        second = Instance.from_dict({"R": [(2,)], "S": [(3,)]})
        merged = first.merge(second)
        assert set(merged.get_tuples("R")) == {(1,), (2,)}
        assert first == Instance.from_dict({"R": [(1,)]})
        assert first != merged
        copy = first.copy()
        copy.add("R", (9,))
        assert first.cardinality("R") == 1

    def test_active_domain_and_total_rows(self):
        instance = Instance.from_dict({"R": [(1, "a")], "S": [(2,)]})
        assert instance.active_domain() == {1, "a", 2}
        assert instance.total_rows() == 2

    def test_instances_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Instance())


class TestDeltaBlocks:
    """What an instance hands a step: the rows appends added between two
    tokens, never one newer than the second, and nothing it cannot prove."""

    def test_a_delta_is_bounded_by_its_second_token(self):
        instance = Instance.from_dict({"r": [(1, 2)]})
        since = instance.data_version("r")
        instance.add_all("r", [(2, 3), (1, 2), (5, 3)])  # (1, 2): a no-op
        until = instance.data_version("r")
        instance.add("r", (7, 3))
        block = instance.delta_block("r", (WILDCARD, 3), since, until)
        assert sorted(block.iter_rows()) == [(2, 3), (5, 3)]
        assert instance.delta_block("r", (WILDCARD, WILDCARD), until, until).columns

    def test_what_is_not_an_append_has_no_delta(self):
        instance = Instance.from_dict({"r": [(1, 2), (2, 3)]})
        other = Instance.from_dict({"r": [(1, 2)]})
        pattern = (WILDCARD, WILDCARD)
        since = instance.data_version("r")
        instance.add("r", (3, 4))
        until = instance.data_version("r")
        assert instance.delta_block("r", pattern, until, since) is None  # backwards
        assert instance.delta_block("r", pattern, other.data_version("r"), until) is None
        instance.remove("r", (1, 2))
        assert instance.delta_block("r", pattern, since, instance.data_version("r")) is None

    def test_a_block_holds_exactly_the_rows_of_its_token(self):
        """A row a writer has logged and inserted but whose version bump
        has not landed yet is left out of the block tagged before it."""
        instance = Instance.from_dict({"r": [(1, 2)]})
        index = instance._relations["r"]
        index._log.append((9, 9))  # add() mid-way: logged and inserted,
        index._rows.add((9, 9))  # but the version not yet moved
        token, block = instance.tagged_block("r", (WILDCARD, WILDCARD))
        assert token == instance.data_version("r")
        assert list(block.iter_rows()) == [(1, 2)]


class TestTable:
    def test_projection_and_selection(self):
        table = Table(["a", "b"], [(1, 2), (3, 4)])
        assert table.project(["b"]).to_set() == {(2,), (4,)}
        assert table.select_eq("a", 1).to_set() == {(1, 2)}
        assert table.select(lambda row: row["b"] > 2).to_set() == {(3, 4)}

    def test_natural_join(self):
        left = Table(["a", "b"], [(1, 2), (3, 4)])
        right = Table(["b", "c"], [(2, "x"), (4, "y"), (5, "z")])
        joined = left.natural_join(right)
        assert set(joined.columns) == {"a", "b", "c"}
        assert len(joined) == 2

    def test_union_and_difference_require_same_columns(self):
        first = Table(["a"], [(1,)])
        second = Table(["a"], [(2,)])
        assert first.union(second).to_set() == {(1,), (2,)}
        assert first.difference(second).to_set() == {(1,)}
        with pytest.raises(EvaluationError):
            first.union(Table(["b"], [(1,)]))

    def test_rename_and_cross(self):
        first = Table(["a"], [(1,)])
        second = Table(["b"], [(2,)])
        crossed = first.cross(second)
        assert crossed.to_set() == {(1, 2)}
        with pytest.raises(EvaluationError):
            first.cross(Table(["a"], [(9,)]))
        assert first.rename({"a": "z"}).columns == ("z",)

    def test_select_columns_equal(self):
        table = Table(["a", "b"], [(1, 1), (1, 2)])
        assert table.select_columns_equal("a", "b").to_set() == {(1, 1)}

    def test_duplicate_columns_rejected(self):
        with pytest.raises(EvaluationError):
            Table(["a", "a"], [])

    def test_row_width_checked(self):
        with pytest.raises(EvaluationError):
            Table(["a", "b"], [(1,)])

    def test_table_from_instance_uses_schema_columns(self):
        schema = DatabaseSchema("db", [RelationSchema("R", ["x", "y"])])
        instance = Instance(schema)
        instance.add("R", (1, 2))
        table = table_from_instance(instance, "R")
        assert table.columns == ("x", "y")
