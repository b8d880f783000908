"""Relational database substrate: schemas, instances, and a relational algebra."""

from .algebra import Table, table_from_instance, union_many
from .columnar import (
    HAVE_NUMPY,
    ColumnTable,
    compare_cols_mask,
    compare_mask,
    join_indices,
    union_all,
    union_distinct,
)
from .csvio import load_instance_directory, load_relation_csv, save_relation_csv
from .instance import Instance
from .planner import CardinalityCostModel
from .schema import DatabaseSchema, RelationSchema
from .statistics import RelationStats, StatisticsCatalog, compute_relation_stats

__all__ = [
    "CardinalityCostModel",
    "ColumnTable",
    "DatabaseSchema",
    "HAVE_NUMPY",
    "Instance",
    "RelationSchema",
    "RelationStats",
    "StatisticsCatalog",
    "Table",
    "compare_cols_mask",
    "compare_mask",
    "compute_relation_stats",
    "join_indices",
    "load_instance_directory",
    "load_relation_csv",
    "save_relation_csv",
    "table_from_instance",
    "union_all",
    "union_distinct",
    "union_many",
]
