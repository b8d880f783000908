"""Relational database substrate: schemas, instances, and columnar batches."""

from .columnar import (
    HAVE_NUMPY,
    ColumnTable,
    compare_cols_mask,
    compare_mask,
    join_indices,
    union_all,
    union_distinct,
)
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
    "compare_cols_mask",
    "compare_mask",
    "compute_relation_stats",
    "join_indices",
    "union_all",
    "union_distinct",
]
