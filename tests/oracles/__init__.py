"""Test oracles: independent implementations the system is checked against.

The PDMS of the paper generalises classic two-tier data integration, so
the tests check it against the two-tier algorithms themselves: GAV
unfolding (:class:`GAVMediator`), LAV rewriting with MiniCon
(:func:`minicon_rewrite`, :class:`LAVMediator`) or the Bucket algorithm
(:func:`bucket_rewrite`), and certain answers by inverse rules, computed
two ways (:func:`certain_answers`, :func:`certain_answers_by_freezing`).
The row algebra (:class:`Table`) is the columnar kernels' reference, and
:func:`minimize` computes the core of a conjunctive query.

None of this is part of the library: ``src/`` holds only what the PDMS
runs, and no module there imports this package.
"""

from .algebra import Table, from_table, table_from_instance, to_table, union_many
from .bucket import expand_view_atoms
from .bucket import rewrite as bucket_rewrite
from .gav import GAVMediator
from .inverse_rules import (
    build_canonical_instance,
    certain_answers,
    certain_answers_by_freezing,
    freeze_canonical_instance,
)
from .lav import LAVMediator
from .minicon import create_mcds
from .minicon import rewrite as minicon_rewrite
from .minimize import is_minimal, minimize
from .views import ViewSet

__all__ = [
    "GAVMediator",
    "LAVMediator",
    "Table",
    "ViewSet",
    "bucket_rewrite",
    "build_canonical_instance",
    "certain_answers",
    "certain_answers_by_freezing",
    "create_mcds",
    "expand_view_atoms",
    "freeze_canonical_instance",
    "from_table",
    "is_minimal",
    "minicon_rewrite",
    "minimize",
    "table_from_instance",
    "to_table",
    "union_many",
]
