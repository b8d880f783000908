"""The cardinality cost model the union-plan compiler orders joins by.

The paper stops at reformulation ("The precise method of evaluating Q'
is beyond the scope of this paper"); :mod:`repro.pdms.planning` compiles
the reformulated union into one factored plan and needs estimates to
order its joins.  :class:`CardinalityCostModel` packages the relation
statistics of one fact source for that compiler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.atoms import Atom
from ..datalog.evaluation import FactsLike, as_fact_source
from ..datalog.terms import Variable, is_variable
from .statistics import StatisticsCatalog, WeakStatisticsCatalog, shared_statistics


class CardinalityCostModel:
    """Relation statistics of one fact source, packaged for planning.

    Backed by a :class:`~repro.database.statistics.StatisticsCatalog`:
    besides per-relation cardinalities, the model now knows per-column
    distinct counts, so a pushed-down constant filter is priced at its
    real point selectivity (``cardinality / distinct``) and a
    repeated-variable or join equality at ``1 / max(d_i, d_j)``.  Stats
    are version-validated against the source's per-relation data
    versions, so repeated compilations over slowly changing data rescan
    only the relations that moved.
    """

    __slots__ = ("_statistics",)

    def __init__(
        self,
        facts: Optional[FactsLike] = None,
        statistics: Optional[StatisticsCatalog] = None,
    ):
        if statistics is not None:
            self._statistics = statistics
        elif facts is not None:
            # The catalog is shared per source (and version-validated), so
            # per-call model construction costs no rescans.
            self._statistics = shared_statistics(as_fact_source(facts))
        else:
            self._statistics = StatisticsCatalog(None)

    @property
    def statistics(self) -> StatisticsCatalog:
        """The backing statistics catalog."""
        return self._statistics

    @classmethod
    def snapshot(cls, facts: FactsLike) -> "CardinalityCostModel":
        """A cost model that captures statistics eagerly and then drops
        its reference to the data.

        Safe to keep on long-lived compiled plans: a model built this way
        never retains the fact source (which may hold a removed peer's
        instance or a one-off data override).  Requires a source whose
        relations can be enumerated (a mapping, or anything with a
        ``relations()`` method — instances and federated sources both
        qualify); other sources fall back to whatever was cached.
        """
        model = cls(facts)
        # Detach via a copy: the live catalog is shared across models of
        # this source and must keep revalidating for them.
        model._statistics = model._statistics.frozen_copy()
        return model

    @classmethod
    def pinless(cls, facts: FactsLike) -> "CardinalityCostModel":
        """A model that never pins (and never eagerly scans) the source.

        Statistics are read lazily through the source's shared catalog
        via a weak reference — full fidelity while the source lives, a
        frozen view of whatever was observed once it is dropped.  This is
        what long-lived compiled plans hold: unlike :meth:`snapshot` it
        costs nothing up front, and unlike a live model it cannot keep a
        removed peer's data in memory.

        Plain mappings are the exception: ``as_fact_source`` adapts them
        into a throwaway object that would die under a weak reference
        before any stats read, so they are captured eagerly instead —
        the adapter already copied every row at construction, making one
        stats pass the same order of work.
        """
        source = as_fact_source(facts)
        if source is not facts:
            return cls(statistics=shared_statistics(source).frozen_copy())
        return cls(statistics=WeakStatisticsCatalog(source))

    def cardinality(self, relation: str) -> int:
        """Row count of ``relation`` (0 without a source or for unknown names)."""
        return self._statistics.cardinality(relation)

    def column_distinct(self, relation: str, position: int) -> int:
        """Distinct values at one column position (>= 1)."""
        return self._statistics.column_distinct(relation, position)

    def restriction_estimate(
        self,
        relation: str,
        constant_positions: Sequence[int] = (),
        equal_position_pairs: Sequence[Tuple[int, int]] = (),
    ) -> int:
        """Estimated output rows of a scan restricted at known positions."""
        if not constant_positions and not equal_position_pairs:
            # Unrestricted scans need only the cardinality, which the
            # catalog serves in O(1) — don't force a distinct-count scan.
            return self._statistics.cardinality(relation)
        stats = self._statistics.stats(relation)
        estimate = float(stats.cardinality)
        if estimate <= 0:
            return 0
        for position in constant_positions:
            estimate /= stats.distinct_at(position)
        for first, second in equal_position_pairs:
            estimate /= max(stats.distinct_at(first), stats.distinct_at(second))
        return max(int(estimate), 1) if estimate > 0 else 0

    def atom_estimate(self, atom: Atom) -> int:
        """Estimated rows produced by scanning for one relational atom."""
        constant_positions: List[int] = []
        equal_pairs: List[Tuple[int, int]] = []
        first_position: Dict[Variable, int] = {}
        for position, arg in enumerate(atom.args):
            if is_variable(arg):
                earlier = first_position.get(arg)
                if earlier is None:
                    first_position[arg] = position
                else:
                    equal_pairs.append((earlier, position))
            else:
                constant_positions.append(position)
        return self.restriction_estimate(
            atom.predicate, constant_positions, equal_pairs
        )
