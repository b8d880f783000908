"""Cached fragment tables recomputed from nothing at their version tokens.

A :class:`~repro.pdms.materialization.FragmentCache` entry is kept under
the data-version token of the relations its fragment reads.  Whether the
entry was computed, or stepped forward from an older entry by the rows
appends added, it must equal — as a multiset of rows — the fragment
evaluated from scratch over the data *at that token*.
:class:`VersionHistory` remembers each relation's rows under every
per-instance token a test's instances pass through, and
:func:`check_cached_fragments` recomputes every entry over them.
"""

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from repro.database import Instance
from repro.datalog.evaluation import as_fact_source
from repro.datalog.indexing import ensure_indexed
from repro.pdms.evaluator import _Evaluation

Row = Tuple[object, ...]


class VersionHistory:
    """Each relation's rows under every ``(instance id, version)`` token
    the watched instances were recorded at (call :meth:`record` after
    every mutation)."""

    def __init__(self, instances: Mapping[str, Instance]):
        self.instances = instances
        self.rows: Dict[Tuple[str, object], FrozenSet[Row]] = {}
        self.record()

    def record(self) -> None:
        for instance in self.instances.values():
            for relation in instance.relations():
                token = instance.data_version(relation)
                self.rows[(relation, token)] = frozenset(instance.get_tuples(relation))

    def rows_at(self, relation: str, version) -> FrozenSet[Row]:
        """The rows of ``relation`` at a source's data-version token: one
        instance token, or a tuple of them (a federated source's)."""
        owners = (version,) if version and isinstance(version[0], int) else version
        rows: FrozenSet[Row] = frozenset()
        for owner in owners:
            rows = rows | self.rows[(relation, owner)]
        return rows


def check_cached_fragments(cache, plans: Iterable, history: VersionHistory) -> int:
    """Assert every entry of ``cache`` whose fragment one of ``plans``
    compiled equals that fragment recomputed at the entry's token, as a
    multiset; returns how many entries were checked."""
    plans = list(plans)
    checked = 0
    for key, entry in list(cache._entries.items()):
        plan = next((plan for plan in plans if key in plan.nodes), None)
        if plan is None:
            continue
        data = {
            relation: history.rows_at(relation, version)
            for relation, version in entry.token
        }
        fresh = _Evaluation(plan, ensure_indexed(as_fact_source(data))).table(key)
        assert Counter(entry.value.iter_rows()) == Counter(fresh.iter_rows()), (
            f"cached {key} differs from its recompute at {entry.token}"
        )
        checked += 1
    return checked
