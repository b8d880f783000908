"""Execution of reformulated queries over the peers' stored relations.

The paper hands the union of rewritings to an external query processor.
This module has one evaluation path, the **factored plan**: the whole
union compiled into one shared union-plan DAG (:mod:`repro.pdms.planning`,
evaluated by :mod:`repro.pdms.evaluator`),
whose hash-consed fragments are computed once, on the
:mod:`repro.database.columnar` batch kernels, in the caller's thread.  A
whole answer evaluates the rule-goal tree as one factored root.

Where the scans run is the fact source's business.  An in-process source
(per-peer instances behind a :class:`PeerFactSource`, or any flat fact
source) is probed directly.  A source that can scatter scans — the
:class:`~repro.pdms.distributed.source.RemotePeerFactSource` — exposes
``answer_hooks()``: every answer calls it once (one describe round) and
the plan path runs the hooks it returns, which prefetch each root's scans
in one scatter wave and restart the version snapshot after a transport
fault.  This module imports nothing from :mod:`repro.pdms.distributed`.

:func:`evaluate_rewritings` is the independent oracle the plan path is
checked against: each rewriting through the direct indexed-join
conjunctive-query evaluator, with no cache.

Entry points take ``engine=`` as a name only, resolved by
:func:`uses_oracle`: ``None``, ``"columnar"`` and ``"distributed"`` select
the plan path, ``"backtracking"`` the oracle.

Execution is *streaming*: with ``limit``, rewritings are pulled from the
reformulation generator one at a time and evaluated as they arrive, so
the first answers surface before Step 3 finishes enumerating (the paper's
Figure 4 measures exactly this time-to-first-answer shape), and the
enumeration stops once enough distinct answers are known.

Per-peer data is served **federated**: a :class:`PeerFactSource` routes
index probes to the owning peer's live
:class:`~repro.database.instance.Instance` instead of eagerly copying
every row into a combined instance (:func:`combine_peer_instances` remains
available for callers that genuinely want a merged copy).  A stored
relation has one owner (:func:`owners_of`): one that two peers serve is
refused, here and in the remote source alike.
"""

from __future__ import annotations

import threading
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..database.columnar import ColumnTable, scan_columns
from ..database.instance import Instance, relation_creation_clock
from ..datalog.evaluation import FactsLike, evaluate_query
from ..datalog.indexing import Pattern
from ..datalog.queries import ConjunctiveQuery
from ..errors import EvaluationError, MappingError
from .materialization import FragmentCache
from .evaluator import distinct_rows, plan_answer_batches, union_rows
from .planning import UnionPlan, ensure_plan
from .reformulation import (
    ReformulationConfig,
    ReformulationResult,
    reformulate,
)
from .system import PDMS

Row = Tuple[object, ...]


# ---------------------------------------------------------------------------
# Stored-relation data: federated per-peer sources and combined instances
# ---------------------------------------------------------------------------

def owners_of(relations_by_peer: Iterable[Tuple[str, Iterable[str]]]) -> Dict[str, str]:
    """Each stored relation's owning peer, from ``(peer, its relations)``
    pairs.  A stored relation belongs to one peer (the paper's PPL), so one
    two peers serve raises :class:`~repro.errors.MappingError` naming both,
    whatever their arities."""
    owners: Dict[str, str] = {}
    for peer, relations in relations_by_peer:
        for relation in relations:
            earlier = owners.setdefault(relation, peer)
            if earlier != peer:
                raise MappingError(
                    f"stored relation {relation!r} is served by peer {earlier!r} "
                    f"and by peer {peer!r}; a stored relation has one owner"
                )
    return owners


def _route(instances: Mapping[str, Instance]) -> Dict[str, Instance]:
    """Each stored relation's owning instance (relations of unknown arity
    are not served); a second owner raises."""
    owners = owners_of(
        (peer, [r for r in instance.relations() if instance.arity(r) is not None])
        for peer, instance in instances.items()
    )
    return {relation: instances[peer] for relation, peer in owners.items()}


class PeerFactSource:
    """A federated, no-copy fact source over per-peer instances.

    Implements the :class:`~repro.datalog.indexing.IndexedFactSource`
    protocol by routing each probe to the *owning* peer's live
    :class:`~repro.database.instance.Instance` — including its maintained
    hash indexes — instead of eagerly merging every row into a combined
    copy the way :func:`combine_peer_instances` does.  A relation two peers
    serve raises (:func:`owners_of`).

    Tokens: :meth:`data_version` is the owner's
    :meth:`~repro.database.instance.Instance.data_version` in a one-tuple,
    ``()`` for a relation no peer serves; instance ids are process-unique,
    so a relation changing hands moves the token as a write does.

    Liveness: rows added to an owned instance are visible immediately, and
    the relation-routing table refreshes itself whenever a new relation is
    created on any live instance — detected by comparing one cached
    reading of the process-wide
    :data:`~repro.database.instance.relation_creation_clock` (a single
    attribute access per probe, so the join engine's inner loop pays O(1)
    for change detection).  The view therefore never goes stale in either
    direction, and the one-owner check re-runs on every refresh exactly
    as it would on a fresh construction.
    """

    __slots__ = (
        "_instances",
        "_routes",
        "_clock_stamp",
        "_version_stamp",
        "_lock",
        # Slot for the shared statistics catalog (see
        # repro.database.statistics.shared_statistics), so cost models over
        # one federated source reuse one version-validated catalog whose
        # lifetime equals the source's.
        "_repro_statistics",
        "__weakref__",
    )

    def __init__(self, instances: Mapping[str, Instance]):
        self._instances: Dict[str, Instance] = dict(instances)
        self._lock = threading.Lock()
        self._routes: Dict[str, Instance] = {}
        self._clock_stamp = -1
        self._version_stamp = -1
        self._refresh()

    def _owned_versions(self) -> int:
        # Per-instance relations_version counters only grow, so the sum
        # changes iff one of *our* instances created a relation.
        return sum(
            instance.relations_version for instance in self._instances.values()
        )

    def _refresh(self) -> None:
        with self._lock:
            # Capture the clock *before* inspecting: a relation created
            # after the capture ticks the clock past it, so the next probe
            # refreshes again; one created before the capture is already
            # visible (version bumps and relation creation precede ticks).
            clock = relation_creation_clock.read()
            if clock == self._clock_stamp:
                return
            # The global clock also moves for unrelated instances; only
            # re-derive the routes when one of the owned instances did.
            versions = self._owned_versions()
            if versions != self._version_stamp:
                self._routes = _route(self._instances)
                self._version_stamp = versions
            self._clock_stamp = clock

    def _owner(self, relation: str) -> Optional[Instance]:
        if relation_creation_clock.read() != self._clock_stamp:
            self._refresh()
        return self._routes.get(relation)

    def relations(self) -> Tuple[str, ...]:
        """Stored relations currently reachable through this source."""
        if relation_creation_clock.read() != self._clock_stamp:
            self._refresh()
        return tuple(self._routes)

    def get_tuples(self, predicate: str) -> Iterable[Row]:
        owner = self._owner(predicate)
        return owner.get_tuples(predicate) if owner is not None else ()

    def get_matching(self, predicate: str, pattern: Pattern) -> Iterable[Row]:
        owner = self._owner(predicate)
        return owner.get_matching(predicate, pattern) if owner is not None else ()

    def scan_block(self, predicate: str, pattern: Pattern) -> ColumnTable:
        """The owner's scan block (empty for a relation no peer serves)."""
        return self.tagged_block(predicate, pattern)[1]

    def tagged_block(
        self, predicate: str, pattern: Pattern
    ) -> Tuple[Tuple[object, ...], ColumnTable]:
        """:meth:`scan_block` with the token its rows are exactly at (see
        :meth:`~repro.database.instance.Instance.tagged_block`)."""
        owner = self._owner(predicate)
        if owner is None:
            return (), ColumnTable.from_rows(scan_columns(len(pattern)), ())
        token, block = owner.tagged_block(predicate, pattern)
        return (token,), block

    def delta_block(
        self, predicate: str, pattern: Pattern, since: tuple, until: tuple
    ) -> Optional[ColumnTable]:
        """The rows appends added between two :meth:`data_version` tokens,
        as the owner's :meth:`~repro.database.instance.Instance.delta_block`
        (``None`` when no owner served both tokens)."""
        owner = self._owner(predicate)
        if owner is None or len(since) != 1 or len(until) != 1:
            return None
        return owner.delta_block(predicate, pattern, since[0], until[0])

    def arity(self, relation: str) -> Optional[int]:
        """The owner's arity of ``relation`` (``None`` if unknown)."""
        owner = self._owner(relation)
        return owner.arity(relation) if owner is not None else None

    def cardinality(self, relation: str) -> int:
        """The owner's row count (feeds the planner's cost model)."""
        owner = self._owner(relation)
        return owner.cardinality(relation) if owner is not None else 0

    def data_version(self, relation: str) -> Tuple[Tuple[int, int], ...]:
        """The owner's data-version token in a one-tuple; ``()`` for a
        relation no peer serves."""
        owner = self._owner(relation)
        return (owner.data_version(relation),) if owner is not None else ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerFactSource({len(self._routes)} relations)"


def combine_peer_instances(instances: Mapping[str, Instance]) -> Instance:
    """Merge per-peer instances of stored relations into one instance.

    A stored relation has one owner, so merging is a plain copy of each
    owner's rows; a relation two peers serve raises a
    :class:`MappingError` naming both.  Query answering does not need
    this copy — :class:`PeerFactSource` federates probes to the live
    per-peer instances — but it is the right tool when a materialised
    merged instance is wanted (e.g. the chase oracle).
    """
    combined = Instance()
    for relation, owner in _route(instances).items():
        combined.add_all(relation, owner.get_tuples(relation))
    return combined


def is_per_peer_data(data: Union[FactsLike, Mapping[str, Instance]]) -> bool:
    """Is ``data`` a (non-empty) mapping from peer name to :class:`Instance`?

    The single convention check shared by every entry point that accepts
    either a flat fact source or per-peer instances.
    """
    return (
        isinstance(data, Mapping)
        and bool(data)
        and all(isinstance(value, Instance) for value in data.values())
    )


def federate_if_per_peer(
    data: Union[FactsLike, Mapping[str, Instance]]
) -> FactsLike:
    """Wrap per-peer instances in a no-copy federated source; pass others through."""
    if is_per_peer_data(data):
        return PeerFactSource(data)  # type: ignore[arg-type]
    return data  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: The accepted ``engine=`` names of the plan path; ``"backtracking"``
#: names the oracle.
_PLAN_NAMES = (None, "columnar", "distributed")


def uses_oracle(engine: Optional[str]) -> bool:
    """Resolve an ``engine=`` name: ``True`` selects the per-rewriting
    oracle, ``False`` the plan path; any other name raises."""
    if engine in _PLAN_NAMES:
        return False
    if engine == "backtracking":
        return True
    raise EvaluationError(
        f"unknown execution engine {engine!r}; accepted: 'columnar' and "
        f"'distributed' (the plan path) or 'backtracking' (the oracle)"
    )


def _answer_batches(
    result: ReformulationResult,
    data: Union[FactsLike, Mapping[str, Instance]],
    oracle: bool,
    plan: Optional[UnionPlan],
    cache: Optional[FragmentCache],
    whole: bool,
    metrics=None,
) -> Iterator[Iterable[Row]]:
    """One batch of answer rows per evaluated root (the plan path) or per
    rewriting (the oracle); rows may repeat within and across batches.

    Everything that can be refused is refused here, at call time: a plan
    compiled for another result, or a cache handed to the oracle.  The
    batches themselves are lazy.
    """
    source = federate_if_per_peer(data)
    if oracle:
        if cache is not None:
            raise EvaluationError(
                "the backtracking oracle takes no fragment cache: a cached "
                "oracle is not an oracle"
            )
        return _oracle_batches(result, source)
    return _plan_batches(
        ensure_plan(result, source, plan), source, cache, whole, metrics
    )


def _oracle_batches(result: ReformulationResult, source: FactsLike) -> Iterator[Iterable[Row]]:
    # A source that refreshes once per answer does so for the oracle too.
    hooks = getattr(source, "answer_hooks", None)
    if hooks is not None:
        hooks()
    for rewriting in result.rewritings():
        yield evaluate_query(rewriting, source)


def _plan_batches(
    plan: UnionPlan,
    source: FactsLike,
    cache: Optional[FragmentCache],
    whole: bool,
    metrics,
) -> Iterator[Iterable[Row]]:
    # A source that scatters scans refreshes once per answer, on the first
    # batch pulled, and hands back the hooks its scatter wave runs through.
    hooks = getattr(source, "answer_hooks", None)
    yield from plan_answer_batches(
        plan, source, cache=cache, whole=whole, metrics=metrics,
        **(hooks() if hooks is not None else {}),
    )


def stream_answers(
    result: ReformulationResult,
    data: Union[FactsLike, Mapping[str, Instance]],
    engine: Optional[str] = None,
    plan: Optional[UnionPlan] = None,
    cache: Optional[FragmentCache] = None,
) -> Iterator[Row]:
    """Yield distinct answer rows as the rewriting enumeration progresses.

    Each conjunctive rewriting is evaluated as soon as Step 3 produces it;
    rows already seen (set semantics) are suppressed.  Consuming only a
    prefix of this iterator therefore never forces the full rewriting
    enumeration — the first-k path of the service layer rides on this.

    ``plan`` (optional) is a cached compiled union plan for ``result``.
    ``cache`` (optional) is a cross-call
    :class:`~repro.pdms.materialization.FragmentCache` the plan path
    serves fragment tables from.  A bad ``engine`` name or ``plan``
    raises here, at call time, not on first iteration.
    """
    return distinct_rows(
        _answer_batches(
            result, data, uses_oracle(engine), plan, cache, whole=False
        )
    )


def evaluate_reformulation(
    result: ReformulationResult,
    data: Union[FactsLike, Mapping[str, Instance]],
    engine: Optional[str] = None,
    limit: Optional[int] = None,
    plan: Optional[UnionPlan] = None,
    cache: Optional[FragmentCache] = None,
    metrics=None,
) -> FrozenSet[Row]:
    """Evaluate the rewritings of ``result`` over ``data`` (set semantics).

    With ``limit``, evaluation streams: rewritings are evaluated as they
    are produced and it stops as soon as ``limit`` distinct answers are
    known, returning that subset.  Without it the plan path evaluates the
    rule-goal tree as one factored plan.

    ``engine`` names the evaluation path (see :func:`uses_oracle`); both
    return the same answers.  ``metrics`` (optional) is the
    :class:`~repro.obs.metrics.MetricsRegistry` a whole answer counts its
    ``answer.*`` outcome in (see :func:`~repro.pdms.evaluator.plan_answer_batches`).
    """
    oracle = uses_oracle(engine)
    if limit is not None and limit < 0:
        raise EvaluationError(f"limit must be non-negative, got {limit}")
    if limit == 0:
        return frozenset()
    batches = _answer_batches(
        result, data, oracle, plan, cache, whole=limit is None, metrics=metrics
    )
    return union_rows(batches, limit)


def evaluate_rewritings(
    result: ReformulationResult,
    data: Union[FactsLike, Mapping[str, Instance]],
    limit: Optional[int] = None,
) -> FrozenSet[Row]:
    """The oracle: the union of :func:`~repro.datalog.evaluation.evaluate_query`
    over ``result.rewritings()``, stopping at ``limit`` distinct rows."""
    return evaluate_reformulation(result, data, engine="backtracking", limit=limit)


def answer_query(
    pdms: PDMS,
    query: ConjunctiveQuery,
    data: Union[FactsLike, Mapping[str, Instance]],
    config: Optional[ReformulationConfig] = None,
    engine: Optional[str] = None,
    limit: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
) -> FrozenSet[Row]:
    """Reformulate ``query`` and evaluate it over stored-relation data.

    ``data`` is either a single fact source over stored relations, or a
    mapping from peer name to that peer's :class:`Instance` (in which case
    probes are federated to the live per-peer instances — no copy).
    ``engine``, ``limit``, and ``cache`` are passed through to
    :func:`evaluate_reformulation`.
    """
    data = federate_if_per_peer(data)
    result = reformulate(pdms, query, config=config)
    return evaluate_reformulation(result, data, engine=engine, limit=limit, cache=cache)
