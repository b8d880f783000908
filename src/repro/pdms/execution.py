"""Execution of reformulated queries over the peers' stored relations.

The paper leaves execution to an external (adaptive) query processor; this
module provides three interchangeable engines behind a small registry:

* ``"backtracking"`` — each rewriting through the direct indexed-join
  conjunctive-query evaluator (the independent oracle the others are
  checked against);
* ``"columnar"`` — the whole union compiled into one shared union-plan DAG
  (:mod:`repro.pdms.planning`): a whole answer evaluates the rule-goal
  tree as one factored root, hash-consed fragments are computed once, on
  the :mod:`repro.database.columnar` batch kernels, in the caller's
  thread;
* ``"distributed"`` — the same plan evaluation with every stored-relation
  scan scatter-gathered over a peer-boundary transport
  (:mod:`repro.pdms.distributed`), degrading to best-effort sound-subset
  answers when peers fail.  Registered on import of
  :mod:`repro.pdms.distributed.engine` (the ``repro.pdms`` package does
  this), not here, to keep the dependency arrow pointing one way.

Execution is *streaming*: rewritings are pulled from the reformulation
generator one at a time and evaluated as they arrive, so the first answers
surface before Step 3 finishes enumerating (the paper's Figure 4 measures
exactly this time-to-first-answer shape).  ``limit`` cuts the enumeration
short once enough distinct answers are known.

Per-peer data is served **federated**: a :class:`PeerFactSource` routes
index probes to the owning peer's live
:class:`~repro.database.instance.Instance` instead of eagerly copying
every row into a combined instance (:func:`combine_peer_instances` remains
available for callers that genuinely want a merged copy).
"""

from __future__ import annotations

import os
import threading
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..database.columnar import ColumnTable, union_blocks
from ..database.feedback import QErrorLog
from ..database.instance import Instance, relation_creation_clock
from ..datalog.evaluation import FactsLike, evaluate_query
from ..datalog.indexing import Pattern
from ..datalog.queries import ConjunctiveQuery
from ..errors import EvaluationError, MappingError
from .materialization import FragmentCache, data_version_token
from .optimizations import ReformulationConfig
from .planning import (
    UnionPlan,
    distinct_rows,
    ensure_plan,
    plan_answer_batches,
    union_rows,
)
from .reformulation import (
    ReformulationResult,
    canonicalize_query,
    reformulate,
)
from .system import PDMS

Row = Tuple[object, ...]


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------

class ExecutionEngine(Protocol):
    """An execution strategy for a reformulated union of rewritings.

    ``batches`` yields one *batch* of answer rows per rewriting as the
    enumeration progresses (rows may repeat within and across batches);
    consuming only a prefix must not force the full rewriting enumeration.
    Whole-answer callers union the batches and say so (``whole=True``: the
    plan engines then evaluate one factored root instead of enumerating);
    ``stream`` is the thin row view over the lazy batches, so first-k
    consumers stay lazy.  Engines that consume
    compiled union plans set ``uses_plans`` so callers holding a plan
    cache (the service layer) can pass one in.  ``cache`` (optional)
    is a cross-call :class:`~repro.pdms.materialization.FragmentCache`;
    every engine routes its repeated work through it at whatever
    granularity fits — shared fragment tables for the union-plan engine,
    whole-rewriting answer sets for the per-rewriting engines — and
    ignores it when the data source exposes no data versions.
    ``feedback`` (optional) is a
    :class:`~repro.database.feedback.QErrorLog` recording one
    ``(estimated, actual)`` cardinality observation per unit of work the
    engine freshly evaluates (fragments for plan engines, whole
    rewritings for per-rewriting engines).
    """

    name: str

    def batches(
        self,
        result: ReformulationResult,
        data: FactsLike,
        plan: Optional[UnionPlan] = None,
        cache: Optional[FragmentCache] = None,
        feedback: Optional[QErrorLog] = None,
        whole: bool = False,
    ) -> Iterator[Iterable[Row]]:  # pragma: no cover - protocol
        ...

    def stream(
        self,
        result: ReformulationResult,
        data: FactsLike,
        plan: Optional[UnionPlan] = None,
        cache: Optional[FragmentCache] = None,
        feedback: Optional[QErrorLog] = None,
    ) -> Iterator[Row]:
        """Distinct answer rows, one at a time, as batches are produced."""
        return distinct_rows(self.batches(result, data, plan, cache, feedback))


class PerRewritingEngine(ExecutionEngine):
    """Wraps a per-rewriting evaluator into the engine interface.

    With a fragment cache, each rewriting's full answer set is cached
    under its canonical query signature plus the data-version token of
    the relations it reads — the whole rewriting is treated as one
    coarse fragment, so repeated traffic over unchanged data skips the
    evaluator entirely while a write to any read relation recomputes.
    """

    uses_plans = False

    def __init__(self, name: str, evaluate):
        self.name = name
        self._evaluate = evaluate

    def _rows(
        self,
        rewriting: ConjunctiveQuery,
        data: FactsLike,
        cache: Optional[FragmentCache],
        feedback: Optional[QErrorLog] = None,
    ):
        relations = {atom.predicate for atom in rewriting.relational_body()}
        key = "rewriting::" + canonicalize_query(rewriting).signature

        def evaluate():
            rows = frozenset(self._evaluate(rewriting, data))
            if feedback is not None:
                # Whole-rewriting granularity: no per-fragment estimate
                # exists on this path, so the observation carries the true
                # cardinality only (feeding corrections, not q-error).
                feedback.record(
                    key,
                    relations,
                    data_version_token(data, relations),
                    None,
                    len(rows),
                )
            return rows

        if cache is None:
            return evaluate()
        token = data_version_token(data, relations)
        if token is None:
            return evaluate()
        return cache.get_or_compute(key, token, relations, evaluate)

    def batches(
        self,
        result: ReformulationResult,
        data: FactsLike,
        plan: Optional[UnionPlan] = None,
        cache: Optional[FragmentCache] = None,
        feedback: Optional[QErrorLog] = None,
        whole: bool = False,
    ) -> Iterator[Iterable[Row]]:
        for rewriting in result.rewritings():
            yield self._rows(rewriting, data, cache, feedback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerRewritingEngine({self.name!r})"


class SharedPlanEngine(ExecutionEngine):
    """Evaluates the whole union through one shared union-plan DAG.

    Common sub-conjunctions across rewritings are computed once per call,
    on column batches, in the caller's thread
    (:func:`~repro.pdms.planning.plan_answer_batches`).
    """

    uses_plans = True

    def __init__(self, name: str = "columnar"):
        self.name = name

    def batches(
        self,
        result: ReformulationResult,
        data: FactsLike,
        plan: Optional[UnionPlan] = None,
        cache: Optional[FragmentCache] = None,
        feedback: Optional[QErrorLog] = None,
        whole: bool = False,
    ) -> Iterator[Iterable[Row]]:
        return plan_answer_batches(
            ensure_plan(result, data, plan),
            data,
            cache=cache,
            feedback=feedback,
            whole=whole,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedPlanEngine({self.name!r})"


_ENGINE_REGISTRY: Dict[str, ExecutionEngine] = {}

#: Names of the registered execution engines, in registration order.
#: Rebound by :func:`register_engine`; import the module (not the tuple)
#: if you need to observe late registrations.
ENGINES: Tuple[str, ...] = ()


def register_engine(engine: ExecutionEngine, replace: bool = False) -> ExecutionEngine:
    """Register an execution engine under ``engine.name``.

    Registering a taken name raises unless ``replace`` is set (deployments
    may swap in an instrumented or differently tuned engine).
    """
    global ENGINES
    name = engine.name
    if not name or not isinstance(name, str):
        raise EvaluationError(f"engine name must be a non-empty string, got {name!r}")
    if name in _ENGINE_REGISTRY and not replace:
        raise EvaluationError(
            f"execution engine {name!r} is already registered; "
            f"pass replace=True to override"
        )
    _ENGINE_REGISTRY[name] = engine
    ENGINES = tuple(_ENGINE_REGISTRY)
    return engine


def registered_engines() -> Tuple[str, ...]:
    """Names of all registered execution engines, in registration order."""
    return tuple(_ENGINE_REGISTRY)


def validate_engine(engine: str) -> str:
    """Return ``engine`` if it names a registered execution engine, else raise."""
    if engine not in _ENGINE_REGISTRY:
        raise EvaluationError(
            f"unknown execution engine {engine!r}; "
            f"registered engines: {', '.join(registered_engines())}"
        )
    return engine


def get_engine(engine: str) -> ExecutionEngine:
    """The registered engine object for ``engine`` (validates the name)."""
    return _ENGINE_REGISTRY[validate_engine(engine)]


def default_engine() -> str:
    """The engine used when callers don't pass one explicitly.

    Read from ``REPRO_DEFAULT_ENGINE`` so the whole test suite (and any
    deployment) can be pointed at any registered engine without code
    changes — the CI matrix runs tier-1 under all of them.  A
    misconfigured value fails fast, at the first call, with the same
    dynamically enumerated message :func:`validate_engine` produces.
    """
    engine = os.environ.get("REPRO_DEFAULT_ENGINE", "backtracking")
    try:
        return validate_engine(engine)
    except EvaluationError as exc:
        raise EvaluationError(f"REPRO_DEFAULT_ENGINE is misconfigured: {exc}") from None


# ---------------------------------------------------------------------------
# Stored-relation data: federated per-peer sources and combined instances
# ---------------------------------------------------------------------------

def _check_arity_clashes(instances: Mapping[str, Instance]) -> Dict[str, List[Instance]]:
    """Route stored relations to owners, raising on cross-peer arity clashes."""
    routes: Dict[str, List[Instance]] = {}
    first_seen: Dict[str, Tuple[str, int]] = {}
    for peer_name, instance in instances.items():
        for relation in instance.relations():
            arity = instance.arity(relation)
            if arity is None:
                continue
            earlier = first_seen.get(relation)
            if earlier is None:
                first_seen[relation] = (peer_name, arity)
            elif earlier[1] != arity:
                raise MappingError(
                    f"stored relation {relation!r} has arity {earlier[1]} at peer "
                    f"{earlier[0]!r} but arity {arity} at peer {peer_name!r}"
                )
            routes.setdefault(relation, []).append(instance)
    return routes


class PeerFactSource:
    """A federated, no-copy fact source over per-peer instances.

    Implements the :class:`~repro.datalog.indexing.IndexedFactSource`
    protocol by routing each probe to the *owning* peer's live
    :class:`~repro.database.instance.Instance` — including its maintained
    hash indexes — instead of eagerly merging every row into a combined
    copy the way :func:`combine_peer_instances` does.  Stored-relation
    names are globally unique in a well-formed PDMS; the constructor keeps
    the combined path's eager arity-clash check (a clash raises
    :class:`~repro.errors.MappingError` naming both peers).  In the rare
    case several peers expose the same relation compatibly, probes fan out
    to all owners (set semantics downstream absorbs duplicates, and
    :meth:`scan_block` unions the owners' blocks distinctly).

    Liveness: rows added to an owned instance are visible immediately, and
    the relation-routing table refreshes itself whenever a new relation is
    created on any live instance — detected by comparing one cached
    reading of the process-wide
    :data:`~repro.database.instance.relation_creation_clock` (a single
    attribute access per probe, so the join engine's inner loop pays O(1)
    for change detection).  The view therefore never goes stale in either
    direction, and the arity-clash check re-runs on every refresh exactly
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
        self._routes: Dict[str, Tuple[Instance, ...]] = {}
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
                self._routes = {
                    relation: tuple(owners)
                    for relation, owners in _check_arity_clashes(
                        self._instances
                    ).items()
                }
                self._version_stamp = versions
            self._clock_stamp = clock

    def _route(self, relation: str) -> Tuple[Instance, ...]:
        if relation_creation_clock.read() != self._clock_stamp:
            self._refresh()
        return self._routes.get(relation, ())

    def relations(self) -> Tuple[str, ...]:
        """Stored relations currently reachable through this source."""
        if relation_creation_clock.read() != self._clock_stamp:
            self._refresh()
        return tuple(self._routes)

    def instances(self) -> Dict[str, Instance]:
        """A copy of the peer-name → live-instance mapping behind this view.

        The distributed runtime uses this to lift an in-process federated
        view onto a transport boundary (e.g. wrapping it in a
        :class:`~repro.pdms.distributed.transport.LoopbackTransport`)
        without re-plumbing the callers that built the view.
        """
        return dict(self._instances)

    def owner_count(self, relation: str) -> int:
        """How many peer instances serve ``relation`` (0 if unknown)."""
        return len(self._route(relation))

    def get_tuples(self, predicate: str) -> Iterable[Row]:
        owners = self._route(predicate)
        if not owners:
            return ()
        if len(owners) == 1:
            return owners[0].get_tuples(predicate)
        rows: List[Row] = []
        for owner in owners:
            rows.extend(owner.get_tuples(predicate))
        return rows

    def get_matching(self, predicate: str, pattern: Pattern) -> Iterable[Row]:
        owners = self._route(predicate)
        if not owners:
            return ()
        if len(owners) == 1:
            return owners[0].get_matching(predicate, pattern)
        rows = []
        for owner in owners:
            rows.extend(owner.get_matching(predicate, pattern))
        return rows

    def scan_block(self, predicate: str, pattern: Pattern) -> ColumnTable:
        """The owner's scan block, or the distinct union of the owners'."""
        return union_blocks(
            [owner.scan_block(predicate, pattern) for owner in self._route(predicate)],
            len(pattern),
        )

    def cardinality(self, relation: str) -> int:
        """Total row count across owners (feeds the planner's cost model)."""
        return sum(owner.cardinality(relation) for owner in self._route(relation))

    def data_version(self, relation: str) -> Tuple[Tuple[int, int], ...]:
        """The federated data-version token of ``relation``.

        A sorted tuple of the owning instances' per-relation tokens — it
        changes whenever any owner's rows change *and* whenever the owner
        set itself changes (a peer joining or leaving swaps instances, and
        instance ids are process-unique), so version-keyed caches see peer
        churn as naturally as data writes.  Unknown relations yield the
        empty tuple.
        """
        return tuple(
            sorted(owner.data_version(relation) for owner in self._route(relation))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerFactSource({len(self._routes)} relations)"


def combine_peer_instances(instances: Mapping[str, Instance]) -> Instance:
    """Merge per-peer instances of stored relations into one instance.

    Stored-relation names are globally unique in a well-formed PDMS, so
    merging is a plain union; a clash with different arities raises a
    :class:`MappingError` naming both peers involved.  Query answering no
    longer needs this copy — :class:`PeerFactSource` federates probes to
    the live per-peer instances — but it remains the right tool when a
    materialised merged instance is wanted (e.g. the chase oracle).
    """
    combined = Instance()
    for relation, owners in _check_arity_clashes(instances).items():
        for owner in owners:
            for row in owner.get_tuples(relation):
                combined.add(relation, row)
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


def combine_if_per_peer(
    data: Union[FactsLike, Mapping[str, Instance]]
) -> FactsLike:
    """Collapse per-peer instances into one *copied* instance.

    Kept for callers that want a materialised merge; the query-answering
    entry points use :func:`federate_if_per_peer` instead.
    """
    if is_per_peer_data(data):
        return combine_peer_instances(data)  # type: ignore[arg-type]
    return data  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def stream_answers(
    result: ReformulationResult,
    data: Union[FactsLike, Mapping[str, Instance]],
    engine: Optional[str] = None,
    plan: Optional[UnionPlan] = None,
    cache: Optional[FragmentCache] = None,
    feedback: Optional[QErrorLog] = None,
) -> Iterator[Row]:
    """Yield distinct answer rows as the rewriting enumeration progresses.

    Each conjunctive rewriting is evaluated as soon as Step 3 produces it;
    rows already seen (set semantics) are suppressed.  Consuming only a
    prefix of this iterator therefore never forces the full rewriting
    enumeration — the first-k path of the service layer rides on this.

    ``plan`` (optional) hands a cached compiled union plan to engines that
    consume one; other engines ignore it.  ``cache`` (optional) is a
    cross-call :class:`~repro.pdms.materialization.FragmentCache` every
    engine routes repeated work through.  ``feedback`` (optional) is a
    :class:`~repro.database.feedback.QErrorLog` measuring the engine's
    freshly evaluated work.  A bad ``engine`` name raises here, at call
    time, not on first iteration.
    """
    impl = get_engine(engine if engine is not None else default_engine())
    return impl.stream(
        result, federate_if_per_peer(data), plan=plan, cache=cache, feedback=feedback
    )


def evaluate_reformulation(
    result: ReformulationResult,
    data: Union[FactsLike, Mapping[str, Instance]],
    engine: Optional[str] = None,
    limit: Optional[int] = None,
    plan: Optional[UnionPlan] = None,
    cache: Optional[FragmentCache] = None,
    feedback: Optional[QErrorLog] = None,
) -> Set[Row]:
    """Evaluate the rewritings of ``result`` over ``data`` (set semantics).

    With ``limit``, evaluation streams: rewritings are evaluated as they
    are produced and it stops as soon as ``limit`` distinct answers are
    known, returning that subset.  Without it the batches are merged whole
    and the plan engines evaluate the rule-goal tree as one factored plan.

    ``engine`` selects the evaluation path (see :func:`registered_engines`;
    ``"backtracking"``, ``"columnar"`` and ``"distributed"`` ship by
    default); all engines return the same answers.
    """
    engine = validate_engine(engine if engine is not None else default_engine())
    if limit is not None and limit < 0:
        raise EvaluationError(f"limit must be non-negative, got {limit}")
    if limit == 0:
        return set()
    batches = get_engine(engine).batches(
        result, federate_if_per_peer(data), plan, cache, feedback, whole=limit is None
    )
    return union_rows(batches, limit)


def answer_query(
    pdms: PDMS,
    query: ConjunctiveQuery,
    data: Union[FactsLike, Mapping[str, Instance]],
    config: Optional[ReformulationConfig] = None,
    engine: Optional[str] = None,
    limit: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
) -> Set[Row]:
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


def answer_query_batch(
    pdms: PDMS,
    queries: Sequence[ConjunctiveQuery],
    data: Union[FactsLike, Mapping[str, Instance]],
    config: Optional[ReformulationConfig] = None,
    engine: Optional[str] = None,
    limit: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
) -> List[Set[Row]]:
    """Answer a mix of queries over one shared federated source.

    Per-peer data is wrapped exactly once for the whole batch, and the
    batch shares one cache of canonical query signatures: structurally
    isomorphic queries in the mix (identical up to variable renaming, body
    order, and head name) are reformulated once and re-evaluated from the
    memoized rewritings.  Returns the answer sets in query order.  For a
    cache that persists *across* batches, use
    :class:`repro.pdms.service.QueryService`, which layers provenance
    invalidation on top.
    """
    source = federate_if_per_peer(data)
    results: Dict[str, ReformulationResult] = {}
    answers: List[Set[Row]] = []
    for query in queries:
        canonical = canonicalize_query(query)
        result = results.get(canonical.signature)
        if result is None:
            result = reformulate(pdms, canonical.query, config=config)
            results[canonical.signature] = result
        answers.append(
            evaluate_reformulation(
                result, source, engine=engine, limit=limit, cache=cache
            )
        )
    return answers


# ---------------------------------------------------------------------------
# Default engines
# ---------------------------------------------------------------------------

register_engine(PerRewritingEngine("backtracking", evaluate_query))
# The one plan engine; ``benchmarks/e2e`` and the CI matrix select it by name.
register_engine(SharedPlanEngine("columnar"))
