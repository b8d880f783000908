"""The query-answering service layer: cached, incremental, streaming.

The paper's headline scenario (Section 1, Figure 1) is *dynamism*: the
Earthquake Command Center joins the PDMS ad hoc and immediately reaches
every source through transitive mappings.  :class:`QueryService` makes
that scenario cheap to serve repeatedly:

* **Reformulation cache** — :class:`~repro.pdms.reformulation.ReformulationResult`
  objects are cached under a canonicalized query signature
  (:func:`~repro.pdms.reformulation.canonicalize_query`), so repeated and
  structurally isomorphic queries skip rule-goal-tree construction
  entirely and reuse the memoized rewritings.

* **Incremental catalogue churn** — :meth:`add_peer`,
  :meth:`add_peer_mapping`, :meth:`add_storage_description`,
  :meth:`remove_peer`, and :meth:`remove_peer_mapping` delegate to the
  wrapped :class:`~repro.pdms.system.PDMS` (whose normalised catalogue is
  itself maintained incrementally) and then invalidate **only** the cache
  entries whose rule-goal trees are provenance-affected, as judged by
  :meth:`ReformulationProvenance.affected_by
  <repro.pdms.reformulation.ReformulationProvenance.affected_by>` against
  the recorded :class:`~repro.pdms.system.CatalogueChange`.  An unrelated
  peer join evicts nothing.  Direct mutations on the underlying ``PDMS``
  are picked up too: the service replays the PDMS change log before every
  cache access.  Each signature keeps its last few results with the
  catalogue state they were built against (:func:`~repro.pdms.reformulation.dependency_state`).
  A miss on a catalogue that has returned to one of those states — a peer
  that left and came back — revives that result and its compiled plan;
  any other miss rebuilds from the newest one's rule-goal tree and
  recompiles only the plan under the goals that moved
  (``reformulate(previous=...)``, ``docs/reformulation.md``).

* **Streaming first-k answers** — :meth:`answer` with ``limit=k`` threads
  the rewriting generator through :func:`~repro.pdms.execution.stream_answers`,
  so the first *k* answers return without enumerating all rewritings;
  :meth:`answer_batch` shares one federated source and the cache across
  a query mix.  Per-peer data is served through a no-copy
  :class:`~repro.pdms.execution.PeerFactSource`, and compiled union
  plans are cached alongside reformulations under the same invalidation
  signals.

* **Cross-call fragment materialization** — a
  :class:`~repro.pdms.materialization.FragmentCache` (enabled by default,
  sized by ``REPRO_FRAGMENT_CACHE_BYTES``) keeps fragment tables across
  calls under data-version tokens: repeated traffic over unchanged peer
  data skips the joins entirely, a write to one predicate invalidates
  only the fragments that read it, and :meth:`remove_peer` eagerly
  evicts the departed peer's dependents.  ``stats.fragments`` reports
  the hit/miss/admission/eviction counters.

* **Concurrency safety** — every cache structure and counter is guarded
  by one reentrant mutex: reformulation and plan compilation (which
  mutate the shared caches) run inside it, evaluation runs outside, so
  concurrent callers — threads sharing one service, or one
  :class:`~repro.pdms.distributed.cluster.ServiceCluster` — never corrupt
  the LRU order, lose invalidations, or double-count stats.

This module is the substrate later scaling work (remote sources, async
transports, a cluster front end) plugs into; see ``docs/pdms.md`` for the design
notes and invalidation rules, ``docs/materialization.md`` for the
fragment-cache design, and ``docs/distributed.md`` for the peer-boundary
runtime layered on top.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..database.instance import Instance
from ..database.statistics import RelationStats, adopt_statistics, cached_statistics
from ..datalog.evaluation import FactsLike
from ..datalog.queries import ConjunctiveQuery
from ..errors import EvaluationError, PDMSConfigurationError
from ..obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from ..obs.trace import current_span, get_tracer
from .peer import Peer
from .execution import (
    PeerFactSource,
    Row,
    evaluate_reformulation,
    federate_if_per_peer,
    is_per_peer_data,
    stream_answers,
    uses_oracle,
)
from .mappings import StorageDescription
from .materialization import (
    FragmentCache,
    FragmentCacheStats,
    fragment_cache_from_env,
)
from .planning import UnionPlan, ensure_plan
from .reformulation import (
    DEFAULT_CONFIG,
    CanonicalQuery,
    ReformulationConfig,
    ReformulationResult,
    canonicalize_query,
    dependency_state,
    reformulate,
)
from .system import PDMS, AnyPeerMapping, CatalogueChange

#: Results kept per signature: its live one and the last few it replaced.
_KEPT_PER_SIGNATURE = 4


@dataclass
class ServiceStats:
    """Counters describing how the caches behaved so far.

    The flat counters describe the reformulation/plan caches; the
    ``fragments`` member carries the cross-call
    :class:`~repro.pdms.materialization.FragmentCache` counters (shared
    with the live cache object, so it is always current; all zeros when
    fragment caching is disabled).
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    #: Union plans compiled (every answer but the oracle's uses one).
    plans_compiled: int = 0
    #: Plans dropped because their reformulation entry was dropped.
    plan_invalidations: int = 0
    #: Plans by how their whole answers compile, named like the registry's
    #: ``plan.*`` counters: ``factored`` (the rule-goal tree as one root) or
    #: ``enumerated.<reason>`` (the tree compile declined).
    plan_kinds: Dict[str, int] = field(default_factory=dict)
    #: Fragment-cache counters (hits/misses/admissions/evictions/…).
    fragments: FragmentCacheStats = field(default_factory=FragmentCacheStats)

    @property
    def lookups(self) -> int:
        """Total cache lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """A flat snapshot of every counter (status endpoints, examples)."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "plans_compiled": self.plans_compiled,
            "plan_invalidations": self.plan_invalidations,
            "plan_kinds": dict(self.plan_kinds),
            "fragments": self.fragments.as_dict(),
        }


class QueryService:
    """A query-answering front end over one :class:`PDMS`.

    Parameters
    ----------
    pdms:
        The system to serve; created empty when omitted.
    config:
        :class:`ReformulationConfig` (the tree's safety caps) used for
        every cached reformulation.
    engine:
        Default engine name (see :func:`~repro.pdms.execution.uses_oracle`):
        ``None``, ``"columnar"`` and ``"distributed"`` serve answers from
        the factored plan over ``data``, ``"backtracking"`` from the
        per-rewriting oracle, which takes no fragment cache.
    data:
        Stored-relation data: either a single fact source, or a mapping
        from peer name to that peer's :class:`Instance` (kept per peer —
        probes are federated to the live instances without copying, and
        :meth:`remove_peer` also drops the peer's data).
    max_entries:
        Cache capacity; least-recently-used entries are evicted beyond it.
    fragment_cache:
        A prebuilt :class:`~repro.pdms.materialization.FragmentCache` to
        serve cross-call fragment materialization from (e.g. one shared
        by several services over the same data).  An externally supplied
        cache is never cleared or eagerly invalidated by this service
        (other services may hold warm entries in it); version tokens
        alone keep it correct.
    fragment_cache_bytes:
        Byte budget for a service-owned fragment cache; ``0`` disables
        cross-call fragment caching.  When neither parameter is given the
        budget comes from ``REPRO_FRAGMENT_CACHE_BYTES`` (64 MiB default).
    """

    def __init__(
        self,
        pdms: Optional[PDMS] = None,
        config: Optional[ReformulationConfig] = None,
        engine: Optional[str] = None,
        data: Union[FactsLike, Mapping[str, Instance], None] = None,
        max_entries: int = 1024,
        fragment_cache: Optional[FragmentCache] = None,
        fragment_cache_bytes: Optional[int] = None,
    ):
        try:
            uses_oracle(engine)  # an unknown name fails here, not per answer
            self._owns_fragment_cache = fragment_cache is None
            if fragment_cache is not None:
                self._fragments: Optional[FragmentCache] = fragment_cache
            elif fragment_cache_bytes is not None:
                if fragment_cache_bytes < 0:
                    raise EvaluationError(
                        "fragment_cache_bytes must be >= 0 (0 disables caching)"
                    )
                self._fragments = (
                    FragmentCache(max_bytes=fragment_cache_bytes)
                    if fragment_cache_bytes > 0
                    else None
                )
            else:
                self._fragments = fragment_cache_from_env()
        except EvaluationError as exc:
            # Construction-time mistakes are configuration errors.
            raise PDMSConfigurationError(str(exc)) from exc
        if max_entries < 1:
            raise PDMSConfigurationError("max_entries must be at least 1")
        # One reentrant mutex guards every cache structure and counter:
        # the service is safe under concurrent callers (the cluster layer
        # leans on this).  Reformulation and plan compilation happen
        # *inside* the lock — they mutate the shared caches — while
        # evaluation (the long, read-mostly part) runs outside it.
        self._mutex = threading.RLock()
        self._pdms = pdms if pdms is not None else PDMS()
        self._config = config if config is not None else DEFAULT_CONFIG
        self._engine = engine
        self._max_entries = max_entries
        self._cache: "OrderedDict[str, ReformulationResult]" = OrderedDict()
        #: Signature -> its last results, oldest first, each as ``(version,
        #: state, result)``: the dependency state it was built for, checked
        #: by the changes after ``version``.  The newest is the live entry,
        #: or what the next miss revives from or rebuilds from; at most
        #: ``max_entries`` signatures without a live entry are kept (LRU).
        self._kept: "OrderedDict[str, List[tuple]]" = OrderedDict()
        #: Predicate -> the catalogue version that last named it.
        self._named: Dict[str, int] = {}
        #: Compiled union plans, keyed like the reformulation cache and
        #: invalidated by exactly the same provenance/eviction signals.
        self._plans: Dict[str, UnionPlan] = {}
        self._seen_version = self._pdms.catalogue_version
        self._stats = ServiceStats()
        if self._fragments is not None:
            # Alias the live cache's counters so `stats.fragments` is
            # always current without copying.
            self._stats.fragments = self._fragments.stats
        self._peer_data: Dict[str, Instance] = {}
        self._flat_data: Optional[FactsLike] = None
        self._combined: Optional[FactsLike] = None
        #: Statistics of the last retired federated view, for the next one.
        self._carried_stats: Dict[str, RelationStats] = {}
        #: The unified metrics registry: the existing counter objects
        #: register as weakly held pull collectors, the answer path feeds
        #: one push histogram.  :meth:`metrics_snapshot` renders it, a
        #: ``ServiceCluster``'s remote source included.
        self.metrics = MetricsRegistry()
        self.metrics.register_collector("service", self._collect_service_metrics)
        self._answer_latency = self.metrics.histogram("service.answer_seconds")
        #: What the plans' kept whole answers hold (refreshed per snapshot).
        self._held_bytes = self.metrics.gauge("answer.held_bytes")
        if data is not None:
            self.set_data(data)

    # -- introspection -------------------------------------------------------------

    @property
    def pdms(self) -> PDMS:
        """The wrapped PDMS (mutating it directly is fine; the service
        replays its change log before every cache access)."""
        return self._pdms

    @property
    def stats(self) -> ServiceStats:
        """Cache behaviour counters (the **live**, mutating object).

        ``stats.fragments`` aliases the fragment cache's counters, so
        values read here move while the service is answering.
        Before/after comparisons should use :meth:`stats_snapshot`.
        """
        return self._stats

    def stats_snapshot(self) -> ServiceStats:
        """An independent copy of every counter, frozen at this moment.

        Unlike :attr:`stats`, nothing in the returned object aliases live
        state: ``fragments`` is copied, so two snapshots taken around an
        operation diff cleanly.
        """
        with self._mutex:
            s = self._stats
            return ServiceStats(
                hits=s.hits,
                misses=s.misses,
                invalidations=s.invalidations,
                evictions=s.evictions,
                plans_compiled=s.plans_compiled,
                plan_invalidations=s.plan_invalidations,
                plan_kinds=dict(s.plan_kinds),
                fragments=replace(s.fragments),
            )

    def _collect_service_metrics(self) -> Dict[str, object]:
        """Pull collector feeding the registry the cache counters; it also
        refreshes the ``answer.held_bytes`` gauge."""
        with self._mutex:
            # Every live result is kept too: each plan counts once.
            plans = {state[2]._shared_plan for states in self._kept.values() for state in states}
        self._held_bytes.set(sum(plan.held_bytes for plan in plans if plan is not None))
        return self.stats_snapshot().as_dict()

    def metrics_snapshot(self) -> Dict[str, object]:
        """Everything the unified registry knows, frozen at this moment.

        Combines the push-side instruments (the answer-latency histogram)
        with every registered pull collector — cache counters, and on a
        distributed deployment the scatter/latency/transport snapshots
        the cluster binds in (see
        :meth:`~repro.pdms.distributed.source.RemotePeerFactSource.bind_metrics`).
        """
        return self.metrics.snapshot()

    @property
    def catalogue_version(self) -> int:
        """The underlying PDMS's catalogue version."""
        return self._pdms.catalogue_version

    @property
    def cache_size(self) -> int:
        """Number of currently cached reformulations."""
        return len(self._cache)

    @property
    def plan_cache_size(self) -> int:
        """Number of currently cached compiled union plans."""
        return len(self._plans)

    @property
    def fragment_cache(self) -> Optional[FragmentCache]:
        """The cross-call fragment cache (``None`` when disabled)."""
        return self._fragments

    def cached_signatures(self) -> Tuple[str, ...]:
        """Signatures currently in the cache (LRU order, oldest first)."""
        with self._mutex:
            return tuple(self._cache)

    # -- data management -----------------------------------------------------------

    def set_data(self, data: Union[FactsLike, Mapping[str, Instance]]) -> None:
        """Replace the stored-relation data the service answers over."""
        with self._mutex:
            self._peer_data = {}
            self._flat_data = None
            if is_per_peer_data(data):
                self._peer_data = dict(data)  # type: ignore[arg-type]
            else:
                self._flat_data = data  # type: ignore[assignment]
            self._combined = None
            self._carried_stats = {}

    def set_peer_data(self, peer_name: str, instance: Instance) -> None:
        """Attach (or replace) one peer's stored-relation instance."""
        with self._mutex:
            if self._flat_data is not None:
                raise PDMSConfigurationError(
                    "service holds a flat fact source; per-peer data is unavailable"
                )
            self._peer_data[peer_name] = instance
            self._retire_combined()

    def _retire_combined(self) -> None:
        """Drop the federated view after the peer-data set changed.

        Answers in flight keep the view they started with.  Its relation
        statistics carry over to the next view as plain values (no
        reference to the old view or a departed peer's instance): they are
        revalidated there by the federated data version, the owning
        instance's token, so only relations a peer brought or took are
        rescanned.
        """
        if self._combined is not None:
            self._carried_stats = cached_statistics(self._combined)
            self._combined = None

    def _data(self, override: Union[FactsLike, Mapping[str, Instance], None]) -> FactsLike:
        if override is not None:
            return federate_if_per_peer(override)
        with self._mutex:
            if self._flat_data is not None:
                return self._flat_data
            if self._combined is None:
                # No copy: probes route to the live per-peer instances.  The
                # federated view is rebuilt whenever the peer-data set changes.
                self._combined = PeerFactSource(self._peer_data)
                adopt_statistics(self._combined, self._carried_stats)
                self._carried_stats = {}
            return self._combined

    # -- catalogue churn -----------------------------------------------------------

    def add_peer(self, peer: Union[Peer, str], data: Optional[Instance] = None) -> Peer:
        """Register a peer joining the system, optionally with its data."""
        with self._mutex:
            if data is not None and self._flat_data is not None:
                # Validate before touching the PDMS so a rejected call leaves
                # the system unchanged (and retryable).
                raise PDMSConfigurationError(
                    "service holds a flat fact source; per-peer data is unavailable"
                )
            added = self._pdms.add_peer(peer)
            if data is not None:
                self.set_peer_data(added.name, data)
            self._sync()
            return added

    def add_peer_mapping(self, mapping: AnyPeerMapping) -> AnyPeerMapping:
        """Register a peer mapping; invalidates only provenance-affected entries."""
        with self._mutex:
            added = self._pdms.add_peer_mapping(mapping)
            self._sync()
            return added

    def add_storage_description(self, description: StorageDescription) -> StorageDescription:
        """Register a storage description; invalidates only affected entries."""
        with self._mutex:
            added = self._pdms.add_storage_description(description)
            self._sync()
            return added

    def remove_peer(self, peer_name: str) -> CatalogueChange:
        """Remove a peer, its descriptions, and its per-peer data.

        Fragments whose tables read the departed peer's stored relations
        are evicted eagerly — the version tokens would stop them being
        *served* anyway (the owner is gone), but reclaiming the bytes
        now keeps the budget for fragments that can still hit.
        """
        with self._mutex:
            change = self._pdms.remove_peer(peer_name)
            departed = self._peer_data.pop(peer_name, None)
            if departed is not None:
                self._retire_combined()
                if self._fragments is not None and self._owns_fragment_cache:
                    # A shared external cache may hold other services' valid
                    # entries for identically named relations; leave those to
                    # version-token staleness and the LRU.
                    self._fragments.invalidate_relations(departed.relations())
            self._sync()
            return change

    def remove_peer_mapping(self, name: str) -> CatalogueChange:
        """Remove the peer mapping called ``name``."""
        with self._mutex:
            change = self._pdms.remove_peer_mapping(name)
            self._sync()
            return change

    def _drop_plan(self, signature: str) -> None:
        if self._plans.pop(signature, None) is not None:
            self._stats.plan_invalidations += 1

    def _sync(self) -> None:
        """Replay PDMS catalogue changes and evict affected cache entries.

        Compiled union plans are keyed like the reformulation cache and
        ride the same provenance signal: whenever an entry goes, its plan
        goes with it.
        """
        with self._mutex:
            self._sync_locked()

    def _sync_locked(self) -> None:
        if self._seen_version == self._pdms.catalogue_version:
            return
        for change in self._pdms.changes_since(self._seen_version):
            if change.full:
                # The bounded change log no longer covers our cursor;
                # selective invalidation is impossible.
                self._stats.invalidations += len(self._cache)
                self._stats.plan_invalidations += len(self._plans)
                self._cache.clear()
                self._kept.clear()
                self._named.clear()
                self._plans.clear()
                if self._fragments is not None and self._owns_fragment_cache:
                    self._fragments.invalidate_all()
                break
            if not (change.affected_predicates or change.removed_origins):
                continue
            self._named.update(dict.fromkeys(change.affected_predicates, change.version))
            if (
                self._fragments is not None
                and self._owns_fragment_cache
                and change.affected_predicates
            ):
                # Fragment tables read *stored* relations; a catalogue
                # change naming one (replication-style descriptions do)
                # evicts the dependent entries.  Peer-relation predicates
                # simply never intersect, making this a cheap no-op.
                self._fragments.invalidate_relations(change.affected_predicates)
            stale = [
                signature
                for signature, result in self._cache.items()
                if result.provenance.affected_by(
                    change.affected_predicates, change.removed_origins
                )
            ]
            for signature in stale:
                del self._cache[signature]
                self._drop_plan(signature)
            self._stats.invalidations += len(stale)
        self._seen_version = self._pdms.catalogue_version
        excess = len(self._kept) - len(self._cache) - self._max_entries
        if excess > 0:
            for signature in [s for s in self._kept if s not in self._cache][:excess]:
                del self._kept[signature]

    # -- the reformulation cache -----------------------------------------------------

    def reformulate(self, query: ConjunctiveQuery) -> ReformulationResult:
        """The (cached) reformulation serving ``query``.

        The returned result is built for the *canonical* form of the
        query: variables are positionally renamed and the head predicate
        is ``__q__``, but head argument positions — and therefore answer
        rows — match the original query exactly.
        """
        return self._lookup(canonicalize_query(query))[1]

    def _lookup(self, canonical: CanonicalQuery) -> Tuple[str, ReformulationResult]:
        with self._mutex:
            self._sync_locked()
            result = self._cache.get(canonical.signature)
            if result is not None:
                self._stats.hits += 1
                current_span().set("reformulation", "hit")
                self._cache.move_to_end(canonical.signature)
                return canonical.signature, result
            self._stats.misses += 1
            kept = self._kept.setdefault(canonical.signature, [])
            self._kept.move_to_end(canonical.signature)
            with current_span().child("query.reformulate") as span:
                result = self._revive(kept)
                if result is not None:
                    how = "revived"
                else:
                    previous = kept[-1][2] if kept else None
                    how = None if previous is None else "replayed"
                    result = reformulate(
                        self._pdms, canonical.query, config=self._config, previous=previous
                    )
                    state = dependency_state(
                        self._pdms.catalogue(), result.provenance.dependencies
                    )
                    kept.append((result.catalogue_version, state, result))
                    del kept[:-_KEPT_PER_SIGNATURE]
                if how is not None:
                    span.set(how, True)
                    self.metrics.counter(f"reformulation.{how}").inc()
            current_span().set("reformulation", "revived" if how == "revived" else "miss")
            # No eager materialisation: a cold `limit=k` call consumes only a
            # prefix of the rewriting enumeration, and the result memoizes
            # whatever it produced so future hits continue where it stopped.
            self._cache[canonical.signature] = result
            while len(self._cache) > self._max_entries:
                evicted, _ = self._cache.popitem(last=False)
                self._drop_plan(evicted)
                self._kept.pop(evicted, None)
                self._stats.evictions += 1
            return canonical.signature, result

    def _revive(self, kept: List[tuple]) -> Optional[ReformulationResult]:
        """The newest of a signature's ``kept`` results built for the
        current catalogue, made its newest; ``None`` when there is none.

        A kept state is compared only on the dependencies some change
        named since it was checked.  The revived result's plan takes the
        outgoing plan's kept answers, as a plan rebuilt from it would."""
        catalogue, named = self._pdms.catalogue(), self._named
        for index in range(len(kept) - 1, -1, -1):
            version, state, result = kept[index]
            now = dependency_state(
                catalogue, [p for p in state.keys() & named.keys() if named[p] > version]
            )
            if all(state[p] == value for p, value in now.items()):
                state.update(now)  # equal: the next check starts by identity
                break
        else:
            return None
        outgoing, plan = kept[-1][2]._shared_plan, result._shared_plan
        if plan is not None and outgoing not in (None, plan) and outgoing._answer is not None:
            plan._answer, plan._base = outgoing._answer, outgoing._base
            outgoing._answer = outgoing._base = None
        del kept[index]
        kept.append((self._pdms.catalogue_version, state, result))
        return result

    def _plan_for(
        self, signature: str, result: ReformulationResult, source: FactsLike, whole: bool
    ) -> UnionPlan:
        """The compiled union plan for a cached reformulation entry.

        Cached under the entry's signature; a stale plan (whose result was
        invalidated and re-reformulated) is replaced by the new result's:
        a revived result brings its compiled plan, any other is compiled
        (``plans_compiled``).  The enumerated compile is lazy — it tracks
        the rewriting stream — but a ``whole`` answer's factored root is
        compiled here, inside ``plan.compile``.
        """
        with self._mutex:
            plan = self._plans.get(signature)
            if plan is None or plan.result is not result:
                plan = result._shared_plan  # a revived result brings its own
                if plan is None:
                    plan = ensure_plan(result, source)
                    self._stats.plans_compiled += 1
                self._plans[signature] = plan
            if whole:
                self._compile_factored(plan)
            return plan

    def _compile_factored(self, plan: UnionPlan) -> None:
        """Compile ``plan``'s factored root (first whole answer only) and
        count the outcome.  Called under the service mutex."""
        stats, kinds = plan.stats, self._stats.plan_kinds
        if stats.factored or stats.declined is not None:
            return
        with current_span().child("plan.compile") as span:
            plan.factored_root()
            span.set("tree_nodes", stats.tree_nodes)
            span.set("factored", stats.declined or stats.factored)
        kind = "factored" if stats.declined is None else f"enumerated.{stats.declined}"
        kinds[kind] = kinds.get(kind, 0) + 1
        self.metrics.counter(f"plan.{kind}").inc()
        self.metrics.counter("plan.tree_nodes").inc(stats.tree_nodes)

    def clear_cache(self) -> None:
        """Drop every cached reformulation, plan, and fragment table
        (counters are preserved).

        An externally supplied fragment cache is left alone — other
        services may be serving warm entries from it; clear it directly
        if that is really wanted."""
        with self._mutex:
            self._cache.clear()
            self._kept.clear()
            self._named.clear()
            self._plans.clear()
            if self._fragments is not None and self._owns_fragment_cache:
                self._fragments.clear()

    # -- answering -------------------------------------------------------------------

    def answer(
        self,
        query: ConjunctiveQuery,
        limit: Optional[int] = None,
        engine: Optional[str] = None,
        data: Union[FactsLike, Mapping[str, Instance], None] = None,
    ) -> FrozenSet[Row]:
        """Answer ``query`` over the service's data (set semantics).

        With ``limit=k`` the evaluation streams: rewritings are pulled
        from the (cached) reformulation one at a time and evaluation
        stops once ``k`` distinct answers are known — a subset of the
        full answer set.  The plan path reuses the compiled union plan
        cached alongside the reformulation, and a whole answer the plan's
        kept answer: the same ``frozenset`` while the root fragment is a
        cache hit, maintained by the changed rows otherwise (the
        ``plan.execute`` span's ``answer`` / ``answer.delta_rows``, the
        registry's ``answer.*`` counters).
        """
        parent = current_span()
        span = (
            parent.child("query.answer")
            if parent.recording
            else get_tracer().start_trace("query.answer")
        )
        started = time.perf_counter()
        try:
            with span:
                engine, source, result, plan, cache = self._prepare(
                    query, engine, data, whole=limit is None
                )
                path = "plan" if plan is not None else "backtracking"
                if span.recording:
                    span.set("engine", path)
                    if limit is not None:
                        span.set("limit", limit)
                with span.child("plan.execute", engine=path):
                    rows = evaluate_reformulation(
                        result,
                        source,
                        engine=engine,
                        limit=limit,
                        plan=plan,
                        cache=cache,
                        metrics=self.metrics,
                    )
                if span.recording:
                    span.set("rows", len(rows))
                return rows
        finally:
            self._answer_latency.observe(time.perf_counter() - started)

    def _prepare(
        self,
        query: ConjunctiveQuery,
        engine: Optional[str],
        data: Union[FactsLike, Mapping[str, Instance], None],
        whole: bool = False,
    ):
        """Resolve engine/data/reformulation/plan/cache for one call.

        The oracle (``"backtracking"``) gets no plan and no fragment cache;
        every other accepted name gets a plan, and the cache whenever the
        call answers over the service's own data.

        Runs entirely under the service mutex so concurrent callers see a
        consistent (source, reformulation, plan) triple; the evaluation
        itself happens outside the lock.  ``whole`` says the call is a
        whole answer (no ``limit``): its factored root is compiled here.
        Returns ``(engine, source, result, plan, cache)``.
        """
        engine = engine if engine is not None else self._engine
        oracle = uses_oracle(engine)
        with self._mutex:
            source = self._data(data)
            signature, result = self._lookup(canonicalize_query(query))
            # The fragment cache holds one entry per fragment key, keyed to
            # the service's own data by version token.  A one-off data
            # override would churn those warm entries (admit under its own
            # tokens, evicting same-key entries), so overrides bypass the
            # cache; the identity checks keep answer_batch's pre-resolved
            # shared source on the cached path.
            own_data = not oracle and (
                data is None or source is self._flat_data or source is self._combined
            )
            cache = self._fragments if own_data else None
            plan = None if oracle else self._plan_for(signature, result, source, whole)
            return engine, source, result, plan, cache

    def stream(
        self,
        query: ConjunctiveQuery,
        engine: Optional[str] = None,
        data: Union[FactsLike, Mapping[str, Instance], None] = None,
    ) -> Iterator[Row]:
        """Yield distinct answers to ``query`` as rewritings evaluate.

        The iterator is a *snapshot*: it keeps evaluating the
        reformulation that was cached when it was created, even if the
        catalogue changes (and the cache entry is evicted) while it is
        being consumed.  Callers who need post-churn answers should call
        :meth:`answer` (or :meth:`stream` again) after the change.
        """
        engine, source, result, plan, cache = self._prepare(query, engine, data)
        return stream_answers(result, source, engine=engine, plan=plan, cache=cache)

    def answer_batch(
        self,
        queries: Sequence[ConjunctiveQuery],
        limit: Optional[int] = None,
        engine: Optional[str] = None,
        data: Union[FactsLike, Mapping[str, Instance], None] = None,
    ) -> List[FrozenSet[Row]]:
        """Answer a query mix over one shared federated source and cache.

        The data source is resolved once for the whole batch and every
        query goes through the reformulation cache, so repeated or
        isomorphic queries in the mix are reformulated once.
        """
        shared = self._data(data)
        return [
            self.answer(query, limit=limit, engine=engine, data=shared)
            for query in queries
        ]

    def warm(self, queries: Sequence[ConjunctiveQuery]) -> int:
        """Pre-populate the cache for a query mix; returns the miss count."""
        before = self._stats.misses
        for query in queries:
            self.reformulate(query)
        return self._stats.misses - before

    def __repr__(self) -> str:
        return (
            f"QueryService({self._pdms.name!r}: {len(self._cache)} cached, "
            f"v{self._pdms.catalogue_version}, "
            f"{self._stats.hits}h/{self._stats.misses}m)"
        )
