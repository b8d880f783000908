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
  cache access.  An invalidated entry is kept as the seed of its
  signature's next miss, which rebuilds it from the stale rule-goal tree
  and recompiles only the plan under the goals that moved
  (``reformulate(previous=...)``, ``docs/reformulation.md``).

* **Streaming first-k answers** — :meth:`answer` with ``limit=k`` threads
  the rewriting generator through :func:`~repro.pdms.execution.stream_answers`,
  so the first *k* answers return without enumerating all rewritings;
  :meth:`answer_batch` shares one federated source and the cache across
  a query mix.  Per-peer data is served through a no-copy
  :class:`~repro.pdms.execution.PeerFactSource`, and compiled union
  plans for the ``"shared"`` engine are cached alongside reformulations
  under the same invalidation signals.

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
  concurrent callers — e.g. through a
  :class:`~repro.pdms.distributed.cluster.ServiceCluster` — never corrupt
  the LRU order, lose invalidations, or double-count stats.

This module is the substrate later scaling work (sharding, async,
multi-backend execution) plugs into; see ``docs/pdms.md`` for the design
notes and invalidation rules, ``docs/materialization.md`` for the
fragment-cache design, and ``docs/distributed.md`` for the peer-boundary
runtime layered on top.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..config import adaptive_enabled, cache_tier_enabled
from ..config import race_margin as race_margin_from_env
from ..database.feedback import AdaptiveStats, QErrorLog
from ..database.instance import Instance
from ..database.planner import CardinalityCostModel
from ..database.statistics import RelationStats, adopt_statistics, cached_statistics
from ..datalog.evaluation import FactsLike
from ..datalog.queries import ConjunctiveQuery
from ..errors import EvaluationError, PDMSConfigurationError
from ..obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from ..obs.trace import current_span, get_tracer
from .optimizations import DEFAULT_CONFIG, ReformulationConfig
from .peer import Peer
from .execution import (
    PeerFactSource,
    Row,
    validate_engine,
    default_engine,
    evaluate_reformulation,
    federate_if_per_peer,
    get_engine,
    is_per_peer_data,
    stream_answers,
)
from .mappings import StorageDescription
from .materialization import (
    FragmentCache,
    FragmentCacheStats,
    fragment_cache_from_env,
)
from .planning import UnionPlan, ensure_plan
from .reformulation import (
    CanonicalQuery,
    ReformulationResult,
    canonicalize_query,
    reformulate,
)
from .system import PDMS, AnyPeerMapping, CatalogueChange


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
    #: Union plans compiled for plan-consuming engines (e.g. ``"shared"``).
    plans_compiled: int = 0
    #: Plans dropped because their reformulation entry was dropped.
    plan_invalidations: int = 0
    #: Plans by how their whole answers compile, named like the registry's
    #: ``plan.*`` counters: ``factored`` (the rule-goal tree as one root) or
    #: ``enumerated.<reason>`` (the tree compile declined).
    plan_kinds: Dict[str, int] = field(default_factory=dict)
    #: Fragment-cache counters (hits/misses/admissions/evictions/…).
    fragments: FragmentCacheStats = field(default_factory=FragmentCacheStats)
    #: Self-tuning loop counters (q-error percentiles, corrections, races,
    #: re-plans; all zeros when ``REPRO_ADAPTIVE`` is off).
    adaptive: AdaptiveStats = field(default_factory=AdaptiveStats)

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
            "adaptive": self.adaptive.as_dict(),
        }


#: Champion/challenger races a cached plan may run per adopted champion —
#: racing doubles the evaluation work, so it has to be bounded.
_RACE_BUDGET = 3


@dataclass
class _AdaptiveState:
    """Per-signature adaptive planning state (guarded by the service mutex)."""

    #: The incumbent plan live traffic is served with.
    plan: UnionPlan
    #: Feedback-log generation the champion was last (re)validated at.
    generation: int
    #: Remaining championship races for this champion.
    races_left: int = _RACE_BUDGET


class QueryService:
    """A query-answering front end over one :class:`PDMS`.

    Parameters
    ----------
    pdms:
        The system to serve; created empty when omitted.
    config:
        :class:`ReformulationConfig` used for every cached reformulation.
        One service instance serves one configuration — callers comparing
        ablations should run one service per configuration.
    engine:
        Default execution engine — any registered name
        (``"backtracking"``, ``"plan"``, or ``"shared"`` by default).
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
    adaptive:
        Whether the self-tuning loop runs (``None`` follows
        ``REPRO_ADAPTIVE``, off by default): fragment evaluations over
        the service's own data are measured into a
        :class:`~repro.database.feedback.QErrorLog`, estimation errors
        become version-scoped cardinality corrections, and plans are
        recompiled and raced champion/challenger as corrections
        accumulate.  See ``docs/adaptivity.md``.
    race_margin:
        Cost ratio within which a challenger plan is raced against the
        champion (``None`` follows ``REPRO_RACE_MARGIN``, default 2.0;
        must be >= 1.0).
    feedback:
        A prebuilt :class:`~repro.database.feedback.QErrorLog` to record
        into (e.g. one shared across services, or a measurement-only log
        with ``adaptive`` left off).  With ``adaptive`` on and no log
        given, the service creates its own.
    cache_tier:
        A :class:`~repro.pdms.distributed.cache_tier.CacheTierClient` the
        service-owned fragment cache consults between its local LRU and a
        fresh compute (``None`` follows ``REPRO_CACHE_TIER``: when that
        knob is on, the process-global tier is attached).  Ignored when
        ``fragment_cache`` is supplied externally — wiring a shared cache
        to a shared tier is its owner's decision.  See
        ``docs/sharding.md``.
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
        adaptive: Optional[bool] = None,
        race_margin: Optional[float] = None,
        feedback: Optional[QErrorLog] = None,
        cache_tier: Optional[object] = None,
    ):
        try:
            engine = validate_engine(engine if engine is not None else default_engine())
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
            if self._fragments is not None and self._owns_fragment_cache:
                # Only service-owned caches get the shared tier attached:
                # an externally supplied cache is the caller's to wire up.
                tier = cache_tier
                if tier is None and cache_tier_enabled():
                    from .distributed.cache_tier import default_cache_tier

                    tier = default_cache_tier()
                if tier is not None:
                    self._fragments.attach_tier(tier)
            self._adaptive = adaptive if adaptive is not None else adaptive_enabled()
            margin = race_margin if race_margin is not None else race_margin_from_env()
            if margin < 1.0:
                raise EvaluationError(
                    f"race_margin must be >= 1.0, got {margin}"
                )
            self._race_margin = float(margin)
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
        #: Invalidated entries, kept (LRU, at most ``max_entries``) as what
        #: the next miss on their signature rebuilds from instead of from
        #: nothing (see ``reformulate(previous=...)``).
        self._stale: "OrderedDict[str, ReformulationResult]" = OrderedDict()
        #: Compiled union plans, keyed like the reformulation cache and
        #: invalidated by exactly the same provenance/eviction signals.
        self._plans: Dict[str, UnionPlan] = {}
        self._seen_version = self._pdms.catalogue_version
        self._stats = ServiceStats()
        if self._fragments is not None:
            # Alias the live cache's counters so `stats.fragments` is
            # always current without copying.
            self._stats.fragments = self._fragments.stats
        self._feedback = (
            feedback
            if feedback is not None
            else (QErrorLog() if self._adaptive else None)
        )
        if self._feedback is not None:
            # Same aliasing treatment for the feedback counters.
            self._stats.adaptive = self._feedback.stats
        #: Per-signature champion plans (adaptive mode only), invalidated
        #: together with the plan cache.
        self._champions: Dict[str, _AdaptiveState] = {}
        self._peer_data: Dict[str, Instance] = {}
        self._flat_data: Optional[FactsLike] = None
        self._combined: Optional[FactsLike] = None
        #: Statistics of the last retired federated view, for the next one.
        self._carried_stats: Dict[str, RelationStats] = {}
        #: The unified metrics registry: the existing counter objects
        #: register as weakly held pull collectors, the answer path feeds
        #: one push histogram.  :meth:`metrics_snapshot` renders it;
        #: ``ServiceCluster.describe()["metrics"]`` surfaces it.
        self.metrics = MetricsRegistry()
        self.metrics.register_collector("service", self._collect_service_metrics)
        self._answer_latency = self.metrics.histogram("service.answer_seconds")
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

        ``stats.fragments`` and ``stats.adaptive`` alias the underlying
        caches' counters, so values read here move while the service is
        answering.  Before/after comparisons should use
        :meth:`stats_snapshot`.
        """
        return self._stats

    def stats_snapshot(self) -> ServiceStats:
        """An independent copy of every counter, frozen at this moment.

        Unlike :attr:`stats`, nothing in the returned object aliases live
        state: ``fragments`` and ``adaptive`` are copied, so two snapshots
        taken around an operation diff cleanly.  q-error percentiles are
        refreshed from the feedback log's sample reservoir first.
        """
        with self._mutex:
            if self._feedback is not None:
                self._feedback.refresh_percentiles()
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
                adaptive=s.adaptive.snapshot(),
            )

    def _collect_service_metrics(self) -> Dict[str, object]:
        """Pull collector feeding the registry the cache counters."""
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
    def feedback(self) -> Optional[QErrorLog]:
        """The estimation-feedback log (``None`` unless adaptive or supplied)."""
        return self._feedback

    @property
    def adaptive(self) -> bool:
        """Whether the self-tuning loop is on for this service."""
        return self._adaptive

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
        """Number of currently cached compiled union plans.

        Adaptive services keep their plans as champions (one per query
        signature, possibly racing challengers); static plans and
        champions never coexist for one signature, so the sum counts
        each cached query once."""
        return len(self._plans) + len(self._champions)

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
        revalidated there by the federated data version, which includes
        the owner set, so only relations a peer brought or took are
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
        *served* anyway (the owner set changed), but reclaiming the bytes
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
                if self._feedback is not None:
                    # Cardinality corrections over the departed peer's
                    # relations would be token-rejected anyway; drop them
                    # eagerly like the fragment entries above.
                    self._feedback.invalidate_relations(departed.relations())
            self._sync()
            return change

    def remove_peer_mapping(self, name: str) -> CatalogueChange:
        """Remove the peer mapping called ``name``."""
        with self._mutex:
            change = self._pdms.remove_peer_mapping(name)
            self._sync()
            return change

    def _drop_plan(self, signature: str) -> None:
        champion = self._champions.pop(signature, None)
        if self._plans.pop(signature, None) is not None or champion is not None:
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
                self._stale.clear()
                self._plans.clear()
                self._champions.clear()
                if self._fragments is not None and self._owns_fragment_cache:
                    self._fragments.clear()
                break
            if not (change.affected_predicates or change.removed_origins):
                continue
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
            if self._feedback is not None and change.affected_predicates:
                self._feedback.invalidate_relations(change.affected_predicates)
            stale = [
                signature
                for signature, result in self._cache.items()
                if result.provenance.affected_by(
                    change.affected_predicates, change.removed_origins
                )
            ]
            for signature in stale:
                self._stale[signature] = self._cache.pop(signature)
                self._drop_plan(signature)
            while len(self._stale) > self._max_entries:
                self._stale.popitem(last=False)
            self._stats.invalidations += len(stale)
        self._seen_version = self._pdms.catalogue_version

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
            current_span().set("reformulation", "miss")
            previous = self._stale.pop(canonical.signature, None)
            attrs = {}
            if previous is not None:
                attrs["replayed"] = True
                self.metrics.counter("reformulation.replayed").inc()
            with current_span().child("query.reformulate", **attrs):
                result = reformulate(
                    self._pdms, canonical.query, config=self._config, previous=previous
                )
            # No eager materialisation: a cold `limit=k` call consumes only a
            # prefix of the rewriting enumeration, and the result memoizes
            # whatever it produced so future hits continue where it stopped.
            self._cache[canonical.signature] = result
            while len(self._cache) > self._max_entries:
                evicted, _ = self._cache.popitem(last=False)
                self._drop_plan(evicted)
                self._stats.evictions += 1
            return canonical.signature, result

    def _plan_for(
        self, signature: str, result: ReformulationResult, source: FactsLike, whole: bool
    ) -> UnionPlan:
        """The compiled union plan for a cached reformulation entry.

        Cached under the entry's signature; a stale plan (whose result was
        invalidated and re-reformulated) is recompiled.  The enumerated
        compile is lazy — it tracks the rewriting stream — but a ``whole``
        answer's factored root is compiled here, inside ``plan.compile``.
        """
        with self._mutex:
            plan = self._plans.get(signature)
            if plan is None or plan.result is not result:
                plan = self._plans[signature] = ensure_plan(result, source)
                self._stats.plans_compiled += 1
            if whole:
                self._compile_factored(plan)
            return plan

    def _compile_factored(self, plan: UnionPlan, **attrs: object) -> None:
        """Compile ``plan``'s factored root (first whole answer only) and
        count the outcome.  Called under the service mutex."""
        stats, kinds = plan.stats, self._stats.plan_kinds
        if stats.factored or stats.declined is not None:
            return
        with current_span().child("plan.compile", **attrs) as span:
            plan.factored_root()
            span.set("tree_nodes", stats.tree_nodes)
            span.set("factored", stats.declined or stats.factored)
        kind = "factored" if stats.declined is None else f"enumerated.{stats.declined}"
        kinds[kind] = kinds.get(kind, 0) + 1
        self.metrics.counter(f"plan.{kind}").inc()
        self.metrics.counter("plan.tree_nodes").inc(stats.tree_nodes)

    def _adaptive_plan(
        self,
        signature: str,
        result: ReformulationResult,
        source: FactsLike,
        racing: bool,
    ) -> Tuple[UnionPlan, Optional[UnionPlan]]:
        """The champion plan for ``signature`` and, possibly, a challenger.

        The champion is compiled with the feedback log attached, so its
        join ordering applies the corrections known at compile time and
        its execution keeps measuring.  Whenever the log's ``generation``
        moved since the champion was validated (new or materially changed
        corrections), a candidate is recompiled against the current
        corrections: a differently shaped candidate within
        ``race_margin`` of the champion's corrected cost becomes a
        *challenger* to race (budgeted per champion); a candidate cheaper
        than the champion after the budget is spent is adopted outright
        (its shape already proved itself or corrections are unambiguous).
        Called under the service mutex.
        """
        feedback = self._feedback
        state = self._champions.get(signature)
        if state is None or state.plan.result is not result:
            plan = UnionPlan(
                result, CardinalityCostModel.pinless(source), feedback=feedback
            )
            state = _AdaptiveState(plan=plan, generation=feedback.generation)
            self._champions[signature] = state
            self._stats.plans_compiled += 1
        if not racing:
            return state.plan, None
        self._compile_factored(state.plan, adaptive=True)
        if feedback.generation == state.generation:
            return state.plan, None
        state.generation = feedback.generation
        candidate = UnionPlan(
            result, CardinalityCostModel.pinless(source), feedback=feedback
        )
        self._compile_factored(candidate, adaptive=True, candidate=True)
        candidate_cost = candidate.estimated_cost()
        champion_cost = state.plan.estimated_cost()
        if candidate.answer_nodes().keys() == state.plan.answer_nodes().keys():
            # Same shape — corrections did not change the plan, so the
            # candidate is the same execution with refreshed estimates.
            # Adopt it without racing: future observations then measure
            # q-error against current knowledge, not the original guess.
            state.plan = candidate
            return state.plan, None
        if state.races_left <= 0:
            if candidate_cost < champion_cost:
                state.plan = candidate
            return state.plan, None
        if candidate_cost <= champion_cost * self._race_margin:
            state.races_left -= 1
            return state.plan, candidate
        return state.plan, None

    def _evaluate_candidate(
        self,
        result: ReformulationResult,
        source: FactsLike,
        engine: str,
        plan: UnionPlan,
        feedback: Optional[QErrorLog],
    ) -> Tuple[Set[Row], float]:
        """One timed, cache-less evaluation of a candidate plan (racing)."""
        started = time.perf_counter()
        rows = evaluate_reformulation(
            result, source, engine=engine, plan=plan, cache=None, feedback=feedback
        )
        return rows, time.perf_counter() - started

    def _race(
        self,
        signature: str,
        result: ReformulationResult,
        source: FactsLike,
        engine: str,
        champion: UnionPlan,
        challenger: UnionPlan,
        feedback: QErrorLog,
    ) -> Set[Row]:
        """Race champion vs challenger on one live query.

        Both plans evaluate fully (no cross-call cache, so the timing is
        the plans' own); the challenger is adopted only when its answer
        set is *identical* and it was faster.  The champion's rows are
        what the caller is served either way — a losing or mismatching
        challenger never contributes rows to an answer.
        """
        with current_span().child("plan.execute", role="champion", racing=True):
            champion_rows, champion_seconds = self._evaluate_candidate(
                result, source, engine, champion, feedback
            )
        with current_span().child("plan.execute", role="challenger", racing=True):
            challenger_rows, challenger_seconds = self._evaluate_candidate(
                result, source, engine, challenger, feedback
            )
        with self._mutex:
            feedback.stats.races_run += 1
            if challenger_rows != champion_rows:
                # Should be impossible (all plans of one reformulation are
                # answer-equivalent); counted loudly, champion kept.
                feedback.stats.races_mismatched += 1
            elif challenger_seconds < champion_seconds:
                state = self._champions.get(signature)
                if state is not None and state.plan is champion:
                    state.plan = challenger
                    state.races_left = _RACE_BUDGET
                    feedback.stats.races_won += 1
        return champion_rows

    def clear_cache(self) -> None:
        """Drop every cached reformulation, plan, and fragment table
        (counters are preserved).

        An externally supplied fragment cache is left alone — other
        services may be serving warm entries from it; clear it directly
        if that is really wanted."""
        with self._mutex:
            self._cache.clear()
            self._stale.clear()
            self._plans.clear()
            self._champions.clear()
            if self._fragments is not None and self._owns_fragment_cache:
                self._fragments.clear()

    # -- answering -------------------------------------------------------------------

    def answer(
        self,
        query: ConjunctiveQuery,
        limit: Optional[int] = None,
        engine: Optional[str] = None,
        data: Union[FactsLike, Mapping[str, Instance], None] = None,
    ) -> Set[Row]:
        """Answer ``query`` over the service's data (set semantics).

        With ``limit=k`` the evaluation streams: rewritings are pulled
        from the (cached) reformulation one at a time and evaluation
        stops once ``k`` distinct answers are known — a subset of the
        full answer set.  Plan-consuming engines (``"shared"``) reuse the
        compiled union plan cached alongside the reformulation.

        In adaptive mode a full-answer call may additionally *race* the
        cached champion plan against a freshly corrected challenger (see
        ``docs/adaptivity.md``); the served rows always come from the
        champion.
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
                prepared = self._prepare(query, engine, data, whole=limit is None)
                engine, source, result, plan, cache, feedback, sig, challenger = (
                    prepared
                )
                if span.recording:
                    span.set("engine", engine)
                    if limit is not None:
                        span.set("limit", limit)
                if challenger is not None and plan is not None and feedback is not None:
                    rows = self._race(
                        sig, result, source, engine, plan, challenger, feedback
                    )
                else:
                    with span.child("plan.execute", engine=engine):
                        rows = evaluate_reformulation(
                            result,
                            source,
                            engine=engine,
                            limit=limit,
                            plan=plan,
                            cache=cache,
                            feedback=feedback,
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

        Runs entirely under the service mutex so concurrent callers see a
        consistent (source, reformulation, plan) triple; the evaluation
        itself happens outside the lock.  ``whole`` says the call is a
        whole answer (no ``limit``): its factored root is compiled here,
        and only such calls race.  Returns
        ``(engine, source, result, plan, cache, feedback, signature,
        challenger)``; ``challenger`` is non-``None`` only when the
        adaptive loop proposed a plan to race.
        """
        engine = validate_engine(engine if engine is not None else self._engine)
        with self._mutex:
            source = self._data(data)
            signature, result = self._lookup(canonicalize_query(query))
            # The fragment cache holds one entry per fragment key, keyed to
            # the service's own data by version token.  A one-off data
            # override would churn those warm entries (admit under its own
            # tokens, evicting same-key entries), so overrides bypass the
            # cache; the identity checks keep answer_batch's pre-resolved
            # shared source on the cached path.  Feedback follows the same
            # rule: corrections must describe the service's own data.
            own_data = (
                data is None or source is self._flat_data or source is self._combined
            )
            cache = self._fragments if own_data else None
            feedback = self._feedback if own_data else None
            plan = None
            challenger = None
            if getattr(get_engine(engine), "uses_plans", False):
                if self._adaptive and feedback is not None:
                    plan, challenger = self._adaptive_plan(
                        signature, result, source, whole
                    )
                else:
                    plan = self._plan_for(signature, result, source, whole)
            return engine, source, result, plan, cache, feedback, signature, challenger

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
        engine, source, result, plan, cache, feedback, _, _ = self._prepare(
            query, engine, data
        )
        return stream_answers(
            result, source, engine=engine, plan=plan, cache=cache, feedback=feedback
        )

    def answer_batch(
        self,
        queries: Sequence[ConjunctiveQuery],
        limit: Optional[int] = None,
        engine: Optional[str] = None,
        data: Union[FactsLike, Mapping[str, Instance], None] = None,
    ) -> List[Set[Row]]:
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
