"""A federated fact source over a peer-boundary transport.

:class:`RemotePeerFactSource` is the remote twin of
:class:`~repro.pdms.execution.PeerFactSource`: it implements the
:class:`~repro.datalog.indexing.IndexedFactSource` protocol — plus the
``data_version`` / ``cardinality`` extensions the planner and the
:class:`~repro.pdms.materialization.FragmentCache` rely on — by routing
every probe through a :class:`~repro.pdms.distributed.transport.Transport`
instead of touching live instances.  Planning, fragment sharing, and
version-keyed caching therefore work unchanged across the process
boundary.

Three mechanisms keep the RPC count sane and the semantics honest:

* **Scan memoization** — every ``(relation, pattern)`` scan result is
  memoized until :meth:`refresh` observes the relation's wire-fetched
  version token move.  The join engine's inner loop repeats identical
  probes constantly; each distinct probe crosses the wire once per data
  version, and batched prefetch (:meth:`prefetch`) fetches a whole
  rewriting's scans in one scatter-gather round — one round trip, where
  the transport has a batch frame and no unit needs a timer.
* **Version tokens over the wire** — ``describe_many`` ships each
  relation's data-version token from every owning peer in one round (one
  frame over sockets), and the combined token keeps
  the :class:`~repro.pdms.materialization.FragmentCache` invalidation
  contract: a remote write moves the token, peer churn changes the owner
  set, and stale fragments stop being served.
* **Degradation, not failure** — a scan lost to a
  :class:`~repro.errors.TransportError` contributes no rows (a *sound
  subset* under monotone conjunctive queries), records a
  :class:`ScanFailure`, and marks the relation *degraded*:
  :meth:`data_version` answers ``None`` for degraded relations so no
  partial fragment can be admitted to a version-keyed cache, and the
  partial memo entry is discarded at the next :meth:`refresh`.  Data
  errors (arity clashes) still raise, exactly like a local probe.

The tail-latency layer sits on top (see ``docs/distributed.md``, "Tail
latency").  Scans are organised into *units* — one per shard placement
group, each listing the replicas that can serve it — and every unit runs
under a :class:`~repro.pdms.distributed.hedging.ScanPolicy`:

* **retries** — a unit lost to a ``TransportError`` is re-attempted
  (bounded, exponential backoff + jitter), rotating across the group's
  replicas; a scan that succeeds on retry records *no* failure, so
  ``complete`` is re-earned instead of permanently degraded, and a unit
  that exhausts its attempts is counted **once**, not once per attempt;
* **hedging** — when a replica exists and the primary exceeds the hedge
  delay (fixed ``REPRO_HEDGE_MS``, or the primary's tracked p95), a
  duplicate request is fired at the next replica; first success wins and
  the loser is cancelled;
* **deadlines** — ``REPRO_SCAN_DEADLINE_MS`` bounds a whole prefetch
  wave; units still unfinished at expiry degrade honestly, exactly like
  a transport fault;
* **delta re-scans** — per-peer scan results are memoized with their
  version token, and re-scans send that token as a ``since`` cursor so
  an advanced peer ships only its newly added rows
  (:func:`~repro.pdms.distributed.transport.scan_instance_since`); the
  merged result equals a full rescan by the monotone-log contract.

The source is thread-safe; one instance may serve many concurrent query
executions (see :class:`~repro.pdms.distributed.cluster.ServiceCluster`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...datalog.indexing import WILDCARD, Pattern
from ...errors import MappingError, TransportError
from ...config import distributed_workers as _config_distributed_workers
from ...obs.metrics import METRICS_SCHEMA_VERSION
from ...obs.trace import NULL_SPAN, current_span, wire_context
from .hedging import PeerLatencyTracker, ScanPolicy
from .transport import (
    EncodedPattern,
    RelationInfo,
    Row,
    Transport,
    describe_each,
    encode_pattern,
)


class _DeadlineExpired(Exception):
    """Internal: the wave's deadline budget ran out mid-unit."""


@dataclass(frozen=True)
class ScanFailure:
    """One scan (or metadata fetch) lost to a transport fault."""

    peer: str
    relation: str
    error: str


class _FirstAttempt:
    """Attempt 0 of one scan unit, as carried by its wave's batch frame.

    :meth:`RemotePeerFactSource._batched_first_attempts` opens the unit's
    span and the attempt's span (the attempt's wire context has to ride
    the frame), sends the frame, and stores each outcome here;
    :meth:`RemotePeerFactSource._scan_unit` takes it over, spans included,
    in place of issuing the attempt itself.
    """

    __slots__ = ("unit_span", "span", "baselines", "outcome", "elapsed")

    def __init__(self, unit_span, span, baselines):
        self.unit_span = unit_span
        self.span = span
        self.baselines = baselines
        self.outcome: object = None
        self.elapsed = 0.0

    @property
    def failed(self) -> bool:
        return isinstance(self.outcome, Exception)

    def abandon(self) -> None:
        """Close the spans of an attempt no unit took over."""
        self.span.close("cancelled")
        self.unit_span.close("cancelled")


def distributed_workers_from_env() -> int:
    """Scatter width from ``REPRO_DISTRIBUTED_WORKERS`` (0 = auto).

    Auto sizes the pool to the peer count (capped at 16).  Malformed
    values fail fast like every ``REPRO_*`` knob — delegates to the
    consolidated reader (:func:`repro.config.distributed_workers`).
    """
    return _config_distributed_workers()


class RemotePeerFactSource:
    """Indexed fact source federating probes over a transport.

    Parameters
    ----------
    transport:
        The peer boundary to probe through.
    peers:
        Subset of the transport's peers to serve (default: all).
    shard_map:
        Optional :class:`~repro.pdms.distributed.sharding.ShardMap`
        describing how relations are horizontally partitioned across the
        transport's peers.  When present, scans whose pattern binds the
        partition column to a constant are *pruned* to the owning shard
        group instead of fanning out to every owner; everything else is
        unchanged — per-shard version tokens already combine into the
        composite token via the sorted-token aggregation below.
    policy:
        The :class:`~repro.pdms.distributed.hedging.ScanPolicy` governing
        retries, hedging, and deadlines (default: from the ``REPRO_*``
        environment knobs).
    delta:
        When ``True`` (the default), re-scans send the memoized version
        token as a ``since`` cursor so peers can ship deltas instead of
        full rescans; ``False`` forces full rescans (benchmark baseline).

    Construction performs the first :meth:`refresh` — one
    ``describe_many`` round establishing the relation routing table (with the same
    eager cross-peer arity-clash check the in-process federated source
    performs), per-relation cardinalities for the cost model, and the
    version tokens the scan memo and fragment caches key on.
    """

    def __init__(
        self,
        transport: Transport,
        peers: Optional[Iterable[str]] = None,
        shard_map: Optional[object] = None,
        policy: Optional[ScanPolicy] = None,
        delta: bool = True,
    ):
        self._transport = transport
        self._shard_map = shard_map
        self._policy = policy if policy is not None else ScanPolicy.from_env()
        self._delta = delta
        self._peer_names: Tuple[str, ...] = (
            tuple(peers) if peers is not None else tuple(transport.peers())
        )
        self._lock = threading.RLock()
        self._routes: Dict[str, Tuple[str, ...]] = {}
        self._arities: Dict[str, int] = {}
        self._cards: Dict[str, int] = {}
        self._tokens: Dict[str, Tuple[object, ...]] = {}
        self._memo: Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]] = {}
        #: Per-(peer, relation, pattern) delta cursors: the version token
        #: of the last scan served by that peer plus the merged rows it
        #: covered.  Anchored to wire version tokens (not generations):
        #: the server validates the cursor against its live version, so a
        #: stale cursor can only re-ship rows, never lose them.
        self._peer_scans: Dict[
            Tuple[str, str, EncodedPattern], Tuple[object, Tuple[Row, ...]]
        ] = {}
        #: Bumped by every refresh() that invalidated something; scans
        #: committed to the memo only if the generation they started under
        #: is still current, so rows fetched before an invalidating
        #: refresh can never be re-inserted after it dropped them.
        self._generation = 0
        self._degraded: Set[str] = set()
        self._unreachable: Set[str] = set()
        self._failures: List[ScanFailure] = []
        self._tracker = PeerLatencyTracker()
        self._pruned_scans = 0
        self._fanout_scans = 0
        self._pruned_waves = 0
        self._fanout_waves = 0
        self._retries = 0
        self._hedges_fired = 0
        self._hedges_won = 0
        self._deadline_expiries = 0
        self._delta_scans = 0
        self._full_scans = 0
        self._delta_rows = 0
        self._full_rows = 0
        self._executor = None
        self._attempt_executor = None
        self._closed = False
        self.refresh()

    # -- metadata ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise TransportError("RemotePeerFactSource is closed")

    def refresh(self) -> None:
        """Re-fetch peer catalogs; drop memo entries whose version moved.

        The describe round (one ``describe_many`` for all peers, the failed
        subset retried as a batch) happens outside the lock, so concurrent
        refreshes overlap on the wire; the commit — routing table, version
        tokens, memo invalidation, clearing the degraded set — is atomic.
        An unreachable peer is recorded as a :class:`ScanFailure` (its
        relations drop out of the routing table, which itself moves the
        affected version tokens) rather than raising.  A cross-peer arity
        clash raises :class:`~repro.errors.MappingError` naming both
        peers, exactly like the in-process federated source.
        """
        self._check_open()
        catalogs, unreachable = self._describe_all()
        routes: Dict[str, List[str]] = {}
        arities: Dict[str, int] = {}
        cards: Dict[str, int] = {}
        tokens: Dict[str, List[object]] = {}
        first_seen: Dict[str, Tuple[str, int]] = {}
        for peer, catalog in catalogs.items():
            for relation, (arity, cardinality, token) in catalog.items():
                earlier = first_seen.get(relation)
                if earlier is None:
                    first_seen[relation] = (peer, arity)
                elif earlier[1] != arity:
                    raise MappingError(
                        f"stored relation {relation!r} has arity {earlier[1]} "
                        f"at peer {earlier[0]!r} but arity {arity} at peer "
                        f"{peer!r}"
                    )
                routes.setdefault(relation, []).append(peer)
                arities[relation] = arity
                cards[relation] = cards.get(relation, 0) + cardinality
                tokens.setdefault(relation, []).append(token)
        with self._lock:
            for peer, error in unreachable.items():
                self._failures.append(ScanFailure(peer, "*", error))
            self._unreachable = set(unreachable)
            new_tokens = {
                relation: tuple(sorted(per_peer, key=repr))
                for relation, per_peer in tokens.items()
            }
            stale = {
                relation
                for relation in set(self._tokens) | set(new_tokens)
                if self._tokens.get(relation) != new_tokens.get(relation)
            }
            stale |= self._degraded
            if stale:
                self._memo = {
                    key: rows
                    for key, rows in self._memo.items()
                    if key[0] not in stale
                }
                self._generation += 1
            self._degraded = set()
            self._routes = {rel: tuple(owners) for rel, owners in routes.items()}
            self._arities = arities
            self._cards = cards
            self._tokens = new_tokens
            # Delta cursors for vanished relations are dead weight (and a
            # relation that later returns may be different data); drop
            # them.  Cursors for live relations survive refresh — they
            # are what turns the post-refresh rescan into a delta.
            if self._peer_scans:
                live = self._routes
                self._peer_scans = {
                    cursor_key: value
                    for cursor_key, value in self._peer_scans.items()
                    if cursor_key[1] in live
                }

    def _describe_all(
        self,
    ) -> Tuple[Dict[str, Dict[str, RelationInfo]], Dict[str, str]]:
        """(catalog per reachable peer, error per unreachable one).

        One ``describe_many`` round for every peer; the subset that
        faulted is retried as one round per backoff step of the policy, so
        dead peers share one backoff ladder instead of each climbing its
        own.  Catalogs come back in peer order whatever round fetched them.
        """
        describe_many = getattr(
            self._transport, "describe_many", None
        ) or partial(describe_each, self._transport)
        policy = self._policy
        fetched: Dict[str, Dict[str, RelationInfo]] = {}
        errors: Dict[str, str] = {}
        pending: Sequence[str] = self._peer_names
        for attempt in range(policy.retries + 1):
            if attempt:
                time.sleep(policy.backoff_delay(attempt - 1))
            for peer, outcome in describe_many(pending).items():
                if isinstance(outcome, TransportError):
                    errors[peer] = str(outcome)
                else:
                    fetched[peer] = outcome
            pending = [peer for peer in pending if peer not in fetched]
            if not pending:
                break
        return (
            {peer: fetched[peer] for peer in self._peer_names if peer in fetched},
            {peer: errors[peer] for peer in pending},
        )

    @property
    def shard_map(self) -> Optional[object]:
        """The placement map scans are pruned against (``None`` = unsharded)."""
        return self._shard_map

    def scatter_stats(self) -> Dict[str, int]:
        """Scatter and tail-latency counters (monotone since construction).

        ``pruned_scans`` / ``fanout_scans`` count individual wire scans by
        whether shard pruning narrowed the owner set below the full route;
        ``pruned_waves`` / ``fanout_waves`` count :meth:`prefetch` rounds
        that fetched anything, a wave being *pruned* only when every scan
        in it was.  The tail-latency layer adds: ``retries`` (re-attempts
        after a transport fault), ``hedges_fired`` / ``hedges_won``
        (duplicate requests issued, and how many beat the primary),
        ``deadline_expiries`` (scan units abandoned at the wave
        deadline), ``delta_scans`` / ``full_scans`` (wire scans answered
        as a delta vs a full rescan) and ``delta_rows_shipped`` /
        ``full_rows_shipped`` (rows carried by each kind).
        """
        with self._lock:
            return {
                "schema_version": METRICS_SCHEMA_VERSION,
                "pruned_scans": self._pruned_scans,
                "fanout_scans": self._fanout_scans,
                "pruned_waves": self._pruned_waves,
                "fanout_waves": self._fanout_waves,
                "retries": self._retries,
                "hedges_fired": self._hedges_fired,
                "hedges_won": self._hedges_won,
                "deadline_expiries": self._deadline_expiries,
                "delta_scans": self._delta_scans,
                "full_scans": self._full_scans,
                "delta_rows_shipped": self._delta_rows,
                "full_rows_shipped": self._full_rows,
            }

    def latency_stats(self) -> Dict[str, object]:
        """Per-peer scan-latency EWMA snapshot (count, mean, p95; ms)."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "peers": self._tracker.snapshot(),
        }

    def bind_metrics(self, registry) -> None:
        """Register this source's snapshots as pull collectors.

        The registry holds the bound methods weakly (see
        :meth:`~repro.obs.metrics.MetricsRegistry.register_collector`), so
        binding never extends the source's lifetime; a closed/collected
        source simply drops out of later snapshots.
        """
        registry.register_collector("scatter", self.scatter_stats)
        registry.register_collector("peer_latency", self.latency_stats)
        registry.register_collector("scan_policy", self._policy.as_dict)
        if self._shard_map is not None:
            as_dict = getattr(self._shard_map, "as_dict", None)
            if callable(as_dict):
                registry.register_collector("sharding", as_dict)
        transport_metrics = getattr(self._transport, "transport_metrics", None)
        if callable(transport_metrics):
            registry.register_collector("transport", transport_metrics)

    def relations(self) -> Tuple[str, ...]:
        """Stored relations currently reachable through this source."""
        with self._lock:
            return tuple(self._routes)

    def owner_count(self, relation: str) -> int:
        """How many peers serve ``relation`` (0 if unknown/unreachable)."""
        with self._lock:
            return len(self._routes.get(relation, ()))

    def owners(self, relation: str) -> Tuple[str, ...]:
        """The peers currently serving ``relation`` (write routing uses this)."""
        with self._lock:
            return self._routes.get(relation, ())

    def arity(self, relation: str) -> Optional[int]:
        """Arity of ``relation`` as described by its owners, if known."""
        with self._lock:
            return self._arities.get(relation)

    def cardinality(self, relation: str) -> int:
        """Total row count across owners, as of the last refresh."""
        with self._lock:
            return self._cards.get(relation, 0)

    def data_version(self, relation: str) -> Optional[Tuple[object, ...]]:
        """The combined wire-fetched version token of ``relation``.

        ``None`` for *degraded* relations (a scan failed since the last
        refresh) — version-keyed caches must bypass them, because a
        fragment computed from partial rows under an unchanged token
        would later be served as complete.  Unknown relations yield the
        empty tuple, like the in-process federated source.
        """
        with self._lock:
            if relation in self._degraded:
                return None
            return self._tokens.get(relation, ())

    # -- health ------------------------------------------------------------

    @property
    def failure_count(self) -> int:
        """Monotone count of transport faults observed (snapshot windows)."""
        with self._lock:
            return len(self._failures)

    def failures(self, since: int = 0) -> Tuple[ScanFailure, ...]:
        """Failures recorded after index ``since`` (see ``failure_count``)."""
        with self._lock:
            return tuple(self._failures[since:])

    @property
    def degraded_relations(self) -> Tuple[str, ...]:
        """Relations whose current memo window lost at least one scan."""
        with self._lock:
            return tuple(sorted(self._degraded))

    @property
    def unreachable_peers(self) -> Tuple[str, ...]:
        """Peers whose last describe round failed."""
        with self._lock:
            return tuple(sorted(self._unreachable))

    @property
    def complete(self) -> bool:
        """Is the current view fault-free (no degradation, all peers up)?"""
        with self._lock:
            return not self._degraded and not self._unreachable

    def drop_memo(self) -> int:
        """Forget every memoized scan (testing/benchmark hook).

        Simulates a genuinely cold consumer, so the delta cursors go
        too — otherwise the next "cold" scan would ride a surviving
        cursor and ship an empty delta instead of the full relation.
        """
        with self._lock:
            dropped = len(self._memo)
            self._memo.clear()
            self._peer_scans.clear()
            return dropped

    # -- scanning ----------------------------------------------------------

    def _scatter_width(self) -> int:
        configured = distributed_workers_from_env()
        if configured:
            return configured
        return min(16, max(2, len(self._peer_names)))

    def _pool(self):
        with self._lock:
            self._check_open()
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=self._scatter_width(),
                    thread_name_prefix="repro-scatter",
                )
            return self._executor

    def _attempt_pool(self):
        """A second executor for hedged attempts.

        Hedged duplicates must not share the scatter pool: a wave that
        fills the scatter pool with units would deadlock waiting for its
        own attempts.  Transports with a native :meth:`submit_scan`
        (the async socket backend) bypass this pool entirely.
        """
        with self._lock:
            self._check_open()
            if self._attempt_executor is None:
                from concurrent.futures import ThreadPoolExecutor

                self._attempt_executor = ThreadPoolExecutor(
                    max_workers=max(4, self._scatter_width() * 2),
                    thread_name_prefix="repro-hedge",
                )
            return self._attempt_executor

    def _record_failure(self, peer: str, relations: Iterable[str], error: str) -> None:
        with self._lock:
            for relation in relations:
                self._failures.append(ScanFailure(peer, relation, error))
                self._degraded.add(relation)

    def _restricted_owners(
        self,
        relation: str,
        owners_restriction: Optional[Iterable[str]],
    ) -> Tuple[Tuple[str, ...], bool]:
        """(owners to scan, was the route set narrowed?) — lock held.

        ``owners_restriction`` is a shard-pruning hint (the peer group a
        constant bound on the partition column resolves to); owners
        outside the current routing table are dropped — a peer that left
        holds no rows, so intersecting stays a sound *complete* scan of
        what remains reachable (degradation is tracked separately).
        """
        routes = self._routes.get(relation, ())
        if owners_restriction is None:
            return routes, False
        allowed = set(owners_restriction)
        owners = tuple(owner for owner in routes if owner in allowed)
        return owners, len(owners) < len(routes)

    def _scan_groups(
        self,
        relation: str,
        pattern: Pattern,
        owners_restriction: Optional[Iterable[str]],
    ) -> Tuple[Tuple[Tuple[str, ...], ...], bool]:
        """(replica groups to scan, was the route set narrowed?) — lock held.

        Each returned group lists the live replicas of one shard; any
        one member answers for the whole group, which is what makes
        hedging and retry-rotation across the group sound.  Unsharded
        relations degenerate to one single-member group per owner (every
        owner may hold distinct rows, so all must be scanned).
        """
        routes = self._routes.get(relation, ())
        shard_map = self._shard_map
        if shard_map is not None:
            raw_groups = shard_map.groups_for_pattern(relation, pattern)
            if raw_groups is not None:
                live = set(routes)
                groups = tuple(
                    live_group
                    for group in raw_groups
                    if (live_group := tuple(p for p in group if p in live))
                )
                covered = {peer for group in groups for peer in group}
                return groups, len(covered) < len(routes)
        owners, pruned = self._restricted_owners(relation, owners_restriction)
        return tuple((owner,) for owner in owners), pruned

    # -- one scan unit: retries, hedging, deadline -------------------------

    def _deadline_at(self) -> Optional[float]:
        deadline = self._policy.deadline
        return time.monotonic() + deadline if deadline else None

    @staticmethod
    def _remaining(deadline_at: Optional[float]) -> Optional[float]:
        return None if deadline_at is None else deadline_at - time.monotonic()

    def _build_since_requests(
        self, peer: str, keys: Sequence[Tuple[str, EncodedPattern]]
    ):
        """The wire batch for ``peer`` plus the delta baselines it rides on."""
        with self._lock:
            baselines = {
                key: self._peer_scans.get((peer, key[0], key[1]))
                for key in keys
            }
        requests = [
            (
                key[0],
                key[1],
                baselines[key][0]
                if (self._delta and baselines[key] is not None)
                else None,
            )
            for key in keys
        ]
        return requests, baselines

    def _open_attempt(
        self,
        peer: str,
        keys: Sequence[Tuple[str, EncodedPattern]],
        parent_span,
        kind: str,
    ):
        """(wire batch, delta baselines, open ``scan.attempt`` span) for ``peer``."""
        requests, baselines = self._build_since_requests(peer, keys)
        span = parent_span.child(
            "scan.attempt", peer=peer, kind=kind, scans=len(requests)
        )
        return requests, baselines, span

    def _finish_scan(
        self,
        peer: str,
        keys: Sequence[Tuple[str, EncodedPattern]],
        baselines: Dict[Tuple[str, EncodedPattern], Optional[Tuple[object, Tuple[Row, ...]]]],
        results,
        elapsed: float,
    ) -> Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]]:
        """Merge one successful wire response into the delta cursors."""
        self._tracker.observe(peer, elapsed)
        out: Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]] = {}
        delta_scans = full_scans = delta_rows = full_rows = 0
        commits = []
        for key, (full, token, rows) in zip(keys, results):
            base = baselines.get(key)
            if not full and base is not None:
                base_rows = base[1]
                known = set(base_rows)
                merged = base_rows + tuple(
                    row for row in rows if row not in known
                )
                delta_scans += 1
                delta_rows += len(rows)
            else:
                merged = tuple(rows)
                full_scans += 1
                full_rows += len(rows)
            out[key] = merged
            if token is not None:
                commits.append(((peer, key[0], key[1]), (token, merged)))
        with self._lock:
            self._delta_scans += delta_scans
            self._full_scans += full_scans
            self._delta_rows += delta_rows
            self._full_rows += full_rows
            for cursor_key, value in commits:
                self._peer_scans[cursor_key] = value
        return out

    def _attempt_scan(
        self,
        peer: str,
        keys: Sequence[Tuple[str, EncodedPattern]],
        parent_span=NULL_SPAN,
        kind: str = "primary",
    ) -> Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]]:
        """One blocking scan attempt (raises ``TransportError`` on fault)."""
        requests, baselines, span = self._open_attempt(
            peer, keys, parent_span, kind
        )
        start = time.monotonic()
        # The wire context installed around the transport call is what
        # parents the serve-side span under this attempt.
        with span, wire_context(span.wire_context()):
            results = self._transport.scan_batch_since(peer, requests)
        return self._finish_scan(
            peer, keys, baselines, results, time.monotonic() - start
        )

    def _traced_scan_since(self, peer: str, requests, ctx):
        """Transport scan with the caller's wire context re-installed.

        Hedge-pool threads do not inherit the submitting thread's wire
        context (it is thread-local), so it travels as an argument.
        """
        with wire_context(ctx):
            return self._transport.scan_batch_since(peer, requests)

    def _submit_attempt(
        self,
        peer: str,
        keys: Sequence[Tuple[str, EncodedPattern]],
        parent_span=NULL_SPAN,
        kind: str = "primary",
    ):
        """Fire one scan attempt without blocking; returns (future, baselines, start, span).

        Uses the transport's native :meth:`submit_scan` when it has one
        (genuinely cancellable), else the hedge thread pool (cancellation
        is then best-effort abandonment — the losing response is simply
        discarded).  The returned ``scan.attempt`` span is owned by the
        caller racing the future: it must close it exactly once with the
        attempt's outcome (``ok`` / ``error`` / ``cancelled``).  On a
        submit fault the span is closed here and the fault re-raised.
        """
        requests, baselines, span = self._open_attempt(
            peer, keys, parent_span, kind
        )
        start = time.monotonic()
        submit = getattr(self._transport, "submit_scan", None)
        try:
            if submit is not None:
                # submit_scan captures the wire context on this thread
                # before hopping to the transport's event loop.
                with wire_context(span.wire_context()):
                    future = submit(peer, requests)
            else:
                future = self._attempt_pool().submit(
                    self._traced_scan_since, peer, requests, span.wire_context()
                )
        except Exception:
            span.close("error")
            raise
        return future, baselines, start, span

    def _attempt_with_hedge(
        self,
        primary: str,
        hedge_peer: Optional[str],
        keys: Sequence[Tuple[str, EncodedPattern]],
        deadline_at: Optional[float],
        parent_span=NULL_SPAN,
        kind: str = "primary",
    ) -> Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]]:
        """One attempt, possibly hedged to a replica; first success wins.

        Raises ``TransportError`` when every in-flight request failed
        (the caller's retry loop handles it) and :class:`_DeadlineExpired`
        when the wave budget ran out; data errors propagate as-is.

        Span ownership: this racing loop owns every ``scan.attempt`` span
        :meth:`_submit_attempt` returns, and closes each exactly once —
        on its future's outcome, or as ``cancelled`` in the ``finally``
        sweep that cancels the losers (including deadline expiry, where
        every in-flight attempt is a loser).
        """
        policy = self._policy
        hedge_delay = (
            policy.hedge_delay(self._tracker, primary)
            if hedge_peer is not None
            else None
        )
        if hedge_delay is None and deadline_at is None:
            return self._attempt_scan(primary, keys, parent_span, kind)
        future, baselines, start, span = self._submit_attempt(
            primary, keys, parent_span, kind
        )
        in_flight = {future: (primary, baselines, start, span)}
        hedge_pending = hedge_delay is not None
        errors: List[TransportError] = []
        try:
            while True:
                wait_timeout = hedge_delay if hedge_pending else None
                remaining = self._remaining(deadline_at)
                if remaining is not None:
                    if remaining <= 0:
                        raise _DeadlineExpired()
                    wait_timeout = (
                        remaining
                        if wait_timeout is None
                        else min(wait_timeout, remaining)
                    )
                done, _ = futures_wait(
                    list(in_flight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    if hedge_pending:
                        # The primary exceeded its hedge delay: duplicate
                        # the request to the replica and race them.
                        hedge_pending = False
                        with self._lock:
                            self._hedges_fired += 1
                        try:
                            h_future, h_base, h_start, h_span = (
                                self._submit_attempt(
                                    hedge_peer, keys, parent_span, "hedge"
                                )
                            )
                            in_flight[h_future] = (
                                hedge_peer, h_base, h_start, h_span
                            )
                        except TransportError:
                            pass  # hedge target down; primary may answer yet
                        continue
                    raise _DeadlineExpired()
                for finished in done:
                    peer, peer_baselines, peer_start, peer_span = (
                        in_flight.pop(finished)
                    )
                    try:
                        results = finished.result()
                    except TransportError as exc:
                        peer_span.set("error", str(exc))
                        peer_span.close("error")
                        errors.append(exc)
                        continue
                    except CancelledError:
                        peer_span.close("cancelled")
                        errors.append(
                            TransportError(
                                f"scan to {peer!r} cancelled", peer=peer
                            )
                        )
                        continue
                    except Exception:
                        # Data errors (ValueError/InstanceError) propagate,
                        # cancelling the other attempt below.
                        peer_span.close("error")
                        raise
                    peer_span.close()
                    if peer != primary:
                        with self._lock:
                            self._hedges_won += 1
                    return self._finish_scan(
                        peer,
                        keys,
                        peer_baselines,
                        results,
                        time.monotonic() - peer_start,
                    )
                if not in_flight:
                    raise errors[-1] if errors else TransportError(
                        f"scan to {primary!r} failed", peer=primary
                    )
        finally:
            for leftover, (_, _, _, loser_span) in in_flight.items():
                leftover.cancel()
                loser_span.close("cancelled")

    @staticmethod
    def _unit_span(parent_span, candidates, keys):
        return parent_span.child(
            "scan.unit",
            replicas=len(candidates),
            primary=candidates[0],
            relations=",".join(sorted({key[0] for key in keys})),
            scans=len(keys),
        )

    def _batched_first_attempts(
        self,
        unit_items: Sequence[
            Tuple[Tuple[str, ...], List[Tuple[str, EncodedPattern]]]
        ],
        deadline_at: Optional[float],
        wave,
    ) -> Dict[Tuple[str, ...], _FirstAttempt]:
        """Attempt 0 of every timer-free unit of a wave, in one batch frame.

        A unit has a timer when its first attempt may have to be raced or
        cut short: a hedge candidate under a hedging policy, or a wave
        deadline.  Those keep the per-unit submission, whose futures the
        timer can wait on and cancel; so does every unit of a transport
        without a batch frame (``scan_many``).  The rest need nothing but
        the reply, so their requests share one round trip and each unit is
        handed its own outcome.
        """
        scan_many = getattr(self._transport, "scan_many", None)
        if scan_many is None or deadline_at is not None:
            return {}
        hedging = self._policy.hedging
        firsts: Dict[Tuple[str, ...], _FirstAttempt] = {}
        frame = []
        for group, keys in unit_items:
            if hedging and len(group) > 1:
                continue
            unit_span = self._unit_span(wave, group, keys)
            requests, baselines, span = self._open_attempt(
                group[0], keys, unit_span, "primary"
            )
            firsts[group] = _FirstAttempt(unit_span, span, baselines)
            frame.append((group[0], requests, span.wire_context()))
        if firsts:
            start = time.monotonic()
            outcomes = scan_many(frame)
            # Every sub-request waited for the whole frame: that is the
            # latency its peer is charged with.
            elapsed = time.monotonic() - start
            for first, outcome in zip(firsts.values(), outcomes):
                first.outcome = outcome
                first.elapsed = elapsed
        return firsts

    def _take_first_attempt(
        self,
        first: _FirstAttempt,
        peer: str,
        keys: Sequence[Tuple[str, EncodedPattern]],
    ) -> Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]]:
        """Finish a batched attempt as :meth:`_attempt_scan` finishes its own."""
        outcome = first.outcome
        if isinstance(outcome, Exception):
            first.span.set("error", f"{type(outcome).__name__}: {outcome}")
            first.span.close("error")
            raise outcome
        first.span.close()
        return self._finish_scan(
            peer, keys, first.baselines, outcome, first.elapsed
        )

    def _scan_unit(
        self,
        candidates: Tuple[str, ...],
        keys: Sequence[Tuple[str, EncodedPattern]],
        deadline_at: Optional[float],
        parent_span=NULL_SPAN,
        first: Optional[_FirstAttempt] = None,
    ) -> Optional[Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]]]:
        """Scan one replica group under the full policy envelope.

        Attempts rotate across ``candidates`` (retry number *k* goes to
        replica ``k mod n``, so retries double as failover); each attempt
        may hedge to the next replica.  Returns per-key rows, or ``None``
        after exhausting the policy — in which case exactly **one**
        :class:`ScanFailure` per relation is recorded, regardless of how
        many attempts were made.

        ``first`` is the unit's first attempt when the wave's batch frame
        already made it (:meth:`_batched_first_attempts`): its outcome
        stands in for attempt 0, and every later attempt is issued here,
        per unit, exactly as without it.

        ``parent_span`` is threaded explicitly because units run on the
        scatter pool, where the submitting thread's ambient span is not
        visible.
        """
        policy = self._policy
        count = len(candidates)
        last_error = "no live replica"
        expired = False
        succeeded = False
        attempts = 0
        span = (
            first.unit_span if first is not None
            else self._unit_span(parent_span, candidates, keys)
        )
        try:
            for attempt in range(policy.retries + 1):
                if attempt:
                    with self._lock:
                        self._retries += 1
                    delay = policy.backoff_delay(attempt - 1)
                    remaining = self._remaining(deadline_at)
                    if remaining is not None:
                        if remaining <= 0:
                            expired = True
                            break
                        delay = min(delay, remaining)
                    time.sleep(delay)
                remaining = self._remaining(deadline_at)
                if remaining is not None and remaining <= 0:
                    expired = True
                    break
                attempts = attempt + 1
                primary = candidates[attempt % count]
                hedge_peer = (
                    candidates[(attempt + 1) % count]
                    if count > 1 and policy.hedging
                    else None
                )
                try:
                    if first is not None and attempt == 0:
                        result = self._take_first_attempt(first, primary, keys)
                    else:
                        result = self._attempt_with_hedge(
                            primary,
                            hedge_peer,
                            keys,
                            deadline_at,
                            parent_span=span,
                            kind="primary" if attempt == 0 else "retry",
                        )
                    succeeded = True
                    return result
                except _DeadlineExpired:
                    expired = True
                    break
                except TransportError as exc:
                    last_error = str(exc)
            if expired:
                with self._lock:
                    self._deadline_expiries += 1
                last_error = "scan deadline expired"
            relations = sorted({key[0] for key in keys})
            self._record_failure(candidates[0], relations, last_error)
            return None
        finally:
            if span.recording:
                span.set("attempts", attempts)
                if not succeeded:
                    span.set("error", last_error)
            span.close(
                None if succeeded else ("deadline" if expired else "error")
            )

    def _run_units(
        self,
        unit_items: Sequence[
            Tuple[Tuple[str, ...], List[Tuple[str, EncodedPattern]]]
        ],
        deadline_at: Optional[float],
        wave,
        parallel: bool,
    ) -> List[Optional[Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]]]]:
        """Every unit of one wave, each under the policy; results in order.

        Units whose first attempt came back on the wave's batch frame
        finish right here, with no thread hop.  The others — units with a
        timer, units whose batched attempt faulted and now retry — still
        have wire time to overlap and run on the scatter pool.
        """
        firsts = self._batched_first_attempts(unit_items, deadline_at, wave)

        def unit_args(index: int):
            # Popping hands the first attempt (and its open spans) over
            # to the unit; what is left at the end, nobody took.
            group, batch = unit_items[index]
            return group, batch, deadline_at, wave, firsts.pop(group, None)

        results: List[
            Optional[Dict[Tuple[str, EncodedPattern], Tuple[Row, ...]]]
        ] = [None] * len(unit_items)
        on_wire: List[int] = []
        try:
            for index, (group, _) in enumerate(unit_items):
                first = firsts.get(group)
                if first is None or first.failed:
                    on_wire.append(index)
                else:
                    results[index] = self._scan_unit(*unit_args(index))
            if (
                parallel
                and len(on_wire) > 1
                and getattr(self._transport, "prefers_parallel", True)
            ):
                pool = self._pool()
                futures = [
                    pool.submit(self._scan_unit, *unit_args(index))
                    for index in on_wire
                ]
                for index, future in zip(on_wire, futures):
                    results[index] = future.result()
            else:
                for index in on_wire:
                    results[index] = self._scan_unit(*unit_args(index))
        finally:
            for first in firsts.values():
                first.abandon()
        return results

    def prefetch(
        self,
        requests: Iterable[Sequence[object]],
        parallel: bool = True,
    ) -> int:
        """Scatter-gather every not-yet-memoized scan in ``requests``.

        Each request is ``(relation, pattern)`` or — as produced by
        :meth:`UnionPlan.scan_requests(key, shard_map=...)
        <repro.pdms.planning.UnionPlan.scan_requests>` —
        ``(relation, pattern, owners)`` where a non-``None`` ``owners``
        prunes the scan to that shard group.  Two-element requests are
        pruned against this source's own :attr:`shard_map` when it has
        one.  Requests are batched into one *scan unit* per replica
        group (see :meth:`_scan_groups`); with ``parallel`` (and a
        transport that benefits — worker processes, sockets, or injected
        latency) the units run concurrently on a thread pool, so a
        rewriting touching *k* groups pays one RPC round-trip instead of
        *k*.  Each unit runs under the full :class:`ScanPolicy` envelope
        (retries, hedging, deadline).  Returns the number of scans
        fetched.  Transport faults degrade (see the module docstring);
        data errors propagate.
        """
        self._check_open()
        wanted: List[Tuple[str, EncodedPattern]] = []
        seen: Set[Tuple[str, EncodedPattern]] = set()
        patterns: Dict[Tuple[str, EncodedPattern], Pattern] = {}
        restrictions: Dict[Tuple[str, EncodedPattern], Optional[Tuple[str, ...]]] = {}
        pruned_in_wave = 0
        fanout_in_wave = 0
        with self._lock:
            generation = self._generation
            for request in requests:
                if len(request) == 3:
                    relation, pattern, restriction = request
                else:
                    relation, pattern = request
                    restriction = None
                key = (relation, encode_pattern(pattern))
                if key in self._memo or key in seen:
                    continue
                seen.add(key)
                wanted.append(key)
                patterns[key] = pattern
                restrictions[key] = restriction
            units: Dict[
                Tuple[str, ...], List[Tuple[str, EncodedPattern]]
            ] = {}
            for key in wanted:
                unit_groups, pruned = self._scan_groups(
                    key[0], patterns[key], restrictions[key]
                )
                if pruned:
                    pruned_in_wave += 1
                else:
                    fanout_in_wave += 1
                for group in unit_groups:
                    units.setdefault(group, []).append(key)
            self._pruned_scans += pruned_in_wave
            self._fanout_scans += fanout_in_wave
            if wanted:
                if fanout_in_wave == 0:
                    self._pruned_waves += 1
                else:
                    self._fanout_waves += 1
        if not wanted:
            return 0
        deadline_at = self._deadline_at()
        unit_items = list(units.items())
        with current_span().child(
            "scatter.wave",
            scans=len(wanted),
            units=len(unit_items),
            pruned=pruned_in_wave,
            fanout=fanout_in_wave,
        ) as wave:
            results = self._run_units(unit_items, deadline_at, wave, parallel)
            if wave.recording:
                wave.set(
                    "failed_units", sum(1 for per in results if per is None)
                )
        merged: Dict[Tuple[str, EncodedPattern], List[Row]] = {
            key: [] for key in wanted
        }
        for (group, batch), per_key in zip(unit_items, results):
            if per_key is None:
                continue
            for key in batch:
                merged[key].extend(per_key[key])
        with self._lock:
            # A concurrent refresh() that invalidated anything may have
            # dropped entries these scans would now resurrect with
            # pre-refresh rows — skip the commit; the next reader rescans.
            if self._generation == generation:
                for key in wanted:
                    self._memo[key] = tuple(merged[key])
        return len(wanted)

    def get_matching(self, predicate: str, pattern: Pattern) -> Tuple[Row, ...]:
        self._check_open()
        key = (predicate, encode_pattern(pattern))
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                return cached
            groups, pruned = self._scan_groups(predicate, pattern, None)
            if pruned:
                self._pruned_scans += 1
            else:
                self._fanout_scans += 1
            generation = self._generation
        if not groups:
            return ()
        deadline_at = self._deadline_at()
        rows: List[Row] = []
        with current_span().child(
            "scatter.wave",
            scans=1,
            units=len(groups),
            cold=True,
            relation=predicate,
        ) as wave:
            for group in groups:
                per_key = self._scan_unit(group, [key], deadline_at, wave)
                if per_key is not None:
                    rows.extend(per_key[key])
        combined = tuple(rows)
        with self._lock:
            # Same guard as prefetch: never resurrect rows across an
            # invalidating refresh boundary.
            if self._generation == generation:
                self._memo[key] = combined
        return combined

    def get_tuples(self, predicate: str) -> Tuple[Row, ...]:
        arity = self.arity(predicate)
        if arity is None:
            return ()
        return self.get_matching(predicate, (WILDCARD,) * arity)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down the scatter pool (the transport is the caller's).

        Later scans and refreshes fail fast with
        :class:`~repro.errors.TransportError` instead of silently
        degrading or re-creating the pool.
        """
        with self._lock:
            self._closed = True
            executors = (self._executor, self._attempt_executor)
            self._executor = None
            self._attempt_executor = None
        for executor in executors:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"RemotePeerFactSource({len(self._peer_names)} peers, "
                f"{len(self._routes)} relations, {len(self._memo)} memoized, "
                f"{len(self._failures)} failures)"
            )
