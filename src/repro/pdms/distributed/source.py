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
  memoized, as the column table the wire delivered, until
  :meth:`refresh` observes the relation's wire-fetched version token
  move.  The join engine's inner loop repeats identical
  probes constantly; each distinct probe crosses the wire once per data
  version, and batched prefetch (:meth:`prefetch`) fetches a whole
  rewriting's scans in one scatter-gather round — one round trip, where
  the transport has a batch frame.
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

Two more mechanisms sit on the scan path (see ``docs/distributed.md``,
"Retries and delta re-scans").  Scans are organised into *units* — one
per owning peer, carrying every scan of the wave that peer serves — and
every unit runs under a :class:`ScanPolicy`:

* **retries** — a unit lost to a ``TransportError`` is re-attempted
  (bounded, exponential backoff + jitter); a scan that succeeds on retry
  records *no* failure, so ``complete`` is re-earned instead of
  permanently degraded, and a unit that exhausts its attempts is counted
  **once**, not once per attempt;
* **delta re-scans** — per-peer scan results are memoized with their
  version token, and re-scans send that token as a ``since`` cursor so
  an advanced peer ships only its newly added rows
  (:func:`~repro.pdms.distributed.transport.scan_instance_since`); the
  merged result equals a full rescan by the monotone-log contract.

The source is thread-safe; one instance may serve many concurrent query
executions (see :class:`~repro.pdms.distributed.cluster.ServiceCluster`).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ... import config as _config
from ...database.columnar import ColumnTable, scan_columns, union_blocks
from ...datalog.indexing import WILDCARD, Pattern
from ...errors import MappingError, TransportError
from ...obs.metrics import METRICS_SCHEMA_VERSION
from ...obs.trace import current_span, wire_context
from .transport import (
    EncodedPattern,
    RelationInfo,
    Row,
    Transport,
    describe_each,
    encode_pattern,
)

#: One memoized scan: ``(relation, encoded pattern)``.
ScanKey = Tuple[str, EncodedPattern]


@dataclass(frozen=True)
class ScanFailure:
    """One scan (or metadata fetch) lost to a transport fault."""

    peer: str
    relation: str
    error: str


@dataclass(frozen=True)
class ScanPolicy:
    """The retry envelope applied to every scan unit and describe round.

    ``retries`` extra attempts are made on ``TransportError``, each after
    an exponential backoff (``backoff * 2**attempt``, capped at
    ``backoff_cap``, plus up to ``jitter`` relative random slack).
    """

    retries: int = 2
    backoff: float = 0.01
    backoff_cap: float = 0.25
    jitter: float = 0.25

    @classmethod
    def from_env(cls) -> "ScanPolicy":
        """The policy ``REPRO_SCAN_RETRIES`` selects (see :mod:`repro.config`)."""
        return cls(retries=_config.scan_retries())

    def as_dict(self) -> Dict[str, object]:
        """The policy as a JSON-friendly snapshot (stats surfaces embed it)."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "retries": self.retries,
            "backoff_s": self.backoff,
            "backoff_cap_s": self.backoff_cap,
            "jitter": self.jitter,
        }

    def backoff_delay(self, attempt: int, rng=random) -> float:
        """Sleep before retry number ``attempt`` (0-based), jittered."""
        base = min(self.backoff_cap, self.backoff * (2 ** attempt))
        return base * (1.0 + self.jitter * rng.random())


class _FirstAttempt:
    """Attempt 0 of one scan unit, as carried by its wave's batch frame.

    :meth:`RemotePeerFactSource._batched_first_attempts` opens the unit's
    span and the attempt's span (the attempt's wire context has to ride
    the frame), sends the frame, and stores each outcome here;
    :meth:`RemotePeerFactSource._scan_unit` takes it over, spans included,
    in place of issuing the attempt itself.
    """

    __slots__ = ("unit_span", "span", "baselines", "outcome")

    def __init__(self, unit_span, span, baselines):
        self.unit_span = unit_span
        self.span = span
        self.baselines = baselines
        self.outcome: object = None

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
    return _config.distributed_workers()


class RemotePeerFactSource:
    """Indexed fact source federating probes over a transport.

    Parameters
    ----------
    transport:
        The peer boundary to probe through.
    peers:
        Subset of the transport's peers to serve (default: all).
    policy:
        The :class:`ScanPolicy` governing retries (default: from
        ``REPRO_SCAN_RETRIES``).
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
        policy: Optional[ScanPolicy] = None,
        delta: bool = True,
    ):
        self._transport = transport
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
        #: Per ``(relation, encoded pattern)``: its distinct rows as one
        #: column table, merged over the owners that serve it.
        self._memo: Dict[ScanKey, ColumnTable] = {}
        #: Per-(peer, relation, pattern) delta cursors: the version token
        #: of the last scan served by that peer plus the merged table it
        #: covered.  Anchored to wire version tokens (not generations):
        #: the server validates the cursor against its live version, so a
        #: stale cursor can only re-ship rows, never lose them.
        self._peer_scans: Dict[
            Tuple[str, str, EncodedPattern], Tuple[object, ColumnTable]
        ] = {}
        #: Bumped by every refresh() that invalidated something; scans
        #: committed to the memo only if the generation they started under
        #: is still current, so rows fetched before an invalidating
        #: refresh can never be re-inserted after it dropped them.
        self._generation = 0
        self._degraded: Set[str] = set()
        self._unreachable: Set[str] = set()
        self._failures: List[ScanFailure] = []
        self._waves = 0
        self._retries = 0
        self._delta_scans = 0
        self._full_scans = 0
        self._delta_rows = 0
        self._full_rows = 0
        self._executor = None
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
                    key: table
                    for key, table in self._memo.items()
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

    def scatter_stats(self) -> Dict[str, int]:
        """Scatter counters (monotone since construction).

        ``fanout_waves`` counts :meth:`prefetch` rounds that fetched
        anything; ``retries`` re-attempts after a transport fault;
        ``delta_scans`` / ``full_scans`` wire scans answered as a delta vs
        a full rescan, and ``delta_rows_shipped`` / ``full_rows_shipped``
        the rows each kind carried.  ``pruned_waves`` and ``hedges_fired``
        are always 0: they exist only because the end-to-end benchmark
        harness still reads them.
        """
        with self._lock:
            return {
                "schema_version": METRICS_SCHEMA_VERSION,
                "pruned_waves": 0,
                "fanout_waves": self._waves,
                "retries": self._retries,
                "hedges_fired": 0,
                "delta_scans": self._delta_scans,
                "full_scans": self._full_scans,
                "delta_rows_shipped": self._delta_rows,
                "full_rows_shipped": self._full_rows,
            }

    def bind_metrics(self, registry) -> None:
        """Register this source's snapshots as pull collectors.

        The registry holds the bound methods weakly (see
        :meth:`~repro.obs.metrics.MetricsRegistry.register_collector`), so
        binding never extends the source's lifetime; a closed/collected
        source simply drops out of later snapshots.
        """
        registry.register_collector("scatter", self.scatter_stats)
        registry.register_collector("scan_policy", self._policy.as_dict)
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

    def _record_failure(self, peer: str, relations: Iterable[str], error: str) -> None:
        with self._lock:
            for relation in relations:
                self._failures.append(ScanFailure(peer, relation, error))
                self._degraded.add(relation)

    # -- one scan unit: one owning peer, bounded retries -------------------

    def _open_attempt(
        self,
        peer: str,
        keys: Sequence[ScanKey],
        parent_span,
        kind: str,
    ):
        """(wire batch, delta baselines, open ``scan.attempt`` span) for ``peer``."""
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
        span = parent_span.child(
            "scan.attempt", peer=peer, kind=kind, scans=len(requests)
        )
        return requests, baselines, span

    def _finish_scan(
        self,
        peer: str,
        keys: Sequence[ScanKey],
        baselines: Dict[ScanKey, Optional[Tuple[object, ColumnTable]]],
        results,
    ) -> Dict[ScanKey, ColumnTable]:
        """Merge one successful wire response into the delta cursors.

        A delta is merged column-wise and deduplicated: a token read that
        raced an insert re-ships rows the base already holds."""
        out: Dict[ScanKey, ColumnTable] = {}
        delta_scans = full_scans = delta_rows = full_rows = 0
        commits = []
        for key, (full, token, table) in zip(keys, results):
            base = baselines.get(key)
            if not full and base is not None:
                merged = union_blocks([base[1], table], len(key[1]))
                delta_scans += 1
                delta_rows += len(table)
            else:
                merged = table
                full_scans += 1
                full_rows += len(table)
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
        self, peer: str, keys: Sequence[ScanKey], parent_span, kind: str
    ) -> Dict[ScanKey, ColumnTable]:
        """One blocking scan attempt (raises ``TransportError`` on fault)."""
        requests, baselines, span = self._open_attempt(
            peer, keys, parent_span, kind
        )
        # The wire context installed around the transport call is what
        # parents the serve-side span under this attempt.
        with span, wire_context(span.wire_context()):
            results = self._transport.scan_batch_since(peer, requests)
        return self._finish_scan(peer, keys, baselines, results)

    @staticmethod
    def _unit_span(parent_span, peer: str, keys: Sequence[ScanKey]):
        return parent_span.child(
            "scan.unit",
            peer=peer,
            relations=",".join(sorted({key[0] for key in keys})),
            scans=len(keys),
        )

    def _batched_first_attempts(
        self, unit_items: Sequence[Tuple[str, List[ScanKey]]], wave
    ) -> Dict[str, _FirstAttempt]:
        """Attempt 0 of every unit of a wave, in one batch frame.

        Each unit is handed its own outcome, so a peer that faulted in the
        frame retries on its own while the others are done.  A transport
        without a batch frame (``scan_many``) gets none: every unit then
        issues its own first attempt.
        """
        scan_many = getattr(self._transport, "scan_many", None)
        if scan_many is None or not unit_items:
            return {}
        firsts: Dict[str, _FirstAttempt] = {}
        frame = []
        for peer, keys in unit_items:
            unit_span = self._unit_span(wave, peer, keys)
            requests, baselines, span = self._open_attempt(
                peer, keys, unit_span, "primary"
            )
            firsts[peer] = _FirstAttempt(unit_span, span, baselines)
            frame.append((peer, requests, span.wire_context()))
        for first, outcome in zip(firsts.values(), scan_many(frame)):
            first.outcome = outcome
        return firsts

    def _take_first_attempt(
        self, first: _FirstAttempt, peer: str, keys: Sequence[ScanKey]
    ) -> Dict[ScanKey, ColumnTable]:
        """Finish a batched attempt as :meth:`_attempt_scan` finishes its own."""
        outcome = first.outcome
        if isinstance(outcome, Exception):
            first.span.set("error", f"{type(outcome).__name__}: {outcome}")
            first.span.close("error")
            raise outcome
        first.span.close()
        return self._finish_scan(peer, keys, first.baselines, outcome)

    def _scan_unit(
        self,
        peer: str,
        keys: Sequence[ScanKey],
        parent_span,
        first: Optional[_FirstAttempt] = None,
    ) -> Optional[Dict[ScanKey, ColumnTable]]:
        """Scan ``keys`` at ``peer``, retrying under the policy.

        Returns per-key rows, or ``None`` after exhausting the policy — in
        which case exactly **one** :class:`ScanFailure` per relation is
        recorded, regardless of how many attempts were made.

        ``first`` is the unit's first attempt when the wave's batch frame
        already made it (:meth:`_batched_first_attempts`): its outcome
        stands in for attempt 0, and every later attempt is issued here,
        per unit, exactly as without it.

        ``parent_span`` is threaded explicitly because units run on the
        scatter pool, where the submitting thread's ambient span is not
        visible.
        """
        policy = self._policy
        last_error = ""
        attempts = 0
        succeeded = False
        span = (
            first.unit_span if first is not None
            else self._unit_span(parent_span, peer, keys)
        )
        try:
            for attempt in range(policy.retries + 1):
                if attempt:
                    with self._lock:
                        self._retries += 1
                    time.sleep(policy.backoff_delay(attempt - 1))
                attempts = attempt + 1
                try:
                    if first is not None and attempt == 0:
                        result = self._take_first_attempt(first, peer, keys)
                    else:
                        result = self._attempt_scan(
                            peer, keys, span, "primary" if attempt == 0 else "retry"
                        )
                    succeeded = True
                    return result
                except TransportError as exc:
                    last_error = str(exc)
            relations = sorted({key[0] for key in keys})
            self._record_failure(peer, relations, last_error)
            return None
        finally:
            if span.recording:
                span.set("attempts", attempts)
                if not succeeded:
                    span.set("error", last_error)
            span.close(None if succeeded else "error")

    def _run_units(
        self,
        unit_items: Sequence[Tuple[str, List[ScanKey]]],
        wave,
        parallel: bool,
    ) -> List[Optional[Dict[ScanKey, ColumnTable]]]:
        """Every unit of one wave, each under the policy; results in order.

        Units whose first attempt came back on the wave's batch frame
        finish right here, with no thread hop.  The others — every unit of
        a transport without a batch frame, units whose batched attempt
        faulted and now retry — still have wire time to overlap and run
        on the scatter pool.
        """
        firsts = self._batched_first_attempts(unit_items, wave)

        def unit_args(index: int):
            # Popping hands the first attempt (and its open spans) over
            # to the unit; what is left at the end, nobody took.
            peer, batch = unit_items[index]
            return peer, batch, wave, firsts.pop(peer, None)

        results: List[Optional[Dict[ScanKey, ColumnTable]]] = (
            [None] * len(unit_items)
        )
        on_wire: List[int] = []
        try:
            for index, (peer, _) in enumerate(unit_items):
                first = firsts.get(peer)
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
        requests: Iterable[Tuple[str, Pattern]],
        parallel: bool = True,
    ) -> int:
        """Scatter-gather every not-yet-memoized scan in ``requests``.

        Each request is a ``(relation, pattern)`` pair, as
        :meth:`UnionPlan.scan_requests
        <repro.pdms.planning.UnionPlan.scan_requests>` produces them.
        Requests are batched into one *scan unit* per owning peer; with
        ``parallel`` (and a transport that benefits — sockets, or injected
        latency) the units run concurrently on a thread pool, so a
        rewriting touching *k* peers pays one RPC round-trip instead of
        *k*.  Each unit retries under the :class:`ScanPolicy`.  Returns
        the number of scans fetched.  Transport faults degrade (see the
        module docstring); data errors propagate.
        """
        self._check_open()
        wanted: List[ScanKey] = []
        seen: Set[ScanKey] = set()
        units: Dict[str, List[ScanKey]] = {}
        with self._lock:
            generation = self._generation
            for relation, pattern in requests:
                key = (relation, encode_pattern(pattern))
                if key in self._memo or key in seen:
                    continue
                seen.add(key)
                wanted.append(key)
                for peer in self._routes.get(relation, ()):
                    units.setdefault(peer, []).append(key)
            if not wanted:
                return 0
            self._waves += 1
        unit_items = list(units.items())
        with current_span().child(
            "scatter.wave", scans=len(wanted), units=len(unit_items)
        ) as wave:
            results = self._run_units(unit_items, wave, parallel)
            if wave.recording:
                wave.set(
                    "failed_units", sum(1 for per in results if per is None)
                )
        merged: Dict[ScanKey, List[ColumnTable]] = {key: [] for key in wanted}
        for (_, batch), per_key in zip(unit_items, results):
            if per_key is None:
                continue
            for key in batch:
                merged[key].append(per_key[key])
        with self._lock:
            # A concurrent refresh() that invalidated anything may have
            # dropped entries these scans would now resurrect with
            # pre-refresh rows — skip the commit; the next reader rescans.
            if self._generation == generation:
                for key in wanted:
                    self._memo[key] = union_blocks(merged[key], len(key[1]))
        return len(wanted)

    def answer_hooks(self) -> Dict[str, object]:
        """Start one answer over this source: the plan path's scatter hooks.

        The plan path (:mod:`repro.pdms.execution`) calls this once per
        answer, before the first root.  It runs one describe round so the
        answer sees current version tokens, then returns the keyword hooks
        of :func:`~repro.pdms.planning.plan_answer_batches`:

        * ``before_root`` scatters every stored-relation scan under the
          root in one wave (:meth:`prefetch`) unless the root is warm in
          the answer's fragment cache, so fragment evaluation never blocks
          on the wire;
        * ``after_scan`` restarts the answer's version snapshot whenever
          :attr:`failure_count` moved (a scan of this answer or of a
          concurrent one degraded a relation), so partial rows are never
          cached as complete.  ``before_root`` runs it too, after the wave.
        """
        with current_span().child("source.refresh"):
            self.refresh()
        failures_seen = self.failure_count

        def after_scan(evaluation) -> None:
            nonlocal failures_seen
            failures = self.failure_count
            if failures != failures_seen:
                failures_seen = failures
                evaluation.restart()

        def before_root(evaluation, root_key: str) -> None:
            if not evaluation.cached(root_key):
                self.prefetch(evaluation.plan.scan_requests(root_key))
            after_scan(evaluation)

        return {"before_root": before_root, "after_scan": after_scan}

    def get_matching(self, predicate: str, pattern: Pattern) -> Tuple[Row, ...]:
        """The rows :meth:`scan_block` holds, as tuples (for the oracle
        and the statistics pass)."""
        return tuple(self.scan_block(predicate, pattern).iter_rows())

    def scan_block(self, predicate: str, pattern: Pattern) -> ColumnTable:
        """The memoized table of ``(predicate, pattern)``, scanned cold
        on a miss.  A key one owner serves keeps that owner's table as
        is; one spanning several owners keeps their distinct union."""
        self._check_open()
        key = (predicate, encode_pattern(pattern))
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                return cached
            owners = self._routes.get(predicate, ())
            generation = self._generation
        if not owners:
            return ColumnTable.from_rows(scan_columns(len(pattern)), ())
        tables: List[ColumnTable] = []
        with current_span().child(
            "scatter.wave",
            scans=1,
            units=len(owners),
            cold=True,
            relation=predicate,
        ) as wave:
            for peer in owners:
                per_key = self._scan_unit(peer, [key], wave)
                if per_key is not None:
                    tables.append(per_key[key])
        combined = union_blocks(tables, len(pattern))
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
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"RemotePeerFactSource({len(self._peer_names)} peers, "
                f"{len(self._routes)} relations, {len(self._memo)} memoized, "
                f"{len(self._failures)} failures)"
            )
