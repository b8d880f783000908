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
  memoized, as the column table the wire delivered, and served while
  its token is the relation's wire-fetched version token as of the last
  :meth:`refresh`.  The join engine's inner loop repeats identical
  probes constantly; each distinct probe crosses the wire once per data
  version, and batched prefetch (:meth:`prefetch`) fetches a whole
  rewriting's scans in one scatter-gather round — one round trip, where
  the transport has a batch frame.
* **Version tokens over the wire** — ``describe_many`` ships each
  relation's data-version token from its one owning peer in one round
  (one frame over sockets, in which a peer whose catalogue token is the
  one last committed answers "unchanged"; a relation two peers serve
  raises, see :func:`~repro.pdms.execution.owners_of`).
  :meth:`data_version` is that token in a one-tuple (``()``: no
  reachable peer serves it), so a remote write or a relation changing
  hands moves it and the :class:`~repro.pdms.materialization.FragmentCache`
  stops serving stale fragments.
* **Degradation, not failure** — a scan lost to a
  :class:`~repro.errors.TransportError` contributes no rows (a *sound
  subset* under monotone conjunctive queries), records a
  :class:`ScanFailure`, and marks the relation *degraded*:
  :meth:`data_version` answers ``None`` for degraded relations so no
  partial fragment can be admitted to a version-keyed cache, and the
  relation's unscanned keys read as no rows until the next
  :meth:`refresh`.  Data errors still raise, exactly like a local probe.

Two more mechanisms sit on the scan path (see ``docs/distributed.md``,
"Retries and delta re-scans").  Scans are organised into *units* — one
per owning peer, carrying every scan of the wave that peer serves — and
a wave is one loop of rounds under a :class:`ScanPolicy`:

* **retries** — each round sends every pending unit's attempt in one
  ``scan_many`` call (one frame over sockets); the units lost to a
  ``TransportError`` wait one shared backoff (exponential + jitter) and
  go again together in the next round.  A scan that succeeds on retry
  records *no* failure, so ``complete`` is re-earned instead of
  permanently degraded, and a unit that exhausts its attempts is counted
  **once**, not once per attempt;
* **delta re-scans** — a memoized scan whose token is no longer the
  described one is not served, but it is the *cursor* of the key's next
  scan: the re-scan sends its token as ``since``, so an advanced peer
  ships only its newly added rows
  (:func:`~repro.pdms.distributed.transport.scan_instance_since`); the
  merged result equals a full rescan by the monotone-log contract.

Every scan runs on the caller's thread; the source is thread-safe, and
one instance may serve many concurrent query executions (threads
sharing one :class:`~repro.pdms.distributed.cluster.ServiceCluster`,
say).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ... import config as _config
from ...database.columnar import ColumnTable, rows_absent, scan_columns
from ...database.columnar import union_all, union_blocks
from ...datalog.indexing import WILDCARD, Pattern
from ...errors import TransportError
from ...obs.metrics import METRICS_SCHEMA_VERSION
from ...obs.trace import current_span
from ..execution import owners_of
from .transport import (
    EncodedPattern,
    RelationInfo,
    Row,
    Transport,
    describe_each,
    encode_pattern,
    scan_each,
)

#: One memoized scan: ``(relation, encoded pattern)``.
ScanKey = Tuple[str, EncodedPattern]

#: Deltas kept per scan key (see :meth:`RemotePeerFactSource.delta_block`):
#: a fragment up to this many writes behind steps without a round trip.
#: The chain holds only rows its relation gained, so it is bounded by
#: this many write batches per scanned ``(relation, pattern)``.
DELTA_CHAIN_LINKS = 16


#: What a peer with no committed catalog is asked with: no token.
_UNKNOWN = (None, None)


def _empty(width: int) -> ColumnTable:
    """The scan table of no rows."""
    return ColumnTable.from_rows(scan_columns(width), ())


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
    ``describe_many`` round establishing each relation's owner (with the
    same one-owner check the in-process federated source performs), its
    cardinality for the cost model, and the version tokens the scan memo
    and fragment caches key on.
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
        #: relation -> its owning peer, and what that peer last described
        #: of it: ``(arity, cardinality, wire token)``.
        self._routes: Dict[str, str] = {}
        self._infos: Dict[str, RelationInfo] = {}
        #: peer -> ``(catalogue token, catalog)`` the routes were built
        #: from; the token is what the next round asks the peer with.
        self._catalogs: Dict[str, Tuple[object, Dict[str, RelationInfo]]] = {}
        #: Per ``(relation, encoded pattern)``, the last scan that arrived:
        #: its token (:meth:`data_version`'s shape) and its distinct rows,
        #: exactly at that token, as one column table.  An entry is served
        #: only while its token is the relation's described one
        #: (:meth:`_served`), so a refresh that moves a token drops
        #: nothing, and rows scanned before a refresh are never served
        #: after it under a newer token.  An entry that is not served is
        #: the key's delta cursor: the server validates it against its
        #: live version, so a stale cursor can only re-ship rows, never
        #: lose them.
        self._scans: Dict[ScanKey, Tuple[tuple, ColumnTable]] = {}
        #: Per scan key, the last :data:`DELTA_CHAIN_LINKS` deltas its
        #: cursor shipped, as ``(from token, to token, rows new to the
        #: table)``: what :meth:`delta_block` steps a fragment forward by.
        self._chains: Dict[ScanKey, List[Tuple[object, object, ColumnTable]]] = {}
        self._degraded: Set[str] = set()
        self._unreachable: Set[str] = set()
        self._failures: List[ScanFailure] = []
        self._waves = 0
        self._retries = 0
        self._delta_scans = 0
        self._full_scans = 0
        self._delta_rows = 0
        self._full_rows = 0
        self._closed = False
        self.refresh()

    # -- metadata ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise TransportError("RemotePeerFactSource is closed")

    def refresh(self) -> int:
        """Re-fetch peer catalogs: the owners and their version tokens;
        how many peers' catalogs came back changed.

        The describe round (one ``describe_many`` for all peers, the failed
        subset retried as a batch) happens outside the lock, so concurrent
        refreshes overlap on the wire; the commit — routing table, version
        tokens, clearing the degraded set — is atomic.  The round is
        conditional: each peer is asked with the catalogue token committed
        with its catalog, and when every reachable peer answers
        "unchanged" (or, through the per-peer default, with the committed
        catalog) the routes and tokens stand and only the degraded set
        and the failures move.
        An unreachable peer is recorded as a :class:`ScanFailure` (its
        relations drop out of the routing table, which itself moves the
        affected version tokens) rather than raising.  A relation two
        peers serve raises :class:`~repro.errors.MappingError` naming both,
        exactly like the in-process federated source, and changes nothing.
        """
        self._check_open()
        known = self._catalogs
        fetched, unreachable = self._describe_all(known)
        changed = sum(1 for peer, entry in fetched.items() if known.get(peer) != entry)
        same = not changed and len(fetched) == len(known)
        if not same:
            # In peer order, whatever round fetched them.
            catalogs = {peer: fetched[peer] for peer in self._peer_names if peer in fetched}
            routes = owners_of((peer, catalog) for peer, (_, catalog) in catalogs.items())
            infos = {
                relation: catalogs[peer][1][relation] for relation, peer in routes.items()
            }
        with self._lock:
            for peer, error in unreachable.items():
                self._failures.append(ScanFailure(peer, "*", error))
            self._unreachable = set(unreachable)
            self._degraded = set()
            if same:
                return 0
            # Scans of vanished relations are dead weight (and a relation
            # that later returns may be different data); drop them.  The
            # others stay: one whose token moved is the cursor that turns
            # the next scan into a delta.
            gone = self._routes.keys() - routes.keys()
            if gone:
                self._scans = {
                    key: scan for key, scan in self._scans.items() if key[0] not in gone
                }
                self._chains = {
                    key: links for key, links in self._chains.items() if key[0] not in gone
                }
            self._routes = routes
            self._infos = infos
            self._catalogs = catalogs
        return changed

    def _describe_all(
        self, known: Dict[str, Tuple[object, Dict[str, RelationInfo]]]
    ) -> Tuple[Dict[str, Tuple[object, Dict[str, RelationInfo]]], Dict[str, str]]:
        """(``(token, catalog)`` per reachable peer, error per unreachable one).

        One ``describe_many`` round for every peer, each asked with its
        token in ``known`` (none for a peer not in it); an "unchanged"
        reply stands for the ``known`` entry, and a bare catalog (the
        per-peer default) comes with no token.  The subset that faulted
        goes again together on the policy's backoff ladder
        (:meth:`_retry_rounds`).
        """
        describe_many = getattr(
            self._transport, "describe_many", None
        ) or partial(describe_each, self._transport)
        fetched: Dict[str, Tuple[object, Dict[str, RelationInfo]]] = {}
        errors: Dict[str, str] = {}

        def send(pending: Sequence[str], attempt: int) -> List[str]:
            asked = {peer: known.get(peer, _UNKNOWN)[0] for peer in pending}
            for peer, outcome in describe_many(asked).items():
                if outcome is None:
                    fetched[peer] = known[peer]
                elif isinstance(outcome, TransportError):
                    errors[peer] = str(outcome)
                else:
                    fetched[peer] = outcome if type(outcome) is tuple else (None, outcome)
            return [peer for peer in pending if peer not in fetched]

        unreachable = self._retry_rounds(self._peer_names, send)
        return fetched, {peer: errors[peer] for peer in unreachable}

    def _retry_rounds(self, pending: Sequence, send) -> Sequence:
        """Run ``send(pending, attempt)`` round after round on the policy's
        backoff ladder; what is left pending when the budget is spent.

        ``send`` returns what it must send again.  Everything that faulted
        in a round waits out one shared backoff and goes in the next round
        together, so k faulted peers climb one ladder, not k of their own.
        """
        policy = self._policy
        for attempt in range(policy.retries + 1):
            if attempt:
                time.sleep(policy.backoff_delay(attempt - 1))
            pending = send(pending, attempt)
            if not pending:
                break
        return pending

    def scatter_stats(self) -> Dict[str, int]:
        """Scatter counters (monotone since construction).

        ``fanout_waves`` counts :meth:`prefetch` waves that fetched
        anything; ``retries`` one per unit re-attempt after a transport
        fault;
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

    def owner(self, relation: str) -> Optional[str]:
        """The peer serving ``relation`` (``None`` if unknown/unreachable);
        write routing uses this."""
        with self._lock:
            return self._routes.get(relation)

    def arity(self, relation: str) -> Optional[int]:
        """Arity of ``relation`` as its owner described it, if known."""
        with self._lock:
            info = self._infos.get(relation)
            return info[0] if info is not None else None

    def cardinality(self, relation: str) -> int:
        """The owner's row count, as of the last refresh."""
        with self._lock:
            info = self._infos.get(relation)
            return info[1] if info is not None else 0

    def data_version(self, relation: str) -> Optional[Tuple[object, ...]]:
        """The owner's wire-fetched version token of ``relation``.

        ``None`` for *degraded* relations (a scan failed since the last
        refresh) — version-keyed caches must bypass them, because a
        fragment computed from partial rows under an unchanged token
        would later be served as complete.
        """
        with self._lock:
            if relation in self._degraded:
                return None
            return self._described(relation)

    def _described(self, relation: str) -> tuple:
        info = self._infos.get(relation)
        return (info[2],) if info is not None else ()

    def _served(self, key: ScanKey) -> Optional[Tuple[object, ColumnTable]]:
        """What a read of ``key`` is served without a scan (lock held):
        its scan while the token is current; no rows under no token while
        its relation is degraded (a lost scan is not retried until the
        next refresh); otherwise ``None``, a scan is due."""
        scan = self._scans.get(key)
        if scan is not None and scan[0] == self._described(key[0]):
            return scan
        if key[0] in self._degraded:
            return None, _empty(len(key[1]))
        return None

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

        Simulates a genuinely cold consumer: a memoized scan is also its
        key's delta cursor, so the next scan ships the full relation
        instead of an empty delta, and the delta chains go too.
        """
        with self._lock:
            dropped = len(self._scans)
            self._scans.clear()
            self._chains.clear()
            return dropped

    # -- the scan wave: one frame per round ---------------------------------

    def _record_failure(self, peer: str, relations: Iterable[str], error: str) -> None:
        with self._lock:
            for relation in relations:
                self._failures.append(ScanFailure(peer, relation, error))
                self._degraded.add(relation)

    def _open_attempt(
        self,
        peer: str,
        keys: Sequence[ScanKey],
        parent_span,
        kind: str,
    ):
        """(wire batch, delta baselines, open ``scan.attempt`` span) for ``peer``."""
        with self._lock:
            # A scan under the empty token (no owner then) is no cursor.
            baselines = {
                key: scan
                for key in keys
                if (scan := self._scans.get(key)) is not None and scan[0]
            }
        requests = [
            (
                key[0],
                key[1],
                baselines[key][0][0] if self._delta and key in baselines else None,
            )
            for key in keys
        ]
        span = parent_span.child(
            "scan.attempt", peer=peer, kind=kind, scans=len(requests)
        )
        return requests, baselines, span

    def _finish_scan(
        self,
        keys: Sequence[ScanKey],
        baselines: Dict[ScanKey, Tuple[tuple, ColumnTable]],
        results,
    ) -> Dict[ScanKey, Tuple[object, ColumnTable]]:
        """Merge one successful wire response into the scans; per key,
        ``(token, merged table)`` in :meth:`data_version`'s shape.

        A delta is merged column-wise and deduplicated: a token read that
        raced an insert can re-ship rows the base already holds.  The rows
        new to the merged block extend the key's delta chain."""
        out: Dict[ScanKey, Tuple[object, ColumnTable]] = {}
        delta_scans = full_scans = delta_rows = full_rows = 0
        links = []
        for key, (full, token, table) in zip(keys, results):
            base = baselines.get(key)
            if not full and base is not None:
                merged = union_blocks([base[1], table], len(key[1]))
                delta_scans += 1
                delta_rows += len(table)
                if (token,) != base[0]:
                    added = (
                        table if len(merged) == len(base[1]) + len(table)
                        else rows_absent(table, base[1])
                    )
                    links.append((key, (base[0], (token,), added)))
            else:
                merged = table
                full_scans += 1
                full_rows += len(table)
            out[key] = ((token,), merged)
        with self._lock:
            self._delta_scans += delta_scans
            self._full_scans += full_scans
            self._delta_rows += delta_rows
            self._full_rows += full_rows
            self._scans.update(out)
            for key, link in links:
                chain = self._chains.setdefault(key, [])
                chain.append(link)
                del chain[:-DELTA_CHAIN_LINKS]
        return out

    def _scan_wave(
        self, units: Sequence[Tuple[str, List[ScanKey]]], wave
    ) -> Dict[ScanKey, Tuple[object, ColumnTable]]:
        """Scan every unit of one wave; ``(token, table)`` per key scanned.

        Each round sends every pending unit's attempt in one ``scan_many``
        call (one batch frame over sockets; the per-peer default
        :func:`~repro.pdms.distributed.transport.scan_each` elsewhere),
        each entry carrying its own attempt's trace context.  A unit that
        gets rows is finished on the spot; the units lost to a
        ``TransportError`` go again together after one shared backoff
        (:meth:`_retry_rounds`), and a unit out of budget records exactly
        one :class:`ScanFailure` per relation, however many attempts it
        made.  A data error raises once every span of the wave is closed.
        """
        scan_many = getattr(self._transport, "scan_many", None) or partial(
            scan_each, self._transport
        )
        #: The ``scan.unit`` span of every unit not yet finished.
        open_units = {
            peer: wave.child(
                "scan.unit",
                peer=peer,
                relations=",".join(sorted({key[0] for key in keys})),
                scans=len(keys),
            )
            for peer, keys in units
        }
        attempts: Dict[str, int] = {}
        errors: Dict[str, str] = {}
        data_errors: List[Exception] = []
        done: Dict[ScanKey, Tuple[object, ColumnTable]] = {}

        def send(pending, attempt: int):
            if attempt:
                with self._lock:
                    self._retries += len(pending)
            kind = "retry" if attempt else "primary"
            sent = [
                (peer, keys, *self._open_attempt(peer, keys, open_units[peer], kind))
                for peer, keys in pending
            ]
            try:
                outcomes = scan_many([
                    (peer, requests, span.wire_context())
                    for peer, _, requests, _, span in sent
                ])
            except BaseException:
                for *_, span in sent:
                    span.close("cancelled")
                raise
            faulted = []
            for (peer, keys, _, baselines, span), outcome in zip(sent, outcomes):
                attempts[peer] = attempt + 1
                if isinstance(outcome, Exception):
                    errors[peer] = str(outcome)
                    span.set("error", f"{type(outcome).__name__}: {outcome}")
                    span.close("error")
                    if isinstance(outcome, TransportError):
                        faulted.append((peer, keys))
                    else:
                        data_errors.append(outcome)
                    continue
                span.close()
                done.update(self._finish_scan(keys, baselines, outcome))
                unit = open_units.pop(peer)
                if unit.recording:
                    unit.set("attempts", attempt + 1)
                unit.close()
            return [] if data_errors else faulted

        try:
            lost = self._retry_rounds(units, send)
        finally:
            # Units that got no rows: out of budget, or cut short.
            for peer, unit in open_units.items():
                error = errors.get(peer)
                if unit.recording:
                    unit.set("attempts", attempts.get(peer, 0))
                    if error is not None:
                        unit.set("error", error)
                unit.close("cancelled" if error is None else "error")
        if data_errors:
            raise data_errors[0]
        for peer, keys in lost:
            self._record_failure(peer, sorted({key[0] for key in keys}), errors[peer])
        return done

    def prefetch(self, requests: Iterable[Tuple[str, Pattern]]) -> int:
        """Scatter-gather every not-yet-memoized scan in ``requests``.

        Each request is a ``(relation, pattern)`` pair, as
        :meth:`UnionPlan.scan_requests
        <repro.pdms.planning.UnionPlan.scan_requests>` produces them.
        Requests are batched into one *scan unit* per owning peer, and the
        wave sends every unit's attempt in one frame per round
        (:meth:`_scan_wave`), so a rewriting touching *k* peers pays one
        round trip instead of *k*.  Returns the number of scans fetched.
        Transport faults degrade (see the module docstring); data errors
        propagate.
        """
        self._check_open()
        wanted: List[ScanKey] = []
        seen: Set[ScanKey] = set()
        units: Dict[str, List[ScanKey]] = {}
        with self._lock:
            for relation, pattern in requests:
                key = (relation, encode_pattern(pattern))
                if key in seen or self._served(key) is not None:
                    continue
                seen.add(key)
                wanted.append(key)
                owner = self._routes.get(relation)
                if owner is None:  # no rows, under the empty token
                    self._scans[key] = ((), _empty(len(key[1])))
                else:
                    units.setdefault(owner, []).append(key)
            if not wanted:
                return 0
            self._waves += 1
        with current_span().child(
            "scatter.wave", scans=len(wanted), units=len(units)
        ) as wave:
            done = self._scan_wave(list(units.items()), wave)
            if wave.recording:
                wave.set("failed_units", sum(
                    1 for keys in units.values() if keys[0] not in done
                ))
        return len(wanted)

    def answer_hooks(self) -> Dict[str, object]:
        """Start one answer over this source: a refresh, then the plan
        path's scatter hooks.

        Every answer (:mod:`repro.pdms.execution`, the plan path and the
        oracle alike) calls this once, before its first rewriting.  It runs
        one describe round so the answer sees current version tokens; that
        refresh is what makes a one-frame write
        (:meth:`~repro.pdms.distributed.cluster.ServiceCluster.insert`)
        visible to the next answer.  Only the plan path uses the keyword
        hooks it returns, those of
        :func:`~repro.pdms.evaluator.plan_answer_batches`:

        * ``before_root`` scatters every stored-relation scan under the
          root in one wave (:meth:`prefetch`) unless the root is warm in
          the answer's fragment cache, so fragment evaluation never blocks
          on the wire;
        * ``after_scan`` restarts the answer's version snapshot whenever
          :attr:`failure_count` moved (a scan of this answer or of a
          concurrent one degraded a relation), so partial rows are never
          cached as complete.  ``before_root`` runs it too, after the wave.
        """
        with current_span().child("source.refresh") as span:
            changed = self.refresh()
            if span.recording:
                span.set("changed", changed)
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
        on a miss."""
        return self.tagged_block(predicate, pattern)[1]

    def tagged_block(
        self, predicate: str, pattern: Pattern
    ) -> Tuple[object, ColumnTable]:
        """:meth:`scan_block` with the token its rows are exactly at, in
        :meth:`data_version`'s shape (``None``: no token describes them,
        as after a lost scan)."""
        self._check_open()
        key = (predicate, encode_pattern(pattern))
        with self._lock:
            served = self._served(key)
            if served is not None:
                return served
            owner = self._routes.get(predicate)
        if owner is None:
            return (), _empty(len(pattern))
        with current_span().child(
            "scatter.wave", scans=1, units=1, cold=True, relation=predicate
        ) as wave:
            done = self._scan_wave([(owner, [key])], wave)
        return done[key] if key in done else (None, _empty(len(pattern)))

    def delta_block(
        self, predicate: str, pattern: Pattern, since: object, until: object
    ) -> Optional[ColumnTable]:
        """The rows appends added to ``(predicate, pattern)`` between two
        :meth:`data_version` tokens, read off the key's delta chain — the
        deltas its cursor already shipped, so no frame is sent.

        ``None`` unless the chain links ``since`` to ``until``: a full
        rescan, a degraded relation, or a fragment more than
        :data:`DELTA_CHAIN_LINKS` deltas behind."""
        key = (predicate, encode_pattern(pattern))
        with self._lock:
            if predicate in self._degraded:
                return None
            links = list(self._chains.get(key, ()))
        parts: List[ColumnTable] = []
        at = since
        for start, end, added in links:
            if at == until:
                break
            if start == at:
                parts.append(added)
                at = end
        if at != until:
            return None
        return union_all(parts, scan_columns(len(pattern)))

    def get_tuples(self, predicate: str) -> Tuple[Row, ...]:
        arity = self.arity(predicate)
        if arity is None:
            return ()
        return self.get_matching(predicate, (WILDCARD,) * arity)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the source (the transport is the caller's).

        Later scans and refreshes fail fast with
        :class:`~repro.errors.TransportError` instead of silently
        degrading.
        """
        with self._lock:
            self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"RemotePeerFactSource({len(self._peer_names)} peers, "
                f"{len(self._routes)} relations, {len(self._scans)} scans, "
                f"{len(self._failures)} failures)"
            )
