"""The peer-boundary wire contract and the in-process loopback backend.

A :class:`Transport` connects a query processor to a set of named peers,
each hosting the stored relations it contributed to the PDMS.  The
contract is deliberately tiny — four RPCs, plus one batched form with a
per-peer default — so backends range from a zero-copy in-process
loopback to one worker process per peer
(:class:`~repro.pdms.distributed.process.ProcessTransport`) without the
planner or cache layers noticing:

``describe(peer)``
    One metadata round trip: every relation the peer serves, as
    ``{relation: (arity, cardinality, version token)}``.  The version
    token is the peer's per-relation data version fetched *over the
    wire*, so version-keyed caches (the
    :class:`~repro.pdms.materialization.FragmentCache`) keep working
    across the process boundary.

``describe_many(peers)``
    The catalogue round of a whole refresh: ``{peer: catalog}``, with a
    :class:`~repro.errors.TransportError` *as the value* for a peer that
    could not be described, so one dead peer never hides the others.
    :class:`TransportBase` supplies the default — ``describe`` peer by
    peer (:func:`describe_each`) — and a backend with a batch frame
    (:class:`~repro.pdms.distributed.async_transport.AsyncSocketTransport`)
    answers it in one round trip.  A transport that has no such method at
    all is served through the same per-peer default.

``scan_batch(peer, requests)``
    The workhorse: a batch of pattern-level scans, one round trip.  Each
    request is ``(relation, encoded pattern)`` (see
    :func:`encode_pattern`); the response carries one row tuple list per
    request, in order.  Batching is what keeps the RPC count per query at
    "one per peer per rewriting" instead of "one per index probe".

``insert(peer, relation, rows)``
    Appends rows at the owning peer (moves its version token).  Exists so
    live-write workloads — and the chaos tests — can mutate remote data
    through the same boundary they query through.

``close()``
    Releases backend resources (worker processes, pipes).

Failures are reported as :class:`~repro.errors.TransportError`; *data*
errors (an arity clash detected by the remote index) surface as
``ValueError`` exactly like a local probe, so the planner's error paths
stay transport-agnostic.

:class:`LoopbackTransport` serves live in-process instances with zero
copying — and doubles as the chaos harness: ``delay`` injects per-RPC
latency, ``fail_peer`` makes one peer unreachable, and ``drop_every_n``
drops every n-th scan RPC.
"""

from __future__ import annotations

import threading
import time
from typing import (
    Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple, Union,
)

from ...database.instance import Instance
from ...datalog.indexing import WILDCARD, Pattern
from ...errors import TransportError
from ...obs.metrics import METRICS_SCHEMA_VERSION
from ...obs.trace import ServeSpan, current_wire_context, get_tracer

Row = Tuple[object, ...]

#: A wire-encoded pattern entry: ``("*",)`` for a wildcard position or
#: ``("=", value)`` for a required value.  ``WILDCARD`` itself is a
#: process-local singleton, so it must never cross the wire.
EncodedEntry = Tuple[object, ...]
EncodedPattern = Tuple[EncodedEntry, ...]

#: One scan request on the wire: ``(relation, encoded pattern)``.
ScanRequest = Tuple[str, EncodedPattern]

#: A delta-capable scan request: ``(relation, encoded pattern, since)``.
#: ``since`` is the version token of the caller's memoized full scan, or
#: ``None`` for an unconditional full scan.
SinceScanRequest = Tuple[str, EncodedPattern, object]

#: One delta-capable scan response: ``(full, token, rows)``.  ``full`` is
#: ``True`` when ``rows`` is a complete rescan, ``False`` when it is only
#: the rows added since the request's ``since`` token; ``token`` is the
#: relation's version token *at or before* the scan (so merging the rows
#: into the memo keyed by ``token`` never claims data it does not hold).
ScanSinceResult = Tuple[bool, object, Tuple[Row, ...]]

#: ``describe`` response entry: ``(arity, cardinality, version token)``.
RelationInfo = Tuple[int, int, object]

#: ``describe_many`` response: per peer its catalog, or the fault that
#: kept it from being described.
Catalogs = Dict[str, Union[Dict[str, RelationInfo], TransportError]]


class TraceEnvelope:
    """A traced RPC reply: the real value plus worker-side span records.

    Remote backends (process, socket) wrap their reply in one of these
    *only* when the request carried a wire trace context — an untraced
    request (the default, and everything an old client sends) gets the
    bare value, so the reply format is exactly as before unless both
    ends opted in.  The client-side transport method unwraps the
    envelope and grafts the records into the caller's trace before
    returning, so nothing above the transport layer ever sees one.
    """

    __slots__ = ("value", "spans")

    def __init__(self, value, spans):
        self.value = value
        self.spans = spans

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEnvelope({self.value!r}, {len(self.spans)} spans)"


def traced_reply(value, span: "ServeSpan"):
    """Envelope a serve-side reply with its span — only when one recorded.

    Untraced requests (including everything an old client sends) get the
    bare value, keeping the reply format byte-compatible; a traced
    request gets a :class:`TraceEnvelope` the new client unwraps.
    """
    records = span.records()
    return TraceEnvelope(value, records) if records else value


def unwrap_envelope(reply):
    """Unwrap a possibly-enveloped reply, adopting its worker spans.

    Tolerant by design: a bare reply (old peer, untraced request) passes
    through unchanged, which is the wire-compatibility contract.
    """
    if isinstance(reply, TraceEnvelope):
        if reply.spans:
            get_tracer().adopt(reply.spans)
        return reply.value
    return reply


def encode_pattern(pattern: Pattern) -> EncodedPattern:
    """Encode a probe pattern for the wire (wildcards made explicit).

    ``None`` is a legal data value, and :data:`WILDCARD` is a process-local
    singleton, so each position is tagged: ``("*",)`` means unconstrained,
    ``("=", value)`` means the row must carry ``value`` there.
    """
    return tuple(
        ("*",) if entry is WILDCARD else ("=", entry) for entry in pattern
    )


def decode_pattern(encoded: EncodedPattern) -> Pattern:
    """Decode a wire pattern back into the local probe representation."""
    decoded: List[object] = []
    for entry in encoded:
        if entry[0] == "*":
            decoded.append(WILDCARD)
        elif entry[0] == "=":
            decoded.append(entry[1])
        else:
            raise TransportError(f"malformed wire pattern entry {entry!r}")
    return tuple(decoded)


def describe_instance(instance: Instance) -> Dict[str, RelationInfo]:
    """One instance's ``describe`` catalog — the single wire shape.

    Shared by every backend (loopback serves it directly, the process
    worker builds it remotely), so the catalog format cannot drift
    between transports.  Relations whose arity is unknown are skipped —
    they cannot be probed by any atom.
    """
    info: Dict[str, RelationInfo] = {}
    for relation in instance.relations():
        arity = instance.arity(relation)
        if arity is None:
            continue
        info[relation] = (
            arity,
            instance.cardinality(relation),
            instance.data_version(relation),
        )
    return info


def describe_each(transport: "Transport", peers: Iterable[str]) -> Catalogs:
    """The per-peer ``describe_many``: one ``describe`` call per peer.

    Routes through ``transport.describe``, so subclass overrides and
    chaos hooks see every catalogue fetch exactly as before the batched
    form existed.  Only transport faults become values; anything else
    (a bug, a data error) propagates.
    """
    catalogs: Catalogs = {}
    for peer in peers:
        try:
            catalogs[peer] = transport.describe(peer)
        except TransportError as exc:
            catalogs[peer] = exc
    return catalogs


def scan_instance_since(
    instance: Instance, relation: str, encoded: EncodedPattern, since: object
) -> ScanSinceResult:
    """Serve one delta-capable scan request against a live instance.

    The single server-side delta implementation, shared by every backend
    (loopback serves it directly, the process worker and the socket
    server run it remotely), so the delta contract cannot drift:

    * ``since`` matching the current token exactly → empty delta
      (``full=False``) — the near-constant-size rescan;
    * ``since`` from this instance with additive history available
      (:meth:`~repro.database.instance.Instance.rows_since`) → only the
      rows added since, filtered by the pattern (``full=False``);
    * anything else (foreign token, removals, log overflow) → a full
      rescan (``full=True``).

    Delta rows whose width clashes with the probing pattern raise
    :class:`ValueError`, matching the full-scan data-error contract.
    """
    pattern = decode_pattern(encoded)
    token = instance.data_version(relation)
    if (
        isinstance(since, tuple)
        and len(since) == 2
        and since[0] == token[0]
        and isinstance(since[1], int)
    ):
        if since[1] == token[1]:
            return (False, token, ())
        rows_since = getattr(instance, "rows_since", None)
        delta = rows_since(relation, since[1]) if rows_since is not None else None
        if delta is not None:
            width = len(pattern)
            matched: List[Row] = []
            for row in delta:
                if len(row) != width:
                    raise ValueError(
                        f"relation {relation!r} holds a row of width "
                        f"{len(row)} but the probing atom has arity {width}"
                    )
                if all(
                    entry is WILDCARD or row[i] == entry
                    for i, entry in enumerate(pattern)
                ):
                    matched.append(row)
            return (False, token, tuple(matched))
    return (True, token, tuple(instance.get_matching(relation, pattern)))


class Transport(Protocol):
    """The peer-boundary RPC contract (see the module docstring)."""

    def peers(self) -> Tuple[str, ...]:  # pragma: no cover - protocol
        ...

    def describe(self, peer: str) -> Dict[str, RelationInfo]:  # pragma: no cover
        ...

    def scan_batch(
        self, peer: str, requests: Sequence[ScanRequest]
    ) -> List[Tuple[Row, ...]]:  # pragma: no cover - protocol
        ...

    def scan_batch_since(
        self, peer: str, requests: Sequence[SinceScanRequest]
    ) -> List[ScanSinceResult]:  # pragma: no cover - protocol
        ...

    def insert(
        self, peer: str, relation: str, rows: Iterable[Row]
    ) -> int:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class TransportBase:
    """Shared chaos-injection and traffic-accounting state for backends.

    Subclasses provide the wire; this base owns the injected-failure set
    (:meth:`fail_peer` / :meth:`restore_peer`), the per-peer scan
    counters, the RPC counter, and the context-manager/closed flag, so
    failure accounting and chaos semantics cannot drift between
    backends.  Backends with an additional notion of brokenness (e.g. a
    tripped timeout circuit) override :meth:`_broken_peers`.
    """

    def __init__(self, peers: Iterable[str]):
        self._failed: set = set()
        self._lock = threading.Lock()
        self._scan_counts: Dict[str, int] = {name: 0 for name in peers}
        self._peer_delays: Dict[str, float] = {}
        self._rpc_count = 0
        self._closed = False

    # -- chaos hooks -------------------------------------------------------

    def fail_peer(self, peer: str) -> None:
        """Make ``peer`` unreachable until :meth:`restore_peer`."""
        with self._lock:
            self._failed.add(peer)

    def restore_peer(self, peer: str) -> None:
        """Bring a failed peer back (circuit-broken peers stay broken)."""
        with self._lock:
            self._failed.discard(peer)

    def set_peer_delay(self, peer: str, seconds: float) -> None:
        """Inject extra per-RPC latency for one peer (0 clears it).

        The chaos hook behind the tail-latency scenarios: slow exactly
        one replica and watch hedging route around it.
        """
        with self._lock:
            if seconds > 0:
                self._peer_delays[peer] = seconds
            else:
                self._peer_delays.pop(peer, None)

    def peer_delay(self, peer: str) -> float:
        """The injected extra latency for ``peer`` (seconds)."""
        with self._lock:
            return self._peer_delays.get(peer, 0.0)

    def _broken_peers(self) -> Iterable[str]:
        """Peers broken by the backend itself (beyond injected failures)."""
        return ()

    def failed_peers(self) -> Tuple[str, ...]:
        """Peers injected as failed or broken by the backend."""
        with self._lock:
            return tuple(sorted(self._failed | set(self._broken_peers())))

    # -- introspection -----------------------------------------------------

    def scan_count(self, peer: str) -> int:
        """Individual scan requests served for ``peer`` so far."""
        with self._lock:
            return self._scan_counts.get(peer, 0)

    def _count_scans(self, peer: str, count: int) -> None:
        with self._lock:
            self._scan_counts[peer] = self._scan_counts.get(peer, 0) + count

    @property
    def rpc_count(self) -> int:
        """Total RPCs attempted across all peers and operations.

        Counts round trips: a batch frame is one, however many
        sub-requests it carries.
        """
        return self._rpc_count

    def transport_metrics(self) -> Dict[str, object]:
        """Schema-versioned traffic counters for the metrics registry.

        The transport's ad-hoc accounting (RPC total, per-peer scan
        counts, injected/broken peers) in the uniform collector shape —
        a fresh dict each call, safe to mutate.
        """
        with self._lock:
            return {
                "schema_version": METRICS_SCHEMA_VERSION,
                "rpc_count": self._rpc_count,
                "scan_counts": dict(self._scan_counts),
                "failed_peers": sorted(
                    self._failed | set(self._broken_peers())
                ),
            }

    # -- batched catalogues ------------------------------------------------

    def describe_many(self, peers: Iterable[str]) -> Catalogs:
        """Every listed peer's catalog (or its fault); the per-peer default."""
        return describe_each(self, peers)

    # -- delta scans -------------------------------------------------------

    def scan_batch_since(
        self, peer: str, requests: Sequence[SinceScanRequest]
    ) -> List[ScanSinceResult]:
        """Delta-capable scan batch; the base falls back to full scans.

        Backends without a delta implementation serve every request as a
        full rescan through their (possibly subclass-overridden)
        :meth:`scan_batch`, with no version token — callers then simply
        never send a ``since`` cursor to this backend.
        """
        rows = self.scan_batch(  # type: ignore[attr-defined]
            peer, [(relation, encoded) for relation, encoded, _ in requests]
        )
        return [(True, None, result) for result in rows]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LoopbackTransport(TransportBase):
    """Zero-copy transport over live in-process peer instances.

    The reference backend: scans route straight to the owning
    :class:`~repro.database.instance.Instance` (including its maintained
    hash indexes) with no serialization, so it is both the fastest way to
    run the ``"distributed"`` engine and the baseline the process backend
    is measured against.

    It is also the chaos harness.  Three injection hooks, all safe to
    flip at runtime:

    ``delay``
        Seconds slept inside every RPC (simulated wire latency; applies
        to ``describe`` and ``scan_batch``).
    ``fail_peer(name)`` / ``restore_peer(name)``
        While failed, every RPC to the peer raises
        :class:`~repro.errors.TransportError` — an unreachable peer.
    ``drop_every_n``
        When set to *n* > 0, every n-th ``scan_batch`` RPC (counted
        transport-wide) raises — transient packet-loss-style faults.
    ``row_cost``
        Seconds slept per row returned by a ``scan_batch`` (simulated
        wire-transfer time, proportional to payload).  Like ``delay`` the
        sleep releases the GIL, so per-shard scans issued concurrently
        overlap — which is exactly how sharding wins wall-clock time on
        the benchmark workloads.

    Per-peer scan counters (:meth:`scan_count`) count individual scan
    requests served, for the examples' per-peer traffic reports.
    """

    def __init__(
        self,
        instances: Mapping[str, Instance],
        delay: float = 0.0,
        drop_every_n: int = 0,
        row_cost: float = 0.0,
    ):
        self._instances: Dict[str, Instance] = dict(instances)
        super().__init__(self._instances)
        self.delay = delay
        self.drop_every_n = drop_every_n
        self.row_cost = row_cost
        self._scan_rpc_count = 0

    # -- introspection -----------------------------------------------------

    def instance(self, peer: str) -> Instance:
        """The live instance behind ``peer`` (tests mutate data through it)."""
        return self._instances[peer]

    @property
    def prefers_parallel(self) -> bool:
        """Scatter hint: threads only pay off once RPCs have latency.

        Zero-latency loopback RPCs are plain function calls under the
        GIL — a thread pool adds overhead and wins nothing — so the
        remote source scatters sequentially unless latency (per RPC or
        per row, globally or per peer) is injected.
        """
        return self.delay > 0 or self.row_cost > 0 or bool(self._peer_delays)

    # -- the wire ----------------------------------------------------------

    def _enter_rpc(self, peer: str, scan: bool = False) -> None:
        if self._closed:
            raise TransportError("transport is closed", peer=peer)
        with self._lock:
            self._rpc_count += 1
            if peer in self._failed:
                raise TransportError(f"peer {peer!r} is unreachable", peer=peer)
            if peer not in self._instances:
                raise TransportError(f"unknown peer {peer!r}", peer=peer)
            if scan:
                self._scan_rpc_count += 1
                if self.drop_every_n and self._scan_rpc_count % self.drop_every_n == 0:
                    raise TransportError(
                        f"scan RPC to {peer!r} dropped (injected)", peer=peer
                    )
        if self.delay > 0:
            time.sleep(self.delay)
        extra = self.peer_delay(peer)
        if extra > 0:
            time.sleep(extra)

    def peers(self) -> Tuple[str, ...]:
        return tuple(self._instances)

    def describe(self, peer: str) -> Dict[str, RelationInfo]:
        self._enter_rpc(peer)
        return describe_instance(self._instances[peer])

    def scan_batch(
        self, peer: str, requests: Sequence[ScanRequest]
    ) -> List[Tuple[Row, ...]]:
        # Loopback's server side is the caller's own process, so a traced
        # request grafts its serve span straight into the live tracer —
        # no envelope ever crosses this "wire".
        span = ServeSpan(
            current_wire_context(), "rpc.serve.scan",
            peer=peer, transport="loopback",
        )
        try:
            with span:
                self._enter_rpc(peer, scan=True)
                instance = self._instances[peer]
                results: List[Tuple[Row, ...]] = []
                for relation, encoded in requests:
                    pattern = decode_pattern(encoded)
                    # ValueError (arity clash against the probing atom)
                    # propagates as-is: it is a data error, not a
                    # transport fault.
                    results.append(
                        tuple(instance.get_matching(relation, pattern))
                    )
                self._count_scans(peer, len(requests))
                if span.recording:
                    span.set("requests", len(requests))
                    span.set("rows", sum(len(rows) for rows in results))
                if self.row_cost > 0:
                    time.sleep(
                        self.row_cost * sum(len(rows) for rows in results)
                    )
                return results
        finally:
            if span.record is not None:
                get_tracer().adopt(span.records())

    def scan_batch_since(
        self, peer: str, requests: Sequence[SinceScanRequest]
    ) -> List[ScanSinceResult]:
        """Delta-capable scans against the live instance.

        When a subclass overrides :meth:`scan_batch` (the chaos and
        probing tests do), or when no request carries a cursor, the scan
        is routed through that polymorphic :meth:`scan_batch` so the
        override keeps seeing every wire scan; version tokens are read
        *before* the scan, so a racing insert can only make the token
        stale (re-shipping rows the memo already holds — harmless after
        the merge dedup), never too new.
        """
        uses_base_scan = type(self).scan_batch is LoopbackTransport.scan_batch
        if not uses_base_scan or all(since is None for _, _, since in requests):
            instance = self._instances.get(peer)
            tokens = (
                {relation: instance.data_version(relation)
                 for relation, _, _ in requests}
                if instance is not None else {}
            )
            rows = self.scan_batch(
                peer, [(relation, encoded) for relation, encoded, _ in requests]
            )
            return [
                (True, tokens.get(relation), result)
                for (relation, _, _), result in zip(requests, rows)
            ]
        span = ServeSpan(
            current_wire_context(), "rpc.serve.scan_since",
            peer=peer, transport="loopback",
        )
        try:
            with span:
                self._enter_rpc(peer, scan=True)
                instance = self._instances[peer]
                results = [
                    scan_instance_since(instance, relation, encoded, since)
                    for relation, encoded, since in requests
                ]
                self._count_scans(peer, len(requests))
                if span.recording:
                    span.set("requests", len(requests))
                    span.set(
                        "rows", sum(len(rows) for _, _, rows in results)
                    )
                if self.row_cost > 0:
                    time.sleep(
                        self.row_cost * sum(len(rows) for _, _, rows in results)
                    )
                return results
        finally:
            if span.record is not None:
                get_tracer().adopt(span.records())

    def insert(self, peer: str, relation: str, rows: Iterable[Row]) -> int:
        span = ServeSpan(
            current_wire_context(), "rpc.serve.insert",
            peer=peer, transport="loopback", relation=relation,
        )
        try:
            with span:
                self._enter_rpc(peer)
                instance = self._instances[peer]
                count = 0
                for row in rows:
                    instance.add(relation, row)
                    count += 1
                if span.recording:
                    span.set("rows", count)
                return count
        finally:
            if span.record is not None:
                get_tracer().adopt(span.records())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoopbackTransport({len(self._instances)} peers, "
            f"{self._rpc_count} rpcs)"
        )
