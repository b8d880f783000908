"""The peer-boundary wire contract, its one server dispatch, and loopback.

A :class:`Transport` connects a query processor to a set of named peers,
each hosting the stored relations it contributed to the PDMS.  The
contract is deliberately tiny — four RPCs, plus two batched forms with
per-peer defaults — so the two backends, a zero-copy in-process loopback
and asyncio TCP sockets
(:class:`~repro.pdms.distributed.async_transport.AsyncSocketTransport`),
are interchangeable without the planner or cache layers noticing:

``describe(peer)``
    One metadata round trip: every relation the peer serves, as
    ``{relation: (arity, cardinality, version token)}``.  The version
    token is the peer's per-relation data version fetched *over the
    wire*, so version-keyed caches (the
    :class:`~repro.pdms.materialization.FragmentCache`) keep working
    across the peer boundary.

``describe_many(peers)``
    The catalogue round of a whole refresh: ``{peer: catalog}``, with a
    :class:`~repro.errors.TransportError` *as the value* for a peer that
    could not be described, so one dead peer never hides the others.
    :class:`TransportBase` supplies the default — ``describe`` peer by
    peer (:func:`describe_each`) — and the socket backend answers it in
    one batch frame.  A transport that has no such method at all is
    served through the same per-peer default.  The round is conditional,
    as an HTTP request with an entity tag is: ``peers`` may map each
    peer to the catalogue token last seen of it
    (:attr:`~repro.database.instance.Instance.catalogue_token`, ``None``
    for none), and the socket backend then answers a peer whose token
    still matches with ``None`` ("unchanged") and any other with
    ``(token, catalog)``.  The per-peer default ignores the tokens and
    ships whole catalogs.

``scan_batch(peer, requests)``
    A batch of pattern-level scans, one round trip.  Each request is
    ``(relation, encoded pattern)`` (see :func:`encode_pattern`); the
    response carries one row tuple list per request, in order.  The
    remote source does not use it (it scans through ``scan_many``); the
    end-to-end benchmark times it.

``scan_batch_since(peer, requests)``
    The delta-capable form: each request carries a ``since`` token, and
    each reply is ``(full, token, table)`` with the rows as a column
    table (see :func:`scan_instance_since`).

``scan_many(batches)``
    One round of a scatter wave, the only way the remote source scans:
    many peers' ``scan_batch_since`` batches, each with its own wire
    trace context, and per entry its replies or the exception it raised,
    *as a value*.  :class:`TransportBase` supplies the default — one
    ``scan_batch_since`` per entry (:func:`scan_each`) — and the socket
    backend sends the round as one batch frame.  A transport that has no
    such method is served through the same default.

``insert(peer, relation, rows)``
    Appends rows at the owning peer (moves its version token).  Exists so
    live-write workloads — and the chaos tests — can mutate remote data
    through the same boundary they query through.

``close()``
    Releases backend resources (the socket server, its event loop).

Failures are reported as :class:`~repro.errors.TransportError`; *data*
errors (an arity clash detected by the remote index) surface as
``ValueError`` exactly like a local probe, so the planner's error paths
stay transport-agnostic.

Both backends share one client admission (:meth:`TransportBase._admit`)
and one server dispatch (:func:`serve_request`); each keeps only how it
waits out injected latency and how serve spans come home.
:class:`LoopbackTransport` serves live in-process instances with zero
copying and doubles as the chaos harness.
"""

from __future__ import annotations

import threading
import time
from typing import (
    Dict, Iterable, List, Mapping, Protocol, Sequence, Tuple, Union,
)

from ...database.columnar import ColumnTable
from ...database.instance import Instance
from ...datalog.indexing import WILDCARD, Pattern
from ...errors import InstanceError, TransportError
from ...obs.metrics import METRICS_SCHEMA_VERSION
from ...obs.trace import ServeSpan, current_wire_context, get_tracer, wire_context

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

#: One delta-capable scan response: ``(full, token, table)``.  ``full``
#: is ``True`` when ``table`` is a complete rescan, ``False`` when it
#: holds only the rows added since the request's ``since`` token;
#: ``token`` is the relation's version token *at or before* the scan (so
#: merging the rows into the memo keyed by ``token`` never claims data it
#: does not hold).  ``table`` is a duplicate-free
#: :class:`~repro.database.columnar.ColumnTable` over ``__p0 …``; the
#: socket backend carries it as a column frame.
ScanSinceResult = Tuple[bool, object, ColumnTable]

#: One entry of a ``scan_many`` round: ``(peer, requests, trace context)``.
ScanBatch = Tuple[str, Sequence[SinceScanRequest], object]

#: ``describe`` response entry: ``(arity, cardinality, version token)``.
RelationInfo = Tuple[int, int, object]

#: ``describe_many`` response: per peer its catalog (asked with a token:
#: ``None`` for unchanged, or ``(token, catalog)``), or the fault that
#: kept it from being described.
Catalogs = Dict[str, Union[
    Dict[str, RelationInfo], None, Tuple[object, Dict[str, RelationInfo]],
    TransportError,
]]


class TraceEnvelope:
    """A traced RPC reply: the real value plus worker-side span records.

    :func:`serve_request` wraps its reply in one of these *only* when
    the request carried a wire trace context — an untraced request (the
    default, and everything an old client sends) gets the bare value, so
    the reply format is exactly as before unless both ends opted in.
    The client-side transport unwraps the envelope and grafts the
    records into the caller's trace before returning (loopback does so
    in the same thread, the socket after the reply frame), so nothing
    above the transport layer ever sees one.
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

    Served by :func:`serve_request` for every backend, so the catalog
    format cannot drift between transports.  Relations whose arity is
    unknown are skipped — they cannot be probed by any atom.
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


def scan_each(
    transport: "Transport", batches: Sequence[ScanBatch]
) -> List[Union[List[ScanSinceResult], Exception]]:
    """The per-peer ``scan_many``: one ``scan_batch_since`` call per entry.

    Each call runs under its entry's wire trace context, so its serve
    span parents under its own attempt, and routes through
    ``transport.scan_batch_since``, so subclass overrides and chaos hooks
    see every scan.  A transport fault or a data error (``ValueError``,
    :class:`~repro.errors.InstanceError`) becomes the entry's value, as
    the socket's batch frame reports it; anything else propagates.
    """
    outcomes: List[Union[List[ScanSinceResult], Exception]] = []
    for peer, requests, ctx in batches:
        try:
            with wire_context(ctx):
                outcomes.append(transport.scan_batch_since(peer, requests))
        except (TransportError, ValueError, InstanceError) as exc:
            outcomes.append(exc)
    return outcomes


def scan_instance_since(
    instance: Instance, relation: str, encoded: EncodedPattern, since: object
) -> ScanSinceResult:
    """Serve one delta-capable scan request against a live instance.

    The single server-side delta implementation, run by
    :func:`serve_request` for every backend, so the delta contract cannot
    drift.  The reply is ``(full, token, table)``, the table a
    :class:`~repro.database.columnar.ColumnTable` over ``__p0 …``:

    * ``since`` matching the current token exactly → an empty delta
      (``full=False``) — the near-constant-size rescan;
    * ``since`` from this instance with additive history available
      (:meth:`~repro.database.instance.Instance.delta_block`) → only the
      rows added after ``since`` and up to the reply's token, filtered by
      the pattern and transposed (``full=False``);
    * anything else (foreign token, removals, log overflow) → a full
      rescan (``full=True``): the instance's scan block, which storage
      keeps per relation version, with the block's own version as the
      token (:meth:`~repro.database.instance.Instance.tagged_block`).

    Delta rows whose width clashes with the probing pattern raise
    :class:`ValueError`, matching the full-scan data-error contract.
    """
    pattern = decode_pattern(encoded)
    token = instance.data_version(relation)
    if isinstance(since, tuple) and len(since) == 2 and isinstance(since[1], int):
        # Bounded to the token read above: a racing insert is left for
        # the next delta, so the reply never holds rows newer than it.
        delta = instance.delta_block(relation, pattern, since, token)
        if delta is not None:
            return (False, token, delta)
    return (True, *instance.tagged_block(relation, pattern))


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


#: The serve span each wire op records; ``describe`` and ``ping`` record none.
_SERVE_SPANS = {
    "scan": "rpc.serve.scan",
    "scan_since": "rpc.serve.scan_since",
    "insert": "rpc.serve.insert",
}


def serve_request(
    transport: "TransportBase", op: str, peer: str, payload: object,
    ctx: object, label: str,
):
    """Serve one wire request: the one server dispatch of every backend.

    A generator: it yields the injected wait in seconds — ``delay`` plus
    the peer's own delay, before the work — for the backend to sleep its
    own way (``time.sleep`` on loopback, ``asyncio.sleep`` on the socket's
    event loop), and returns the reply: the bare value, or a
    :class:`TraceEnvelope` carrying the serve span when ``ctx`` is a wire
    trace context.  The wait happens inside the serve span, so a span
    covers the full server-side service time — what the client's attempt
    span needs subtracted to attribute time to the wire (``describe`` and
    ``ping`` record no span and reply bare).  A ``describe`` payload of
    ``(token,)`` makes it conditional: ``None`` while the instance's
    catalogue token is still ``token``, else ``(token, catalog)``.  Data errors (``ValueError``, ``InstanceError``) propagate
    as-is; an unknown peer or op is a :class:`~repro.errors.TransportError`.
    """
    instance = transport._instances.get(peer)
    if instance is None:
        raise TransportError(f"unknown peer {peer!r}", peer=peer)
    wait = transport.delay + transport.peer_delay(peer)
    if op == "describe" or op == "ping":
        if wait > 0:
            yield wait
        if op == "ping":
            return "pong"
        if payload is None:
            return describe_instance(instance)
        # The token is read before the catalog, so a racing write can
        # only make the pair re-ship next round, never hide itself.
        token = instance.catalogue_token
        return None if payload[0] == token else (token, describe_instance(instance))
    name = _SERVE_SPANS.get(op)
    if name is None:
        raise TransportError(f"unknown op {op!r}", peer=peer)
    attrs = {"relation": payload[0]} if op == "insert" else {}
    span = ServeSpan(ctx, name, peer=peer, transport=label, **attrs)
    with span:
        if wait > 0:
            yield wait
        if op == "insert":
            relation, rows = payload
            for row in rows:
                instance.add(relation, row)
            value = len(rows)
            span.set("rows", value)
        else:
            # ValueError (an arity clash against the probing atom)
            # propagates as-is: a data error, not a transport fault.
            if op == "scan":
                value = [
                    tuple(instance.get_matching(relation, decode_pattern(encoded)))
                    for relation, encoded in payload
                ]
                shipped = sum(len(rows) for rows in value)
            else:
                value = [
                    scan_instance_since(instance, relation, encoded, since)
                    for relation, encoded, since in payload
                ]
                shipped = sum(len(rows) for _, _, rows in value)
            span.set("requests", len(payload))
            span.set("rows", shipped)
    # After the span closed: only a closed span has a record to ship.
    return traced_reply(value, span)


class TransportBase:
    """The wire surface and chaos state both backends share.

    It holds the served instances, the chaos hooks (``delay``,
    ``drop_every_n``, :meth:`fail_peer`,
    :meth:`set_peer_delay`), the per-peer scan counters, the RPC counter
    and the closed flag, and it admits every RPC client-side
    (:meth:`_admit`), so failure accounting and chaos semantics cannot
    drift between backends.  A backend supplies :meth:`_call` — how one
    admitted request reaches :func:`serve_request` and how its reply
    comes home.

    ``delay``
        Seconds waited inside every RPC (simulated wire latency).
    ``fail_peer(name)`` / ``restore_peer(name)``
        While failed, every RPC to the peer raises
        :class:`~repro.errors.TransportError` — an unreachable peer.
    ``drop_every_n``
        When set to *n* > 0, every n-th scan RPC (counted
        transport-wide) raises — transient packet-loss-style faults.
    """

    def __init__(
        self,
        instances: Mapping[str, Instance],
        delay: float = 0.0,
        drop_every_n: int = 0,
    ):
        self._instances: Dict[str, Instance] = dict(instances)
        self.delay = delay
        self.drop_every_n = drop_every_n
        self._failed: set = set()
        self._lock = threading.Lock()
        self._scan_counts: Dict[str, int] = {name: 0 for name in self._instances}
        self._peer_delays: Dict[str, float] = {}
        self._rpc_count = 0
        self._scan_rpc_count = 0
        self._closed = False

    # -- chaos hooks -------------------------------------------------------

    def fail_peer(self, peer: str) -> None:
        """Make ``peer`` unreachable until :meth:`restore_peer`."""
        with self._lock:
            self._failed.add(peer)

    def restore_peer(self, peer: str) -> None:
        """Bring a failed peer back."""
        with self._lock:
            self._failed.discard(peer)

    def set_peer_delay(self, peer: str, seconds: float) -> None:
        """Inject extra per-RPC latency for one peer (0 clears it).

        The chaos hook behind the slow-peer scenarios: one slowed peer
        delays only its own replies.
        """
        with self._lock:
            if seconds > 0:
                self._peer_delays[peer] = seconds
            else:
                self._peer_delays.pop(peer, None)

    def peer_delay(self, peer: str) -> float:
        """The injected extra latency for ``peer`` (seconds); one dict
        read, atomic without the lock."""
        return self._peer_delays.get(peer, 0.0)

    def _latency_injected(self) -> bool:
        """Does serving wait on anything (any RPC, any peer)?"""
        return self.delay > 0 or bool(self._peer_delays)

    def failed_peers(self) -> Tuple[str, ...]:
        """Peers injected as failed."""
        with self._lock:
            return tuple(sorted(self._failed))

    # -- introspection -----------------------------------------------------

    def peers(self) -> Tuple[str, ...]:
        return tuple(self._instances)

    def instance(self, peer: str) -> Instance:
        """The live instance behind ``peer`` (tests mutate data through it)."""
        return self._instances[peer]

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
        counts, injected peers) in the uniform collector shape — a fresh
        dict each call, safe to mutate.
        """
        with self._lock:
            return {
                "schema_version": METRICS_SCHEMA_VERSION,
                "rpc_count": self._rpc_count,
                "scan_counts": dict(self._scan_counts),
                "failed_peers": sorted(self._failed),
            }

    # -- the wire ----------------------------------------------------------

    def _admit(self, peer: str, scan: bool = False, frame: bool = True) -> None:
        """Client-side admission of one RPC: accounting plus chaos.

        Refuses a closed transport, an injected-failed or unknown peer,
        and every ``drop_every_n``-th scan, before anything is sent.
        ``frame=False`` admits a batch sub-request: chaos applies to it
        as to a lone RPC, but the frame carrying it is counted once.
        """
        if self._closed:
            raise TransportError("transport is closed", peer=peer)
        if frame:
            with self._lock:
                self._rpc_count += 1
        # Set and dict membership reads are atomic: only counters lock.
        if peer in self._failed:
            raise TransportError(f"peer {peer!r} is unreachable", peer=peer)
        if peer not in self._instances:
            raise TransportError(f"unknown peer {peer!r}", peer=peer)
        if scan:
            with self._lock:
                self._scan_rpc_count += 1
                dropped = self.drop_every_n and self._scan_rpc_count % self.drop_every_n == 0
            if dropped:
                raise TransportError(f"scan RPC to {peer!r} dropped (injected)", peer=peer)

    def _call(self, op: str, peer: str, payload: object) -> object:
        """Send one admitted request through :func:`serve_request`."""
        raise NotImplementedError  # pragma: no cover - backends supply it

    def ping(self, peer: str) -> bool:
        """Round-trip liveness probe."""
        self._admit(peer)
        return self._call("ping", peer, None) == "pong"

    def describe(self, peer: str) -> Dict[str, RelationInfo]:
        self._admit(peer)
        return self._call("describe", peer, None)

    def describe_many(self, peers: Iterable[str]) -> Catalogs:
        """Every listed peer's catalog (or its fault); the per-peer default."""
        return describe_each(self, peers)

    def scan_batch(
        self, peer: str, requests: Sequence[ScanRequest]
    ) -> List[Tuple[Row, ...]]:
        self._admit(peer, scan=True)
        results = self._call("scan", peer, list(requests))
        self._count_scans(peer, len(requests))
        return results

    def scan_batch_since(
        self, peer: str, requests: Sequence[SinceScanRequest]
    ) -> List[ScanSinceResult]:
        self._admit(peer, scan=True)
        results = self._call("scan_since", peer, list(requests))
        self._count_scans(peer, len(requests))
        return results

    def scan_many(
        self, batches: Sequence[ScanBatch]
    ) -> List[Union[List[ScanSinceResult], Exception]]:
        """One wave round's scans (or faults); the per-peer default."""
        return scan_each(self, batches)

    def insert(self, peer: str, relation: str, rows: Iterable[Row]) -> int:
        self._admit(peer)
        return self._call("insert", peer, (relation, [tuple(row) for row in rows]))

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
    put a remote source in front of in-process data and the chaos
    harness (see
    :class:`TransportBase` for the hooks; waits are ``time.sleep``).  A
    full scan's reply table is the owner's own scan block, shared, not
    copied.  Every RPC runs in the caller's thread, so a wave round
    (:meth:`scan_many`) over latency-injected peers waits them out one
    after another.

    Per-peer scan counters (:meth:`scan_count`) count individual scan
    requests served, for the examples' per-peer traffic reports.
    """

    def _call(self, op: str, peer: str, payload: object) -> object:
        # The server side is the caller's own thread: waits are plain
        # sleeps, and a traced reply's serve span is adopted straight
        # into the live tracer on unwrapping.
        steps = serve_request(
            self, op, peer, payload, current_wire_context(), "loopback"
        )
        try:
            while True:
                time.sleep(next(steps))
        except StopIteration as done:
            return unwrap_envelope(done.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoopbackTransport({len(self._instances)} peers, "
            f"{self._rpc_count} rpcs)"
        )
