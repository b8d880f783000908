"""Asyncio TCP sockets behind the blocking ``Transport`` surface.

:class:`AsyncSocketTransport` serves the same wire contract as
:class:`~repro.pdms.distributed.transport.LoopbackTransport` — describe /
scan_batch / scan_batch_since / insert — over real TCP sockets on the
loopback interface, so the framing, connection-pooling, and concurrency
story is the one peers on other hosts would use:

* one background thread runs a private asyncio event loop hosting both
  the **server** (a single ``asyncio.start_server`` endpoint serving
  every peer; requests carry the peer name) and the **client pool**
  (one stack of pooled connections to that endpoint, opened on demand,
  capped at ``pool_size`` per served peer);
* frames are 4-byte big-endian length-prefixed pickles of at most
  :data:`MAX_FRAME_BYTES`; one request frame ``(op, peer, payload)``
  yields one response frame ``(status, value)`` with the same ``ok`` /
  ``data_error`` / ``error`` statuses the process backend uses, so data
  errors re-raise as the same ``ValueError`` /
  :class:`~repro.errors.InstanceError` a local probe would produce;
* a **batch frame** ``("batch", [(op, peer, payload, ctx), …])`` carries
  many such requests in one round trip: the server runs the
  sub-requests concurrently through the same dispatch and replies
  ``("ok", [(status, value), …])``, one pair per sub-request with the
  lone frame's statuses.  :meth:`AsyncSocketTransport.describe_many`
  (the catalogue round of a refresh) and
  :meth:`AsyncSocketTransport.scan_many` (the first attempts of a
  scatter wave) ride it, so each costs one RPC instead of one per peer;
* callers see the ordinary *blocking* methods (each submits a coroutine
  to the loop and waits), but in-flight RPCs to different peers — and
  hedged duplicates to the same shard's replicas — genuinely overlap on
  the event loop, no thread-per-peer pool required.  :meth:`submit_scan`
  exposes the non-blocking form directly: it returns a
  :class:`concurrent.futures.Future` whose cancellation really abandons
  the RPC (the pooled connection is discarded, never re-paired);
* chaos parity with the loopback harness: ``fail_peer`` /
  ``drop_every_n`` act client-side before a frame is sent, while
  ``delay`` / ``set_peer_delay`` / ``row_cost`` are served as
  ``asyncio.sleep`` *inside* the server — so a slowed peer delays only
  its own responses while the loop keeps serving everyone else, which
  is exactly the one-slow-replica scenario hedging exists for.

Version tokens are shipped unsalted: the served instances live in this
process, so their :meth:`~repro.database.instance.Instance.instance_id`
is already unique across every transport sharing them.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import pickle
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ...database.instance import Instance
from ...errors import InstanceError, TransportError
from ...config import transport_timeout_seconds as _config_transport_timeout
from ...obs.trace import ServeSpan, current_wire_context
from .transport import (
    Catalogs,
    RelationInfo,
    Row,
    ScanRequest,
    ScanSinceResult,
    SinceScanRequest,
    TransportBase,
    decode_pattern,
    describe_instance,
    scan_instance_since,
    traced_reply,
    unwrap_envelope,
)

__all__ = ["AsyncSocketTransport"]


#: Largest frame either end will write or read.  The 4-byte header can
#: announce up to 4 GiB; without a cap a garbled or hostile one makes the
#: reader wait for (and buffer) that much.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: One sub-request of a batch frame: ``(op, peer, payload, trace context)``.
SubRequest = Tuple[str, str, object, object]


async def _write_frame(writer: asyncio.StreamWriter, obj: object) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    writer.write(len(data).to_bytes(4, "big"))
    writer.write(data)
    await writer.drain()


async def _read_frame(reader: asyncio.StreamReader) -> object:
    """One length-prefixed pickle frame; ``None`` on orderly EOF.

    A frame that announces more than :data:`MAX_FRAME_BYTES`, ends before
    its announced length, or does not unpickle raises
    :class:`~repro.errors.TransportError`: the stream is out of step and
    the connection must be dropped, not read further.
    """
    try:
        header = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    size = int.from_bytes(header, "big")
    if size > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame header announces {size} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    try:
        data = await reader.readexactly(size)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise TransportError(f"frame truncated: {exc}") from None
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise TransportError(
            f"undecodable frame: {type(exc).__name__}: {exc}"
        ) from None


def _decode_reply(peer: str, status: str, value: object) -> object:
    """A reply pair as the value it carries, or the exception it stands for."""
    if status == "ok":
        # A traced reply arrives enveloped with the server's serve span;
        # adopt it into the live trace and hand back the value.
        return unwrap_envelope(value)
    if status == "data_error":
        kind, message = value
        raise (InstanceError if kind == "InstanceError" else ValueError)(message)
    raise TransportError(f"peer {peer!r} RPC failed: {value}", peer=peer)


class AsyncSocketTransport(TransportBase):
    """The four-RPC contract over asyncio TCP sockets (see module docs).

    Chaos hooks mirror :class:`LoopbackTransport`: ``delay`` (seconds per
    RPC, served remotely), ``set_peer_delay`` (extra latency for one
    peer), ``drop_every_n`` (every n-th scan RPC fails client-side), and
    ``row_cost`` (server-side seconds per returned row).
    """

    def __init__(
        self,
        instances: Mapping[str, Instance],
        delay: float = 0.0,
        drop_every_n: int = 0,
        row_cost: float = 0.0,
        pool_size: int = 4,
        timeout: Optional[float] = None,
    ):
        self._instances: Dict[str, Instance] = dict(instances)
        super().__init__(self._instances)
        self.delay = delay
        self.drop_every_n = drop_every_n
        self.row_cost = row_cost
        self._scan_rpc_count = 0
        #: ``pool_size`` is per served peer, as when each had its own pool.
        self._pool_cap = max(1, pool_size) * max(1, len(self._instances))
        self._timeout = timeout if timeout is not None else _config_transport_timeout()
        #: Idle ``(reader, writer)`` connections to the one endpoint every
        #: peer is served from, reused last-in first-out so a quiet client
        #: keeps one warm.
        self._pool: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._handler_tasks: set = set()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-async-transport", daemon=True
        )
        self._thread.start()
        try:
            self._server, self._address = asyncio.run_coroutine_threadsafe(
                self._start_server(), self._loop
            ).result(10.0)
        except BaseException:
            self._stop_loop()
            raise

    # -- server side (runs on the event loop) ------------------------------

    async def _start_server(self):
        server = await asyncio.start_server(
            self._handle_client, "127.0.0.1", 0
        )
        return server, server.sockets[0].getsockname()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handler_tasks.add(task)
        try:
            while True:
                frame = await _read_frame(reader)
                if frame is None:
                    break
                response = await self._respond(frame)
                try:
                    await _write_frame(writer, response)
                except TransportError as exc:  # reply over the frame cap
                    await _write_frame(writer, ("error", str(exc)))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished (e.g. a cancelled hedge) — fine
        except TransportError:
            pass  # oversized, truncated or garbled frame: drop the connection
        except asyncio.CancelledError:
            pass  # transport shutdown
        finally:
            self._handler_tasks.discard(task)
            writer.close()

    async def _respond(self, request: Sequence[object]) -> Tuple[str, object]:
        """Serve one request — a lone frame, a batch frame, or a sub-request."""
        try:
            if request[0] == "batch":
                return ("ok", await self._respond_all(request[1]))
            # Tolerant unpacking: a traced request appends the wire trace
            # context as a fourth element; servers that ignore trailing
            # elements keep serving either shape — the
            # forward-compatibility contract.
            op, peer, payload = request[0], request[1], request[2]
            ctx = request[3] if len(request) > 3 else None
            return ("ok", await self._serve(op, peer, payload, ctx))
        except (ValueError, InstanceError) as exc:
            return ("data_error", (type(exc).__name__, str(exc)))
        except TransportError as exc:
            return ("error", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            return ("error", f"{type(exc).__name__}: {exc}")

    async def _respond_all(
        self, requests: Sequence[Sequence[object]]
    ) -> List[Tuple[str, object]]:
        """Serve a batch frame's sub-requests concurrently, replies in order.

        Concurrency only buys anything when serving waits, and serving
        waits only on injected latency; without any, each sub-request runs
        straight through and a task apiece would be pure scheduling cost.
        """
        if self.delay > 0 or self.row_cost > 0 or self._peer_delays:
            return await asyncio.gather(
                *(self._respond(request) for request in requests)
            )
        return [await self._respond(request) for request in requests]

    async def _serve(
        self, op: str, peer: str, payload: object, ctx: object = None
    ) -> object:
        instance = self._instances.get(peer)
        if instance is None:
            raise TransportError(f"unknown peer {peer!r}", peer=peer)
        wire_delay = self.delay + self.peer_delay(peer)
        if wire_delay > 0:
            await asyncio.sleep(wire_delay)
        if op == "describe":
            return describe_instance(instance)
        # Serve spans cover the full server-side service time, injected
        # chaos sleeps included — which is exactly what the client-side
        # attempt span needs subtracted to attribute time to the wire.
        if op == "scan":
            span = ServeSpan(ctx, "rpc.serve.scan", peer=peer, transport="socket")
            with span:
                results = [
                    tuple(instance.get_matching(relation, decode_pattern(encoded)))
                    for relation, encoded in payload
                ]
                if span.recording:
                    span.set("requests", len(payload))
                    span.set("rows", sum(len(rows) for rows in results))
                await self._charge_rows(sum(len(rows) for rows in results))
            return traced_reply(results, span)
        if op == "scan_since":
            span = ServeSpan(
                ctx, "rpc.serve.scan_since", peer=peer, transport="socket"
            )
            with span:
                results = [
                    scan_instance_since(instance, relation, encoded, since)
                    for relation, encoded, since in payload
                ]
                if span.recording:
                    span.set("requests", len(payload))
                    span.set("rows", sum(len(rows) for _, _, rows in results))
                await self._charge_rows(sum(len(rows) for _, _, rows in results))
            return traced_reply(results, span)
        if op == "insert":
            relation, rows = payload
            span = ServeSpan(
                ctx, "rpc.serve.insert", peer=peer, transport="socket",
                relation=relation,
            )
            with span:
                for row in rows:
                    instance.add(relation, row)
                if span.recording:
                    span.set("rows", len(rows))
            return traced_reply(len(rows), span)
        if op == "ping":
            return "pong"
        raise TransportError(f"unknown op {op!r}", peer=peer)

    async def _charge_rows(self, count: int) -> None:
        if self.row_cost > 0 and count:
            await asyncio.sleep(self.row_cost * count)

    # -- client side -------------------------------------------------------

    async def _exchange(self, frame: object) -> Tuple[str, object]:
        """One request frame out and its reply frame back, on a pooled connection."""
        reader, writer = (
            self._pool.pop() if self._pool
            else await asyncio.open_connection(*self._address[:2])
        )
        reply = None
        try:
            await _write_frame(writer, frame)
            reply = await _read_frame(reader)
        finally:
            # A cancelled or failed exchange leaves an unpaired response in
            # flight or the stream out of step: discard the connection
            # rather than repooling it.
            if reply is not None and len(self._pool) < self._pool_cap:
                self._pool.append((reader, writer))
            else:
                writer.close()
        if reply is None:
            raise TransportError("connection closed mid-RPC")
        return reply

    async def _rpc(
        self, peer: str, op: str, payload: object, trace: object = None
    ) -> object:
        # The frame only grows a fourth element when a trace context rides
        # along — untraced requests stay byte-identical to the pre-tracing
        # wire format.
        frame = (op, peer, payload) if trace is None else (op, peer, payload, trace)
        try:
            status, value = await self._exchange(frame)
        except TransportError as exc:
            raise TransportError(f"peer {peer!r} {exc}", peer=peer) from None
        return _decode_reply(peer, status, value)

    async def _rpc_batch(self, subs: Sequence[SubRequest]) -> List[object]:
        """One batch frame: per sub-request its value, or the exception it raised."""
        status, replies = await self._exchange(("batch", subs))
        if status != "ok":
            raise TransportError(f"batch frame failed: {replies}")
        outcomes: List[object] = []
        for (_, peer, _, _), (sub_status, value) in zip(subs, replies):
            try:
                outcomes.append(_decode_reply(peer, sub_status, value))
            except (TransportError, ValueError, InstanceError) as exc:
                outcomes.append(exc)
        return outcomes

    def _precheck(self, peer: str, scan: bool = False, frame: bool = True) -> None:
        """Client-side chaos + accounting, mirroring the loopback harness.

        ``frame=False`` admits a batch sub-request: chaos applies to it as
        to a lone RPC, but its frame is counted once, by :meth:`_batch`.
        """
        if self._closed:
            raise TransportError("transport is closed", peer=peer)
        with self._lock:
            if frame:
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

    def _wait(self, coro, what: str, peer: Optional[str] = None) -> object:
        """Run ``coro`` on the event loop; block for it under the RPC timeout."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(self._timeout if self._timeout else None)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TransportError(
                f"{what} timed out after {self._timeout}s", peer=peer
            ) from None

    def _run(self, peer: str, op: str, payload: object) -> object:
        # Capture the caller thread's wire context here: _rpc executes on
        # the event-loop thread, where the thread-local is not visible.
        return self._wait(
            self._rpc(peer, op, payload, trace=current_wire_context()),
            f"peer {peer!r}: RPC {op!r}",
            peer,
        )

    def _batch(self, subs: Sequence[SubRequest], scan: bool = False) -> List[object]:
        """Send ``subs`` as one batch frame; one outcome per sub-request.

        An outcome is the value the lone RPC would have returned or the
        exception it would have raised.  Client-side chaos applies per
        sub-request and a refused one is not sent; a fault of the frame
        itself (timeout, lost connection) fails every sub-request it
        carried.  The frame counts as one RPC.
        """
        outcomes: List[object] = [None] * len(subs)
        sent: List[int] = []
        for index, (_, peer, _, _) in enumerate(subs):
            try:
                self._precheck(peer, scan=scan, frame=False)
            except TransportError as exc:
                outcomes[index] = exc
            else:
                sent.append(index)
        if sent:
            with self._lock:
                self._rpc_count += 1
            try:
                replies = self._wait(
                    self._rpc_batch([subs[index] for index in sent]),
                    f"batch of {len(sent)} RPCs",
                )
            except TransportError as exc:
                replies = [
                    TransportError(f"peer {subs[index][1]!r} {exc}", peer=subs[index][1])
                    for index in sent
                ]
            for index, reply in zip(sent, replies):
                outcomes[index] = reply
        return outcomes

    # -- the Transport surface ---------------------------------------------

    def peers(self) -> Tuple[str, ...]:
        return tuple(self._instances)

    def instance(self, peer: str) -> Instance:
        """The live instance behind ``peer`` (tests mutate data through it)."""
        return self._instances[peer]

    @property
    def prefers_parallel(self) -> bool:
        """Scatter hint: socket RPCs always have wire latency to overlap."""
        return True

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` the server is listening on."""
        return self._address[:2]

    def ping(self, peer: str) -> bool:
        """Round-trip liveness probe."""
        self._precheck(peer)
        return self._run(peer, "ping", None) == "pong"

    def describe(self, peer: str) -> Dict[str, RelationInfo]:
        self._precheck(peer)
        return self._run(peer, "describe", None)

    def describe_many(self, peers: Iterable[str]) -> Catalogs:
        """Every listed peer's catalog (or its fault) in one batch frame."""
        names = list(peers)
        return dict(zip(
            names,
            self._batch([("describe", peer, None, None) for peer in names]),
        ))

    def scan_batch(
        self, peer: str, requests: Sequence[ScanRequest]
    ) -> List[Tuple[Row, ...]]:
        self._precheck(peer, scan=True)
        results = self._run(peer, "scan", list(requests))
        self._count_scans(peer, len(requests))
        return results

    def scan_batch_since(
        self, peer: str, requests: Sequence[SinceScanRequest]
    ) -> List[ScanSinceResult]:
        self._precheck(peer, scan=True)
        results = self._run(peer, "scan_since", list(requests))
        self._count_scans(peer, len(requests))
        return results

    def submit_scan(
        self, peer: str, requests: Sequence[SinceScanRequest]
    ) -> "concurrent.futures.Future[List[ScanSinceResult]]":
        """Fire a delta-capable scan batch without blocking.

        The hedging hook: the returned future resolves to the same
        result :meth:`scan_batch_since` would return, and cancelling it
        genuinely abandons the RPC (the losing connection is discarded).
        Client-side chaos (``fail_peer``, ``drop_every_n``) is applied
        here, synchronously, before anything is sent.
        """
        self._precheck(peer, scan=True)
        batch = list(requests)
        trace = current_wire_context()

        async def go() -> List[ScanSinceResult]:
            results = await self._rpc(peer, "scan_since", batch, trace=trace)
            self._count_scans(peer, len(batch))
            return results

        return asyncio.run_coroutine_threadsafe(go(), self._loop)

    def scan_many(
        self, batches: Sequence[Tuple[str, Sequence[SinceScanRequest], object]]
    ) -> List[Union[List[ScanSinceResult], Exception]]:
        """Many peers' delta-capable scan batches in one batch frame.

        Each entry is ``(peer, requests, wire trace context)``; the result
        holds, in order, what :meth:`scan_batch_since` would have returned
        for it or the exception it would have raised.  The context is per
        entry (not the thread's) so every sub-request's serve span parents
        under its own attempt; ``drop_every_n`` counts sub-requests.
        """
        outcomes = self._batch(
            [("scan_since", peer, list(requests), ctx)
             for peer, requests, ctx in batches],
            scan=True,
        )
        for (peer, requests, _), outcome in zip(batches, outcomes):
            if not isinstance(outcome, Exception):
                self._count_scans(peer, len(requests))
        return outcomes

    def insert(self, peer: str, relation: str, rows: Iterable[Row]) -> int:
        self._precheck(peer)
        return self._run(
            peer, "insert", (relation, [tuple(row) for row in rows])
        )

    # -- lifecycle ---------------------------------------------------------

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=2.0)
        if not self._thread.is_alive():
            self._loop.close()

    def close(self) -> None:
        """Stop the server, drain the pools, and stop the loop (idempotent)."""
        if self._closed:
            return
        super().close()

        async def shutdown() -> None:
            self._server.close()
            await self._server.wait_closed()
            while self._pool:
                self._pool.pop()[1].close()
            # Server-side handlers for still-open client connections park
            # on their next read forever; cancel them so the loop can be
            # closed without orphaned tasks.
            pending = list(self._handler_tasks)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            # One tick for the transports' connection_lost callbacks.
            await asyncio.sleep(0)

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(5.0)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        self._stop_loop()

    def __del__(self):  # pragma: no cover - gc-time safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncSocketTransport({len(self._instances)} peers on "
            f"{self._address[0]}:{self._address[1]}, {self._rpc_count} rpcs)"
        )
