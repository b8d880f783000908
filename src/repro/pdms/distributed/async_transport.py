"""TCP sockets behind the blocking ``Transport`` surface.

:class:`AsyncSocketTransport` serves the same wire contract as
:class:`~repro.pdms.distributed.transport.LoopbackTransport` — describe /
scan_batch / scan_batch_since / insert — over real TCP sockets on the
loopback interface, so the framing, connection-pooling, and concurrency
story is the one peers on other hosts would use:

* one background thread runs a private asyncio event loop hosting the
  **server**: a single ``asyncio.start_server`` endpoint serving every
  peer (requests carry the peer name);
* the **client** is blocking sockets on the caller's own thread: an RPC
  checks out an idle connection to that endpoint (or opens one) and
  hands it back after the reply (at most ``pool_size`` per served peer
  kept idle), so a call costs one round trip and no thread hop, and
  calls from different threads overlap on the wire;
* frames are 4-byte big-endian length-prefixed pickles of at most
  :data:`MAX_FRAME_BYTES`, decoded by an unpickler that refuses every
  global but :class:`~repro.pdms.distributed.transport.TraceEnvelope`, so
  no frame can name code to run; both ends read through the same checks
  (the cap, truncation, the unpickler).  One request frame
  ``(op, peer, payload)`` yields one response frame ``(status, value)``:
  ``ok``, ``data_error`` (re-raised client-side as the same
  ``ValueError`` / :class:`~repro.errors.InstanceError` a local probe
  would produce) or ``error`` (a :class:`~repro.errors.TransportError`);
* a **batch frame** ``("batch", [(op, peer, payload, ctx), …])`` carries
  many such requests in one round trip: the server runs the
  sub-requests through the same dispatch
  (:func:`~repro.pdms.distributed.transport.serve_request`, the one
  loopback runs too), concurrently when latency is injected, and replies
  ``("ok", [(status, value), …])``, one pair per sub-request with the
  lone frame's statuses.  :meth:`AsyncSocketTransport.describe_many`
  (the conditional catalogue round of a refresh) and
  :meth:`AsyncSocketTransport.scan_many` (every round of a scatter
  wave, retries and cold single-key scans included) ride it;
* chaos parity with the loopback harness: ``fail_peer`` /
  ``drop_every_n`` act client-side before a frame is sent (the shared
  :meth:`~repro.pdms.distributed.transport.TransportBase._admit`, per
  peer even inside a batch frame), while ``delay`` /
  ``set_peer_delay`` are served as ``asyncio.sleep`` *inside* the server
  — so a slowed peer delays only its own responses while the loop keeps
  serving everyone else;
* a ``scan_since`` reply carries each scan's table as a **column
  frame** ``(length, columns)``: a column is ``(dtype tag, raw bytes)``
  for a NumPy column (tags ``<i8`` and ``<f8`` only) or a plain list of
  scalars otherwise, so no row tuple is pickled and no class reference
  rides the frame.  The client checks every tag, buffer length and the
  column count against the request's pattern before
  ``np.frombuffer`` decodes a buffer; a frame it cannot trust is a
  :class:`~repro.errors.TransportError`, like a lost peer;
* the timeout (``REPRO_TRANSPORT_TIMEOUT_MS``, or the ``timeout``
  argument) is a deadline for the whole RPC, however its reply is
  chunked; an RPC that outlives it raises
  :class:`~repro.errors.TransportError`, and a connection that timed out
  or failed is closed, never re-pooled, so a late reply can never pair
  with a later request.
"""

from __future__ import annotations

import asyncio
import io
import pickle
import socket
import threading
import time
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ...database.columnar import ColumnTable, np, scan_columns
from ...database.instance import Instance
from ...errors import InstanceError, TransportError
from ...config import transport_timeout_seconds as _config_transport_timeout
from ...obs.trace import current_wire_context
from .transport import (
    Catalogs,
    ScanBatch,
    ScanSinceResult,
    SinceScanRequest,
    TraceEnvelope,
    TransportBase,
    serve_request,
    unwrap_envelope,
)

__all__ = ["AsyncSocketTransport"]


#: Largest frame either end will write or read.  The 4-byte header can
#: announce up to 4 GiB; without a cap a garbled or hostile one makes the
#: reader wait for (and buffer) that much.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: The reply pair of an "unchanged" ``describe``: one shared tuple, so a
#: batch frame pickles it once and refers back to it for every other peer.
_OK_UNCHANGED = ("ok", None)

#: One sub-request of a batch frame: ``(op, peer, payload, trace context)``.
SubRequest = Tuple[str, str, object, object]


def _encode_frame(obj: object) -> bytes:
    """``obj`` as one frame, header included; refused over the cap."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return len(data).to_bytes(4, "big") + data


class _FrameUnpickler(pickle.Unpickler):
    """Unpickles a frame, refusing every global but the trace envelope.

    A frame comes from any local process that connects, and a pickle can
    name any callable to run while it loads.  Every value the protocol
    sends is built from tuples, lists, dicts, sets and scalars, which need
    no global, except the :class:`TraceEnvelope` of a traced reply.
    """

    def find_class(self, module: str, name: str) -> object:
        if module == TraceEnvelope.__module__ and name == "TraceEnvelope":
            return TraceEnvelope
        raise pickle.UnpicklingError(f"global {module}.{name} is not allowed")


def _frame_size(header: bytes) -> int:
    """The payload length a header announces; both ends check it here."""
    size = int.from_bytes(header, "big")
    if size > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame header announces {size} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return size


def _frame_value(data: bytes, size: int) -> object:
    """A frame's value; both ends read it here.  A payload that ends
    before its ``size`` or does not unpickle under :class:`_FrameUnpickler`
    is a :class:`~repro.errors.TransportError`: the stream is out of step
    and the connection must be dropped, not read further."""
    if len(data) < size:
        raise TransportError(f"frame truncated: {len(data)} of {size} bytes")
    try:
        return _FrameUnpickler(io.BytesIO(data)).load()
    except Exception as exc:
        raise TransportError(
            f"undecodable frame: {type(exc).__name__}: {exc}"
        ) from None


async def _read_frame(reader: asyncio.StreamReader) -> object:
    """The server's read of one frame; ``None`` on EOF before a header."""
    try:
        header = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    size = _frame_size(header)
    try:
        data = await reader.readexactly(size)
    except asyncio.IncompleteReadError as exc:
        data = exc.partial
    except ConnectionError:
        data = b""
    return _frame_value(data, size)


def _time_left(deadline: Optional[float]) -> Optional[float]:
    """Seconds to a ``time.monotonic`` deadline (``None``: no deadline)."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise socket.timeout("deadline passed")
    return left


def _recv_exactly(sock: socket.socket, size: int, deadline: Optional[float]) -> bytes:
    """Up to ``size`` bytes (fewer where the stream ended) by ``deadline``,
    read 256 KiB at most at a time: memory grows with what arrives, not
    with what a header announces."""
    chunks: List[bytes] = []
    got = 0
    while got < size:
        sock.settimeout(_time_left(deadline))
        chunk = sock.recv(min(size - got, 1 << 18))
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


#: NumPy column dtypes a column frame carries as raw little-endian buffers.
_BUFFER_TAGS = ("<i8", "<f8")


def _encode_table(table: ColumnTable) -> Tuple[int, Tuple[object, ...]]:
    """A scan table as a column frame: ``(length, columns)``."""
    return (len(table), tuple(
        col if isinstance(col, list)
        else (col.dtype.str, col.tobytes()) if col.dtype.str in _BUFFER_TAGS
        else col.tolist()
        for col in table.data
    ))


def _encode_scans(reply: object) -> object:
    """A served ``scan_since`` reply with every table as a column frame."""
    if isinstance(reply, TraceEnvelope):
        return TraceEnvelope(_encode_scans(reply.value), reply.spans)
    return [(full, token, _encode_table(table)) for full, token, table in reply]


def _decode_column(column: object, length: int) -> object:
    """One column of a frame: a list of ``length`` scalars, or a buffer
    of ``length`` values under a known tag (a float buffer without NaN,
    which sniffing keeps on lists)."""
    if type(column) is list and len(column) == length:
        return column
    if (
        np is not None
        and type(column) is tuple
        and len(column) == 2
        and column[0] in _BUFFER_TAGS
        and type(column[1]) is bytes
        and len(column[1]) == 8 * length
    ):
        array = np.frombuffer(column[1], dtype=column[0])
        if column[0] == "<i8" or not np.isnan(array).any():
            return array
    raise TransportError(
        f"untrusted {type(column).__name__} column in a frame of {length} rows"
    )


def _decode_scans(
    peer: str, requests: Sequence[SinceScanRequest], value: object
) -> List[ScanSinceResult]:
    """A ``scan_since`` reply with its column frames checked and decoded.

    Anything :func:`_encode_table` would not have written is a
    :class:`~repro.errors.TransportError` before a buffer reaches NumPy,
    so a garbled frame never becomes a NumPy error inside a kernel.
    """
    try:
        if type(value) is not list or len(value) != len(requests):
            raise TransportError("malformed scan reply")
        results: List[ScanSinceResult] = []
        for (_, encoded, _), item in zip(requests, value):
            if type(item) is not tuple or len(item) != 3:
                raise TransportError("malformed scan reply entry")
            full, token, frame = item
            width = len(encoded)
            if not (
                type(frame) is tuple and len(frame) == 2
                and type(frame[0]) is int and frame[0] >= 0
                and type(frame[1]) is tuple and len(frame[1]) == width
            ):
                raise TransportError(
                    f"malformed column frame for a pattern of arity {width}"
                )
            length, columns = frame
            data = [_decode_column(column, length) for column in columns]
            results.append((full, token, ColumnTable(scan_columns(width), data, length)))
        return results
    except TransportError as exc:
        raise TransportError(f"peer {peer!r} {exc}", peer=peer) from None


def _decode_reply(op: str, peer: str, payload: object, reply: object) -> object:
    """A reply pair as the value it carries, or the exception it stands for."""
    status, value = (
        reply if type(reply) is tuple and len(reply) == 2
        else ("error", "malformed reply")
    )
    if status == "ok":
        # A traced reply arrives enveloped with the server's serve span;
        # adopt it into the live trace and hand back the value.
        value = unwrap_envelope(value)
        return _decode_scans(peer, payload, value) if op == "scan_since" else value
    if status == "data_error":
        if not (type(value) is tuple and len(value) == 2
                and all(type(part) is str for part in value)):
            raise TransportError(f"peer {peer!r} sent a malformed data error", peer=peer)
        kind, message = value
        raise (InstanceError if kind == "InstanceError" else ValueError)(message)
    raise TransportError(f"peer {peer!r} RPC failed: {value}", peer=peer)


class AsyncSocketTransport(TransportBase):
    """The four-RPC contract over TCP sockets: an asyncio server, and a
    blocking client on each caller's thread (see module docs).

    Chaos hooks are :class:`~repro.pdms.distributed.transport.TransportBase`'s:
    ``delay`` and ``set_peer_delay`` are waited out remotely,
    ``fail_peer`` and ``drop_every_n`` refuse client-side.
    """

    def __init__(
        self,
        instances: Mapping[str, Instance],
        delay: float = 0.0,
        drop_every_n: int = 0,
        pool_size: int = 4,
        timeout: Optional[float] = None,
    ):
        super().__init__(instances, delay, drop_every_n)
        #: ``pool_size`` is per served peer, as when each had its own pool.
        self._pool_cap = max(1, pool_size) * max(1, len(self._instances))
        self._timeout = timeout if timeout is not None else _config_transport_timeout()
        #: Idle client sockets to the one endpoint every peer is served
        #: from, reused last-in first-out so a quiet client keeps one warm.
        self._pool: List[socket.socket] = []
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
                    data = _encode_frame(response)
                except TransportError as exc:  # reply over the frame cap
                    data = _encode_frame(("error", str(exc)))
                writer.write(data)
                await writer.drain()
        except ConnectionError:
            pass  # client vanished (e.g. a timed-out RPC) — fine
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
            value = await self._serve(op, peer, payload, ctx)
            return _OK_UNCHANGED if value is None else ("ok", value)
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
        if self._latency_injected():
            return await asyncio.gather(
                *(self._respond(request) for request in requests)
            )
        return [await self._respond(request) for request in requests]

    async def _serve(
        self, op: str, peer: str, payload: object, ctx: object = None
    ) -> object:
        """Serve one request on the event loop; waits are ``asyncio.sleep``."""
        steps = serve_request(self, op, peer, payload, ctx, "socket")
        try:
            while True:
                await asyncio.sleep(next(steps))
        except StopIteration as done:
            return _encode_scans(done.value) if op == "scan_since" else done.value

    # -- client side (runs on the caller's thread) --------------------------

    def _exchange(self, frame: object) -> object:
        """One request frame out and its reply frame back, on a pooled
        connection, within one deadline for the whole exchange."""
        deadline = time.monotonic() + self._timeout if self._timeout else None
        sock = reply = None
        try:
            with self._lock:
                sock = self._pool.pop() if self._pool else None
            if sock is None:
                sock = socket.create_connection(self._address[:2], _time_left(deadline))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(_time_left(deadline))
            sock.sendall(_encode_frame(frame))
            header = _recv_exactly(sock, 4, deadline)
            if len(header) == 4:
                size = _frame_size(header)
                reply = _frame_value(_recv_exactly(sock, size, deadline), size)
        except socket.timeout:
            raise TransportError(f"RPC timed out after {self._timeout}s") from None
        except OSError as exc:
            raise TransportError(f"connection failed: {exc}") from None
        finally:
            # A failed exchange leaves the stream out of step: its
            # connection is closed, never re-pooled.
            with self._lock:
                if reply is not None and not self._closed and len(self._pool) < self._pool_cap:
                    self._pool.append(sock)
                    sock = None
            if sock is not None:
                sock.close()
        if reply is None:
            raise TransportError("connection closed mid-RPC")
        return reply

    def _call(self, op: str, peer: str, payload: object) -> object:
        # The frame only grows a fourth element when a trace context rides
        # along — untraced requests stay byte-identical to the pre-tracing
        # wire format.
        trace = current_wire_context()
        frame = (op, peer, payload) if trace is None else (op, peer, payload, trace)
        try:
            reply = self._exchange(frame)
        except TransportError as exc:
            raise TransportError(f"peer {peer!r} {exc}", peer=peer) from None
        return _decode_reply(op, peer, payload, reply)

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
                self._admit(peer, scan=scan, frame=False)
            except TransportError as exc:
                outcomes[index] = exc
            else:
                sent.append(index)
        if not sent:
            return outcomes
        with self._lock:
            self._rpc_count += 1
        carried = [subs[index] for index in sent]
        try:
            reply = self._exchange(("batch", carried))
            replies = reply[1] if type(reply) is tuple and reply[:1] == ("ok",) else None
            if type(replies) is not list or len(replies) != len(sent):
                raise TransportError(f"batch frame failed: {reply!r}")
        except TransportError as exc:
            for index in sent:
                outcomes[index] = TransportError(
                    f"peer {subs[index][1]!r} {exc}", peer=subs[index][1]
                )
            return outcomes
        for index, (op, peer, payload, _), reply in zip(sent, carried, replies):
            try:
                outcomes[index] = _decode_reply(op, peer, payload, reply)
            except (TransportError, ValueError, InstanceError) as exc:
                outcomes[index] = exc
        return outcomes

    # -- the Transport surface ---------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` the server is listening on."""
        return self._address[:2]

    def describe_many(self, peers: Iterable[str]) -> Catalogs:
        """Every listed peer's catalog (or its fault) in one batch frame;
        asked conditionally when ``peers`` is a dict of their last tokens."""
        names = list(peers)
        since = peers if isinstance(peers, dict) else None
        return dict(zip(names, self._batch([
            ("describe", peer, None if since is None else (since[peer],), None)
            for peer in names
        ])))

    def scan_many(
        self, batches: Sequence[ScanBatch]
    ) -> List[Union[List[ScanSinceResult], Exception]]:
        """One wave round: many peers' scan batches in one batch frame.

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

    # -- lifecycle ---------------------------------------------------------

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=2.0)
        if not self._thread.is_alive():
            self._loop.close()

    def close(self) -> None:
        """Close the idle connections, stop the server and the loop
        (idempotent)."""
        if self._closed:
            return
        super().close()
        with self._lock:
            idle, self._pool = self._pool, []
        for sock in idle:
            sock.close()

        async def shutdown() -> None:
            self._server.close()
            # Server-side handlers for still-open client connections park
            # on their next read forever; cancel them so the loop can be
            # closed without orphaned tasks.
            pending = list(self._handler_tasks)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            await self._server.wait_closed()
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
