"""Query-lifecycle tracing: spans, trace trees, wire context, JSONL sink.

One query's life — reformulation, plan compile, fragment evaluation,
scatter waves, every remote scan attempt with its retries — is
recorded as a tree of :class:`Span` records keyed by a shared trace id.
Design constraints, in order:

1. **Tracing-off overhead is ~zero.**  With ``REPRO_TRACE`` unset the
   tracer hands out the :data:`NULL_SPAN` singleton whose every method
   is a no-op returning itself, so instrumentation sites cost one
   attribute check per *stage* (never per row).  Guard any expensive
   attribute computation with ``if span.recording:``.
2. **Spans close exactly once, by the code that opened them.**  Every
   instrumentation site opens its span in a ``with`` block (or closes in
   a ``finally``), including retried attempts and the batched first
   attempts no scan unit took over; :meth:`Tracer.health` counts
   double-closes so the chaos suite can assert none happen.
3. **Worker-side time is stitched in, compatibly.**  A span's
   :meth:`~Span.wire_context` (a two-key dict) rides scan/insert
   requests across the transports; the serving side — possibly another
   process — wraps its work in a :class:`ServeSpan`, which produces a
   plain-dict record shipped back and grafted into the parent tree via
   :meth:`Tracer.adopt`.  A peer that ignores the context field simply
   produces no worker spans; nothing else changes (see
   ``docs/observability.md`` § Wire compatibility).

Sampling (``REPRO_TRACE_SAMPLE``) is decided once per trace root; an
unsampled query takes the same null path as tracing-off.  Completed
traces are kept in a bounded ring (newest ``max_traces``) and, when
``REPRO_TRACE_SINK`` is set, appended to that file as one JSON line per
trace at root-span close.  Span durations also feed ``span.<name>``
histograms in the global metrics registry, which is where the p50/p95/
p99 per stage come from.
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional

from .. import config as _config
from .metrics import MetricsRegistry, global_registry

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "NULL_SPAN",
    "Span",
    "ServeSpan",
    "Tracer",
    "current_wire_context",
    "get_tracer",
    "set_tracer",
    "reset_tracer",
    "wire_context",
]

#: Version stamped on every sink line; bump on incompatible record
#: changes (key renames), not on additive attributes.
TRACE_SCHEMA_VERSION = 1


def _new_id() -> str:
    return f"{random.getrandbits(64):016x}"


class _NullSpan:
    """The disabled span: every operation is a no-op returning itself.

    Falsy on purpose, so sites can guard expensive attribute
    computation with ``if span:`` / ``if span.recording:``.
    """

    __slots__ = ()
    recording = False
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    def set(self, key, value) -> "_NullSpan":
        return self

    def child(self, name, **attrs) -> "_NullSpan":
        return self

    def close(self, status: Optional[str] = None) -> None:
        return None

    def wire_context(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


#: The shared disabled span (tracing off, trace unsampled).
NULL_SPAN = _NullSpan()


class Span:
    """One timed stage of a trace; a context manager closing exactly once.

    Timings use ``time.monotonic_ns``.  Exiting the ``with`` block on an
    exception marks ``status="error"`` (without swallowing it); sites
    with richer outcomes (``cancelled``) pass an explicit status to
    :meth:`close`.
    """

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent_id",
                 "start_ns", "end_ns", "status", "attrs", "_closed",
                 "_prev_active")

    recording = True

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: Optional[str], attrs: Optional[dict]):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_ns = time.monotonic_ns()
        self.end_ns: Optional[int] = None
        self.status = "ok"
        self.attrs = dict(attrs) if attrs else {}
        self._closed = False

    def set(self, key: str, value) -> "Span":
        """Attach one attribute (JSON-safe values only)."""
        self.attrs[key] = value
        return self

    def child(self, name: str, **attrs) -> "Span":
        """Open a child span under this one (same trace)."""
        return self._tracer._start_span(name, self.trace_id, self.span_id, attrs)

    def wire_context(self) -> Dict[str, str]:
        """The two-key dict that rides requests across transports."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def close(self, status: Optional[str] = None) -> None:
        """Finish the span; a second close is counted, never recorded."""
        if self._closed:
            self._tracer._note_double_close(self.name)
            return
        self._closed = True
        self.end_ns = time.monotonic_ns()
        if status is not None:
            self.status = status
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        # Entering a span makes it the thread's ambient span (see
        # current_span) so downstream modules can parent to it without
        # signature changes; manually open/closed spans (the scan-unit
        # and batched-attempt spans) never touch the ambient state.
        self._prev_active = getattr(_ACTIVE, "span", None)
        _ACTIVE.span = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.span = self._prev_active
        if exc_type is not None and self.status == "ok":
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.close()
        return False

    def as_record(self) -> Dict[str, object]:
        end = self.end_ns if self.end_ns is not None else self.start_ns
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "duration_us": (end - self.start_ns) // 1000,
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id})"


class ServeSpan:
    """Worker-side span for one RPC serve, parented under a wire context.

    The serving side of a transport — often another process with no
    :class:`Tracer` — wraps its work in one of these.  When ``context``
    is a valid wire context the exit builds a plain-dict record (same
    shape as :meth:`Span.as_record`, plus ``remote: true``) exposed as
    :attr:`record` for shipping back to the caller; when ``context`` is
    ``None`` or malformed every operation is a cheap no-op, which is
    exactly what an untraced (or old-client) request costs.
    """

    __slots__ = ("trace_id", "parent_id", "span_id", "name", "attrs",
                 "start_ns", "record", "_status")

    def __init__(self, context: Optional[Mapping], name: str, **attrs):
        trace_id = context.get("trace_id") if isinstance(context, Mapping) else None
        self.trace_id = trace_id
        self.parent_id = context.get("span_id") if trace_id else None
        self.span_id = _new_id() if trace_id else None
        self.name = name
        self.attrs = dict(attrs) if (attrs and trace_id) else {}
        self.start_ns = 0
        self.record: Optional[Dict[str, object]] = None
        self._status = "ok"

    @property
    def recording(self) -> bool:
        return self.trace_id is not None

    def set(self, key: str, value) -> "ServeSpan":
        if self.trace_id is not None:
            self.attrs[key] = value
        return self

    def __enter__(self) -> "ServeSpan":
        if self.trace_id is not None:
            self.start_ns = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.trace_id is not None:
            if exc_type is not None and self._status == "ok":
                self._status = "error"
                self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
            self.record = {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start_ns": self.start_ns,
                "duration_us": (time.monotonic_ns() - self.start_ns) // 1000,
                "status": self._status,
                "attrs": self.attrs,
                "remote": True,
            }
        return False

    def records(self) -> List[Dict[str, object]]:
        """The shippable record list (empty when untraced or unfinished)."""
        return [self.record] if self.record is not None else []


_ACTIVE = threading.local()


def current_span():
    """The innermost span entered (via ``with``) on this thread.

    :data:`NULL_SPAN` when tracing is off, the query was not sampled, or
    the caller is on a pool thread the trace never crossed into — child
    spans of the result are then no-ops, so instrumentation sites never
    need to special-case any of those.
    """
    span = getattr(_ACTIVE, "span", None)
    return span if span is not None else NULL_SPAN


_WIRE = threading.local()


def current_wire_context() -> Optional[Dict[str, str]]:
    """The wire trace context installed for the current thread, if any.

    Transports read this at their RPC boundary and attach it to the
    outgoing message (and unwrap the worker spans shipped back).  The
    out-of-band channel is what keeps the ``Transport`` protocol — and
    every subclass override of ``scan_batch`` in the chaos suites —
    signature-compatible: a transport that never reads it simply ignores
    the field, which is exactly the old-peer interop contract.
    """
    return getattr(_WIRE, "ctx", None)


class wire_context:
    """Install a wire trace context around nested transport RPCs.

    ``with wire_context(span.wire_context()): transport.scan_batch(...)``
    — the context is thread-local (each scan attempt runs its RPC in one
    pool thread), restored on exit, and ``None`` is a valid installation
    meaning "untraced" (the tracing-off fast path installs nothing).
    """

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx: Optional[Mapping]):
        self._ctx = ctx

    def __enter__(self) -> Optional[Mapping]:
        self._prev = getattr(_WIRE, "ctx", None)
        _WIRE.ctx = self._ctx
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        _WIRE.ctx = self._prev
        return False


class Tracer:
    """Per-process trace collector: sampling, bounded retention, sink.

    ``enabled``/``sample_rate``/``sink_path`` default to the
    ``REPRO_TRACE`` / ``REPRO_TRACE_SAMPLE`` / ``REPRO_TRACE_SINK``
    knobs (read once at construction — :func:`reset_tracer` re-reads).
    Completed span records accumulate per trace id in a bounded ring of
    the newest ``max_traces`` traces; when the *root* span closes the
    whole trace is flushed to the sink (one JSON line) if one is
    configured.  Span durations are observed into ``span.<name>``
    histograms on ``registry`` (default: the global registry).
    """

    def __init__(
        self,
        enabled: Optional[bool] = None,
        sample_rate: Optional[float] = None,
        sink_path: Optional[str] = None,
        max_traces: int = 128,
        registry: Optional[MetricsRegistry] = None,
        rng: Optional[random.Random] = None,
    ):
        self._enabled = _config.trace_enabled() if enabled is None else enabled
        self._sample = (
            _config.trace_sample_rate() if sample_rate is None else sample_rate
        )
        self._sink_path = (
            _config.trace_sink_path() if sink_path is None else sink_path
        )
        self._registry = registry
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._sink_lock = threading.Lock()
        self._traces: "OrderedDict[str, List[dict]]" = OrderedDict()
        self._open: Dict[str, int] = {}
        self._max_traces = max_traces
        self._last_trace_id: Optional[str] = None
        self._started = 0
        self._finished = 0
        self._adopted = 0
        self._double_closes = 0
        self._sampled_out = 0

    # -- starting spans ----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def start_trace(self, name: str, **attrs):
        """Open a new trace's root span; :data:`NULL_SPAN` when off/unsampled."""
        if not self._enabled:
            return NULL_SPAN
        if self._sample < 1.0 and self._rng.random() >= self._sample:
            with self._lock:
                self._sampled_out += 1
            return NULL_SPAN
        trace_id = _new_id()
        with self._lock:
            self._traces[trace_id] = []
            self._last_trace_id = trace_id
            self._evict_locked()
        return self._start_span(name, trace_id, None, attrs)

    def _start_span(self, name: str, trace_id: str,
                    parent_id: Optional[str], attrs: Optional[dict]) -> Span:
        span = Span(self, name, trace_id, parent_id, attrs)
        with self._lock:
            self._started += 1
            self._open[trace_id] = self._open.get(trace_id, 0) + 1
        return span

    # -- finishing spans ---------------------------------------------------

    def _finish(self, span: Span) -> None:
        record = span.as_record()
        with self._lock:
            self._finished += 1
            remaining = self._open.get(span.trace_id, 1) - 1
            if remaining <= 0:
                self._open.pop(span.trace_id, None)
            else:
                self._open[span.trace_id] = remaining
            bucket = self._traces.get(span.trace_id)
            if bucket is None:
                bucket = self._traces[span.trace_id] = []
                self._evict_locked()
            bucket.append(record)
            flush = list(bucket) if span.parent_id is None else None
        self._observe(span.name, record["duration_us"])
        if flush is not None and self._sink_path:
            self._flush(span.trace_id, span.name, flush)

    def _note_double_close(self, name: str) -> None:
        with self._lock:
            self._double_closes += 1

    def _observe(self, name: str, duration_us: int) -> None:
        registry = self._registry if self._registry is not None else global_registry()
        registry.histogram(f"span.{name}").observe(duration_us / 1e6)

    def _evict_locked(self) -> None:
        while len(self._traces) > self._max_traces:
            evicted, _ = self._traces.popitem(last=False)
            self._open.pop(evicted, None)

    # -- worker-side stitching ---------------------------------------------

    def adopt(self, records: Iterable[Mapping]) -> int:
        """Graft worker-side :class:`ServeSpan` records into their traces.

        Records for traces already evicted from the ring open a fresh
        bucket (the renderer treats their spans as orphans).  Returns
        the number of records adopted; malformed ones are dropped.
        """
        count = 0
        for record in records or ():
            if not isinstance(record, Mapping):
                continue
            trace_id = record.get("trace_id")
            if not trace_id or "span_id" not in record:
                continue
            plain = dict(record)
            plain.setdefault("remote", True)
            with self._lock:
                bucket = self._traces.get(trace_id)
                if bucket is None:
                    bucket = self._traces[trace_id] = []
                    self._evict_locked()
                bucket.append(plain)
                self._adopted += 1
            duration = plain.get("duration_us")
            if isinstance(duration, (int, float)):
                self._observe(str(plain.get("name", "remote")), duration)
            count += 1
        return count

    # -- introspection -----------------------------------------------------

    def trace(self, trace_id: str) -> List[dict]:
        """The finished span records of one trace (copy; [] if unknown)."""
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def last_trace(self):
        """``(trace_id, spans)`` of the most recently started trace."""
        with self._lock:
            trace_id = self._last_trace_id
            spans = list(self._traces.get(trace_id, ())) if trace_id else []
        return trace_id, spans

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def health(self) -> Dict[str, int]:
        """Well-formedness counters the chaos suite asserts on."""
        with self._lock:
            return {
                "started": self._started,
                "finished": self._finished,
                "adopted": self._adopted,
                "open": sum(self._open.values()),
                "double_closes": self._double_closes,
                "sampled_out": self._sampled_out,
            }

    # -- sink --------------------------------------------------------------

    def _flush(self, trace_id: str, root: str, spans: List[dict]) -> None:
        line = json.dumps({
            "schema_version": TRACE_SCHEMA_VERSION,
            "trace_id": trace_id,
            "root": root,
            "spans": spans,
        }, default=str)
        try:
            with self._sink_lock:
                with open(self._sink_path, "a", encoding="utf-8") as sink:
                    sink.write(line + "\n")
        except OSError:
            # A broken sink must never fail the query it was observing;
            # disable further flushes instead of raising per trace.
            self._sink_path = None


_TRACER_LOCK = threading.Lock()
_TRACER: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-wide tracer (configured from ``REPRO_TRACE*`` once)."""
    global _TRACER
    tracer = _TRACER
    if tracer is not None:
        return tracer
    with _TRACER_LOCK:
        if _TRACER is None:
            _TRACER = Tracer()
        return _TRACER


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install a specific tracer (tests; ``None`` defers to lazy re-read)."""
    global _TRACER
    with _TRACER_LOCK:
        _TRACER = tracer


def reset_tracer() -> None:
    """Drop the process tracer so the next use re-reads the env knobs."""
    set_tracer(None)
