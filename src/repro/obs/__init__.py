"""Observability: query-lifecycle tracing, unified metrics, exporters.

Three small modules with one job each:

* :mod:`repro.obs.trace` — ``Span``/``Tracer`` trace trees with
  monotonic timings, per-trace sampling, wire-context propagation
  (worker-side :class:`~repro.obs.trace.ServeSpan` records stitched back
  into the parent tree), and a JSONL sink.  Behind ``REPRO_TRACE`` /
  ``REPRO_TRACE_SAMPLE`` / ``REPRO_TRACE_SINK``; off by default with
  ~zero overhead.
* :mod:`repro.obs.metrics` — counters, gauges, log-bucketed latency
  histograms (p50/p95/p99) and the :class:`MetricsRegistry` the existing
  ad-hoc stats objects register into, surfaced via
  ``QueryService.metrics_snapshot()`` (a ``ServiceCluster``'s remote
  source registers into its service's registry).
* :mod:`repro.obs.export` — the text explain-analyze renderer
  (:func:`render_trace`) and the JSONL sink CLI
  (``python -m repro.obs.export``).

See ``docs/observability.md`` for the span taxonomy, sink format, and
measured overhead.
"""

from .metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    reset_global_registry,
)
from .trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    ServeSpan,
    Span,
    Tracer,
    current_span,
    current_wire_context,
    get_tracer,
    reset_tracer,
    set_tracer,
    wire_context,
)
from .export import load_sink, render_last, render_trace

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "ServeSpan",
    "Span",
    "Tracer",
    "current_span",
    "current_wire_context",
    "get_tracer",
    "global_registry",
    "load_sink",
    "render_last",
    "render_trace",
    "reset_global_registry",
    "reset_tracer",
    "set_tracer",
    "wire_context",
]
