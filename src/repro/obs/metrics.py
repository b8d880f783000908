"""Unified metrics: counters, gauges, log-bucketed latency histograms.

Before this module existed every subsystem grew its own ad-hoc counter
bag — :class:`~repro.pdms.service.ServiceStats`,
:class:`~repro.pdms.materialization.FragmentCacheStats`,
``RemotePeerFactSource.scatter_stats()``, per-peer latency snapshots —
each with a private shape and no percentiles anywhere.  This module
gives them one registry to surface through:

* :class:`Counter` / :class:`Gauge` — thread-safe scalars for direct
  instrumentation on hot-ish paths (one lock hop per event; events are
  per-query or per-scan, never per-row).
* :class:`Histogram` — a log-bucketed latency histogram (powers of two
  from 1 µs) with O(1) memory and p50/p95/p99 estimates interpolated
  within the matching bucket.  The estimates carry bounded relative
  error (one bucket's width), the standard tradeoff for never keeping
  raw samples.
* :class:`MetricsRegistry` — named instruments plus *pull collectors*:
  an existing stats object registers a bound method returning its
  schema-versioned ``as_dict()`` and is re-read at snapshot time, so
  registration costs the hot path nothing.  Bound-method collectors are
  held through a weak reference to their owner, so a dead
  ``QueryService`` silently drops out of snapshots instead of leaking.

``MetricsRegistry.snapshot()`` is the single uniform surface: it is what
``QueryService.metrics_snapshot()`` returns, a ``ServiceCluster``'s
remote source included.  Snapshots are plain
data (fresh dicts of ints/floats) — mutating one never perturbs live
instruments.  See ``docs/observability.md``.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
]

#: Version stamped on every registry snapshot (and on the unified
#: ``as_dict()`` stats shapes that register into it).  Bump when a key
#: is renamed, removed or its meaning changes; additions are compatible.
#: Version 2 removed the service's ``adaptive`` block.
#: Version 3 removed the ``peer_latency`` / ``sharding`` blocks, the hedge
#: and deadline keys of ``scan_policy``, and four ``scatter`` counters.
METRICS_SCHEMA_VERSION = 3


class Counter:
    """A monotonically increasing counter (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (thread-safe); ``set`` or ``add`` deltas."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Log-bucketed latency histogram with percentile estimates.

    Buckets are powers of two starting at 1 µs (32 buckets reach ~36
    minutes); an observation lands in the first bucket whose upper bound
    contains it, out-of-range values clamp to the end buckets.
    :meth:`percentile` walks the cumulative counts and interpolates
    linearly inside the matching bucket, so p50/p95/p99 are estimates
    with at most one bucket's relative error — O(1) memory, no raw
    samples kept.
    """

    MIN_BOUND = 1e-6
    BUCKET_COUNT = 32

    __slots__ = ("_lock", "_buckets", "_count", "_sum", "_max")

    def __init__(self):
        self._lock = threading.Lock()
        self._buckets = [0] * self.BUCKET_COUNT
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one measured duration (seconds) into the histogram."""
        if seconds < 0:
            seconds = 0.0
        if seconds <= self.MIN_BOUND:
            index = 0
        else:
            index = min(
                self.BUCKET_COUNT - 1,
                int(math.ceil(math.log2(seconds / self.MIN_BOUND))),
            )
        with self._lock:
            self._buckets[index] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 1]) in seconds."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile {q!r} must be within [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            cumulative = 0
            for index, bucket in enumerate(self._buckets):
                if bucket == 0:
                    continue
                if cumulative + bucket >= rank:
                    lower = 0.0 if index == 0 else self.MIN_BOUND * 2 ** (index - 1)
                    upper = self.MIN_BOUND * 2 ** index
                    fraction = (rank - cumulative) / bucket
                    return min(lower + fraction * (upper - lower), self._max)
                cumulative += bucket
            return self._max

    def as_dict(self) -> Dict[str, float]:
        """Summary shape used by registry snapshots (milliseconds)."""
        with self._lock:
            count, total, peak = self._count, self._sum, self._max
        return {
            "count": count,
            "sum_ms": total * 1000.0,
            "mean_ms": (total / count * 1000.0) if count else 0.0,
            "p50_ms": self.percentile(0.50) * 1000.0,
            "p95_ms": self.percentile(0.95) * 1000.0,
            "p99_ms": self.percentile(0.99) * 1000.0,
            "max_ms": peak * 1000.0,
        }


class MetricsRegistry:
    """Named instruments plus pull collectors; one uniform snapshot.

    Instruments are get-or-create by name (:meth:`counter`,
    :meth:`gauge`, :meth:`histogram`).  Collectors are zero-argument
    callables returning a fresh plain dict — typically the
    schema-versioned ``as_dict()`` of an existing stats object — invoked
    only at :meth:`snapshot` time.  A collector that is a bound method
    is held via a weak reference to its owner and pruned once the owner
    is gone.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # name -> (weakref-to-owner | None, callable); for bound methods
        # the callable is the underlying function taking the owner.
        self._collectors: Dict[str, Tuple[Optional[weakref.ref], Callable]] = {}

    # -- instruments -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    # -- collectors --------------------------------------------------------

    def register_collector(self, name: str, collect: Callable[[], dict]) -> None:
        """Register a pull collector under ``name`` (replaces any prior).

        ``collect`` must return a fresh plain dict each call; bound
        methods are weakly referenced through their owner so that
        registration never extends the owner's lifetime.
        """
        owner = getattr(collect, "__self__", None)
        if owner is not None:
            entry = (weakref.ref(owner), collect.__func__)
        else:
            entry = (None, collect)
        with self._lock:
            self._collectors[name] = entry

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-data view of every instrument and live collector.

        The returned structure shares no mutable state with the registry;
        mutating it never perturbs live metrics.
        """
        with self._lock:
            collectors = list(self._collectors.items())
        # Collectors run first, so one may refresh a gauge its owner keeps.
        collected: Dict[str, object] = {}
        dead: List[str] = []
        for name, (ref, func) in collectors:
            if ref is None:
                collected[name] = func()
            else:
                owner = ref()
                if owner is None:
                    dead.append(name)
                else:
                    collected[name] = func(owner)
        with self._lock:
            for name in dead:
                self._collectors.pop(name, None)
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = list(self._histograms.items())
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": {name: h.as_dict() for name, h in histograms},
            "collected": collected,
        }


_GLOBAL_LOCK = threading.Lock()
_GLOBAL: Optional[MetricsRegistry] = None


def global_registry() -> MetricsRegistry:
    """The process-wide registry (span-latency histograms, RPC counters)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
        return _GLOBAL


def reset_global_registry() -> None:
    """Drop the process-wide registry (tests and benchmark isolation)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = None
