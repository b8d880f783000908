"""Deployment knobs: every ``REPRO_*`` environment variable in one place.

Before this module existed, each subsystem read its own environment
variables through locally re-implemented parsing helpers, and the copies
drifted on error messages.  Every knob now flows through one of the typed
readers below (:func:`int_from_env`, :func:`bool_from_env`,
:func:`float_from_env`), so every knob fails fast with the same message
shape.  Evaluation itself has no knob: one path (the factored plan), one
representation (column batches), one thread (the caller's).  Where scans
run is decided by the fact source a caller builds, not by the
environment: there is no engine, transport or placement knob.  Nor is
any plan tuned at run time: the cost model orders every join, so there
is no adaptivity knob either.

The consolidated knob table lives in ``docs/distributed.md``.
"""

from __future__ import annotations

import os

from .errors import EvaluationError


def int_from_env(name: str, default: int, minimum: int = 0) -> int:
    """Read an integer from the environment, failing fast when malformed.

    A non-integer or below-minimum value raises :class:`EvaluationError`
    at the first call that reads it, with the offending value spelled
    out — never a silent fallback that hides a typo'd deployment knob.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EvaluationError(f"{name}={raw!r} is not an integer") from None
    if value < minimum:
        raise EvaluationError(f"{name}={raw!r} must be >= {minimum}")
    return value


def bool_from_env(name: str, default: bool) -> bool:
    """Read a 0/1 toggle (any non-negative integer; 0 is off, >0 is on)."""
    return int_from_env(name, 1 if default else 0) > 0


def float_from_env(name: str, default: float, minimum: float = 0.0) -> float:
    """Read a float from the environment, failing fast when malformed."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise EvaluationError(f"{name}={raw!r} is not a number") from None
    if value < minimum:
        raise EvaluationError(f"{name}={raw!r} must be >= {minimum}")
    return value


# ---------------------------------------------------------------------------
# The knobs (one documented reader per REPRO_* variable)
# ---------------------------------------------------------------------------

def fragment_cache_bytes() -> int:
    """Byte budget of a service fragment cache (``REPRO_FRAGMENT_CACHE_BYTES``).

    The default (64 MiB) lives in :mod:`repro.pdms.materialization`;
    ``0`` disables cross-call fragment caching entirely.
    """
    from .pdms.materialization import DEFAULT_FRAGMENT_CACHE_BYTES

    return int_from_env("REPRO_FRAGMENT_CACHE_BYTES", DEFAULT_FRAGMENT_CACHE_BYTES)


def transport_timeout_seconds() -> float:
    """Per-RPC deadline in seconds (``REPRO_TRANSPORT_TIMEOUT_MS``).

    Default 10 000 ms; ``0`` blocks forever.
    """
    return int_from_env("REPRO_TRANSPORT_TIMEOUT_MS", 10_000) / 1000.0


def scan_retries() -> int:
    """Extra scan attempts after a ``TransportError`` (``REPRO_SCAN_RETRIES``).

    Default 2 (so up to three attempts per scan unit, each to the one
    peer that owns it).  ``0`` disables retries: the first transport
    fault degrades the answer.
    """
    return int_from_env("REPRO_SCAN_RETRIES", 2)


def trace_enabled() -> bool:
    """Whether query-lifecycle tracing is on (``REPRO_TRACE``).

    Off by default: :func:`repro.obs.trace.get_tracer` hands out the
    no-op :data:`~repro.obs.trace.NULL_SPAN` for every query, so
    instrumentation sites cost ~nothing (~140 ns each when last
    measured).  When on, each answered query builds a trace tree —
    reformulation, planning, fragment evaluation, scatter waves, every
    remote scan attempt — subject to the sampling rate below.  See
    ``docs/observability.md``.
    """
    return bool_from_env("REPRO_TRACE", False)


def trace_sample_rate() -> float:
    """Fraction of queries traced when tracing is on (``REPRO_TRACE_SAMPLE``).

    Default 1.0 (trace everything).  The sampling decision is made once
    per query at the trace root; an unsampled query runs on the same
    no-op path as tracing-off, which is how a busy deployment keeps
    tracing enabled at, say, 0.01 without paying for every query.
    """
    value = float_from_env("REPRO_TRACE_SAMPLE", 1.0)
    if value > 1.0:
        raise EvaluationError(
            f"REPRO_TRACE_SAMPLE={value!r} must be within [0, 1]"
        )
    return value


def trace_sink_path() -> "str | None":
    """JSONL file completed traces are appended to (``REPRO_TRACE_SINK``).

    Unset (the default) keeps traces only in the tracer's bounded
    in-memory ring.  When set, every sampled trace is appended as one
    JSON line at root-span close; render with
    ``python -m repro.obs.export <path>``.  A sink write failure
    disables the sink rather than failing the query it was observing.
    """
    raw = os.environ.get("REPRO_TRACE_SINK")
    return raw if raw else None

