"""Distributed peer runtime: transports, remote peer sources, clustering.

The paper's PDMS is a *network of autonomous peers*, but PRs 1–4 kept every
peer's :class:`~repro.database.instance.Instance` in the caller's process
and every answer path synchronous.  This package makes the peer boundary
real:

* :mod:`~repro.pdms.distributed.transport` — the wire contract
  (:class:`Transport`), the one server dispatch and client admission both
  backends share, and the in-process :class:`LoopbackTransport`, whose
  latency/failure injection hooks double as a chaos harness;
* :mod:`~repro.pdms.distributed.source` — :class:`RemotePeerFactSource`,
  implementing the :class:`~repro.datalog.indexing.IndexedFactSource`
  protocol over any transport so planning and the fragment cache work
  unchanged, with scan memoization and data-version tokens fetched over
  the wire.  It is the source that decides where scans run: the one plan
  path calls its ``answer_hooks()``, which scatter-gather each root's
  scans across peers concurrently, and a failed peer degrades the answer
  to a best-effort sound subset instead of failing it.  Its
  :class:`ScanPolicy` bounds the retries of each peer's scans;
* :mod:`~repro.pdms.distributed.cluster` — :class:`ServiceCluster`, a
  concurrency-safe front end over :class:`~repro.pdms.service.QueryService`
  with bounded admission (``REPRO_MAX_INFLIGHT``) and an explicit
  ``complete`` flag per answer, and :func:`evaluate_distributed`, the
  same flag for one reformulation without a service;
* :mod:`~repro.pdms.distributed.async_transport` —
  :class:`AsyncSocketTransport`, the same four-RPC contract over real
  asyncio TCP sockets (length-prefixed frames, a batch frame, one
  connection pool, one background event-loop thread).

Every transport propagates the :mod:`repro.obs.trace` wire context
(trace/span ids ride scan and insert RPCs out of band, so server-side
serve spans stitch into the caller's trace tree), and every stats
surface in the package registers into the owning service's
:class:`~repro.obs.metrics.MetricsRegistry` — see
``docs/observability.md``.

See ``docs/distributed.md`` for the wire contract, failure semantics,
sharing warm fragments across clusters, and the consolidated table of
every ``REPRO_*`` environment knob.
"""

# Backward-compatible alias: the reader moved into the consolidated knob
# module (repro.config) with every other REPRO_* reader.
from ...config import max_inflight as max_inflight_from_env
from .transport import (
    LoopbackTransport,
    Transport,
    decode_pattern,
    encode_pattern,
)
from .async_transport import AsyncSocketTransport
from .source import RemotePeerFactSource, ScanFailure, ScanPolicy
from .cluster import (
    ClusterAnswer,
    DistributedAnswer,
    ServiceCluster,
    evaluate_distributed,
)

__all__ = [
    "AsyncSocketTransport",
    "ClusterAnswer",
    "DistributedAnswer",
    "LoopbackTransport",
    "RemotePeerFactSource",
    "ScanFailure",
    "ScanPolicy",
    "ServiceCluster",
    "Transport",
    "decode_pattern",
    "encode_pattern",
    "evaluate_distributed",
    "max_inflight_from_env",
]
