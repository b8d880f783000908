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
  unchanged, with per-call scan memoization and data-version tokens
  fetched over the wire;
* :mod:`~repro.pdms.distributed.engine` — the ``"distributed"`` execution
  engine: scatter-gathers independent fragment scans across peers
  concurrently and degrades to best-effort answers with an explicit
  ``completeness`` flag when peers fail;
* :mod:`~repro.pdms.distributed.cluster` — :class:`ServiceCluster`, a
  concurrency-safe front end over :class:`~repro.pdms.service.QueryService`
  with bounded admission (``REPRO_MAX_INFLIGHT``);
* :mod:`~repro.pdms.distributed.sharding` — :class:`ShardMap` placement
  (hash/range partitioning of peer relations across worker shards) with
  stable cross-process routing hashes and partition-pruned scan owner
  resolution;
* :mod:`~repro.pdms.distributed.cache_tier` — the shared fragment-cache
  peer (:class:`FragmentStore` + :class:`CacheTierClient`) every
  :class:`~repro.pdms.materialization.FragmentCache` can consult between
  its local LRU and a fresh compute;
* :mod:`~repro.pdms.distributed.async_transport` —
  :class:`AsyncSocketTransport`, the same four-RPC contract over real
  asyncio TCP sockets (length-prefixed frames, a batch frame, one
  connection pool, one background event-loop thread), selectable
  engine-wide with ``REPRO_TRANSPORT=socket``;
* :mod:`~repro.pdms.distributed.hedging` — the tail-latency toolkit:
  :class:`ScanPolicy` (bounded retries with jittered backoff, hedged
  duplicate scans to shard replicas, per-query deadline budgets),
  :class:`PeerLatencyTracker` (per-peer EWMA latency quantiles feeding
  the adaptive hedge trigger), and :class:`HalfOpenBreaker` (the cache
  tier client's circuit breaker, which probes and recovers after a
  cooldown instead of staying open forever).

Every transport propagates the :mod:`repro.obs.trace` wire context
(trace/span ids ride scan and insert RPCs out of band, so server-side
serve spans stitch into the caller's trace tree), and every stats
surface in the package registers into the owning service's
:class:`~repro.obs.metrics.MetricsRegistry` — see
``docs/observability.md``.

See ``docs/distributed.md`` for the wire contract, failure semantics, and
the consolidated table of every ``REPRO_*`` environment knob, and
``docs/sharding.md`` for placement, pruning, and cache-tier semantics.
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
from .hedging import HalfOpenBreaker, PeerLatencyTracker, ScanPolicy
from .sharding import (
    HashPartition,
    RangePartition,
    ShardMap,
    auto_shard,
    insert_routed,
    shard_peer_names,
    stable_shard_hash,
)
from .cache_tier import (
    CACHE_PEER,
    CacheTierClient,
    FragmentStore,
    default_cache_tier,
    reset_default_cache_tier,
)
from .source import RemotePeerFactSource, ScanFailure
from .engine import DistributedAnswer, DistributedEngine, evaluate_distributed
from .cluster import ClusterAnswer, ServiceCluster

__all__ = [
    "AsyncSocketTransport",
    "CACHE_PEER",
    "CacheTierClient",
    "ClusterAnswer",
    "DistributedAnswer",
    "DistributedEngine",
    "FragmentStore",
    "HalfOpenBreaker",
    "HashPartition",
    "LoopbackTransport",
    "PeerLatencyTracker",
    "RangePartition",
    "RemotePeerFactSource",
    "ScanFailure",
    "ScanPolicy",
    "ServiceCluster",
    "ShardMap",
    "Transport",
    "auto_shard",
    "decode_pattern",
    "default_cache_tier",
    "encode_pattern",
    "evaluate_distributed",
    "insert_routed",
    "max_inflight_from_env",
    "reset_default_cache_tier",
    "shard_peer_names",
    "stable_shard_hash",
]
