"""The ``"distributed"`` execution engine: scatter-gather over peers.

Registered in the :mod:`repro.pdms.execution` engine registry alongside
``"backtracking"`` and ``"columnar"``, so anything that selects an engine
by name — the service layer, ``REPRO_DEFAULT_ENGINE``, the CI matrix —
can run the peer boundary without code changes.

Evaluation is the ``"columnar"`` engine's (:mod:`repro.pdms.planning`):
fragments are hash-consed and memoized, and the cross-call
:class:`~repro.pdms.materialization.FragmentCache` keys on the same
wire-fetched data-version tokens.  The distributed twist is **where scans
run**: before a root is evaluated, every stored-relation scan under it
(:meth:`~repro.pdms.planning.UnionPlan.scan_requests`) is prefetched in
one scatter-gather wave — batched per owning peer, the per-peer batches
issued concurrently over the transport.  The gathered rows land in the
source's scan memo; evaluation then joins them in the caller's thread.

Data routing:

* a :class:`~repro.pdms.distributed.source.RemotePeerFactSource` is used
  as-is (after a :meth:`~repro.pdms.distributed.source.RemotePeerFactSource.refresh`
  so the call sees current versions);
* per-peer instances / an in-process
  :class:`~repro.pdms.execution.PeerFactSource` are wrapped in a
  per-call loopback-transport source, so the whole tier-1 suite exercises
  the peer boundary when ``REPRO_DEFAULT_ENGINE=distributed``;
* flat fact sources (no peer structure) fall back to the ``"columnar"``
  engine's evaluation path unchanged.

Failure semantics: a peer that times out or is injected as failed simply
contributes no rows — under monotone conjunctive queries the result is a
**sound subset** of the complete answer.  :func:`evaluate_distributed`
surfaces this as a :class:`DistributedAnswer` with an explicit
``complete`` flag and the per-scan failure records; fragments touching
degraded relations are barred from version-keyed caches by the source
(see :mod:`repro.pdms.distributed.source`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import threading
from collections import OrderedDict

from ...config import shards as _config_shards
from ...config import transport_backend as _config_transport_backend
from ...database.feedback import QErrorLog
from ...errors import EvaluationError
from ...obs.trace import current_span
from ..execution import (
    ExecutionEngine,
    PeerFactSource,
    Row,
    evaluate_reformulation,
    federate_if_per_peer,
    register_engine,
)
from ..materialization import FragmentCache
from ..planning import UnionPlan, ensure_plan, plan_answer_batches
from ..reformulation import ReformulationResult
from .async_transport import AsyncSocketTransport
from .sharding import auto_shard
from .source import RemotePeerFactSource, ScanFailure
from .transport import LoopbackTransport

# ``REPRO_TRANSPORT=socket`` routes every engine-wrapped call over real
# TCP sockets.  Socket transports are expensive to stand up (an event
# loop thread plus a listening server), so they are memoized per instance
# set instead of rebuilt per call: the cache holds a strong reference to
# the instances (scans read them live, so data stays fresh and ``id``
# keys cannot be recycled while cached) and evicts LRU past a small cap.
_SOCKET_CACHE_CAP = 8
_socket_cache: "OrderedDict[tuple, AsyncSocketTransport]" = OrderedDict()
_socket_cache_lock = threading.Lock()


def _socket_transport(instances) -> AsyncSocketTransport:
    key = tuple(sorted((name, id(inst)) for name, inst in instances.items()))
    evicted = []
    with _socket_cache_lock:
        transport = _socket_cache.get(key)
        if transport is not None:
            _socket_cache.move_to_end(key)
        else:
            transport = AsyncSocketTransport(instances)
            _socket_cache[key] = transport
            while len(_socket_cache) > _SOCKET_CACHE_CAP:
                evicted.append(_socket_cache.popitem(last=False)[1])
    for old in evicted:
        old.close()
    return transport


def _loopback_source(instances) -> RemotePeerFactSource:
    """Wrap live per-peer instances in a per-call transport boundary.

    With ``REPRO_SHARDS`` >= 2 the instances are first hash-partitioned
    across that many shard instances per peer (memoized per data version,
    so repeated calls over unchanged data keep stable shard identities —
    and therefore stable version tokens for the fragment caches), and the
    resulting source carries the shard map for partition pruning.  The
    boundary itself is in-process zero-copy by default;
    ``REPRO_TRANSPORT=socket`` swaps in a cached
    :class:`AsyncSocketTransport` so the same calls cross real TCP
    sockets.
    """
    socket_backend = _config_transport_backend() == "socket"

    def _wrap(insts):
        return _socket_transport(insts) if socket_backend else LoopbackTransport(insts)

    n = _config_shards()
    if n > 1:
        shard_map, workers = auto_shard(instances, n)
        return RemotePeerFactSource(_wrap(workers), shard_map=shard_map)
    return RemotePeerFactSource(_wrap(instances))


@dataclass(frozen=True)
class DistributedAnswer:
    """A best-effort distributed answer with its completeness verdict.

    ``complete`` is ``True`` only when no transport fault touched the
    evaluation window: every peer described, every scan arrived.  When
    ``False``, ``rows`` is still a *sound subset* of the complete answer
    (missing peers only remove facts, and conjunctive queries are
    monotone); ``failures`` records what was lost.
    """

    rows: frozenset
    complete: bool
    failures: Tuple[ScanFailure, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class DistributedEngine(ExecutionEngine):
    """Scatter-gather engine over a peer-boundary transport.

    Evaluation is the ``"columnar"`` engine's root loop
    (:func:`~repro.pdms.planning.plan_answer_batches`); this engine only
    decides what the data source is and, before each root — the one
    factored root of a whole answer, whose scans thus go out in a single
    wave — scatters the root's scans unless it is warm in the cache.
    """

    uses_plans = True

    def __init__(self, name: str = "distributed"):
        self.name = name

    def batches(
        self,
        result: ReformulationResult,
        data,
        plan: Optional[UnionPlan] = None,
        cache: Optional[FragmentCache] = None,
        feedback: Optional[QErrorLog] = None,
        whole: bool = False,
    ) -> Iterator[Iterable[Row]]:
        if plan is not None:
            ensure_plan(result, data, plan)  # fail on a foreign plan now, not lazily
        return self._generate(result, data, plan, cache, feedback, whole)

    def _generate(self, result, data, plan, cache, feedback, whole):
        remote: Optional[RemotePeerFactSource] = None
        owns_source = False
        if isinstance(data, RemotePeerFactSource):
            remote = data
            # One describe round per call so the evaluation sees current
            # version tokens; a real wire round, so it gets its own span.
            with current_span().child("source.refresh"):
                remote.refresh()
        elif isinstance(data, PeerFactSource):
            # Wrap the live per-peer instances in a per-call loopback
            # boundary: same answers, but every probe crosses the wire
            # contract — this is what the tier-1 matrix leg exercises.
            remote = _loopback_source(data.instances())
            owns_source = True
        source = remote if remote is not None else data
        try:
            plan = ensure_plan(result, source, plan)
            if remote is None:
                # No peer structure to scatter over: identical to "columnar".
                yield from plan_answer_batches(
                    plan, source, cache=cache, feedback=feedback, whole=whole
                )
                return
            failures_seen = remote.failure_count

            def faulted(evaluation):
                # A failed scan (ours or a concurrent call's) withdraws the
                # versions of the relations it degraded: stop trusting the
                # snapshot, or partial rows would be cached as complete.
                nonlocal failures_seen
                failures = remote.failure_count
                if failures != failures_seen:
                    failures_seen = failures
                    evaluation.restart()

            def prefetch(evaluation, root_key):
                # A fragment already warm in the cache (locally or in the
                # shared tier) will be served without touching the wire, so
                # its whole scatter round can be skipped — this is where a
                # cross-process cache-tier hit beats a cold compute.
                if not evaluation.cached(root_key):
                    # Scatter: every stored-relation scan under this root,
                    # one batched RPC per owning peer, concurrently —
                    # pruned to owning shards where the pattern allows.
                    # Gathered rows land in the source's memo, so fragment
                    # evaluation below never blocks on the wire.
                    remote.prefetch(
                        evaluation.plan.scan_requests(
                            root_key, shard_map=remote.shard_map
                        )
                    )
                faulted(evaluation)

            # A whole answer has one root: check again after every scan the
            # evaluation performs itself (one the scatter did not cover).
            yield from plan_answer_batches(
                plan, remote, cache=cache, feedback=feedback, whole=whole,
                before_root=prefetch, after_scan=faulted,
            )
        finally:
            if owns_source and remote is not None:
                remote.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistributedEngine({self.name!r})"


def evaluate_distributed(
    result: ReformulationResult,
    data,
    limit: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
) -> DistributedAnswer:
    """Evaluate ``result`` over peers, reporting completeness explicitly.

    ``data`` is a :class:`~repro.pdms.distributed.source.RemotePeerFactSource`
    (over a loopback or
    :class:`~repro.pdms.distributed.async_transport.AsyncSocketTransport`),
    or per-peer instances / a :class:`~repro.pdms.execution.PeerFactSource`,
    which are wrapped in a loopback boundary for the call.  The failure
    window is the call itself: faults recorded by other threads sharing
    the source during the call conservatively clear ``complete``.
    """
    source = data
    owns_source = False
    if not isinstance(source, RemotePeerFactSource):
        federated = federate_if_per_peer(data)
        if not isinstance(federated, PeerFactSource):
            raise EvaluationError(
                "evaluate_distributed needs per-peer data or a "
                "RemotePeerFactSource; flat fact sources have no peer "
                "boundary to report completeness for"
            )
        source = _loopback_source(federated.instances())
        owns_source = True
    window_start = source.failure_count
    try:
        rows = evaluate_reformulation(
            result, source, engine="distributed", limit=limit, cache=cache
        )
    finally:
        if owns_source:
            source.close()
    failures = source.failures(window_start)
    complete = not failures and source.complete
    return DistributedAnswer(frozenset(rows), complete, failures)


register_engine(DistributedEngine())
