"""A concurrency-safe, admission-bounded front end over one QueryService.

:class:`~repro.pdms.service.QueryService` is (since this subsystem) safe
under concurrent callers — its reformulation/plan caches and counters are
lock-guarded — but a service alone neither bounds how much work enters at
once nor reports per-answer completeness.  :class:`ServiceCluster` adds
both:

* **Bounded admission** — at most ``max_inflight`` answers execute
  concurrently (``REPRO_MAX_INFLIGHT``, 0 = unbounded); excess callers
  queue on a semaphore instead of piling onto the peers.  ``peak_inflight``
  records the high-water mark actually reached.
* **Completeness accounting** — when the cluster fronts a transport, each
  :meth:`answer` snapshots the
  :class:`~repro.pdms.distributed.source.RemotePeerFactSource` failure
  window around the call and returns a :class:`ClusterAnswer` whose
  ``complete`` flag says whether any peer fault touched the window
  (conservative under concurrency: a fault observed by an overlapping
  call also clears the flag).
* **Fan-in** — :meth:`answer_many` evaluates a query mix on a client-side
  thread pool; the scatter-gathered scans of different queries overlap on
  the wire.

:func:`evaluate_distributed` is the same completeness accounting for one
reformulation over a :class:`RemotePeerFactSource`, without a service.

The peer set is fixed by the transport at construction; catalogue churn
(mappings joining or leaving) still flows through the wrapped service,
whose provenance invalidation is unchanged.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...datalog.queries import ConjunctiveQuery
from ...errors import EvaluationError, PDMSConfigurationError
from ...obs.metrics import METRICS_SCHEMA_VERSION
from ...obs.trace import current_span, get_tracer, wire_context
from ..execution import evaluate_reformulation
from ..materialization import FragmentCache
from ..optimizations import ReformulationConfig
from ..reformulation import ReformulationResult
from ..service import QueryService, ServiceStats
from ..system import PDMS
from ...config import max_inflight as _config_max_inflight
from .source import RemotePeerFactSource, ScanFailure, ScanPolicy
from .transport import Row, Transport


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


#: One answered query with its completeness verdict — the same envelope
#: :func:`evaluate_distributed` returns, shared so enrichments (and
#: ``isinstance`` checks) apply to both paths.
ClusterAnswer = DistributedAnswer


def evaluate_distributed(
    result: ReformulationResult,
    data: RemotePeerFactSource,
    limit: Optional[int] = None,
    cache: Optional[FragmentCache] = None,
) -> DistributedAnswer:
    """Evaluate ``result`` over a remote source, reporting completeness.

    ``data`` must be a :class:`RemotePeerFactSource` (over a loopback or
    an :class:`~repro.pdms.distributed.async_transport.AsyncSocketTransport`);
    anything else has no peer boundary to report completeness for and
    raises.  The failure window is the call itself: faults recorded by
    other threads sharing the source during the call conservatively clear
    ``complete``.
    """
    if not isinstance(data, RemotePeerFactSource):
        raise EvaluationError(
            "evaluate_distributed needs a RemotePeerFactSource; in-process "
            "data has no peer boundary to report completeness for"
        )
    window_start = data.failure_count
    rows = evaluate_reformulation(result, data, limit=limit, cache=cache)
    failures = data.failures(window_start)
    return DistributedAnswer(frozenset(rows), not failures and data.complete, failures)


class ServiceCluster:
    """Serve one PDMS to concurrent callers over a peer transport.

    Parameters
    ----------
    pdms:
        The system to serve (created empty when omitted).
    transport:
        The peer boundary holding the stored-relation data; a
        :class:`~repro.pdms.distributed.source.RemotePeerFactSource` is
        built over it and installed as the service's data source, so every
        answer scatter-gathers straight over it and the fragment cache
        keys on wire-fetched version tokens.
    service:
        Alternatively, wrap a prebuilt :class:`QueryService` (mutually
        exclusive with ``pdms``/``transport`` and with every setting the
        constructed service would take: ``config``, ``engine``,
        ``fragment_cache_bytes``, ``fragment_cache``, ``scan_policy``).
        Completeness reporting needs the service's data to be a
        ``RemotePeerFactSource``; otherwise every answer reports
        ``complete=True``.
    config, fragment_cache_bytes:
        Forwarded to the constructed :class:`QueryService`.
    engine:
        Engine name for the constructed service (default: the plan path;
        ``"backtracking"`` selects the oracle).
    max_inflight:
        Concurrent-answer bound; default ``REPRO_MAX_INFLIGHT`` (0 =
        unbounded).
    fragment_cache:
        A :class:`~repro.pdms.materialization.FragmentCache` forwarded to
        the constructed :class:`QueryService`: clusters (or services)
        handed the same cache share its warm fragments (see
        ``docs/distributed.md``).
    scan_policy:
        The retry envelope the cluster's scans run under; defaults to
        :meth:`~repro.pdms.distributed.source.ScanPolicy.from_env`.
    """

    def __init__(
        self,
        pdms: Optional[PDMS] = None,
        transport: Optional[Transport] = None,
        service: Optional[QueryService] = None,
        config: Optional[ReformulationConfig] = None,
        engine: Optional[str] = None,
        max_inflight: Optional[int] = None,
        fragment_cache_bytes: Optional[int] = None,
        fragment_cache: Optional[FragmentCache] = None,
        scan_policy: Optional[ScanPolicy] = None,
    ):
        if service is not None:
            if pdms is not None or transport is not None:
                raise PDMSConfigurationError(
                    "pass either a prebuilt service or pdms/transport, not both"
                )
            ignored = [
                name
                for name, value in (
                    ("config", config),
                    ("engine", engine),
                    ("fragment_cache_bytes", fragment_cache_bytes),
                    ("fragment_cache", fragment_cache),
                    ("scan_policy", scan_policy),
                )
                if value is not None
            ]
            if ignored:
                raise PDMSConfigurationError(
                    "a prebuilt service carries its own settings; drop "
                    + ", ".join(ignored)
                )
            self._service = service
            self._transport = None
            data = service._flat_data
            self._source = data if isinstance(data, RemotePeerFactSource) else None
        else:
            if transport is None:
                raise PDMSConfigurationError(
                    "ServiceCluster needs a transport (or a prebuilt service)"
                )
            self._transport = transport
            try:
                self._source = RemotePeerFactSource(transport, policy=scan_policy)
            except EvaluationError as exc:
                # A malformed REPRO_SCAN_RETRIES read by ScanPolicy.from_env
                # is a construction-time mistake, exactly as max_inflight
                # below.
                raise PDMSConfigurationError(str(exc)) from exc
            self._service = QueryService(
                pdms,
                config=config,
                engine=engine,
                data=self._source,
                fragment_cache=fragment_cache,
                fragment_cache_bytes=fragment_cache_bytes,
            )
        if self._source is not None:
            # The source's scatter/policy/transport snapshots become pull
            # collectors in the service's unified registry (weakly held).
            self._source.bind_metrics(self._service.metrics)
        if max_inflight is not None:
            bound = max_inflight
        else:
            try:
                bound = _config_max_inflight()
            except EvaluationError as exc:
                # Construction-time mistakes are configuration errors,
                # exactly as in QueryService.
                raise PDMSConfigurationError(str(exc)) from exc
        if bound < 0:
            raise PDMSConfigurationError("max_inflight must be >= 0 (0 = unbounded)")
        self._max_inflight = bound
        self._admission = threading.Semaphore(bound) if bound else None
        self._gauge_lock = threading.Lock()
        self._inflight = 0
        self._peak_inflight = 0
        self._served = 0

    # -- introspection -----------------------------------------------------

    @property
    def service(self) -> QueryService:
        """The wrapped (thread-safe) query service."""
        return self._service

    @property
    def source(self) -> Optional[RemotePeerFactSource]:
        """The remote source answers are served from (``None`` if wrapped)."""
        return self._source

    @property
    def transport(self) -> Optional[Transport]:
        """The transport the cluster fronts, when it built its own source."""
        return self._transport

    @property
    def stats(self) -> ServiceStats:
        """The wrapped service's cache counters."""
        return self._service.stats

    @property
    def max_inflight(self) -> int:
        """The admission bound in force (0 = unbounded)."""
        return self._max_inflight

    @property
    def peak_inflight(self) -> int:
        """Highest number of concurrently executing answers seen."""
        with self._gauge_lock:
            return self._peak_inflight

    @property
    def served(self) -> int:
        """Total answers completed."""
        with self._gauge_lock:
            return self._served

    def describe(self) -> Dict[str, object]:
        """A flat status snapshot (peers, traffic, admission, caches)."""
        peers: Dict[str, int] = {}
        transport = self._transport
        if transport is not None:
            for peer in transport.peers():
                counter = getattr(transport, "scan_count", None)
                peers[peer] = counter(peer) if callable(counter) else 0
        with self._gauge_lock:
            snapshot: Dict[str, object] = {
                "schema_version": METRICS_SCHEMA_VERSION,
                "served": self._served,
                "inflight": self._inflight,
                "peak_inflight": self._peak_inflight,
                "max_inflight": self._max_inflight,
            }
        snapshot["peer_scan_counts"] = peers
        # Snapshot, not the live stats object: concurrent answers keep
        # mutating the aliased fragment counters mid-render.
        snapshot["service"] = self._service.stats_snapshot().as_dict()
        if self._source is not None:
            snapshot["unreachable_peers"] = self._source.unreachable_peers
            snapshot["transport_failures"] = self._source.failure_count
            snapshot["scatter"] = self._source.scatter_stats()
        snapshot["metrics"] = self._service.metrics_snapshot()
        # Every contributor above builds fresh containers today, but one
        # returning a live dict would hand callers a mutable alias into
        # running counters (and vice versa).  A deep copy of plain
        # JSON-ish data is cheap on this cold path and makes the snapshot
        # contract unconditional.
        return copy.deepcopy(snapshot)

    # -- writes ------------------------------------------------------------

    def insert(self, relation: str, rows: Iterable[Row]) -> int:
        """Insert ``rows`` at every peer that currently owns ``relation``.

        The batch is deduplicated once, so each owner receives one copy
        of each row.  Returns the number of distinct rows written; raises
        :class:`~repro.errors.PDMSConfigurationError` when no peer owns
        the relation.  Transport faults propagate — a write that did not
        land must not look like one that did.
        """
        if self._transport is None:
            raise PDMSConfigurationError(
                "insert needs a cluster that fronts its own transport"
            )
        batch = list(dict.fromkeys(tuple(row) for row in rows))
        if not batch:
            return 0
        owners = self._source.owners(relation)
        if not owners:
            raise PDMSConfigurationError(f"no peer owns relation {relation!r}")
        parent = current_span()
        span = (
            parent.child("cluster.insert", relation=relation)
            if parent.recording
            else get_tracer().start_trace("cluster.insert", relation=relation)
        )
        # The wire context installed here parents the per-peer
        # ``rpc.serve.insert`` spans under this write.
        with span, wire_context(span.wire_context()):
            for peer in owners:
                self._transport.insert(peer, relation, batch)
            if span.recording:
                span.set("rows", len(batch))
            self._source.refresh()
        return len(batch)

    # -- answering ---------------------------------------------------------

    def answer(
        self, query: ConjunctiveQuery, limit: Optional[int] = None
    ) -> ClusterAnswer:
        """Answer one query under admission control.

        Blocks while ``max_inflight`` answers are already executing.  The
        completeness window spans this call; overlapping calls that hit a
        fault clear the flag conservatively.
        """
        if self._admission is not None:
            self._admission.acquire()
        try:
            with self._gauge_lock:
                self._inflight += 1
                self._peak_inflight = max(self._peak_inflight, self._inflight)
            window_start = (
                self._source.failure_count if self._source is not None else 0
            )
            rows = self._service.answer(query, limit=limit)
            if self._source is None:
                result = ClusterAnswer(frozenset(rows), True)
            else:
                failures = self._source.failures(window_start)
                complete = not failures and self._source.complete
                result = ClusterAnswer(frozenset(rows), complete, failures)
            with self._gauge_lock:
                # Counted here, not in the finally: a call that raised is
                # not a served answer.
                self._served += 1
            return result
        finally:
            with self._gauge_lock:
                self._inflight -= 1
            if self._admission is not None:
                self._admission.release()

    def answer_many(
        self,
        queries: Sequence[ConjunctiveQuery],
        limit: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> List[ClusterAnswer]:
        """Answer a query mix concurrently; results in query order.

        ``workers`` bounds the client-side pool (default: up to 8); the
        admission semaphore still gates how many answers execute at once,
        so a large mix queues instead of overwhelming the peers.
        """
        if not queries:
            return []
        pool_size = workers if workers is not None else min(8, len(queries))
        if pool_size <= 1 or len(queries) == 1:
            return [self.answer(query, limit=limit) for query in queries]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-cluster"
        ) as pool:
            return list(pool.map(lambda q: self.answer(q, limit=limit), queries))

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the source's scatter pool and the owned transport."""
        if self._source is not None:
            self._source.close()
        if self._transport is not None:
            self._transport.close()

    def __enter__(self) -> "ServiceCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceCluster({self._service!r}, served={self.served}, "
            f"max_inflight={self._max_inflight or 'unbounded'})"
        )
