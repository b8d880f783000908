"""One PDMS served over a peer transport, with per-answer completeness.

:class:`ServiceCluster` builds a
:class:`~repro.pdms.distributed.source.RemotePeerFactSource` over a
transport, installs it as the data of a
:class:`~repro.pdms.service.QueryService`, and adds the two things the
service alone does not do:

* **completeness** — each :meth:`~ServiceCluster.answer` snapshots the
  source's failure window around the call and returns a
  :class:`ClusterAnswer` whose ``complete`` flag says whether any peer
  fault touched the window (conservative under concurrency: a fault
  observed by an overlapping call also clears the flag);
* **writes** — :meth:`~ServiceCluster.insert` writes one batch to the
  owning peer in one frame (the next answer's refresh reads it), and a
  write that did not land raises.

The service is safe under concurrent callers, so callers that want
concurrency call :meth:`~ServiceCluster.answer` from their own threads.
The peer set is fixed by the transport at construction; catalogue churn
(mappings joining or leaving) still flows through the wrapped service,
whose provenance invalidation is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ...datalog.queries import ConjunctiveQuery
from ...errors import EvaluationError, PDMSConfigurationError
from ...obs.trace import current_span, get_tracer, wire_context
from ..materialization import FragmentCache
from ..service import QueryService
from ..system import PDMS
from .source import RemotePeerFactSource, ScanFailure, ScanPolicy
from .transport import Row, Transport


@dataclass(frozen=True)
class ClusterAnswer:
    """One answered query with its completeness verdict.

    ``complete`` is ``True`` only when no transport fault touched the
    answer's window: every peer described, every scan arrived.  When
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


class ServiceCluster:
    """Serve one PDMS over a peer transport.

    Parameters
    ----------
    pdms:
        The system to serve (created empty when omitted).
    transport:
        The peer boundary holding the stored-relation data; a
        :class:`~repro.pdms.distributed.source.RemotePeerFactSource` is
        built over it and installed as the service's data source, so every
        answer scatter-gathers straight over it and the fragment cache
        keys on wire-fetched version tokens.  The cluster owns it:
        :meth:`close` closes it.
    engine, fragment_cache_bytes:
        Forwarded to the :class:`QueryService` (default engine: the plan
        path; ``"backtracking"`` selects the oracle).
    fragment_cache:
        A :class:`~repro.pdms.materialization.FragmentCache` forwarded to
        the :class:`QueryService`: clusters (or services) handed the same
        cache share its warm fragments (see ``docs/distributed.md``).
    scan_policy:
        The retry envelope the cluster's scans run under; defaults to
        :meth:`~repro.pdms.distributed.source.ScanPolicy.from_env`.
    """

    def __init__(
        self,
        pdms: Optional[PDMS] = None,
        *,
        transport: Transport,
        engine: Optional[str] = None,
        fragment_cache_bytes: Optional[int] = None,
        fragment_cache: Optional[FragmentCache] = None,
        scan_policy: Optional[ScanPolicy] = None,
    ):
        self._transport = transport
        try:
            self._source = RemotePeerFactSource(transport, policy=scan_policy)
        except EvaluationError as exc:
            # A malformed REPRO_SCAN_RETRIES read by ScanPolicy.from_env is
            # a construction-time mistake, as in QueryService.
            raise PDMSConfigurationError(str(exc)) from exc
        self._service = QueryService(
            pdms,
            engine=engine,
            data=self._source,
            fragment_cache=fragment_cache,
            fragment_cache_bytes=fragment_cache_bytes,
        )
        # The source's scatter/policy/transport snapshots become pull
        # collectors in the service's unified registry (weakly held).
        self._source.bind_metrics(self._service.metrics)

    @property
    def service(self) -> QueryService:
        """The wrapped (thread-safe) query service."""
        return self._service

    @property
    def source(self) -> RemotePeerFactSource:
        """The remote source answers are served from."""
        return self._source

    def insert(self, relation: str, rows: Iterable[Row]) -> int:
        """Insert ``rows`` at the peer that currently owns ``relation``.

        The batch is deduplicated, so the owner receives one copy of each
        row.  Returns the number of distinct rows written; raises
        :class:`~repro.errors.PDMSConfigurationError` when no peer owns
        the relation.  Transport faults propagate — a write that did not
        land must not look like one that did.
        """
        batch = list(dict.fromkeys(tuple(row) for row in rows))
        if not batch:
            return 0
        owner = self._source.owner(relation)
        if owner is None:
            raise PDMSConfigurationError(f"no peer owns relation {relation!r}")
        parent = current_span()
        span = (
            parent.child("cluster.insert", relation=relation)
            if parent.recording
            else get_tracer().start_trace("cluster.insert", relation=relation)
        )
        # The wire context installed here parents the owner's
        # ``rpc.serve.insert`` span under this write.
        with span, wire_context(span.wire_context()):
            self._transport.insert(owner, relation, batch)
            if span.recording:
                span.set("rows", len(batch))
        return len(batch)

    def answer(
        self, query: ConjunctiveQuery, limit: Optional[int] = None
    ) -> ClusterAnswer:
        """Answer one query; the completeness window spans this call."""
        window_start = self._source.failure_count
        rows = self._service.answer(query, limit=limit)
        failures = self._source.failures(window_start)
        return ClusterAnswer(rows, not failures and self._source.complete, failures)

    def close(self) -> None:
        """Close the source and the owned transport."""
        self._source.close()
        self._transport.close()

    def __enter__(self) -> "ServiceCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceCluster({self._service!r}, {self._transport!r})"
