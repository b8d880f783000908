"""A cluster-wide fragment-cache tier behind the ordinary Transport contract.

Every :class:`~repro.pdms.service.QueryService` warms a *private*
:class:`~repro.pdms.materialization.FragmentCache`; adding worker
processes therefore multiplies cold caches instead of hit rates.  This
module adds the shared level between a service's local LRU and a fresh
compute — as a **cache peer**, not a new protocol:

* :class:`FragmentStore` duck-types the instance surface the transports
  already host (``relations``/``arity``/``cardinality``/``data_version``/
  ``get_matching``/``add``), serving two pseudo-relations:
  ``__fragments__`` (arity 4: fragment key, version token, relations
  read, pickled payload — *get* is a bound-pattern scan, *put* is an
  insert) and ``__evict__`` (arity 1: inserting a relation name evicts
  every fragment that reads it).  Because that is the whole wire surface,
  the store is hostable by :class:`~repro.pdms.distributed.transport.LoopbackTransport`
  *and* :class:`~repro.pdms.distributed.async_transport.AsyncSocketTransport`
  unchanged — one socket endpoint can serve warm fragments to every
  cluster that reaches it;
* :class:`CacheTierClient` wraps one transport peer as the get/put/
  invalidate surface :class:`~repro.pdms.materialization.FragmentCache`
  consults (see its ``tier`` parameter).  Entries are keyed by canonical
  fragment key and matched by **composite version token** — the same
  sorted per-owner token tuple local caching keys on — so a stale entry
  can be *returned* by the store but never *accepted* by a client whose
  token moved, and cross-process reuse is sound exactly when both
  clusters observe the same token space (same transport, or loopbacks
  over the same live instances);
* a failed cache peer **degrades to compute-locally, never to wrong
  answers**: every client operation catches
  :class:`~repro.errors.TransportError` and reports a miss-like status,
  and a consecutive-failure breaker stops hammering a dead peer.

``REPRO_CACHE_TIER=1`` (see :func:`repro.config.cache_tier_enabled`)
attaches a process-global default store to every service-owned fragment
cache — the "many clusters, one machine" deployment — via
:func:`default_cache_tier`.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ...datalog.indexing import WILDCARD
from ...errors import EvaluationError, InstanceError, TransportError
from ...obs.metrics import METRICS_SCHEMA_VERSION
from ...obs.trace import current_span, wire_context
from ..materialization import DEFAULT_FRAGMENT_CACHE_BYTES
from .hedging import HalfOpenBreaker
from .transport import EncodedPattern, Row, Transport, encode_pattern

#: Conventional transport-peer name of the shared cache tier.
CACHE_PEER = "cache-tier"

#: The fragment store's pseudo-relation: (key, token, relations, payload).
FRAGMENTS_RELATION = "__fragments__"

#: The eviction pseudo-relation: inserting ``(relation_name,)`` drops
#: every fragment entry that reads it.
EVICT_RELATION = "__evict__"

#: Fixed per-entry overhead charged on top of the pickled payload.
_ENTRY_OVERHEAD = 256

_store_ids = itertools.count(1)


class FragmentStore:
    """A byte-budgeted fragment store hostable as an ordinary peer.

    Implements exactly the instance surface the transports serve
    (:func:`~repro.pdms.distributed.transport.describe_instance`,
    ``get_matching``, ``add``), so both backends can host it without
    modification.  One entry per fragment key, LRU within a byte budget;
    thread-safe.
    """

    def __init__(self, max_bytes: int = DEFAULT_FRAGMENT_CACHE_BYTES):
        if max_bytes < 1:
            raise EvaluationError("FragmentStore max_bytes must be at least 1")
        self._max_bytes = max_bytes
        self._lock = threading.Lock()
        #: key -> (token, relations tuple, payload bytes); LRU order.
        self._entries: "OrderedDict[str, Tuple[object, Tuple[str, ...], bytes]]"
        self._entries = OrderedDict()
        self._current_bytes = 0
        self._store_id = next(_store_ids)
        self._version = 0
        self.evictions = 0
        self.invalidations = 0

    # -- the instance surface (what the transports serve) ------------------

    def relations(self) -> Tuple[str, ...]:
        return (FRAGMENTS_RELATION, EVICT_RELATION)

    def arity(self, relation: str) -> Optional[int]:
        if relation == FRAGMENTS_RELATION:
            return 4
        if relation == EVICT_RELATION:
            return 1
        return None

    def cardinality(self, relation: str) -> int:
        if relation == FRAGMENTS_RELATION:
            with self._lock:
                return len(self._entries)
        return 0

    def data_version(self, relation: str) -> Tuple[int, int]:
        with self._lock:
            return (-self._store_id, self._version)

    def get_tuples(self, predicate: str) -> Tuple[Row, ...]:
        if predicate != FRAGMENTS_RELATION:
            return ()
        with self._lock:
            return tuple(
                (key, token, relations, payload)
                for key, (token, relations, payload) in self._entries.items()
            )

    def get_matching(self, predicate: str, pattern) -> Tuple[Row, ...]:
        """Serve a tier *get*: the key position must be bound.

        A matching token returns the entry row (and freshens its LRU
        slot); a token mismatch is an ordinary empty result — the entry
        stays, because another cluster at the older version may still be
        entitled to it until the LRU turns it over.
        """
        if predicate != FRAGMENTS_RELATION:
            return ()
        if len(pattern) != 4:
            raise InstanceError(
                f"{FRAGMENTS_RELATION} probes carry 4 positions, got "
                f"{len(pattern)}"
            )
        key, token = pattern[0], pattern[1]
        if key is WILDCARD:
            return self.get_tuples(predicate)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return ()
            stored_token, relations, payload = entry
            if token is not WILDCARD and stored_token != token:
                return ()
            self._entries.move_to_end(key)
            return ((key, stored_token, relations, payload),)

    def add(self, relation: str, row: Sequence[object]) -> None:
        """Serve a tier *put* (``__fragments__``) or evict (``__evict__``)."""
        values = tuple(row)
        if relation == EVICT_RELATION:
            if len(values) != 1:
                raise InstanceError(f"{EVICT_RELATION} rows carry 1 position")
            self._invalidate_relation(values[0])
            return
        if relation != FRAGMENTS_RELATION:
            raise InstanceError(
                f"the cache tier serves only {FRAGMENTS_RELATION!r} and "
                f"{EVICT_RELATION!r}, not {relation!r}"
            )
        if len(values) != 4:
            raise InstanceError(f"{FRAGMENTS_RELATION} rows carry 4 positions")
        key, token, relations, payload = values
        if not isinstance(payload, bytes):
            raise InstanceError("fragment payloads must be bytes")
        nbytes = len(payload) + _ENTRY_OVERHEAD
        with self._lock:
            if nbytes > self._max_bytes:
                return  # too large to ever fit; drop silently (soft state)
            old = self._entries.pop(key, None)
            if old is not None:
                self._current_bytes -= len(old[2]) + _ENTRY_OVERHEAD
            self._entries[key] = (token, tuple(relations), payload)
            self._current_bytes += nbytes
            self._version += 1
            while self._current_bytes > self._max_bytes and self._entries:
                _, (_, _, evicted_payload) = self._entries.popitem(last=False)
                self._current_bytes -= len(evicted_payload) + _ENTRY_OVERHEAD
                self.evictions += 1

    # -- maintenance -------------------------------------------------------

    def _invalidate_relation(self, relation: object) -> None:
        with self._lock:
            doomed = [
                key
                for key, (_, relations, _) in self._entries.items()
                if relation in relations
            ]
            for key in doomed:
                _, _, payload = self._entries.pop(key)
                self._current_bytes -= len(payload) + _ENTRY_OVERHEAD
            if doomed:
                self._version += 1
                self.invalidations += len(doomed)

    def stats(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of the store's occupancy and churn."""
        with self._lock:
            return {
                "schema_version": METRICS_SCHEMA_VERSION,
                "entries": len(self._entries),
                "current_bytes": self._current_bytes,
                "max_bytes": self._max_bytes,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"FragmentStore({len(self._entries)} entries, "
                f"{self._current_bytes}/{self._max_bytes} bytes)"
            )


class CacheTierClient:
    """The get/put/invalidate surface a :class:`FragmentCache` consults.

    Wraps one transport peer hosting a :class:`FragmentStore`.  Every
    operation degrades on :class:`~repro.errors.TransportError` — a dead
    or flapping cache peer costs a compute, never an answer — and a
    consecutive-failure breaker (``max_failures``, shared
    :class:`~repro.pdms.distributed.hedging.HalfOpenBreaker` machinery)
    stops hammering a peer that keeps failing.  After
    ``breaker_cooldown`` seconds one operation is let through as a
    half-open probe, so a restored cache peer rejoins on its own;
    :meth:`reset` still force-closes the breaker immediately.

    Values round-trip through :mod:`pickle`: the store holds opaque
    ``bytes``, and a fragment value (a
    :class:`~repro.database.columnar.ColumnTable`) has no other byte
    form.  Unpicklable values silently skip the tier.
    """

    def __init__(
        self,
        transport: Transport,
        peer: str = CACHE_PEER,
        max_failures: int = 8,
        breaker_cooldown: Optional[float] = None,
    ):
        self._transport = transport
        self._peer = peer
        self._breaker = HalfOpenBreaker(
            max_failures=max_failures, cooldown=breaker_cooldown
        )
        self.failures = 0

    # -- health ------------------------------------------------------------

    @property
    def peer(self) -> str:
        return self._peer

    @property
    def degraded(self) -> bool:
        """Is the failure breaker currently open (RPCs being refused)?"""
        return self._breaker.tripped

    def reset(self) -> None:
        """Force-close the breaker (e.g. after the cache peer was restored)."""
        self._breaker.reset()

    def _note(self, ok: bool) -> None:
        if ok:
            self._breaker.record_success()
        else:
            self._breaker.record_failure("cache peer RPC failed")
            self.failures += 1

    def stats(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of the client's health counters."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "peer": self._peer,
            "failures": self.failures,
            "degraded": self.degraded,
        }

    # -- the tier surface --------------------------------------------------

    def get(self, key: str, token: object) -> Tuple[str, object]:
        """``("hit", value)``, ``("miss", None)``, or ``("error", None)``.

        A hit requires the stored composite token to equal ``token``
        exactly — stale entries are indistinguishable from absent ones.
        """
        if not self._breaker.allow():
            return ("error", None)
        probe: EncodedPattern = encode_pattern((key, token, WILDCARD, WILDCARD))
        try:
            # Stitch the cache peer's serve span under the ambient
            # fragment.cache span (None installs "untraced").
            with wire_context(current_span().wire_context()):
                batches = self._transport.scan_batch(
                    self._peer, [(FRAGMENTS_RELATION, probe)]
                )
        except TransportError:
            self._note(ok=False)
            return ("error", None)
        self._note(ok=True)
        rows = batches[0]
        if not rows:
            return ("miss", None)
        payload = rows[0][3]
        try:
            return ("hit", pickle.loads(payload))
        except Exception:
            # A corrupt payload is a cache fault, not a data fault.
            self._note(ok=False)
            return ("error", None)

    def put(
        self, key: str, token: object, relations: Iterable[str], value: object
    ) -> bool:
        """Offer a freshly computed fragment to the tier (best effort)."""
        if not self._breaker.allow():
            return False
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False  # unpicklable results simply stay local
        row = (key, token, tuple(sorted(relations)), payload)
        try:
            with wire_context(current_span().wire_context()):
                self._transport.insert(self._peer, FRAGMENTS_RELATION, [row])
        except TransportError:
            self._note(ok=False)
            return False
        self._note(ok=True)
        return True

    def invalidate_relations(self, relations: Iterable[str]) -> bool:
        """Evict every tier entry reading any of ``relations`` (best effort)."""
        names = [(relation,) for relation in relations]
        if not names or not self._breaker.allow():
            return False
        try:
            with wire_context(current_span().wire_context()):
                self._transport.insert(self._peer, EVICT_RELATION, names)
        except TransportError:
            self._note(ok=False)
            return False
        self._note(ok=True)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheTierClient(peer={self._peer!r}, failures={self.failures}, "
            f"degraded={self.degraded})"
        )


# ---------------------------------------------------------------------------
# The process-default tier (REPRO_CACHE_TIER=1)
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default_client: Optional[CacheTierClient] = None
_default_store: Optional[FragmentStore] = None


def default_cache_tier() -> CacheTierClient:
    """The process-wide shared tier every service attaches to under
    ``REPRO_CACHE_TIER=1``.

    Lazily builds one :class:`FragmentStore` behind a loopback transport
    and hands every caller the same client.  Sharing one store across
    unrelated services is safe: entries match only under equal composite
    version tokens, and tokens embed process-unique instance ids, so two
    services can never accept each other's data — they merely share the
    byte budget.
    """
    global _default_client, _default_store
    with _default_lock:
        if _default_client is None:
            from .transport import LoopbackTransport

            _default_store = FragmentStore()
            transport = LoopbackTransport({CACHE_PEER: _default_store})
            _default_client = CacheTierClient(transport, CACHE_PEER)
        return _default_client


def reset_default_cache_tier() -> None:
    """Drop the process-default tier (tests; the next use rebuilds it)."""
    global _default_client, _default_store
    with _default_lock:
        _default_client = None
        _default_store = None
