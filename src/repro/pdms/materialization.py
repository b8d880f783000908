"""Cross-call fragment materialization with data-version invalidation.

The plan evaluator (:mod:`repro.pdms.evaluator`) computes every
hash-consed fragment of a union plan once *per execution* and throws the
table away when the call returns.  Repeated query traffic over slowly changing peer data therefore
re-executes the same joins on every call.  This module adds the missing
cache level:

* a :class:`FragmentCache` holds fragment tables **across calls**, keyed
  by ``(canonical fragment key, data-version token)`` — the token is the
  sorted vector of per-relation data versions under the fragment (see
  :meth:`repro.database.instance.Instance.data_version` and the federated
  :meth:`repro.pdms.execution.PeerFactSource.data_version`), so a write to
  one predicate makes exactly the fragments that read it stale while
  every other entry stays warm — a stale entry is stepped forward by the
  rows appends added when its caller can prove that is all that changed,
  and recomputed otherwise — and peer join/leave churns the token through
  the owning instance;
* a computed fragment is kept when it fits in half the byte budget, and
  a byte-budgeted LRU bounds total memory;
* :class:`FragmentCacheStats` counts hits/misses/admissions/rejections/
  evictions/invalidations/deltas for the service layer's reporting.

The cache holds fragment :class:`~repro.database.columnar.ColumnTable`
batches from the plan path — immutable, so entries can be shared freely
across calls and threads.

Correctness does not depend on explicit invalidation: a stale entry can
never be *returned* (its token no longer matches), only linger until the
next request for its key replaces it or the LRU evicts it.  Explicit
invalidation (:meth:`FragmentCache.invalidate_relations`, wired to the
service layer's provenance signals) is memory hygiene, not correctness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..config import fragment_cache_bytes
from ..database.columnar import ColumnTable
from ..database.statistics import source_data_version
from ..errors import EvaluationError
from ..obs.metrics import METRICS_SCHEMA_VERSION
from ..obs.trace import current_span

#: Default byte budget for a service-level fragment cache (64 MiB).
DEFAULT_FRAGMENT_CACHE_BYTES = 64 * 1024 * 1024

#: The one admission rule: a computed table is kept when its estimated
#: footprint is at most this fraction of the byte budget.
_MAX_ENTRY_FRACTION = 0.5


def fragment_cache_from_env() -> Optional["FragmentCache"]:
    """A fragment cache sized by ``REPRO_FRAGMENT_CACHE_BYTES``.

    Unset uses :data:`DEFAULT_FRAGMENT_CACHE_BYTES`; ``0`` disables
    cross-call fragment caching entirely (returns ``None``); malformed
    values raise :class:`EvaluationError` (see
    :func:`repro.config.fragment_cache_bytes`).
    """
    budget = fragment_cache_bytes()
    return FragmentCache(max_bytes=budget) if budget > 0 else None


# ---------------------------------------------------------------------------
# Version tokens and size estimates
# ---------------------------------------------------------------------------

def data_version_token(
    source: object, relations: Iterable[str]
) -> Optional[Tuple[Tuple[str, object], ...]]:
    """The combined data-version token of ``relations`` in ``source``.

    ``None`` when the source exposes no per-relation versions (plain
    mappings, one-off snapshots) — the caller must then bypass the cache,
    because staleness would be undetectable.  The per-relation probe is
    :func:`repro.database.statistics.source_data_version`, the one
    protocol check shared with the statistics layer.
    """
    tokens = []
    for relation in sorted(relations):
        token = source_data_version(source, relation)
        if token is None:
            return None
        tokens.append((relation, token))
    return tuple(tokens)


def estimate_result_bytes(value: ColumnTable) -> int:
    """A deterministic O(1) footprint estimate of a cached fragment table.

    Charges the column storage (array bytes, or one pointer per cell of a
    list column); cell payloads are shared with the base data, so they
    are deliberately not charged twice.
    """
    return value.estimated_bytes()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class FragmentCacheStats:
    """Counters describing how the fragment cache behaved so far."""

    hits: int = 0
    misses: int = 0
    #: Computed results kept (they fit in half the byte budget).
    admissions: int = 0
    #: Computed results declined because they exceed half the budget.
    rejections: int = 0
    #: Entries dropped to stay within the byte budget (LRU order).
    evictions: int = 0
    #: Entries dropped because their data version moved and they could
    #: not be stepped, or an explicit invalidation (peer leave, mapping
    #: change, a truncated change log) named them; :meth:`FragmentCache.clear`
    #: counts none.
    invalidations: int = 0
    #: Stale entries stepped forward by the rows appends added under them,
    #: and missing ones stepped from the fragment their definition grew
    #: from, instead of being recomputed (see :meth:`FragmentCache.get_or_compute`).
    deltas: int = 0

    @property
    def lookups(self) -> int:
        """Total cache lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """A flat snapshot of every counter (status endpoints, examples)."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "admissions": self.admissions,
            "rejections": self.rejections,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "deltas": self.deltas,
        }


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

class _Entry:
    __slots__ = ("key", "token", "relations", "value", "nbytes")

    def __init__(self, key, token, relations, value, nbytes):
        self.key = key
        self.token = token
        self.relations = relations
        self.value = value
        self.nbytes = nbytes


class FragmentCache:
    """Cross-call fragment tables keyed by ``(fragment key, data version)``.

    One entry per fragment key: a lookup whose token no longer matches
    steps the stale entry forward or drops it and recomputes, so versions
    churn in place instead of accumulating.  All operations are thread-safe; ``compute``
    callbacks run outside the lock (two racing misses on one key may both
    compute — both results are identical, the second insert wins — which
    keeps fragment evaluation deadlock-free under the per-call memo).
    Services over the same data share warm fragments by sharing one
    instance (``QueryService(fragment_cache=...)``).
    """

    def __init__(self, max_bytes: int = DEFAULT_FRAGMENT_CACHE_BYTES):
        if max_bytes < 1:
            raise EvaluationError("FragmentCache max_bytes must be at least 1")
        self._max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._current_bytes = 0
        self.stats = FragmentCacheStats()

    # -- introspection -----------------------------------------------------

    @property
    def max_bytes(self) -> int:
        """The byte budget entries are evicted to stay within."""
        return self._max_bytes

    @property
    def current_bytes(self) -> int:
        """Estimated bytes currently held."""
        return self._current_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def admits(self, nbytes: int) -> bool:
        """The one admission rule: does an entry of ``nbytes`` fit in half
        the budget?  (A plan's kept whole answer is held to it too.)"""
        return nbytes <= _MAX_ENTRY_FRACTION * self._max_bytes

    def cached_keys(self) -> Tuple[str, ...]:
        """Fragment keys currently cached (LRU order, oldest first)."""
        with self._lock:
            return tuple(self._entries)

    # -- the lookup --------------------------------------------------------

    def _admit(
        self,
        key: str,
        token: object,
        relations: Iterable[str],
        value: ColumnTable,
    ) -> bool:
        """Keep a freshly computed result if it fits in half the budget."""
        nbytes = estimate_result_bytes(value)
        with self._lock:
            if not self.admits(nbytes):
                self.stats.rejections += 1
                return False
            if key in self._entries:
                self._remove_locked(key)
            self._entries[key] = _Entry(
                key, token, frozenset(relations), value, nbytes
            )
            self._current_bytes += nbytes
            self.stats.admissions += 1
            while self._current_bytes > self._max_bytes and self._entries:
                evicted, _ = next(iter(self._entries.items()))
                self._remove_locked(evicted)
                self.stats.evictions += 1
            return True

    def get_or_compute(
        self,
        key: str,
        token: object,
        relations: Iterable[str],
        compute: Callable[..., ColumnTable],
        *args: object,
        step: Optional[Callable[..., Optional[Tuple[ColumnTable, ColumnTable]]]] = None,
        since: Optional[Tuple[str, object]] = None,
    ) -> ColumnTable:
        """The cached result for ``key`` at ``token``, computing on miss.

        ``relations`` names the base relations the result reads (for
        explicit invalidation); ``token`` is the caller's data-version
        token for exactly those relations (see :func:`data_version_token`);
        a miss calls ``compute(*args)`` and keeps the result if it fits
        in half the byte budget.

        ``step`` (optional) brings a stale entry forward instead: it is
        called as ``step(old token, old value, token, *args)`` and returns
        ``(new value, delta)`` — the new value being the old one plus the
        rows ``delta`` — or ``None`` when the change under the entry is not
        provably appends, and ``compute`` runs as on a miss.  The stale
        entry is kept while the step runs.

        ``since`` (optional, with ``step``) is ``(key, token)`` of the
        fragment ``key``'s definition grew from (a plan seeded by an earlier
        one): when ``key`` has no entry but that key has one — at ``token``,
        unless it is ``None`` — ``step`` is called with no old token and
        value, to step ``key`` from that fragment's table instead.
        """
        span = current_span()
        if span.recording:
            span = span.child("fragment.cache", key=key[:80])
        with span:
            stale = None
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    if entry.token == token:
                        self.stats.hits += 1
                        self._entries.move_to_end(key)
                        span.set("outcome", "hit")
                        return entry.value
                    if step is None:
                        # The data moved underneath: drop the stale version
                        # now so it stops occupying budget while we recompute.
                        self._remove_locked(key)
                        self.stats.invalidations += 1
                    else:
                        stale = entry
                elif step is not None and since is not None:
                    held = self._entries.get(since[0])
                    if held is not None and since[1] in (None, held.token):
                        stale = since
                self.stats.misses += 1
            if stale is not None:
                grown = stale is since
                old = (None, None) if grown else (stale.token, stale.value)
                stepped = step(*old, token, *args)
                with self._lock:
                    if stepped is not None:
                        self.stats.deltas += 1
                    elif not grown:
                        if self._entries.get(key) is stale:
                            self._remove_locked(key)
                        self.stats.invalidations += 1
                if stepped is not None:
                    value, delta = stepped
                    span.set("outcome", "delta")
                    admitted = self._admit(key, token, relations, value)
                    if span.recording:
                        if grown:
                            span.set("since", since[0][:80])
                        span.set("delta_rows", len(delta))
                        span.set("admitted", admitted)
                    return value
            span.set("outcome", "miss")
            value = compute(*args)
            admitted = self._admit(key, token, relations, value)
            if span.recording:
                span.set("admitted", admitted)
            return value

    def peek(self, key: str, token: object) -> bool:
        """Would :meth:`get_or_compute` for ``key`` avoid computing?

        Checks the LRU without touching the hit/miss counters — this is a
        planning probe, not a lookup.  A remote source's ``before_root``
        hook uses it to skip a root's scatter-gather round entirely when
        the root fragment is already warm.
        """
        span = current_span()
        if span.recording:
            span = span.child("fragment.cache", key=key[:80], probe=True)
        with span:
            with self._lock:
                entry = self._entries.get(key)
                hit = entry is not None and entry.token == token
            span.set("outcome", "hit" if hit else "miss")
            return hit

    # -- invalidation ------------------------------------------------------

    def _remove_locked(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._current_bytes -= entry.nbytes

    def invalidate_relations(self, relations: Iterable[str]) -> int:
        """Drop every entry reading any of ``relations``; returns the count.

        The version-token check already guarantees stale entries are never
        *served*; this reclaims their memory eagerly when the caller knows
        a whole relation went away (peer leave) or a catalogue change made
        a family of fragments unreachable.
        """
        doomed = frozenset(relations)
        if not doomed:
            return 0
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if entry.relations & doomed
            ]
            for key in stale:
                self._remove_locked(key)
            self.stats.invalidations += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop every entry; returns the count.  Counters are preserved,
        and a clear counts no invalidation: nothing moved."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._current_bytes = 0
            return dropped

    def invalidate_all(self) -> int:
        """:meth:`clear`, each dropped entry counted as an invalidation:
        the catalogue moved in ways the caller cannot name (a truncated
        change log)."""
        dropped = self.clear()
        with self._lock:
            self.stats.invalidations += dropped
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentCache({len(self._entries)} entries, "
            f"{self._current_bytes}/{self._max_bytes} bytes, "
            f"{self.stats.hits}h/{self.stats.misses}m)"
        )
