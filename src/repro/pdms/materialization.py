"""Cross-call fragment materialization with data-version invalidation.

The shared union plan (:mod:`repro.pdms.planning`) computes every hash-
consed sub-conjunction fragment once *per execution* and throws the table
away when the call returns.  Repeated query traffic over slowly changing
peer data therefore re-executes the same joins on every call.  This module
adds the missing cache level:

* a :class:`FragmentCache` holds fragment tables **across calls**, keyed
  by ``(canonical fragment key, data-version token)`` — the token is the
  sorted vector of per-relation data versions under the fragment (see
  :meth:`repro.database.instance.Instance.data_version` and the federated
  :meth:`repro.pdms.execution.PeerFactSource.data_version`), so a write to
  one predicate silently invalidates exactly the fragments that read it
  while every other entry stays warm, and peer join/leave churns the token
  through the owner set;
* an :class:`AdmissionPolicy` decides which computed fragments are worth
  keeping (cost/benefit: measured compute time vs estimated footprint),
  and a byte-budgeted LRU bounds total memory;
* :class:`FragmentCacheStats` counts hits/misses/admissions/rejections/
  evictions/invalidations for the service layer's reporting.

The cache stores whatever result object the caller hands it (fragment
:class:`~repro.database.algebra.Table` objects from the shared engine,
frozen row sets from the per-rewriting engines) — all of them immutable,
so entries can be shared freely across calls and threads.

Correctness does not depend on explicit invalidation: a stale entry can
never be *returned* (its token no longer matches), only linger until the
next request for its key replaces it or the LRU evicts it.  Explicit
invalidation (:meth:`FragmentCache.invalidate_relations`, wired to the
service layer's provenance signals) is memory hygiene, not correctness.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..database.algebra import Table
from ..database.columnar import ColumnTable
from ..database.statistics import source_data_version
from ..errors import EvaluationError
from ..obs.metrics import METRICS_SCHEMA_VERSION
from ..obs.trace import current_span

#: Default byte budget for a service-level fragment cache (64 MiB).
DEFAULT_FRAGMENT_CACHE_BYTES = 64 * 1024 * 1024

#: Most distinct keys whose miss counts are remembered for admission
#: decisions; oldest-touched keys are forgotten beyond it.
_MISS_TRACKING_LIMIT = 4096


# ---------------------------------------------------------------------------
# Environment handling (fail fast on malformed values)
# ---------------------------------------------------------------------------

# Re-exported from the consolidated knob module (every subsystem used to
# carry its own drifting copy of this parser); existing importers of
# ``repro.pdms.materialization.int_from_env`` keep working.
from ..config import int_from_env  # noqa: E402  (re-export)


def fragment_cache_from_env() -> Optional["FragmentCache"]:
    """A fragment cache sized by ``REPRO_FRAGMENT_CACHE_BYTES``.

    Unset uses :data:`DEFAULT_FRAGMENT_CACHE_BYTES`; ``0`` disables
    cross-call fragment caching entirely (returns ``None``); malformed
    values raise :class:`EvaluationError` (see
    :func:`repro.config.int_from_env`).
    """
    budget = int_from_env(
        "REPRO_FRAGMENT_CACHE_BYTES", DEFAULT_FRAGMENT_CACHE_BYTES
    )
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


def result_row_count(value: object) -> int:
    """The row count of a fragment result, whatever shape it took.

    Fragment evaluation produces :class:`Table` objects on the row path,
    :class:`~repro.database.columnar.ColumnTable` batches on the
    vectorized path, and frozen row sets from the per-rewriting engines —
    all sized, but ``Table`` keeps its rows one attribute down.
    """
    if isinstance(value, Table):
        return len(value.rows)
    return len(value)  # type: ignore[arg-type]


def estimate_result_bytes(value: object) -> int:
    """A deterministic O(1) footprint estimate of a cached result.

    Accepts a :class:`Table`, a
    :class:`~repro.database.columnar.ColumnTable` (which knows its own
    column-storage footprint), or any sized collection of equal-width row
    tuples.  Charges the tuple skeleton plus one pointer per cell; cell
    payloads are shared with the base data, so they are deliberately not
    charged twice.
    """
    if isinstance(value, ColumnTable):
        return value.estimated_bytes()
    rows = value.rows if isinstance(value, Table) else value
    count = len(rows)  # type: ignore[arg-type]
    width = len(next(iter(rows))) if count else 0  # type: ignore[arg-type]
    return 128 + count * (56 + 16 * width)


# ---------------------------------------------------------------------------
# Statistics and admission
# ---------------------------------------------------------------------------

@dataclass
class FragmentCacheStats:
    """Counters describing how the fragment cache behaved so far."""

    hits: int = 0
    misses: int = 0
    #: Computed results the admission policy decided to keep.
    admissions: int = 0
    #: Computed results the admission policy declined.
    rejections: int = 0
    #: Entries dropped to stay within the byte budget (LRU order).
    evictions: int = 0
    #: Entries dropped because their data version moved or an explicit
    #: invalidation (peer leave, mapping change, clear) named them.
    invalidations: int = 0
    #: Local misses served from the shared cache tier (see
    #: :mod:`repro.pdms.distributed.cache_tier`); all tier counters stay
    #: zero when no tier is attached.
    tier_hits: int = 0
    #: Tier consultations that found no matching (key, token) entry.
    tier_misses: int = 0
    #: Computed fragments offered to (and accepted by) the tier.
    tier_puts: int = 0
    #: Tier operations lost to a transport fault (or a tripped breaker):
    #: each one degraded to a local compute, never to a wrong answer.
    tier_degraded: int = 0

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
            "tier_hits": self.tier_hits,
            "tier_misses": self.tier_misses,
            "tier_puts": self.tier_puts,
            "tier_degraded": self.tier_degraded,
        }


@dataclass(frozen=True)
class AdmissionPolicy:
    """Cost/benefit gate deciding which computed fragments to keep.

    A fragment is admitted when it is *worth its memory*: it must fit
    (``max_entry_fraction`` of the budget), it must have cost enough to
    compute (``min_benefit_seconds`` of measured wall clock — the benefit
    a future hit buys back), and it must have been requested often enough
    (``min_misses``; 2 admits only on the second miss, i.e. proven repeat
    traffic).  The defaults admit everything that fits: with a byte-
    budgeted LRU behind it, optimistic admission loses only to workloads
    that stream many large one-shot fragments — exactly what raising
    ``min_misses`` to 2 is for.
    """

    min_benefit_seconds: float = 0.0
    max_entry_fraction: float = 0.5
    min_misses: int = 1

    def admit(
        self,
        key: str,
        byte_size: int,
        compute_seconds: float,
        misses: int,
        budget_bytes: int,
    ) -> bool:
        """Should a result just computed for ``key`` be materialised?"""
        if byte_size > self.max_entry_fraction * budget_bytes:
            return False
        if compute_seconds < self.min_benefit_seconds:
            return False
        return misses >= self.min_misses


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
    drops the stale entry and recomputes, so versions churn in place
    instead of accumulating.  All operations are thread-safe; ``compute``
    callbacks run outside the lock (two racing misses on one key may both
    compute — both results are identical, the second insert wins — which
    keeps fragment evaluation deadlock-free under the per-call memo).
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_FRAGMENT_CACHE_BYTES,
        policy: Optional[AdmissionPolicy] = None,
        clock: Callable[[], float] = time.perf_counter,
        tier: Optional[object] = None,
    ):
        if max_bytes < 1:
            raise EvaluationError("FragmentCache max_bytes must be at least 1")
        self._max_bytes = max_bytes
        self._policy = policy if policy is not None else AdmissionPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._current_bytes = 0
        self._miss_counts: Dict[str, int] = {}
        self._tier = tier
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

    @property
    def policy(self) -> AdmissionPolicy:
        """The admission policy in force."""
        return self._policy

    @property
    def tier(self) -> Optional[object]:
        """The shared cache tier consulted between the LRU and a compute
        (``None`` when this cache is purely local).  See
        :class:`repro.pdms.distributed.cache_tier.CacheTierClient` for the
        get/put/invalidate surface a tier must provide.
        """
        return self._tier

    def attach_tier(self, tier: Optional[object]) -> None:
        """Attach (or detach, with ``None``) the shared cache tier."""
        self._tier = tier

    def __len__(self) -> int:
        return len(self._entries)

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
        value: object,
        elapsed: float,
        misses: int,
    ) -> bool:
        """Offer a freshly obtained result to the local LRU (policy gated)."""
        nbytes = estimate_result_bytes(value)
        with self._lock:
            if self._policy.admit(key, nbytes, elapsed, misses, self._max_bytes):
                if key in self._entries:
                    self._remove_locked(key)
                self._entries[key] = _Entry(
                    key, token, frozenset(relations), value, nbytes
                )
                self._current_bytes += nbytes
                self.stats.admissions += 1
                self._miss_counts.pop(key, None)
                while self._current_bytes > self._max_bytes and self._entries:
                    evicted, _ = next(iter(self._entries.items()))
                    self._remove_locked(evicted)
                    self.stats.evictions += 1
                return True
            self.stats.rejections += 1
            return False

    def _tier_get(
        self, key: str, token: object, relations: Iterable[str], misses: int
    ):
        """Consult the shared tier; ``(True, value)`` on an accepted hit.

        A tier hit is admitted into the local LRU (charged at its fetch
        cost) so repeats stay local; a transport fault counts as
        ``tier_degraded`` and behaves exactly like a miss — the caller
        computes locally.  Runs outside the lock: tier RPCs must never
        stall concurrent local hits.
        """
        tier = self._tier
        if tier is None or token is None:
            return False, None
        started = self._clock()
        status, value = tier.get(key, token)
        elapsed = self._clock() - started
        with self._lock:
            if status == "hit":
                self.stats.tier_hits += 1
            elif status == "miss":
                self.stats.tier_misses += 1
            else:
                self.stats.tier_degraded += 1
        if status != "hit":
            return False, None
        self._admit(key, token, relations, value, elapsed, misses)
        return True, value

    def get_or_compute(
        self,
        key: str,
        token: object,
        relations: Iterable[str],
        compute: Callable[..., object],
        *args: object,
    ):
        """The cached result for ``key`` at ``token``, computing on miss.

        ``relations`` names the base relations the result reads (for
        explicit invalidation); ``token`` is the caller's data-version
        token for exactly those relations (see :func:`data_version_token`);
        a miss calls ``compute(*args)``.  On a local miss the shared tier
        (when attached) is consulted before computing; a freshly computed
        result that the local policy admitted is offered back to the tier,
        so the *next* process asking for this fragment at this version
        skips the compute too.
        """
        span = current_span()
        if span.recording:
            span = span.child(
                "fragment.cache", key=key[:80], tier=self._tier is not None
            )
        with span:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    if entry.token == token:
                        self.stats.hits += 1
                        self._entries.move_to_end(key)
                        span.set("outcome", "hit")
                        return entry.value
                    # The data moved underneath: drop the stale version now so
                    # it stops occupying budget while we recompute.
                    self._remove_locked(key)
                    self.stats.invalidations += 1
                self.stats.misses += 1
                misses = self._miss_counts.get(key, 0) + 1
                self._miss_counts.pop(key, None)  # re-insert as most recent
                self._miss_counts[key] = misses
                # Miss tracking only informs admission (min_misses); bound it
                # so keys whose results are never admitted — one-shot traffic
                # under a picky policy — cannot accumulate forever.
                while len(self._miss_counts) > _MISS_TRACKING_LIMIT:
                    self._miss_counts.pop(next(iter(self._miss_counts)))
            tier_hit, tier_value = self._tier_get(key, token, relations, misses)
            if tier_hit:
                span.set("outcome", "tier_hit")
                return tier_value
            span.set("outcome", "miss")
            started = self._clock()
            value = compute(*args)
            elapsed = self._clock() - started
            admitted = self._admit(key, token, relations, value, elapsed, misses)
            if span.recording:
                span.set("admitted", admitted)
            tier = self._tier
            if admitted and tier is not None and token is not None:
                # Only locally admitted results are offered on: the admission
                # policy already judged them worth memory, and the tier's own
                # LRU bounds what it keeps.
                if tier.put(key, token, relations, value):
                    with self._lock:
                        self.stats.tier_puts += 1
                else:
                    with self._lock:
                        self.stats.tier_degraded += 1
            return value

    def peek(self, key: str, token: object, relations: Iterable[str]) -> bool:
        """Would :meth:`get_or_compute` for ``key`` avoid computing?

        Checks the local LRU (without touching the hit/miss counters —
        this is a planning probe, not a lookup) and then the shared tier;
        a tier hit is promoted into the local LRU on the way, so a
        subsequent :meth:`get_or_compute` is a local hit.  The distributed
        engine uses this to skip a rewriting's scatter-gather round
        entirely when its root fragment is already warm somewhere.
        """
        span = current_span()
        if span.recording:
            span = span.child("fragment.cache", key=key[:80], probe=True)
        with span:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry.token == token:
                    span.set("outcome", "hit")
                    return True
            tier_hit, _ = self._tier_get(key, token, relations, misses=1)
            span.set("outcome", "tier_hit" if tier_hit else "miss")
            return tier_hit

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
        a family of fragments unreachable.  The shared tier (when attached)
        is told too, so every process's next lookup misses remotely exactly
        as it would locally; a tier fault only costs the eager reclaim.
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
            count = len(stale)
        tier = self._tier
        if tier is not None and not tier.invalidate_relations(doomed):
            with self._lock:
                self.stats.tier_degraded += 1
        return count

    def clear(self) -> int:
        """Drop every entry (counters are preserved); returns the count.

        Local only by design: ``clear`` is a this-process reset (tests,
        memory pressure), not a statement that data changed, so the shared
        tier keeps its entries for everyone else.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._miss_counts.clear()
            self._current_bytes = 0
            self.stats.invalidations += dropped
            return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentCache({len(self._entries)} entries, "
            f"{self._current_bytes}/{self._max_bytes} bytes, "
            f"{self.stats.hits}h/{self.stats.misses}m)"
        )
