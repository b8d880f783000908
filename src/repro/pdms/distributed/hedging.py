"""Tail-latency policy pieces: breakers, latency tracking, scan policy.

Three small, independently testable components shared by the distributed
runtime:

* :class:`HalfOpenBreaker` — a circuit breaker with a half-open probe.
  :class:`~repro.pdms.distributed.cache_tier.CacheTierClient` trips it
  on consecutive failures, and after a cooldown a healed cache peer
  rejoins instead of being fenced off for the life of the process.
* :class:`PeerLatencyTracker` — per-peer EWMA of scan latency (mean and
  variance), from which the adaptive hedge delay (p95) is derived.
* :class:`ScanPolicy` — the per-scan retry/hedge/deadline envelope read
  from ``REPRO_SCAN_RETRIES`` / ``REPRO_HEDGE_MS`` /
  ``REPRO_SCAN_DEADLINE_MS`` (see :mod:`repro.config`).

See ``docs/distributed.md`` ("Tail latency") for the end-to-end
semantics: how retries re-earn ``complete=True``, when a hedge fires,
and what a deadline expiry degrades.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ... import config as _config
from ...obs.metrics import METRICS_SCHEMA_VERSION

__all__ = ["HalfOpenBreaker", "PeerLatencyTracker", "ScanPolicy"]


class HalfOpenBreaker:
    """A consecutive-failure circuit breaker with a half-open probe.

    Closed until ``max_failures`` consecutive failures, then open: calls
    are refused (``allow()`` is ``False``) until ``cooldown`` seconds
    have passed, at which point exactly one caller is granted a probe.
    A probe that succeeds closes the breaker; one that fails (or a
    direct :meth:`trip`) re-arms the cooldown.  Thread-safe.
    """

    __slots__ = ("_lock", "_max_failures", "_cooldown", "_clock",
                 "_failures", "_opened_at", "_probing", "_reason")

    def __init__(
        self,
        max_failures: int = 1,
        cooldown: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        self._lock = threading.Lock()
        self._max_failures = max_failures
        self._cooldown = (
            cooldown if cooldown is not None
            else _config.breaker_cooldown_seconds()
        )
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self._reason: Optional[str] = None

    @property
    def tripped(self) -> bool:
        """Whether the breaker is currently open (possibly probing)."""
        with self._lock:
            return self._failures >= self._max_failures

    @property
    def reason(self) -> Optional[str]:
        """The failure message that (last) tripped the breaker."""
        with self._lock:
            return self._reason

    @property
    def failures(self) -> int:
        """Current consecutive-failure count."""
        with self._lock:
            return self._failures

    def allow(self) -> bool:
        """Whether a call may proceed now.

        Always ``True`` while closed.  While open: ``False`` until the
        cooldown elapses, then ``True`` exactly once (the half-open
        probe) — concurrent callers keep getting ``False`` until that
        probe reports back via :meth:`record_success` /
        :meth:`record_failure`.
        """
        with self._lock:
            if self._failures < self._max_failures:
                return True
            if self._probing:
                return False
            if (
                self._opened_at is not None
                and self._clock() - self._opened_at >= self._cooldown
            ):
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """Note a successful call: closes the breaker."""
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False
            self._reason = None

    def record_failure(self, reason: str = "") -> bool:
        """Note a failed call; returns whether the breaker is now open."""
        with self._lock:
            self._failures += 1
            self._probing = False
            if reason:
                self._reason = reason
            tripped = self._failures >= self._max_failures
            if tripped:
                self._opened_at = self._clock()
            return tripped

    def trip(self, reason: str = "") -> None:
        """Open the breaker immediately, regardless of the failure count."""
        with self._lock:
            self._failures = max(self._failures + 1, self._max_failures)
            self._probing = False
            self._opened_at = self._clock()
            if reason:
                self._reason = reason

    def reset(self) -> None:
        """Force-close the breaker (manual operator action)."""
        self.record_success()


class PeerLatencyTracker:
    """Per-peer EWMA of scan latency: mean, variance, derived p95.

    ``observe`` folds one measured RPC latency into the peer's running
    estimate; ``p95`` returns mean + 1.645 sigma once ``min_samples``
    observations exist (``None`` before that — the caller falls back to
    not hedging).  Thread-safe; O(1) memory per peer.
    """

    __slots__ = ("_lock", "_alpha", "_stats")

    def __init__(self, alpha: float = 0.2):
        self._lock = threading.Lock()
        self._alpha = alpha
        # peer -> [count, ewma_mean, ewma_var]
        self._stats: Dict[str, list] = {}

    def observe(self, peer: str, seconds: float) -> None:
        """Fold one measured latency (seconds) into ``peer``'s estimate."""
        with self._lock:
            entry = self._stats.get(peer)
            if entry is None:
                self._stats[peer] = [1, seconds, 0.0]
                return
            entry[0] += 1
            delta = seconds - entry[1]
            entry[1] += self._alpha * delta
            entry[2] = (1 - self._alpha) * (entry[2] + self._alpha * delta * delta)

    def count(self, peer: str) -> int:
        with self._lock:
            entry = self._stats.get(peer)
            return entry[0] if entry else 0

    def mean(self, peer: str) -> Optional[float]:
        with self._lock:
            entry = self._stats.get(peer)
            return entry[1] if entry else None

    def p95(self, peer: str, min_samples: int = 1) -> Optional[float]:
        """Estimated p95 latency for ``peer`` (mean + 1.645 sigma)."""
        with self._lock:
            entry = self._stats.get(peer)
            if entry is None or entry[0] < min_samples:
                return None
            return entry[1] + 1.645 * math.sqrt(max(entry[2], 0.0))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-peer ``{count, mean_ms, p95_ms}`` for stats surfaces."""
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for peer, (count, mean, var) in self._stats.items():
                out[peer] = {
                    "count": float(count),
                    "mean_ms": mean * 1000.0,
                    "p95_ms": (mean + 1.645 * math.sqrt(max(var, 0.0))) * 1000.0,
                }
            return out


@dataclass(frozen=True)
class ScanPolicy:
    """The retry/hedge/deadline envelope applied to every scan unit.

    ``retries`` extra attempts are made on ``TransportError``, with
    exponential backoff (``backoff * 2**attempt``, capped at
    ``backoff_cap``, plus up to ``jitter`` relative random slack).
    ``hedge`` is the fixed hedge delay in seconds; ``None`` means
    adaptive (the primary's tracked p95), and ``hedging=False`` disables
    hedging outright.  ``deadline`` bounds one prefetch wave (or one
    cold ``get_matching``); ``None`` means unbounded.
    """

    retries: int = 2
    backoff: float = 0.01
    backoff_cap: float = 0.25
    jitter: float = 0.25
    hedge: Optional[float] = None
    hedging: bool = True
    deadline: Optional[float] = None
    min_hedge_samples: int = 5

    @classmethod
    def from_env(cls) -> "ScanPolicy":
        """The policy selected by the ``REPRO_*`` tail-latency knobs."""
        hedge_raw = _config.hedge_seconds()
        deadline = _config.scan_deadline_seconds()
        return cls(
            retries=_config.scan_retries(),
            hedge=hedge_raw if hedge_raw > 0 else None,
            hedging=hedge_raw >= 0,
            deadline=deadline if deadline > 0 else None,
        )

    def as_dict(self) -> Dict[str, object]:
        """The policy as a JSON-friendly snapshot (stats surfaces embed it)."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "retries": self.retries,
            "backoff_s": self.backoff,
            "backoff_cap_s": self.backoff_cap,
            "jitter": self.jitter,
            "hedge_s": self.hedge,
            "hedging": self.hedging,
            "deadline_s": self.deadline,
            "min_hedge_samples": self.min_hedge_samples,
        }

    def backoff_delay(self, attempt: int, rng=random) -> float:
        """Sleep before retry number ``attempt`` (0-based), jittered."""
        base = min(self.backoff_cap, self.backoff * (2 ** attempt))
        return base * (1.0 + self.jitter * rng.random())

    def hedge_delay(
        self, tracker: PeerLatencyTracker, peer: str
    ) -> Optional[float]:
        """How long to wait on ``peer`` before hedging; ``None`` = don't."""
        if not self.hedging:
            return None
        if self.hedge is not None:
            return self.hedge
        return tracker.p95(peer, self.min_hedge_samples)
