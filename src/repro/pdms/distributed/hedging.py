"""Tail-latency policy pieces: latency tracking and scan policy.

Two small, independently testable components shared by the distributed
runtime:

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
from dataclasses import dataclass
from typing import Dict, Optional

from ... import config as _config
from ...obs.metrics import METRICS_SCHEMA_VERSION

__all__ = ["PeerLatencyTracker", "ScanPolicy"]


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
