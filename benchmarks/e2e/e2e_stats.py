"""The benchmark's own arithmetic: percentiles, sample rules, span self time.

Kept free of any ``repro`` import so the rules can be tested on
hand-built inputs (``test_e2e_harness.py``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A median is reported only from at least this many samples.
MIN_MEDIAN_SAMPLES = 20
#: A p95 needs ten samples beyond it: 10 / (1 - 0.95).
MIN_P95_SAMPLES = 200


class UnsupportedStatistic(ValueError):
    """The sample is too small for the statistic that was asked for."""


def median(values: Sequence[float], minimum: int = MIN_MEDIAN_SAMPLES) -> float:
    """The median, refused below ``minimum`` samples."""
    if len(values) < minimum:
        raise UnsupportedStatistic(
            f"median needs >= {minimum} samples, got {len(values)}"
        )
    return statistics.median(values)


def p95(values: Sequence[float], minimum: int = MIN_P95_SAMPLES) -> float:
    """Nearest-rank 95th percentile, refused below ``minimum`` samples."""
    if len(values) < minimum:
        raise UnsupportedStatistic(
            f"p95 needs >= {minimum} samples, got {len(values)}"
        )
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def per_op(samples: Mapping[object, Sequence[float]]) -> List[float]:
    """The median time of each distinct op (a query, a PDMS, a join ...)."""
    return [statistics.median(times) for times in samples.values()]


def median_over_ops(
    samples: Mapping[object, Sequence[float]], minimum: int = MIN_MEDIAN_SAMPLES
) -> float:
    """Median over the distinct ops of each op's median time; refused
    when fewer than ``minimum`` timings back it.

    Two levels because the ops of one kind differ (48 ... 280 rewritings
    per query): pooled, the median would be the one or two timings of
    whichever query sits in the middle.
    """
    total = sum(len(times) for times in samples.values())
    if total < minimum:
        raise UnsupportedStatistic(
            f"median needs >= {minimum} samples, got {total}"
        )
    return statistics.median(per_op(samples))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer, recorded by the benchmark itself."""

    span_id: int
    parent_id: Optional[int]
    op_id: int
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    Children may overlap one another (parallel scans on pool threads) and
    may stick out of the parent (an abandoned hedge), so the children's
    intervals are clipped to the parent and merged before subtracting.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            continue
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {
        span.span_id: span.duration - _covered(children.get(span.span_id, ()))
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Self times grouped by span name and summed per op."""
    own = self_times(spans)
    per_op: Dict[Tuple[str, int], float] = {}
    for span in spans:
        key = (span.name, span.op_id)
        per_op[key] = per_op.get(key, 0.0) + own[span.span_id]
    grouped: Dict[str, List[float]] = {}
    for (name, _), seconds in per_op.items():
        grouped.setdefault(name, []).append(seconds)
    return grouped
