"""Shared helpers for the benchmark suite.

Each benchmark regenerates one figure (or one in-text claim) of the paper's
Section 5 on top of the Section-5 workload generator re-implemented in
:mod:`repro.workload.generator`.  The pytest-benchmark tests use reduced
parameter ranges so the suite stays fast; ``harness.py`` runs the full
sweeps.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.pdms import ReformulationConfig, reformulate
from repro.workload import GeneratedWorkload, GeneratorParameters, generate_workload

#: Number of peers used throughout (the paper's experiments use 96 peers).
PAPER_NUM_PEERS = 96


@dataclass
class ReformulationSample:
    """Measurements from reformulating one generated workload."""

    diameter: int
    definitional_ratio: float
    tree_nodes: int
    build_seconds: float
    first_rewriting_seconds: Optional[float] = None
    tenth_rewriting_seconds: Optional[float] = None
    all_rewritings_seconds: Optional[float] = None
    rewriting_count: Optional[int] = None


def paper_workload(
    diameter: int,
    definitional_ratio: float,
    seed: int,
    num_peers: int = PAPER_NUM_PEERS,
) -> GeneratedWorkload:
    """One generated Section-5 workload; a benchmark that times the
    reformulation generates it before the timed call."""
    return generate_workload(GeneratorParameters(
        num_peers=num_peers,
        diameter=diameter,
        definitional_ratio=definitional_ratio,
        seed=seed,
    ))


def run_reformulation(
    diameter: int,
    definitional_ratio: float,
    seed: int,
    num_peers: int = PAPER_NUM_PEERS,
    measure_rewritings: bool = False,
    config: Optional[ReformulationConfig] = None,
) -> ReformulationSample:
    """Generate one workload and reformulate its query, timing the phases
    (the generation is not timed)."""
    return reformulation_sample(
        paper_workload(diameter, definitional_ratio, seed, num_peers),
        measure_rewritings, config,
    )


def reformulation_sample(
    workload: GeneratedWorkload,
    measure_rewritings: bool = False,
    config: Optional[ReformulationConfig] = None,
) -> ReformulationSample:
    """Reformulate a generated workload's query, timing the phases."""
    start = time.perf_counter()
    result = reformulate(workload.pdms, workload.query, config=config)
    build_seconds = time.perf_counter() - start
    sample = ReformulationSample(
        diameter=workload.parameters.diameter,
        definitional_ratio=workload.parameters.definitional_ratio,
        tree_nodes=result.statistics.total_nodes,
        build_seconds=build_seconds,
    )
    if measure_rewritings:
        start = time.perf_counter()
        first = result.first_rewritings(1)
        sample.first_rewriting_seconds = build_seconds + (time.perf_counter() - start)
        start = time.perf_counter()
        result.first_rewritings(10)
        sample.tenth_rewriting_seconds = sample.first_rewriting_seconds + (
            time.perf_counter() - start
        )
        start = time.perf_counter()
        everything = result.all_rewritings()
        sample.all_rewritings_seconds = sample.tenth_rewriting_seconds + (
            time.perf_counter() - start
        )
        sample.rewriting_count = len(everything)
        if not first:
            sample.first_rewriting_seconds = None
            sample.tenth_rewriting_seconds = None
    return sample


def average_samples(samples: Sequence[ReformulationSample]) -> Dict[str, float]:
    """Average the numeric fields of a list of samples (ignoring ``None``)."""
    def mean_of(attribute: str) -> Optional[float]:
        values = [getattr(s, attribute) for s in samples if getattr(s, attribute) is not None]
        return statistics.mean(values) if values else None

    return {
        "tree_nodes": mean_of("tree_nodes"),
        "build_seconds": mean_of("build_seconds"),
        "first_rewriting_seconds": mean_of("first_rewriting_seconds"),
        "tenth_rewriting_seconds": mean_of("tenth_rewriting_seconds"),
        "all_rewritings_seconds": mean_of("all_rewritings_seconds"),
        "rewriting_count": mean_of("rewriting_count"),
    }
