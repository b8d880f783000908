"""In-text claim — node generation rate of the rule-goal tree.

Section 5 of the paper: "On average, the algorithm generates nodes at a
rate of 1,000 per second (with relatively unoptimized code)."  That figure
is bound to 2003 hardware and their implementation; the reproduction
measures the same quantity (tree nodes produced per second of Step-2 time)
on the same generated workloads.  The assertion is deliberately loose:
the reproduction must sustain at least the paper's 1,000 nodes/second
(any modern machine does, by a wide margin).
"""

from __future__ import annotations

import pytest

from bench_common import paper_workload, reformulation_sample

CASES = [
    # (diameter, definitional ratio)
    (6, 0.10),
    (6, 0.50),
    (8, 0.10),
]


@pytest.mark.parametrize("diameter,definitional_ratio", CASES)
def test_node_generation_rate(benchmark, diameter, definitional_ratio):
    workload = paper_workload(diameter, definitional_ratio, seed=41)

    def build():
        return reformulation_sample(workload)

    sample = benchmark(build)
    rate = sample.tree_nodes / sample.build_seconds if sample.build_seconds else 0.0
    benchmark.extra_info["tree_nodes"] = sample.tree_nodes
    benchmark.extra_info["nodes_per_second"] = round(rate)
    assert rate >= 1_000, (
        f"node generation rate {rate:.0f}/s fell below the paper's reported "
        f"1,000 nodes/s"
    )
