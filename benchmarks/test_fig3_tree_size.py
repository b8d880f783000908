"""Figure 3 — size of the rule-goal tree vs. PDMS diameter, by %definitional mappings.

The paper plots the number of nodes in the rule-goal tree for a 96-peer
PDMS as the diameter grows from 1 to 10, with one curve per definitional-
mapping percentage (0%, 10%, 25%, 50%).  Its two findings are

* the tree grows (roughly exponentially) with the diameter, reaching tens
  of thousands of nodes by diameter 8, and
* a higher share of definitional mappings yields a larger tree, because
  relations defined by several rules act as unions and raise the
  branching factor.

The pytest-benchmark tests below reproduce the same series on a reduced
diameter range so the suite stays fast; run ``python benchmarks/harness.py
--figure 3`` for the full sweep.  Each test also asserts the *shape*
facts above, so a regression in the generator or the reformulation
algorithm fails loudly rather than silently changing curves.
"""

from __future__ import annotations

import pytest

from bench_common import average_samples, paper_workload, reformulation_sample

#: Reduced sweep used by pytest-benchmark (full range handled by harness.py).
DIAMETERS = (2, 4, 6)
DEFINITIONAL_RATIOS = (0.0, 0.10, 0.25, 0.50)
RUNS_PER_POINT = 3


@pytest.mark.parametrize("definitional_ratio", DEFINITIONAL_RATIOS)
@pytest.mark.parametrize("diameter", DIAMETERS)
def test_fig3_tree_size(benchmark, diameter, definitional_ratio):
    """One timed tree construction for one (diameter, %dd) data point
    (``harness.py`` averages many runs); the workload is generated before
    the timed call."""
    workload = paper_workload(diameter, definitional_ratio, seed=17)

    def build_tree():
        return reformulation_sample(workload)

    sample = benchmark.pedantic(build_tree, rounds=1, iterations=1)
    benchmark.extra_info["tree_nodes"] = sample.tree_nodes
    benchmark.extra_info["diameter"] = diameter
    benchmark.extra_info["definitional_ratio"] = definitional_ratio
    assert sample.tree_nodes > 0


@pytest.mark.parametrize("definitional_ratio", DEFINITIONAL_RATIOS)
def test_fig3_tree_grows_with_diameter(benchmark, definitional_ratio):
    """Shape check: node count increases (strongly) with the diameter."""

    workloads = [
        [paper_workload(diameter, definitional_ratio, seed) for seed in range(RUNS_PER_POINT)]
        for diameter in DIAMETERS
    ]

    def sweep():
        return [
            average_samples([reformulation_sample(w) for w in point])["tree_nodes"]
            for point in workloads
        ]

    sizes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["sizes_by_diameter"] = dict(zip(DIAMETERS, sizes))
    assert sizes[0] < sizes[1] < sizes[2]
    # Exponential-ish growth: the last step grows by more than the first.
    assert sizes[2] - sizes[1] > sizes[1] - sizes[0]


def test_fig3_tree_grows_with_definitional_ratio(benchmark):
    """Shape check: more definitional mappings means a larger tree (paper's
    explanation: unions of conjunctive queries raise the branching factor)."""

    workloads = {
        ratio: [paper_workload(5, ratio, seed) for seed in range(RUNS_PER_POINT)]
        for ratio in DEFINITIONAL_RATIOS
    }

    def sweep():
        return {
            ratio: average_samples([reformulation_sample(w) for w in point])["tree_nodes"]
            for ratio, point in workloads.items()
        }

    sizes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["sizes_by_ratio"] = {str(k): v for k, v in sizes.items()}
    assert sizes[0.0] < sizes[0.25] < sizes[0.50]
