"""Figure 4 — time to the first / tenth / all rewritings vs. PDMS diameter.

The paper measures, for a 96-peer PDMS with 10% definitional mappings, how
long it takes to obtain the first rewriting, the tenth rewriting, and all
rewritings as the diameter grows.  Its findings:

* the first rewritings arrive quickly even when the tree is large (a few
  seconds at diameter 8 on 2003 hardware), and
* producing *all* rewritings (Step 3) is the bottleneck, growing much
  faster than tree construction (Step 2).

The benchmarks below time the three series on a reduced diameter range;
the full sweep lives in ``harness.py --figure 4``.  The two shape checks
encode the findings in work, not time, so they hold on any host: Step 2's
work is the tree's node count, Step 3's the partial rewritings the
assembler forms, counted by wrapping it.
"""

from __future__ import annotations

from unittest import mock

import pytest

from bench_common import paper_workload, reformulation_sample
from repro.pdms import reformulate
from repro.pdms.reformulation import _RewritingAssembler

DIAMETERS = (2, 4, 6)
#: Where the work to the first rewriting is compared with the work to all
#: of them: one stratum past the series, whose seed has 2.7 million
#: rewritings at diameter 7; seeds 0-2 have 18 000-45 000.
FIRST_VS_ALL_DIAMETER = 7
DEFINITIONAL_RATIO = 0.10
RUNS_PER_POINT = 3


@pytest.mark.parametrize("diameter", DIAMETERS)
def test_fig4_first_rewriting(benchmark, diameter):
    """Time to the first rewriting (tree construction included); the
    workload is generated before the timed call."""
    workload = paper_workload(diameter, DEFINITIONAL_RATIO, seed=23)

    def first():
        result = reformulate(workload.pdms, workload.query)
        return result, result.first_rewritings(1)

    result, rewritings = benchmark(first)
    benchmark.extra_info["diameter"] = diameter
    benchmark.extra_info["tree_nodes"] = result.statistics.total_nodes
    benchmark.extra_info["first_rewritings"] = len(rewritings)


@pytest.mark.parametrize("diameter", DIAMETERS)
def test_fig4_all_rewritings(benchmark, diameter):
    """Time to enumerate every rewriting (the paper's bottleneck, Step 3)."""
    workload = paper_workload(diameter, DEFINITIONAL_RATIO, seed=23)

    def everything():
        return reformulation_sample(workload, measure_rewritings=True)

    sample = benchmark.pedantic(everything, rounds=1, iterations=1)
    benchmark.extra_info["diameter"] = diameter
    benchmark.extra_info["rewriting_count"] = sample.rewriting_count


def step_work(diameter, seed):
    """``(step2, first, all)`` work counts of one reformulation: Step 2's
    is the tree's nodes, Step 3's the partial rewritings the assembler
    forms; ``first`` and ``all`` add to Step 2 what Step 3 formed by the
    first rewriting and by the last."""
    formed = 0
    assemble = _RewritingAssembler._rule_rewritings_iter

    def counting(assembler, rule_node):
        nonlocal formed
        for partial in assemble(assembler, rule_node):
            formed += 1
            yield partial

    workload = paper_workload(diameter, DEFINITIONAL_RATIO, seed)
    with mock.patch.object(_RewritingAssembler, "_rule_rewritings_iter", counting):
        result = reformulate(workload.pdms, workload.query)
        step2 = result.statistics.total_nodes
        result.first_rewritings(1)
        first = step2 + formed
        result.all_rewritings()
    return step2, first, step2 + formed


def test_fig4_first_rewritings_are_fast():
    """Shape check: the work to the first rewriting stays far below the
    work to all of them on a large tree (the paper's headline observation)."""
    runs = [step_work(FIRST_VS_ALL_DIAMETER, seed) for seed in range(RUNS_PER_POINT)]
    assert sum(first for _, first, _ in runs) * 5 < sum(every for _, _, every in runs)


def test_fig4_step3_dominates_step2():
    """Shape check: at the largest diameter, enumerating all rewritings costs
    more than building the tree (the paper: "the key bottleneck of the
    algorithm is the time to find the rewritings from the rule-goal tree")."""
    runs = [step_work(max(DIAMETERS), seed) for seed in range(RUNS_PER_POINT)]
    assert sum(every - step2 for step2, _, every in runs) > sum(
        step2 for step2, _, _ in runs)
