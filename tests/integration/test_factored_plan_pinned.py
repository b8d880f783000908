"""Pinned factored plans, as text a person can read (``pinned/*.txt``).

For the cases of ``test_union_plan_pinned.py`` — the 12 ``query_mix``
templates, the Figure-1 queries, two comparison-bearing queries — and for
Figure 2: :meth:`UnionPlan.pretty` of the plan the rule-goal tree compiles
to without a cost model, each union branch and join annotated with the
rule node it came from.  A difference means the factored compile's output
changed: union keys are the contract of the fragment cache and the cache
tier, exactly like scan and join keys.  Every pinned plan is also
evaluated (with and without a cost model) against the chase oracle, and
must stay within the size of the tree it came from.

Regenerate after an intended change with
``PYTHONPATH=src python tests/integration/test_factored_plan_pinned.py``.
The text does not depend on ``PYTHONHASHSEED``.
"""

import pathlib
import sys

import pytest

from repro.database import Instance
from repro.pdms import (
    certain_answers,
    combine_peer_instances,
    compile_reformulation,
    evaluate_plan,
    federate_if_per_peer,
    reformulate,
)
from repro.workload import GeneratorParameters, generate_workload

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from test_union_plan_pinned import CASES, _case  # noqa: E402

PINNED = pathlib.Path(__file__).parent / "pinned"
FIGURE2_DATA = {
    "S1": [("f1", "e1", 8), ("f2", "e1", 9), ("f3", "e2", 8)],
    "S2": [("f1", "f2"), ("f2", "f1"), ("f1", "f3"), ("f1", "f1"), ("f2", "f2")],
}


def rendering(pdms, query):
    plan = compile_reformulation(reformulate(pdms, query))
    return f"# {query}\n{plan.pretty()}\n"


def check(name, pdms, query, data):
    source = federate_if_per_peer(data)
    stored = combine_peer_instances(data) if isinstance(data, dict) else data
    expected = certain_answers(pdms, query, stored)
    for cost_source in (None, source):
        result = reformulate(pdms, query)
        plan = compile_reformulation(result, cost_source)
        assert evaluate_plan(plan, source) == expected
        stats = plan.stats
        assert stats.declined is None and stats.rewritings == 0
        assert 0 < stats.factored <= result.statistics.goal_nodes
    pinned = (PINNED / f"{name}.txt").read_text(encoding="utf-8")
    assert rendering(pdms, query) == pinned


@pytest.mark.parametrize("name", CASES)
def test_pinned_plan_text_and_answers(name):
    check(name, *_case(name))


def test_figure2_plan_text_and_answers(figure2_pdms, figure2_query):
    check("figure2", figure2_pdms, figure2_query, Instance.from_dict(FIGURE2_DATA))


@pytest.mark.parametrize("diameter", (4, 5, 6))
def test_section5_topologies_compile_from_the_tree_alone(diameter):
    """The 30 PDMSs of the paper's Section-5 experiment (the benchmark's
    ``paper_reformulate``): the compile declines none, stays within the
    tree's size, and never starts the rewriting enumeration."""
    for seed in range(10):
        workload = generate_workload(GeneratorParameters(
            num_peers=96, diameter=diameter, definitional_ratio=0.10, seed=seed))
        result = reformulate(workload.pdms, workload.query)
        plan = compile_reformulation(result)
        assert plan.factored_root() in plan.nodes and result._stream is None
        stats = plan.stats
        assert stats.declined is None and stats.rewritings == 0
        assert stats.tree_nodes == result.statistics.total_nodes
        assert 0 < stats.factored <= result.statistics.goal_nodes, (diameter, seed)


def test_every_pinned_file_has_a_case():
    assert sorted(path.stem for path in PINNED.glob("*.txt")) == sorted(CASES + ["figure2"])


if __name__ == "__main__":  # regenerate the pinned text
    sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))
    import conftest

    cases = {name: _case(name)[:2] for name in CASES}
    cases["figure2"] = (
        conftest.figure2_pdms.__wrapped__(), conftest.figure2_query.__wrapped__())
    PINNED.mkdir(exist_ok=True)
    for name, (pdms, query) in cases.items():
        (PINNED / f"{name}.txt").write_text(rendering(pdms, query), encoding="utf-8")
    print(f"wrote {len(cases)} plans to {PINNED}")
