"""The Section-4.3 pruning is part of the algorithm, and it prunes.

Every reformulation runs dead-end detection, unsatisfiable-label pruning
and MCD memoisation; none of them can be switched off, so instead of
comparing runs with and without them, each seeded case injects what they
must prune into a PDMS and checks that nothing else changes.  The PDMS
is a Section-5 topology (96 peers, diameter 4 or 5, rebuilt from
``repro.workload.generator``) or a two-tier ``pdms_specs`` PDMS, and two
definitional mappings are added for the predicate of the query's first
goal:

* ``inject_dead`` — its body names ``Nowhere:d``, a declared peer
  relation that nothing stores or covers: a dead end;
* ``inject_contradiction`` — its comparisons contradict (``x < 5,
  x > 10``): an unsatisfiable label.

Both must be counted as pruned and leave no node behind: the node
counts of the tree, and the number of rewritings, equal those of the
same PDMS without the injection, and the answers are the chase's certain
answers.  Rewritings are compared by count, not text: renaming apart
runs before the prune, so the injection shifts the names of fresh
variables.
"""

import dataclasses

import pytest
from hypothesis import given, seed, settings

from repro.datalog.atoms import Atom, ComparisonAtom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.pdms import (
    DefinitionalMapping,
    answer_query,
    certain_answers,
    combine_peer_instances,
    reformulate,
)
from repro.workload import GeneratorParameters, generate_workload, populate_workload

from .strategies import pdms_specs
from .test_factored_plan_properties import COMMON
from .test_service_properties import build_pdms

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def inject(pdms, predicate: str) -> None:
    """Add a dead-end and a contradictory definition of ``predicate``."""
    pdms.add_peer("Nowhere").add_relation("d", ["a", "b"])
    pdms.add_peer_mapping(DefinitionalMapping(
        ConjunctiveQuery(Atom(predicate, [X, Y]), [
            Atom(predicate, [X, Z]), Atom("Nowhere:d", [Z, Y])]),
        name="inject_dead",
    ))
    pdms.add_peer_mapping(DefinitionalMapping(
        ConjunctiveQuery(Atom(predicate, [X, Y]), [
            Atom(predicate, [X, Y]),
            ComparisonAtom(X, "<", Constant(5)),
            ComparisonAtom(X, ">", Constant(10)),
        ]),
        name="inject_contradiction",
    ))


def _unpruned(statistics):
    # Memoisation hits are left out too: an MCD query is keyed on its
    # exported variables in name order, which the shifted names can change.
    return dataclasses.replace(
        statistics, pruned_dead_end=0, pruned_unsatisfiable=0, memoization_hits=0)


def assert_pruned_away(build, query, data) -> None:
    """``build()`` makes a fresh PDMS; the injected one must differ from the
    plain one by its prune counts alone, and answer the chase."""
    plain = reformulate(build(), query)
    pdms = build()
    inject(pdms, query.relational_body()[0].predicate)
    injected = reformulate(pdms, query)
    assert injected.statistics.pruned_dead_end > plain.statistics.pruned_dead_end
    assert injected.statistics.pruned_unsatisfiable > plain.statistics.pruned_unsatisfiable
    assert _unpruned(injected.statistics) == _unpruned(plain.statistics)
    assert len(injected.all_rewritings()) == len(plain.all_rewritings())
    answers = answer_query(pdms, query, data)
    assert answers == certain_answers(pdms, query, data)


#: (diameter, definitional ratio).  Diameter 5 at 25 % reaches 10^5
#: rewritings on some seeds, too many to count twice per case here.
SECTION5_SHAPES = [(4, 0.10), (4, 0.25), (4, 0.50), (5, 0.10)]


@pytest.mark.parametrize("diameter, ratio", SECTION5_SHAPES)
@pytest.mark.parametrize("generator_seed", range(12))
def test_injected_dead_ends_and_contradictions_are_pruned_on_section5_pdms(
    diameter, ratio, generator_seed
):
    parameters = GeneratorParameters(
        num_peers=96, diameter=diameter, definitional_ratio=ratio, seed=generator_seed)
    workload = generate_workload(parameters)
    data = populate_workload(workload, rows_per_relation=6, domain_size=8)
    assert_pruned_away(
        lambda: generate_workload(parameters).pdms, workload.query, data)


@pytest.mark.parametrize("example_seed", range(40))
def test_injected_dead_ends_and_contradictions_are_pruned_on_two_tier_pdms(example_seed):
    @seed(example_seed)
    @settings(max_examples=5, database=None, **COMMON)
    @given(spec=pdms_specs())
    def check(spec):
        _, data, queries = build_pdms(spec)
        combined = combine_peer_instances(data)
        for query in queries:
            assert_pruned_away(lambda: build_pdms(spec)[0], query, combined)

    check()


def test_mcd_memoisation_hits_on_a_generated_workload():
    """Many peers share mapping shapes in the Section-5 generator, which is
    what the per-build MCD cache exploits."""
    workload = generate_workload(GeneratorParameters(
        num_peers=96, diameter=5, definitional_ratio=0.25, seed=31))
    assert reformulate(workload.pdms, workload.query).statistics.memoization_hits > 0
