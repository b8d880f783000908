"""Property tests for the shared union-plan engine (ISSUE 3).

The central invariant, over random small PDMSs from
:mod:`tests.property.strategies`:

    ``backtracking`` ≡ ``columnar``

i.e. compiling the union of rewritings into a common-subplan DAG never
changes the answer set, and the federated
:class:`~repro.pdms.execution.PeerFactSource` is indistinguishable from
the combine-then-evaluate path.  Below the answers, every fragment table
the column kernels build equals the same fragment evaluated with the row
algebra, with and without NumPy.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import columnar
from repro.datalog.atoms import compare_values
from repro.datalog.indexing import WILDCARD
from repro.pdms import (
    PeerFactSource,
    combine_peer_instances,
    compile_reformulation,
    evaluate_plan,
    evaluate_reformulation,
    reformulate,
    stream_answers,
)
from repro.pdms.evaluator import _Evaluation
from repro.pdms.planning import JoinFragment, ScanFragment
from tests.oracles import Table, union_many

from .strategies import pdms_specs
from .test_service_properties import build_pdms

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _value(operand, row):
    kind, payload = operand
    return row[payload] if kind == "col" else payload


def _row_branch(table, branch, columns):
    """A union branch or rewriting root (comparisons + head) on rows."""
    kept = table.select(lambda row: all(
        compare_values(_value(left, row), op, _value(right, row))
        for left, op, right in branch.comparisons
    ))
    named = [dict(zip(kept.columns, row)) for row in kept.rows]
    return Table(columns, [
        tuple(_value(operand, row) for operand in branch.head) for row in named
    ])


def _row_table(plan, key, source):
    """Fragment ``key`` evaluated with the row algebra: the reference the
    column kernels must reproduce."""
    node = plan.nodes[key]
    if isinstance(node, ScanFragment):
        names = tuple(f"p{i}" for i in range(len(node.pattern)))
        table = Table(names, source.get_tuples(node.relation))
        for position, value in enumerate(node.pattern):
            if value is not WILDCARD:
                table = table.select_eq(names[position], value)
        for first, second in node.equal_positions:
            table = table.select_columns_equal(names[first], names[second])
        kept = [names[position] for position in node.keep_positions]
        return table.project(kept).rename(dict(zip(kept, node.columns)))
    if isinstance(node, JoinFragment):
        left = _row_table(plan, node.left_key, source).rename(dict(node.left_rename))
        right = _row_table(plan, node.right_key, source).rename(dict(node.right_rename))
        return left.natural_join(right).project(node.columns)
    return union_many([
        _row_branch(_row_table(plan, branch.key, source), branch, node.columns)
        for branch in node.branches
    ], columns=node.columns)


class TestEngineEquivalence:
    @given(spec=pdms_specs())
    @settings(max_examples=40, **COMMON)
    def test_engines_agree(self, spec):
        pdms, data, queries = build_pdms(spec)
        combined = combine_peer_instances(data)
        for query in queries:
            result = reformulate(pdms, query)
            backtracking = evaluate_reformulation(
                result, combined, engine="backtracking")
            assert evaluate_reformulation(
                result, combined, engine="columnar") == backtracking

    @given(spec=pdms_specs())
    @settings(max_examples=25, **COMMON)
    def test_federated_source_matches_combined_copy(self, spec):
        pdms, data, queries = build_pdms(spec)
        combined = combine_peer_instances(data)
        federated = PeerFactSource(data)
        for query in queries:
            result = reformulate(pdms, query)
            for engine in ("backtracking", "columnar"):
                assert evaluate_reformulation(result, federated, engine=engine) == \
                    evaluate_reformulation(result, combined, engine=engine)

    @given(spec=pdms_specs(), limit=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, **COMMON)
    def test_shared_engine_limits_are_subsets(self, spec, limit):
        pdms, data, queries = build_pdms(spec)
        federated = PeerFactSource(data)
        for query in queries:
            result = reformulate(pdms, query)
            full = evaluate_reformulation(result, federated, engine="columnar")
            limited = evaluate_reformulation(
                result, federated, engine="columnar", limit=limit)
            assert limited <= full
            assert len(limited) == min(limit, len(full))

    @given(spec=pdms_specs())
    @settings(max_examples=25, **COMMON)
    def test_columnar_fragments_agree_with_row_algebra(self, spec):
        """Every fragment of the factored and the enumerated compile, and
        every rewriting root, holds the rows the row algebra computes."""
        pdms, data, queries = build_pdms(spec)
        combined = combine_peer_instances(data)
        for query in queries:
            plan = compile_reformulation(reformulate(pdms, query), combined)
            roots = list(plan.fragments())
            plan.factored_root()
            evaluation = _Evaluation(plan, combined)
            for key in plan.nodes:
                assert set(evaluation.table(key).iter_rows()) == \
                    _row_table(plan, key, combined).to_set(), key
            for root in roots:
                head = tuple(f"h{i}" for i in range(len(root.head)))
                expected = _row_branch(
                    _row_table(plan, root.root_key, combined), root, head)
                assert set(evaluation.root_rows(root)) == expected.to_set()

    @given(spec=pdms_specs())
    @settings(max_examples=15, **COMMON)
    def test_plan_answers_without_numpy(self, spec):
        """The kernels' pure-Python fallback answers like the oracle, on
        the factored root and on the root-by-root loop."""
        pdms, data, queries = build_pdms(spec)
        federated = PeerFactSource(data)
        with mock.patch.object(columnar, "np", None):
            for query in queries:
                result = reformulate(pdms, query)
                expected = evaluate_reformulation(
                    result, federated, engine="backtracking")
                plan = compile_reformulation(result, federated)
                assert evaluate_plan(plan, federated) == expected
                assert set(stream_answers(plan.result, federated, plan=plan)) == expected
