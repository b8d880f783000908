"""Hypothesis strategies shared by the property-based tests.

The strategies generate small conjunctive queries, database instances,
comparison-constraint conjunctions, and LAV view sets over a tiny fixed
vocabulary.  Keeping the vocabulary small makes joins (and therefore
interesting interactions) likely while keeping individual examples cheap.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.datalog.atoms import Atom, ComparisonAtom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.errors import MalformedQueryError

#: Binary relation names used by generated queries and instances.
RELATIONS = ("r0", "r1", "r2")
#: Variable pool.
VARIABLES = tuple(Variable(name) for name in ("x", "y", "z", "w", "v"))
#: Constant pool (small integers keep joins likely).
CONSTANTS = tuple(Constant(value) for value in range(4))


terms = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(CONSTANTS))
variables = st.sampled_from(VARIABLES)


@st.composite
def relational_atoms(draw) -> Atom:
    """A binary relational atom over the fixed vocabulary."""
    predicate = draw(st.sampled_from(RELATIONS))
    return Atom(predicate, [draw(terms), draw(terms)])


@st.composite
def comparison_atoms(draw) -> ComparisonAtom:
    """A comparison atom over the variable/constant pools."""
    operator = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    left = draw(st.one_of(variables, st.sampled_from(CONSTANTS)))
    right = draw(st.one_of(variables, st.sampled_from(CONSTANTS)))
    return ComparisonAtom(left, operator, right)


@st.composite
def conjunctive_queries(draw, max_body=4, with_comparisons=False) -> ConjunctiveQuery:
    """A safe conjunctive query with up to ``max_body`` relational atoms."""
    body = draw(st.lists(relational_atoms(), min_size=1, max_size=max_body))
    body_variables = sorted({v for atom in body for v in atom.variable_set()})
    if body_variables:
        head_size = draw(st.integers(min_value=1, max_value=min(2, len(body_variables))))
        head_vars = draw(
            st.lists(
                st.sampled_from(body_variables),
                min_size=head_size,
                max_size=head_size,
                unique=True,
            )
        )
    else:
        head_vars = []
    full_body = list(body)
    if with_comparisons and body_variables:
        candidate = draw(st.lists(comparison_atoms(), min_size=0, max_size=2))
        for comparison in candidate:
            if all(v in body_variables for v in comparison.variables()):
                full_body.append(comparison)
    try:
        return ConjunctiveQuery(Atom("Q", head_vars or [body[0].args[0]]), full_body)
    except MalformedQueryError:
        # Head constant fallback: always safe.
        return ConjunctiveQuery(Atom("Q", [Constant(0)]), body)


@st.composite
def instances(draw, max_rows=8):
    """A small database instance over the fixed binary vocabulary."""
    facts = {}
    for relation in RELATIONS:
        rows = draw(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=0,
                max_size=max_rows,
            )
        )
        facts[relation] = set(rows)
    return facts


@st.composite
def constraint_sets(draw, max_size=5):
    """A conjunction of up to ``max_size`` comparison atoms."""
    from repro.datalog.constraints import ConstraintSet

    return ConstraintSet(draw(st.lists(comparison_atoms(), min_size=0, max_size=max_size)))


# ---------------------------------------------------------------------------
# Random small PDMSs plus catalogue-churn sequences (service-layer tests)
# ---------------------------------------------------------------------------

#: Rows for generated stored relations (small domain keeps joins likely).
pdms_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=5
)


@st.composite
def pdms_specs(draw):
    """A *spec* (pure data) for a small two-tier tractable PDMS.

    Bottom peers ``B{i}`` store their single binary relation verbatim;
    top-peer relations ``T:t{j}`` are wired to the bottom by definitional
    chains (GAV) and/or single-atom inclusions (LAV) — the acyclic
    fragment of Theorem 3.2, on which the reformulation algorithm is
    complete and the chase oracle exact.  Returned as a dict so each test
    example can build as many fresh :class:`~repro.pdms.system.PDMS`
    objects as it needs.
    """
    num_bottom = draw(st.integers(min_value=1, max_value=2))
    bottom = []
    for i in range(num_bottom):
        bottom.append({
            "peer": f"B{i}",
            "relation": f"B{i}:r{i}",
            "stored": f"s{i}",
            "rows": draw(pdms_rows),
        })
    bottom_relations = [entry["relation"] for entry in bottom]

    num_top = draw(st.integers(min_value=1, max_value=2))
    top_relations = [f"T:t{j}" for j in range(num_top)]
    mappings = []
    for j, top_relation in enumerate(top_relations):
        for k in range(draw(st.integers(min_value=1, max_value=2))):
            kind = draw(st.sampled_from(["definitional", "inclusion"]))
            if kind == "definitional":
                chain = draw(st.lists(
                    st.sampled_from(bottom_relations), min_size=1, max_size=2))
                mappings.append({
                    "kind": kind, "name": f"def_{j}_{k}",
                    "head": top_relation, "chain": chain,
                })
            else:
                mappings.append({
                    "kind": kind, "name": f"incl_{j}_{k}",
                    "left": draw(st.sampled_from(bottom_relations)),
                    "right": top_relation,
                })

    queries = draw(st.lists(
        st.lists(st.sampled_from(top_relations), min_size=1, max_size=2),
        min_size=1, max_size=3,
    ))
    return {
        "bottom": bottom,
        "top_relations": top_relations,
        "mappings": mappings,
        "queries": queries,
    }


@st.composite
def churn_specs(draw, max_satellites=2):
    """Satellite peers that join/leave a spec'd PDMS mid-query-stream."""
    satellites = []
    for i in range(draw(st.integers(min_value=1, max_value=max_satellites))):
        satellites.append({
            "peer": f"SAT{i}",
            "relation": f"SAT{i}:x{i}",
            "role": draw(st.sampled_from(["provider", "consumer"])),
            "target_index": draw(st.integers(min_value=0, max_value=7)),
            "rows": draw(pdms_rows),
        })
    return satellites


@st.composite
def data_mutation_specs(draw, max_ops=4):
    """Per-peer data writes interleaved with the query stream.

    Each op targets one of the spec'd bottom peers (by index, wrapped) and
    either inserts a row into its stored relation or deletes one (the
    delete names a candidate row; appliers skip it when absent, so delete
    ops stay meaningful on any generated instance).
    """
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        ops.append({
            "kind": draw(st.sampled_from(["insert", "delete"])),
            "bottom_index": draw(st.integers(min_value=0, max_value=3)),
            "row": draw(st.tuples(st.integers(0, 3), st.integers(0, 3))),
        })
    return ops


@st.composite
def lav_views(draw, max_views=3):
    """A set of LAV views over the fixed vocabulary, with distinct names."""
    from repro.integration import View
    from tests.oracles import ViewSet

    count = draw(st.integers(min_value=1, max_value=max_views))
    views = []
    for index in range(count):
        body = draw(st.lists(relational_atoms(), min_size=1, max_size=2))
        body_variables = sorted({v for atom in body for v in atom.variable_set()})
        if body_variables:
            exported = draw(
                st.lists(
                    st.sampled_from(body_variables),
                    min_size=1,
                    max_size=len(body_variables),
                    unique=True,
                )
            )
        else:
            exported = [Constant(0)]
        views.append(View(ConjunctiveQuery(Atom(f"view{index}", exported), body)))
    return ViewSet(views)
