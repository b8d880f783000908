"""The productive-predicate worklist against the whole-catalogue fixpoint.

:meth:`NormalizedCatalogue.productive_predicates` grows its set along a
worklist and, after ``add_entries``, from the set computed before the
addition; ``remove_origins`` starts it over.  The oracle below is the
fixpoint the worklist replaced — loop over every entry until nothing
changes — and the two must agree after every step of a random sequence of
additions and removals, whether or not the set was asked for in between.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom, ComparisonAtom
from repro.datalog.queries import ConjunctiveQuery, DatalogRule
from repro.datalog.terms import Constant, Variable
from repro.integration.views import View
from repro.pdms.system import NormalizedCatalogue, NormalizedInclusion, NormalizedRule

PREDICATES = tuple(f"p{i}" for i in range(7))
X, Y = Variable("x"), Variable("y")


def naive_productive(catalogue: NormalizedCatalogue) -> frozenset:
    """Section 4.3's productive predicates by plain fixpoint iteration."""
    productive = set(catalogue.stored_relations)
    changed = True
    while changed:
        changed = False
        for rule in catalogue.rules:
            if rule.head_predicate in productive:
                continue
            body = rule.rule.predicates()
            if body and all(p in productive for p in body):
                productive.add(rule.head_predicate)
                changed = True
        for inclusion in catalogue.inclusions:
            if inclusion.head_predicate not in productive:
                continue
            for predicate in inclusion.view.definition.predicates():
                if predicate not in productive:
                    productive.add(predicate)
                    changed = True
    return frozenset(productive)


@st.composite
def rules(draw, origin):
    head = draw(st.sampled_from(PREDICATES))
    body = [Atom(p, [X, Y]) for p in draw(st.lists(st.sampled_from(PREDICATES), max_size=2))]
    if not body:
        # A comparison-only rule: never productive.
        ground = Atom(head, [Constant(1), Constant(2)])
        return NormalizedRule(
            DatalogRule(ground, [ComparisonAtom(Constant(1), "<", Constant(2))]), origin=origin
        )
    return NormalizedRule(DatalogRule(Atom(head, [X, Y]), body), origin=origin)


@st.composite
def inclusions(draw, origin):
    head = draw(st.sampled_from(PREDICATES))
    body = [
        Atom(p, [X, Y])
        for p in draw(st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=2))
    ]
    return NormalizedInclusion(View(ConjunctiveQuery(Atom(head, [X, Y]), body)), origin=origin)


@st.composite
def operations(draw):
    """A sequence of ("add", rules, inclusions, stored) / ("remove", origins,
    stored) / ("ask",) steps; origins are unique per added entry."""
    steps = []
    serial = 0
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["add", "add", "remove", "ask"]))
        if kind == "add":
            added_rules, added_inclusions = [], []
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                serial += 1
                if draw(st.booleans()):
                    added_rules.append(draw(rules(f"o{serial}")))
                else:
                    added_inclusions.append(draw(inclusions(f"o{serial}")))
            stored = draw(st.sets(st.sampled_from(PREDICATES), max_size=2))
            steps.append(("add", added_rules, added_inclusions, stored))
        elif kind == "remove":
            origins = {f"o{i}" for i in draw(st.sets(st.integers(1, max(serial, 1)), max_size=3))}
            stored = draw(st.sets(st.sampled_from(PREDICATES), max_size=3))
            steps.append(("remove", origins, stored))
        else:
            steps.append(("ask",))
    return steps


@given(
    initial_rules=st.lists(rules("init"), max_size=4),
    initial_inclusions=st.lists(inclusions("init"), max_size=6),
    initial_stored=st.sets(st.sampled_from(PREDICATES), max_size=3),
    steps=operations(),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_worklist_matches_the_fixpoint_through_adds_and_removes(
    initial_rules, initial_inclusions, initial_stored, steps
):
    catalogue = NormalizedCatalogue(
        rules=list(initial_rules),
        inclusions=list(initial_inclusions),
        stored_relations=frozenset(initial_stored),
    )
    catalogue.index()
    assert catalogue.productive_predicates() == naive_productive(catalogue)
    for step in steps:
        if step[0] == "add":
            _, added_rules, added_inclusions, stored = step
            catalogue.add_entries(added_rules, added_inclusions, stored)
        elif step[0] == "remove":
            _, origins, stored = step
            catalogue.remove_origins(frozenset(origins), frozenset(stored))
        else:
            assert catalogue.productive_predicates() == naive_productive(catalogue)
    assert catalogue.productive_predicates() == naive_productive(catalogue)
