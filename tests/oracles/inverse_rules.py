"""The inverse-rules algorithm and Skolem-based canonical instances.

The inverse-rules algorithm (Duschka & Genesereth, PODS 1997 — reference
[9] of the paper) answers LAV queries by turning every view definition

    V(X̅) :- p1(...), ..., pn(...)

into *inverse rules*: one rule per body atom,

    pi(...) :- V(X̅)

where each existential variable of the view is replaced by a Skolem term
over the view's head variables.  Evaluating the inverse rules over the
view extensions yields a canonical database containing labelled nulls
(Skolem values); evaluating the query over it and discarding any answer
containing a null gives exactly the certain answers for conjunctive
queries over sound (⊆) views.

Skolem terms are :class:`repro.pdms.semantics.SkolemValue` objects (the
PDMS chase mints the same labelled nulls) living in the *value* space,
not the term space, so the standard evaluation engine handles them
without modification.

:func:`certain_answers_by_freezing` is a second path to the same answers
that follows the definition more literally: it replaces every labelled
null with a fresh, distinct constant ("freezing"), which turns the
canonical instance into one particular consistent world, and keeps the
answers over it that mention no frozen null.  For conjunctive queries
(monotonic) the two agree; the tests assert that they do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.database.instance import Instance
from repro.datalog.evaluation import FactsLike, as_fact_source, evaluate_query
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable, is_variable
from repro.integration import View
from repro.pdms.semantics import SkolemValue, contains_skolem

from .views import ViewSet

Row = Tuple[object, ...]


def build_canonical_instance(
    views: ViewSet | Iterable[View], view_extensions: FactsLike
) -> Instance:
    """Apply the inverse rules to view extensions, producing a canonical instance.

    Parameters
    ----------
    views:
        The LAV view definitions (source descriptions).
    view_extensions:
        Fact source holding the tuples of each *view* (source) relation.

    Returns
    -------
    Instance
        An instance over the mediated-schema relations whose unknown
        positions carry :class:`SkolemValue` labelled nulls.
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(views)
    source = as_fact_source(view_extensions)
    canonical = Instance()

    for view in view_set:
        definition = view.definition
        head_vars = definition.head_variables()
        existentials = sorted(definition.existential_variables())
        for row in source.get_tuples(view.name):
            if len(row) != definition.arity:
                continue
            binding: Dict[Variable, object] = {}
            consistent = True
            for arg, value in zip(definition.head.args, row):
                if is_variable(arg):
                    existing = binding.get(arg)  # type: ignore[arg-type]
                    if existing is not None and existing != value:
                        consistent = False
                        break
                    binding[arg] = value  # type: ignore[index]
                else:
                    assert isinstance(arg, Constant)
                    if arg.value != value:
                        consistent = False
                        break
            if not consistent:
                continue
            head_values = tuple(binding[v] for v in head_vars if v in binding)
            for existential in existentials:
                binding[existential] = SkolemValue(
                    f"f_{view.name}_{existential.name}", head_values
                )
            for atom in definition.relational_body():
                values: List[object] = []
                for arg in atom.args:
                    if is_variable(arg):
                        values.append(binding[arg])  # type: ignore[index]
                    else:
                        assert isinstance(arg, Constant)
                        values.append(arg.value)
                canonical.add(atom.predicate, values)
    return canonical


def certain_answers(
    query: ConjunctiveQuery,
    views: ViewSet | Iterable[View],
    view_extensions: FactsLike,
) -> Set[Row]:
    """Certain answers of ``query`` over sound LAV views via inverse rules.

    Builds the canonical instance, evaluates the query over it, and keeps
    only answers free of labelled nulls.  For conjunctive queries without
    comparison predicates over ``⊆`` views this returns exactly the
    certain answers.
    """
    canonical = build_canonical_instance(views, view_extensions)
    answers = evaluate_query(query, canonical)
    return {row for row in answers if not contains_skolem(row)}


def freeze_canonical_instance(canonical: Instance) -> Instance:
    """Replace every labelled null with a fresh, distinct frozen constant.

    Freezing turns the canonical instance into an ordinary instance that
    is one particular consistent world; evaluating a CQ on it and keeping
    only null-free answers yields the certain answers (monotonicity).
    """
    frozen = Instance()
    replacements: Dict[SkolemValue, str] = {}

    def frozen_value(value: object) -> object:
        if isinstance(value, SkolemValue):
            if value not in replacements:
                replacements[value] = f"⊥{len(replacements)}"
            return replacements[value]
        return value

    for relation in canonical.relations():
        for row in canonical.get_tuples(relation):
            frozen.add(relation, tuple(frozen_value(v) for v in row))
    return frozen


def certain_answers_by_freezing(
    query: ConjunctiveQuery,
    views: ViewSet | Iterable[View],
    view_extensions: FactsLike,
) -> Set[Row]:
    """Certain answers computed on the frozen canonical instance.

    An answer is certain iff it is produced over the frozen instance and
    contains no frozen null.  This is an independent implementation path
    from :func:`certain_answers` (which evaluates over the unfrozen
    instance); tests assert the two agree.
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(views)
    canonical = build_canonical_instance(view_set, view_extensions)
    frozen = freeze_canonical_instance(canonical)
    answers = evaluate_query(query, frozen)
    return {
        row
        for row in answers
        if not any(isinstance(v, str) and v.startswith("⊥") for v in row)
    }
