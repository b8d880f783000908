"""The Bucket algorithm — the classical baseline for LAV rewriting.

The Bucket algorithm (Levy, Rajaraman, Ordille; VLDB 1996) predates
MiniCon and serves here as a second, independent LAV oracle: for every query
subgoal it builds a *bucket* of view atoms that could cover that subgoal,
then considers every element of the cross product of the buckets as a
candidate rewriting and keeps those that are contained in the query
(possibly after adding equality predicates).  It examines many more
candidates than MiniCon — which is exactly the inefficiency MiniCon was
designed to remove.

Known limitation (kept on purpose, as it reflects the original algorithm's
candidate construction): when unifying a query subgoal with a view subgoal
binds a *distinguished query variable to a constant*, the bucket entry
carries the constant and the candidate loses the connection to the query's
head variable, so that rewriting is missed.  MiniCon records the induced
equality explicitly and therefore finds it.  The Bucket baseline is
sound — it only ever misses answers, never invents them — and the property
suite pins exactly that relationship (``bucket ⊆ minicon = certain``).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, List, Optional

from repro.datalog.atoms import Atom
from repro.datalog.containment import is_contained_in, remove_redundant_disjuncts
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import FreshVariableFactory, Term, is_variable
from repro.datalog.unify import apply_substitution_term, unify_atoms
from repro.integration import View

from .views import ViewSet


def _bucket_entries(
    subgoal: Atom, view: View, fresh: FreshVariableFactory
) -> List[Atom]:
    """View atoms that can cover ``subgoal`` (one per unifiable view subgoal)."""
    entries: List[Atom] = []
    renamed = view.definition.rename_apart(fresh)
    head_vars = set(renamed.head.variables())
    for view_atom in renamed.relational_body():
        theta = unify_atoms(subgoal, view_atom)
        if theta is None:
            continue
        # Distinguished variables of the subgoal must be exported by the view
        # head or bound to constants; otherwise the candidate can never join
        # back correctly (kept as a cheap filter — the containment check at
        # the end is what guarantees soundness).
        args: List[Term] = []
        for head_arg in renamed.head.args:
            value = apply_substitution_term(head_arg, theta)
            if is_variable(value):
                query_side = [
                    q
                    for q in subgoal.variable_set()
                    if apply_substitution_term(q, theta) == value
                ]
                value = sorted(query_side)[0] if query_side else fresh("_bv")
            args.append(value)
        entries.append(Atom(view.name, args))
    return entries


def rewrite(query: ConjunctiveQuery, views: ViewSet | Iterable[View]) -> UnionQuery:
    """Compute a maximally-contained rewriting with the Bucket algorithm.

    Returns a union of conjunctive queries over the view predicates, each
    of which is contained in ``query`` when views are interpreted by their
    definitions (checked by expanding view atoms back into view bodies).
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(views)
    fresh = FreshVariableFactory()
    fresh.reserve(v.name for v in query.all_variables())

    subgoals = query.relational_body()
    buckets: List[List[Atom]] = []
    for subgoal in subgoals:
        bucket: List[Atom] = []
        for view in view_set:
            bucket.extend(_bucket_entries(subgoal, view, fresh))
        if not bucket:
            return UnionQuery((), name=query.name, arity=query.arity)
        buckets.append(bucket)

    comparisons = query.comparison_body()
    candidates: List[ConjunctiveQuery] = []
    for choice in product(*buckets):
        body: List = list(dict.fromkeys(choice))  # drop duplicate atoms, keep order
        available = set()
        for atom in body:
            available.update(atom.variable_set())
        if not all(v in available for v in query.head_variables()):
            continue
        if not all(
            all(v in available for v in comparison.variables()) for comparison in comparisons
        ):
            continue
        body.extend(comparisons)
        candidate = ConjunctiveQuery(query.head, body)
        # The Bucket algorithm's verification step: the candidate is useful
        # if it is contained in the query, possibly after *adding equality
        # predicates* between its variables.  We search over ways of
        # equating the fresh placeholder variables with query variables of
        # the candidate — this exhaustive repair is exactly the extra work
        # MiniCon avoids.
        repaired = _verify_with_equalities(candidate, query, view_set, fresh)
        if repaired is not None:
            candidates.append(repaired)

    return UnionQuery(
        remove_redundant_disjuncts(candidates), name=query.name, arity=query.arity
    )


def _verify_with_equalities(
    candidate: ConjunctiveQuery,
    query: ConjunctiveQuery,
    views: ViewSet,
    fresh: FreshVariableFactory,
    max_fresh: int = 6,
) -> Optional[ConjunctiveQuery]:
    """Return a candidate (possibly with equalities applied) contained in ``query``.

    Fresh placeholder variables (``_bv*``) may be replaced by query
    variables occurring in the candidate.  Tries the unmodified candidate
    first, then every combination of replacements; returns ``None`` when
    no combination makes the expansion contained in the query.  Candidates
    with more than ``max_fresh`` placeholders are rejected outright to
    bound the (intentionally naive) search.
    """
    expanded = expand_view_atoms(candidate, views, fresh)
    if expanded is not None and is_contained_in(expanded, query):
        return candidate

    placeholders = sorted(
        v for v in candidate.body_variables() if v.name.startswith("_bv")
    )
    if not placeholders or len(placeholders) > max_fresh:
        return None
    query_vars = sorted(
        v for v in candidate.body_variables() if not v.name.startswith("_bv")
    )
    options = [[p] + query_vars for p in placeholders]
    for assignment in product(*options):
        substitution = {
            placeholder: value
            for placeholder, value in zip(placeholders, assignment)
            if placeholder != value
        }
        if not substitution:
            continue
        repaired = candidate.substitute(substitution)
        expanded = expand_view_atoms(repaired, views, fresh)
        if expanded is not None and is_contained_in(expanded, query):
            return repaired
    return None


def expand_view_atoms(
    candidate: ConjunctiveQuery,
    views: ViewSet,
    fresh: Optional[FreshVariableFactory] = None,
) -> Optional[ConjunctiveQuery]:
    """Replace every view atom in ``candidate`` by the view's definition body.

    Used to check containment of a candidate rewriting in the original
    query.  Returns ``None`` if some view atom cannot be unified with its
    view's head (should not happen for atoms built by the bucket step).
    """
    if fresh is None:
        fresh = FreshVariableFactory()
        fresh.reserve(v.name for v in candidate.all_variables())
    body: List = []
    for atom in candidate.body:
        if isinstance(atom, Atom) and atom.predicate in views:
            view = views.by_name(atom.predicate)
            renamed = view.definition.rename_apart(fresh)
            theta = unify_atoms(renamed.head, atom)
            if theta is None:
                return None
            body.extend(
                a.substitute(theta) if isinstance(a, Atom) else a.substitute(theta)
                for a in renamed.body
            )
        else:
            body.append(atom)
    return ConjunctiveQuery(candidate.head, body)
