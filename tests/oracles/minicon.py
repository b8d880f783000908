"""MiniCon as a stand-alone LAV rewriting algorithm.

The library keeps MiniCon's first phase, MCD construction
(:func:`repro.integration.form_mcds`), which the PDMS reformulation runs
for every inclusion expansion.  This module adds the second phase for
the two-tier oracles: rewritings are produced by combining MCDs whose
covered-subgoal sets are *disjoint* and together cover every relational
subgoal of the query (Pottinger & Halevy, VLDB Journal 2001), and the
redundant disjuncts of the union are removed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.atoms import ComparisonAtom
from repro.datalog.containment import remove_redundant_disjuncts
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import FreshVariableFactory, Term, Variable, is_variable
from repro.datalog.unify import apply_substitution_term
from repro.integration import MCD, PreparedView, View, form_mcds

from .views import ViewSet


def create_mcds(
    query: ConjunctiveQuery,
    view: View,
    fresh: Optional[FreshVariableFactory] = None,
    only_subgoal: Optional[int] = None,
) -> List[MCD]:
    """Create all MCDs for ``query`` with respect to a single ``view``.

    Parameters
    ----------
    only_subgoal:
        When given, only MCDs *created for* that relational-subgoal index
        are returned.
    """
    if fresh is None:
        fresh = FreshVariableFactory()
        fresh.reserve(v.name for v in query.all_variables())
    return form_mcds(
        query.relational_body(),
        query.head_variables(),
        PreparedView(view, fresh),
        fresh,
        only_subgoal,
    )


def _equalities_to_substitution(
    equalities: Sequence[ComparisonAtom],
) -> Optional[Dict[Variable, Term]]:
    """Resolve MCD-induced equalities into a substitution.

    Returns ``None`` when the equalities are contradictory (two distinct
    constants forced equal).  The substitution is flattened so a single
    application suffices.
    """
    substitution: Dict[Variable, Term] = {}
    for equality in equalities:
        left = apply_substitution_term(equality.left, substitution)
        right = apply_substitution_term(equality.right, substitution)
        if left == right:
            continue
        if is_variable(left):
            substitution[left] = right  # type: ignore[index]
        elif is_variable(right):
            substitution[right] = left  # type: ignore[index]
        else:
            return None
    return {
        variable: apply_substitution_term(variable, substitution)
        for variable in substitution
    }


def _combinations_covering(
    mcds: Sequence[MCD], total_subgoals: int
) -> Iterator[Tuple[MCD, ...]]:
    """Yield combinations of MCDs with disjoint coverage that cover everything."""
    all_goals = frozenset(range(total_subgoals))

    def backtrack(remaining: FrozenSet[int], chosen: Tuple[MCD, ...], start: int) -> Iterator[Tuple[MCD, ...]]:
        if not remaining:
            yield chosen
            return
        target = min(remaining)
        for index in range(start, len(mcds)):
            mcd = mcds[index]
            if target not in mcd.covered:
                continue
            if not mcd.covered <= remaining:
                continue  # must be disjoint from already-covered goals
            yield from backtrack(remaining - mcd.covered, chosen + (mcd,), 0)

    yield from backtrack(all_goals, (), 0)


def rewrite(query: ConjunctiveQuery, views: ViewSet | Iterable[View]) -> UnionQuery:
    """Compute the MiniCon rewriting of ``query`` using ``views``.

    Returns the union of conjunctive rewritings over the view predicates.
    Comparison atoms of the query are appended to each rewriting; a
    rewriting that cannot express one of them (because a variable it
    mentions is not exported by any chosen view) is discarded, which keeps
    the result sound.
    """
    view_set = views if isinstance(views, ViewSet) else ViewSet(views)
    fresh = FreshVariableFactory()
    fresh.reserve(v.name for v in query.all_variables())

    subgoals = query.relational_body()
    all_mcds: List[MCD] = []
    for view in view_set:
        all_mcds.extend(create_mcds(query, view, fresh))

    rewritings: List[ConjunctiveQuery] = []
    comparisons = query.comparison_body()
    for combo in _combinations_covering(all_mcds, len(subgoals)):
        equalities: List[ComparisonAtom] = []
        for mcd in combo:
            equalities.extend(mcd.equalities)
        substitution = _equalities_to_substitution(equalities)
        if substitution is None:
            continue
        head = query.head.substitute(substitution)
        body: List = [mcd.view_atom.substitute(substitution) for mcd in combo]
        available = set()
        for atom in body:
            available.update(atom.variable_set())
        # Every query comparison must be expressible over the chosen view
        # atoms; otherwise the combination would be unsound and is discarded.
        ok = True
        applied_comparisons = []
        for comparison in comparisons:
            comparison = comparison.substitute(substitution)
            if comparison.is_ground():
                if not comparison.evaluate_ground():
                    ok = False
                    break
                continue
            if not all(v in available for v in comparison.variables()):
                ok = False
                break
            applied_comparisons.append(comparison)
        if not ok:
            continue
        body.extend(applied_comparisons)
        # Head variables must be present (guaranteed by C1, but verify).
        if not all(v in available for v in head.variables()):
            continue
        rewritings.append(ConjunctiveQuery(head, body))

    return UnionQuery(
        remove_redundant_disjuncts(rewritings), name=query.name, arity=query.arity
    )
