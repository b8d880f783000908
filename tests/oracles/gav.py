"""Global-as-view (GAV) mediation: view unfolding.

In GAV, each mediated-schema relation is defined by one or more views
(conjunctive queries) over the source relations; a mediated relation with
several defining views denotes their union (the paper's Example 2.2 defines
``9DC:SkilledPerson`` as a union over the H and FS schemas).  Query
answering "amounts to view unfolding": every subgoal over a mediated
relation is replaced by the body of one of its definitions, and the cross
product of the choices yields a union of conjunctive queries over the
sources.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.datalog.atoms import Atom, BodyAtom
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import FreshVariableFactory
from repro.datalog.unify import apply_substitution_atom, apply_substitution_body, unify_atoms
from repro.errors import ReformulationError
from repro.integration import View


class GAVMediator:
    """A GAV mediator: mediated relations defined as views over sources.

    Parameters
    ----------
    definitions:
        Views whose *head* predicates are mediated-schema relations and
        whose bodies mention only source relations (or other mediated
        relations, in which case unfolding recurses; recursion among
        definitions is rejected).
    """

    def __init__(self, definitions: Iterable[View] = ()):
        self._definitions: Dict[str, List[View]] = {}
        for view in definitions:
            self.add_definition(view)

    def add_definition(self, view: View) -> None:
        """Register one defining view for a mediated relation."""
        self._definitions.setdefault(view.name, []).append(view)

    def mediated_relations(self) -> frozenset[str]:
        """Names of relations defined by this mediator."""
        return frozenset(self._definitions)

    def definitions_for(self, relation: str) -> Sequence[View]:
        """The defining views of one mediated relation."""
        return tuple(self._definitions.get(relation, ()))

    # -- unfolding ---------------------------------------------------------------

    def unfold(self, query: ConjunctiveQuery, max_depth: int = 32) -> UnionQuery:
        """Unfold a query over the mediated schema into source queries.

        Every subgoal whose predicate is a mediated relation is replaced by
        the body of one of its definitions (head unified with the subgoal,
        existential variables freshened); the unifier is applied to the
        whole conjunct, so constants or repeated variables in definition
        heads propagate into the disjunct's head and remaining subgoals.
        Subgoals over source relations are left alone.  The result is the
        union over all choices.

        ``max_depth`` bounds nested unfolding through mediated relations
        that are defined in terms of other mediated relations, so that a
        (disallowed) recursive definition fails loudly instead of looping.
        """
        fresh = FreshVariableFactory()
        fresh.reserve(v.name for v in query.all_variables())
        results: List[ConjunctiveQuery] = []
        # Work-list of (conjunct, remaining unfolding budget).
        pending: List[tuple[ConjunctiveQuery, int]] = [(query, max_depth)]
        while pending:
            current, budget = pending.pop()
            target_index = self._first_mediated_subgoal(current)
            if target_index is None:
                results.append(current)
                continue
            if budget <= 0:
                raise ReformulationError(
                    "GAV unfolding exceeded the maximum depth; are the view "
                    "definitions recursive?"
                )
            target = current.body[target_index]
            assert isinstance(target, Atom)
            for view in self._definitions[target.predicate]:
                renamed = view.definition.rename_apart(fresh)
                unifier = unify_atoms(renamed.head, target)
                if unifier is None:
                    continue
                new_body: List[BodyAtom] = list(current.body)
                new_body[target_index : target_index + 1] = renamed.body
                unfolded = ConjunctiveQuery(
                    apply_substitution_atom(current.head, unifier),
                    apply_substitution_body(new_body, unifier),
                )
                pending.append((unfolded, budget - 1))
        return UnionQuery(results, name=query.name, arity=query.arity)

    def _first_mediated_subgoal(self, query: ConjunctiveQuery) -> Optional[int]:
        """Index of the first body atom over a mediated relation, if any."""
        for index, atom in enumerate(query.body):
            if isinstance(atom, Atom) and atom.predicate in self._definitions:
                return index
        return None
