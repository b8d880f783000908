"""MiniCon descriptions (MCDs): the construction the PDMS expands inclusions with.

MiniCon (Pottinger & Halevy, VLDB Journal 2001) is the LAV rewriting
algorithm the paper builds its *inclusion expansion* on (Section 4.1
recalls it explicitly).  Of its two phases only the first lives here:

**MCD construction.**  For every query subgoal ``g`` and every view ``V``
containing a subgoal unifiable with ``g``, try to build a *MiniCon
description* (MCD).  The MCD records which query subgoals the view atom
covers; the defining properties are

* C1 — a distinguished (head) variable of the query that occurs in a
  covered subgoal must be mapped to a distinguished variable of the
  view (or to a constant), and
* C2 — if a query variable is mapped to an *existential* variable of
  the view, then **every** query subgoal mentioning that variable must
  be covered by this same MCD.

Property C2 is why an MCD "may tell us that it covers more than the
original subgoal for which it was created" — exactly the behaviour the
PDMS reformulation algorithm records in its ``unc`` labels.

:mod:`repro.pdms.reformulation` forms MCDs for inclusion expansions, where
the "query" is the parent rule node's head and children and the "view" is
the normalised inclusion description ``V ⊆ Q2``; the rule-goal tree does
the combination itself.  MiniCon's second phase (combining MCDs with
disjoint coverage into rewritings) is a test oracle, beside the other
two-tier algorithms the PDMS generalises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom, ComparisonAtom
from ..datalog.terms import FreshVariableFactory, Term, Variable
from ..datalog.unify import Substitution, apply_substitution_term, unify_atoms
from .views import View


@dataclass(frozen=True)
class MCD:
    """A MiniCon description.

    Attributes
    ----------
    view:
        The view this MCD uses.
    view_atom:
        The atom over the view's name to place in rewritings.  Its
        arguments are expressed in terms of the query's variables and
        constants wherever the view exports them; positions bound only to
        view existentials carry fresh variables.
    covered:
        Indices (into the query's *relational* body) of the subgoals this
        MCD covers.
    created_for:
        Index of the subgoal the MCD construction started from.
    equalities:
        Equality atoms the rewriting must enforce because the unification
        behind this MCD identified two exported query variables with each
        other (or with a constant) — e.g. covering both ``Skill(f1,s)``
        and ``Skill(f2,s)`` with the *same* view subgoal forces ``f1 = f2``.
        Omitting them would make the rewriting unsound.
    """

    view: View
    view_atom: Atom
    covered: FrozenSet[int]
    created_for: int
    equalities: Tuple[ComparisonAtom, ...] = ()

    def __str__(self) -> str:
        goals = ",".join(str(i) for i in sorted(self.covered))
        extra = f" with {', '.join(map(str, self.equalities))}" if self.equalities else ""
        return f"MCD({self.view_atom} covers [{goals}]{extra})"


class PreparedView:
    """A view renamed apart once, holding what MCD formation reads from it.

    Preparing is the per-view share of MCD construction (renaming, the
    head/existential split, the body indexed by predicate); a caller that
    forms MCDs for one view against many queries prepares it once.  The
    renamed variables must not occur in any query the prepared view is
    used with.
    """

    __slots__ = ("view", "head", "head_vars", "existentials", "body_by_predicate")

    def __init__(self, view: View, fresh: FreshVariableFactory):
        renamed = view.definition.rename_apart(fresh)
        self.view = view
        self.head: Atom = renamed.head
        self.head_vars: FrozenSet[Variable] = renamed.head.variable_set()
        self.existentials: FrozenSet[Variable] = renamed.body_variables() - self.head_vars
        by_predicate: Dict[str, List[Atom]] = {}
        for atom in renamed.relational_body():
            by_predicate.setdefault(atom.predicate, []).append(atom)
        self.body_by_predicate: Dict[str, Tuple[Atom, ...]] = {
            predicate: tuple(atoms) for predicate, atoms in by_predicate.items()
        }


class _UnifierClasses:
    """The equivalence classes of one unifier, every term resolved once.

    A triangular substitution is a union-find forest (a bound variable's
    parent is its binding); :meth:`find` follows it to the class
    representative and remembers the answer, so the many membership
    questions MCD formation asks about one unifier cost one walk per term.
    """

    __slots__ = ("_theta", "_roots", "_exported_roots")

    def __init__(self, theta: Substitution, view_head_vars: Iterable[Variable]):
        self._theta = theta
        self._roots: Dict[Term, Term] = {}
        self._exported_roots = {self.find(variable) for variable in view_head_vars}

    def find(self, term: Term) -> Term:
        root = self._roots.get(term)
        if root is None:
            root = self._roots[term] = apply_substitution_term(term, self._theta)
        return root

    def exported(self, variable: Variable) -> bool:
        """Does the class of ``variable`` contain a constant or a view head
        variable?  (Then the view exports it.)"""
        root = self.find(variable)
        return not isinstance(root, Variable) or root in self._exported_roots


class _MCDBuilder:
    """Backtracking construction of all MCDs for one query/view pair."""

    def __init__(
        self,
        subgoals: Sequence[Atom],
        distinguished: Iterable[Variable],
        view: PreparedView,
        fresh: FreshVariableFactory,
    ):
        self._subgoals = subgoals
        self._distinguished = frozenset(distinguished)
        self._view = view
        self._fresh = fresh
        subgoals_with: Dict[Variable, Set[int]] = {}
        for index, atom in enumerate(subgoals):
            for variable in atom.variable_set():
                subgoals_with.setdefault(variable, set()).add(index)
        self._subgoals_with = subgoals_with
        # Name order makes the choice of a class's query variable deterministic.
        self._query_vars = sorted(subgoals_with.keys() | self._distinguished)

    # -- construction -------------------------------------------------------------

    def build_for(self, start_index: int) -> Iterator[MCD]:
        """Yield every MCD whose construction starts at subgoal ``start_index``."""
        start_atom = self._subgoals[start_index]
        for view_atom in self._view.body_by_predicate.get(start_atom.predicate, ()):
            theta = unify_atoms(start_atom, view_atom)
            if theta is not None:
                yield from self._close({start_index}, theta, start_index)

    def _close(
        self, covered: Set[int], theta: Substitution, start_index: int
    ) -> Iterator[MCD]:
        classes = _UnifierClasses(theta, self._view.head_vars)
        # Find variables of covered subgoals that are mapped to view
        # existentials; every subgoal mentioning them must also be covered.
        missing: Set[int] = set()
        for index in covered:
            for variable in self._subgoals[index].variable_set():
                if not classes.exported(variable):
                    missing |= self._subgoals_with[variable]
        missing -= covered
        if not missing:
            mcd = self._finalise(covered, classes, start_index)
            if mcd is not None:
                yield mcd
            return
        # Cover one missing subgoal by unifying it with some view body atom,
        # then recurse; different choices yield different MCDs.
        next_index = min(missing)
        target = self._subgoals[next_index]
        for view_atom in self._view.body_by_predicate.get(target.predicate, ()):
            extended = unify_atoms(target, view_atom, theta)
            if extended is not None:
                yield from self._close(covered | {next_index}, extended, start_index)

    def _finalise(
        self, covered: Set[int], classes: _UnifierClasses, start_index: int
    ) -> Optional[MCD]:
        # Validity of the unifier: a view *existential* variable may not be
        # identified with a view head variable, with a constant, or with a
        # second existential — the view's definition does not guarantee such
        # equalities, so an MCD built on them would be unsound.  (In MiniCon
        # terms: head homomorphisms only ever equate distinguished view
        # variables.)
        existential_roots: Set[Term] = set()
        for existential in self._view.existentials:
            root = classes.find(existential)
            if classes.exported(existential) or root in existential_roots:
                return None
            existential_roots.add(root)

        # Property C1: distinguished query variables occurring in covered
        # subgoals must be exported by the view.
        covered_vars: Set[Variable] = set()
        for index in covered:
            covered_vars |= self._subgoals[index].variable_set()
        exported_vars = []
        for variable in sorted(covered_vars):
            if classes.exported(variable):
                exported_vars.append(variable)
            elif variable in self._distinguished:
                return None

        # Build the view atom of the rewriting: express every head position
        # of the view in terms of query variables/constants when exported,
        # otherwise in terms of one fresh variable per equivalence class.
        class_variable: Dict[Term, Variable] = {}
        args: List[Term] = []
        for head_arg in self._view.head.args:
            root = classes.find(head_arg)
            if not isinstance(root, Variable):
                args.append(root)
                continue
            variable = class_variable.get(root)
            if variable is None:
                # Prefer a query variable from the same class.
                variable = self._class_query_variable(root, classes)
                if variable is None:
                    variable = self._fresh("_mv")
                class_variable[root] = variable
            args.append(variable)
        return MCD(
            view=self._view.view,
            view_atom=Atom.trusted(self._view.view.name, tuple(args)),
            covered=frozenset(covered),
            created_for=start_index,
            equalities=self._induced_equalities(exported_vars, classes),
        )

    @staticmethod
    def _induced_equalities(
        exported_vars: Sequence[Variable], classes: _UnifierClasses
    ) -> Tuple[ComparisonAtom, ...]:
        """Equalities the unification forces among *exported* query variables.

        If two exported query variables of covered subgoals (``exported_vars``,
        in name order) end up in the same equivalence class (or an exported
        variable ends up bound to a constant), the rewriting that uses this
        MCD only answers the query when those terms are actually equal, so
        the equality must travel with the MCD.
        """
        by_class: Dict[Term, List[Variable]] = {}
        equalities: List[ComparisonAtom] = []
        for variable in exported_vars:
            root = classes.find(variable)
            if not isinstance(root, Variable):
                equalities.append(ComparisonAtom(variable, "=", root))
                continue
            by_class.setdefault(root, []).append(variable)
        for members in by_class.values():
            representative = members[0]
            for other in members[1:]:
                equalities.append(ComparisonAtom(representative, "=", other))
        return tuple(equalities)

    def _class_query_variable(
        self, root: Term, classes: _UnifierClasses
    ) -> Optional[Variable]:
        """Return a deterministic query variable whose class is ``root``."""
        first: Optional[Variable] = None
        for variable in self._query_vars:
            if classes.find(variable) == root:
                # Prefer distinguished variables for readability; ties broken by name.
                if variable in self._distinguished:
                    return variable
                if first is None:
                    first = variable
        return first


def form_mcds(
    subgoals: Sequence[Atom],
    distinguished: Iterable[Variable],
    view: PreparedView,
    fresh: FreshVariableFactory,
    only_subgoal: Optional[int] = None,
) -> List[MCD]:
    """All MCDs of a prepared view for the query ``distinguished :- subgoals``.

    ``only_subgoal`` restricts the result to MCDs *created for* that
    subgoal index (the PDMS inclusion expansion asks for MCDs of one
    specific goal node).  ``fresh`` names the view atom's unexported
    positions.
    """
    builder = _MCDBuilder(subgoals, distinguished, view, fresh)
    indices = range(len(subgoals)) if only_subgoal is None else (only_subgoal,)
    results: List[MCD] = []
    seen: Set[Tuple[Tuple[Term, ...], FrozenSet[int]]] = set()
    for index in indices:
        for mcd in builder.build_for(index):
            key = (mcd.view_atom.args, mcd.covered)
            if key not in seen:
                seen.add(key)
                results.append(mcd)
    return results
