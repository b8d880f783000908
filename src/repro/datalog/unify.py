"""Substitutions and unification over terms and atoms.

A *substitution* maps variables to terms.  Unification of two atoms finds
the most general unifier (MGU), used by the reformulation algorithm when a
goal atom is unified with the head of a definitional mapping (paper,
Section 4.2, definitional expansion: "let r' be the result of unifying
p(Y̅) with the head of r").

The module also provides one-way *matching* (only variables of the pattern
may be bound), which underlies homomorphism search and MCD construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .atoms import Atom, BodyAtom, ComparisonAtom
from .terms import Constant, Term, Variable, is_variable

#: A substitution maps variables to terms.
Substitution = Dict[Variable, Term]


def apply_substitution_term(term: Term, subst: Mapping[Variable, Term]) -> Term:
    """Apply a substitution to a single term, following chains of variables.

    The substitution is applied repeatedly while the result is a variable
    bound by the substitution, so triangular substitutions produced during
    unification resolve to their final values.
    """
    current = term
    steps = 0
    while isinstance(current, Variable):
        bound = subst.get(current)
        if bound is None:
            break
        current = bound
        steps += 1
        if steps > len(subst):  # pragma: no cover - cycle guard
            break
    return current


def apply_substitution_atom(atom: Atom, subst: Mapping[Variable, Term]) -> Atom:
    """Apply a substitution to every argument of a relational atom."""
    return Atom.trusted(
        atom.predicate, tuple(apply_substitution_term(a, subst) for a in atom.args)
    )


def apply_substitution_body(
    body: Sequence[BodyAtom], subst: Mapping[Variable, Term]
) -> list[BodyAtom]:
    """Apply a substitution to a mixed body of relational and comparison atoms."""
    result: list[BodyAtom] = []
    for atom in body:
        if isinstance(atom, Atom):
            result.append(apply_substitution_atom(atom, subst))
        else:
            result.append(
                ComparisonAtom(
                    apply_substitution_term(atom.left, subst),
                    atom.op,
                    apply_substitution_term(atom.right, subst),
                )
            )
    return result


def compose(first: Mapping[Variable, Term], second: Mapping[Variable, Term]) -> Substitution:
    """Compose two substitutions: applying the result equals applying
    ``first`` then ``second``."""
    result: Substitution = {
        var: apply_substitution_term(term, second) for var, term in first.items()
    }
    for var, term in second.items():
        if var not in result:
            result[var] = term
    # Drop identity bindings for cleanliness.
    return {v: t for v, t in result.items() if t != v}


def _unify_into(left: Term, right: Term, subst: Substitution) -> bool:
    """Unify two terms under ``subst``, extending it in place; ``False`` if
    they are two distinct constants."""
    left = apply_substitution_term(left, subst)
    right = apply_substitution_term(right, subst)
    if left == right:
        return True
    if isinstance(left, Variable):
        subst[left] = right
    elif isinstance(right, Variable):
        subst[right] = left
    else:
        return False
    return True


def unify_terms(
    left: Term, right: Term, subst: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Unify two terms under an existing substitution.

    Returns the extended substitution, or ``None`` if unification fails
    (two distinct constants).
    """
    subst = dict(subst) if subst is not None else {}
    return subst if _unify_into(left, right, subst) else None


def unify_atoms(
    left: Atom, right: Atom, subst: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Compute a most general unifier of two relational atoms.

    Returns ``None`` if the predicates or arities differ or some argument
    pair cannot be unified.
    """
    if left.predicate != right.predicate or len(left.args) != len(right.args):
        return None
    # One copy for the whole atom; every argument pair extends it in place.
    current: Substitution = dict(subst) if subst is not None else {}
    for l_arg, r_arg in zip(left.args, right.args):
        if not _unify_into(l_arg, r_arg, current):
            return None
    return current


def match_atom(
    pattern: Atom, target: Atom, subst: Optional[Substitution] = None
) -> Optional[Substitution]:
    """One-way matching: bind only the *pattern's* variables.

    Succeeds iff there is a substitution ``θ`` extending ``subst`` such
    that ``pattern θ == target``.  Variables occurring in ``target`` are
    treated as constants (they may not be bound).
    """
    if pattern.predicate != target.predicate or pattern.arity != target.arity:
        return None
    result: Substitution = dict(subst) if subst is not None else {}
    for p_arg, t_arg in zip(pattern.args, target.args):
        p_val = apply_substitution_term(p_arg, result)
        if is_variable(p_val):
            result[p_val] = t_arg  # type: ignore[index]
        elif p_val != t_arg:
            return None
    return result


def rename_substitution(
    variables: Iterable[Variable], suffix: str
) -> Substitution:
    """Build a substitution renaming each variable by appending ``suffix``."""
    return {var: Variable(var.name + suffix) for var in variables}


def restrict(subst: Mapping[Variable, Term], variables: Iterable[Variable]) -> Substitution:
    """Restrict a substitution to a set of variables."""
    wanted = set(variables)
    return {v: t for v, t in subst.items() if v in wanted}


def is_variable_renaming(subst: Mapping[Variable, Term]) -> bool:
    """Return ``True`` iff the substitution is an injective map to variables."""
    values = list(subst.values())
    return all(is_variable(v) for v in values) and len(set(values)) == len(values)
