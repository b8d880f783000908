"""Homomorphism search between sets of atoms and between queries.

A *homomorphism* from a set of atoms ``A`` to a set of atoms ``B`` is a
mapping ``h`` from the variables of ``A`` to terms of ``B`` such that every
atom of ``A`` is mapped onto some atom of ``B`` (constants map to
themselves).  Query containment (Chandra–Merkurio 1977 style) reduces to
the existence of a *containment mapping*: a homomorphism from the body of
the containing query to the body of the contained query that maps head to
head.

This is the engine behind CQ containment and equivalence
(:mod:`repro.datalog.containment`).  The reformulation does not minimise
its rewritings; the test oracles build CQ minimization and the removal of
redundant rewritings (MiniCon, Bucket) on containment.

The search is a straightforward backtracking over candidate target atoms
per source atom, with the most-constrained-first atom ordering; bodies in
this domain are small (a handful of atoms) so this is plenty fast.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from .atoms import Atom
from .terms import Term, Variable, is_variable
from .unify import Substitution


def _order_atoms(atoms: Sequence[Atom]) -> List[Atom]:
    """Order atoms so that highly constrained ones (more constants, shared
    variables with earlier atoms) come first; a cheap heuristic that keeps
    the backtracking shallow."""
    remaining = list(atoms)
    ordered: List[Atom] = []
    bound_vars: set[Variable] = set()
    while remaining:
        def score(atom: Atom) -> tuple[int, int]:
            consts = sum(1 for a in atom.args if not is_variable(a))
            shared = sum(1 for a in atom.args if is_variable(a) and a in bound_vars)
            return (consts + shared, consts)

        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound_vars.update(best.variable_set())
    return ordered


def find_homomorphisms(
    source: Sequence[Atom],
    target: Sequence[Atom],
    seed: Optional[Mapping[Variable, Term]] = None,
) -> Iterator[Substitution]:
    """Yield every homomorphism from ``source`` atoms into ``target`` atoms.

    Candidate target atoms for each source atom are looked up in a
    positional index: every position of a source atom that holds a
    constant, or a variable already bound when the atom is reached in the
    search order, narrows the candidates to the target atoms carrying the
    required term at that position.  The search itself binds into a single
    mutable mapping with trail-based undo.

    Parameters
    ----------
    source:
        Atoms whose variables are to be mapped.
    target:
        Atoms that must cover the image of every source atom.
    seed:
        Optional partial mapping that every returned homomorphism must
        extend (used for containment mappings, where the head fixes part
        of the mapping).
    """
    ordered = _order_atoms(source)
    by_predicate: Dict[str, List[Atom]] = {}
    by_position: Dict[tuple[str, int, Term], List[Atom]] = {}
    for atom in target:
        by_predicate.setdefault(atom.predicate, []).append(atom)
        for pos, arg in enumerate(atom.args):
            by_position.setdefault((atom.predicate, pos, arg), []).append(atom)

    initial: Substitution = dict(seed) if seed else {}

    # Per ordered atom, precompute the probe positions whose target term is
    # known either statically (constants) or at search time (variables
    # bound by earlier atoms or by the seed).
    compiled: List[tuple[Atom, List[tuple[int, Term]], List[tuple[int, Variable]]]] = []
    bound_before: set[Variable] = set(initial)
    for atom in ordered:
        const_probes: List[tuple[int, Term]] = []
        var_probes: List[tuple[int, Variable]] = []
        for pos, arg in enumerate(atom.args):
            if is_variable(arg):
                if arg in bound_before:
                    var_probes.append((pos, arg))  # type: ignore[arg-type]
            else:
                const_probes.append((pos, arg))
        compiled.append((atom, const_probes, var_probes))
        bound_before.update(atom.variable_set())

    def candidates_for(
        atom: Atom,
        const_probes: List[tuple[int, Term]],
        var_probes: List[tuple[int, Variable]],
        mapping: Substitution,
    ) -> Sequence[Atom]:
        best: Optional[Sequence[Atom]] = None
        for pos, term in const_probes:
            bucket = by_position.get((atom.predicate, pos, term), ())
            if best is None or len(bucket) < len(best):
                best = bucket
        for pos, var in var_probes:
            bucket = by_position.get((atom.predicate, pos, mapping[var]), ())
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is None:
            return by_predicate.get(atom.predicate, ())
        return best

    mapping: Substitution = initial

    def backtrack(index: int) -> Iterator[Substitution]:
        if index == len(compiled):
            yield dict(mapping)
            return
        atom, const_probes, var_probes = compiled[index]
        for candidate in candidates_for(atom, const_probes, var_probes, mapping):
            if candidate.arity != atom.arity:
                continue
            added: List[Variable] = []
            ok = True
            for p_arg, t_arg in zip(atom.args, candidate.args):
                if is_variable(p_arg):
                    bound = mapping.get(p_arg)  # type: ignore[arg-type]
                    if bound is None:
                        mapping[p_arg] = t_arg  # type: ignore[index]
                        added.append(p_arg)  # type: ignore[arg-type]
                    elif bound != t_arg:
                        ok = False
                        break
                elif p_arg != t_arg:
                    ok = False
                    break
            if ok:
                yield from backtrack(index + 1)
            for var in added:
                del mapping[var]

    yield from backtrack(0)


def find_homomorphism(
    source: Sequence[Atom],
    target: Sequence[Atom],
    seed: Optional[Mapping[Variable, Term]] = None,
) -> Optional[Substitution]:
    """Return one homomorphism from ``source`` into ``target``, or ``None``."""
    return next(find_homomorphisms(source, target, seed), None)


def has_homomorphism(
    source: Sequence[Atom],
    target: Sequence[Atom],
    seed: Optional[Mapping[Variable, Term]] = None,
) -> bool:
    """Return ``True`` iff a homomorphism from ``source`` into ``target`` exists."""
    return find_homomorphism(source, target, seed) is not None


def head_seed(
    container_head: Atom, contained_head: Atom
) -> Optional[Substitution]:
    """Build the seed mapping required for a containment mapping.

    A containment mapping from query ``Q1`` (container) to ``Q2``
    (contained) must map the head of ``Q1`` onto the head of ``Q2``
    argument-by-argument.  Returns ``None`` if the heads are incompatible
    (different arity, or a constant mismatch).
    """
    if container_head.arity != contained_head.arity:
        return None
    seed: Substitution = {}
    for c_arg, d_arg in zip(container_head.args, contained_head.args):
        if is_variable(c_arg):
            bound = seed.get(c_arg)  # type: ignore[arg-type]
            if bound is None:
                seed[c_arg] = d_arg  # type: ignore[index]
            elif bound != d_arg:
                return None
        else:
            if c_arg != d_arg:
                return None
    return seed
