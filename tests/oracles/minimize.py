"""Conjunctive-query minimization (computing the core).

A CQ is *minimal* if no body atom can be removed while preserving
equivalence.  The reformulation does not minimise its rewritings, so
nothing in the library computes a core; the containment properties use
this one (a core is contained in its query both ways and answers the same
over any instance).

The algorithm is the textbook one: repeatedly try to drop a relational
body atom and check that the smaller query still contains the original
(the other direction is automatic since dropping atoms only enlarges the
result).  Comparison atoms referring only to variables that disappeared
are dropped as well.
"""

from __future__ import annotations

from repro.datalog.atoms import Atom, atoms_variables
from repro.datalog.containment import is_contained_in
from repro.datalog.queries import ConjunctiveQuery


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Return an equivalent minimal conjunctive query (a core of ``query``).

    The result uses a subset of the original body atoms; head and variable
    names are preserved.  The procedure is deterministic (atoms are
    considered in body order).
    """
    current = list(query.body)
    changed = True
    while changed:
        changed = False
        for index, atom in enumerate(current):
            if not isinstance(atom, Atom):
                continue
            candidate_body = current[:index] + current[index + 1 :]
            candidate_relational = [a for a in candidate_body if isinstance(a, Atom)]
            if not candidate_relational:
                continue
            # Head variables must remain safe.
            remaining_vars = atoms_variables(candidate_relational)
            if any(v not in remaining_vars for v in query.head.variables()):
                continue
            # Comparisons must remain safe too; drop those that are not.
            pruned_body = [
                a
                for a in candidate_body
                if isinstance(a, Atom)
                or all(v in remaining_vars for v in a.variables())
            ]
            try:
                candidate = ConjunctiveQuery(query.head, pruned_body)
            except Exception:  # pragma: no cover - safety net
                continue
            if is_contained_in(candidate, query):
                current = pruned_body
                changed = True
                break
    return ConjunctiveQuery(query.head, current)


def is_minimal(query: ConjunctiveQuery) -> bool:
    """Return ``True`` iff no relational body atom can be dropped."""
    return len(minimize(query).relational_body()) == len(query.relational_body())
