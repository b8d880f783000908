"""Constraint conjunctions of comparison predicates.

Section 4.2 of the paper attaches to each rule-goal-tree node a
*constraint label* ``c(n)``: the conjunction of comparison predicates known
to hold over the variables of the node's label.  The algorithm needs three
operations on such conjunctions:

* **satisfiability** — "we do not expand a node in the tree if its label is
  not satisfiable";
* **conjunction / propagation** — when a node is expanded with a
  definitional mapping ``r`` carrying comparisons ``c1 ∧ ... ∧ cm``, the
  child label is ``c(n) ∧ c1 ∧ ... ∧ cm``;
* **projection** onto the variables of a child node — the paper's footnote 3
  notes the exact projection may be a disjunction and allows approximating
  it with "the least subsuming conjunction", which is what we do.

We implement a sound and complete satisfiability test for conjunctions of
``=, !=, <, <=, >, >=`` atoms over a dense totally ordered domain (numbers;
strings are ordered lexicographically and kept in a separate stratum), via
the classical approach: build equality classes (union-find), collapse, then
check the strict/non-strict ordering graph for cycles containing a strict
edge, and finally check ``!=`` atoms and constant bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .atoms import ComparisonAtom, compare_values
from .terms import Constant, Term, Variable, is_variable


class _UnionFind:
    """Minimal union-find over hashable items."""

    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}

    def find(self, item: object) -> object:
        parent = self._parent.setdefault(item, item)
        if parent is item or parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


@dataclass(frozen=True)
class ConstraintSet:
    """An immutable conjunction of comparison atoms.

    The empty conjunction is ``True``.  Use :meth:`conjoin` to add atoms,
    :meth:`is_satisfiable` to test consistency, :meth:`project` to
    restrict to a variable set (least subsuming conjunction), and
    :meth:`implies` for entailment of a single comparison.
    """

    atoms: Tuple[ComparisonAtom, ...] = field(default=())

    def __init__(self, atoms: Iterable[ComparisonAtom] = ()):
        # Normalise: drop exact duplicates, keep order otherwise.
        seen: set[ComparisonAtom] = set()
        unique: List[ComparisonAtom] = []
        for atom in atoms:
            if atom not in seen:
                seen.add(atom)
                unique.append(atom)
        object.__setattr__(self, "atoms", tuple(unique))

    # -- basic protocol --------------------------------------------------------

    def __iter__(self) -> Iterator[ComparisonAtom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def is_trivially_true(self) -> bool:
        """Return ``True`` iff the conjunction has no atoms."""
        return not self.atoms

    def variables(self) -> FrozenSet[Variable]:
        """All variables mentioned by the conjunction."""
        result: set[Variable] = set()
        for atom in self.atoms:
            result.update(atom.variables())
        return frozenset(result)

    # -- construction ----------------------------------------------------------

    def conjoin(self, extra: Iterable[ComparisonAtom] | "ConstraintSet") -> "ConstraintSet":
        """Return the conjunction of this set with ``extra``.

        Conjoining with the empty conjunction returns the other operand
        itself, so labels without comparisons are shared, not rebuilt.
        """
        extra_atoms = extra.atoms if isinstance(extra, ConstraintSet) else tuple(extra)
        if not extra_atoms:
            return self
        if not self.atoms and isinstance(extra, ConstraintSet):
            return extra
        return ConstraintSet(self.atoms + extra_atoms)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "ConstraintSet":
        """Apply a substitution to every comparison atom."""
        return ConstraintSet(tuple(a.substitute(mapping) for a in self.atoms))

    # -- satisfiability --------------------------------------------------------

    def is_satisfiable(self) -> bool:
        """Decide satisfiability over a dense ordered domain.

        Ground comparisons are evaluated outright.  Equalities merge
        variables/constants into classes; two distinct constants in one
        class are a contradiction.  Then a directed graph with edges
        ``a -> b`` for ``a <= b`` (weight 0) and ``a < b`` (weight 1) is
        checked: a cycle containing a strict edge is a contradiction, and
        ``!=`` within one equality class is a contradiction.  Finally the
        interval of every class implied by constant bounds must be
        non-empty.  The verdict is computed once per (immutable) set.
        """
        try:
            return self._satisfiable  # type: ignore[attr-defined]
        except AttributeError:
            verdict = not self.atoms or self._decide_satisfiable()
            self.__dict__["_satisfiable"] = verdict
            return verdict

    def _decide_satisfiable(self) -> bool:
        uf = _UnionFind()
        strict_edges: List[Tuple[object, object]] = []     # a < b
        nonstrict_edges: List[Tuple[object, object]] = []  # a <= b
        disequalities: List[Tuple[object, object]] = []

        def key(term: Term) -> object:
            if isinstance(term, Constant):
                return ("const", term.value)
            return ("var", term.name)

        for atom in self.atoms:
            if atom.is_ground():
                if not atom.evaluate_ground():
                    return False
                continue
            left, right = key(atom.left), key(atom.right)
            if atom.op == "=":
                uf.union(left, right)
            elif atom.op == "!=":
                disequalities.append((left, right))
            elif atom.op == "<":
                strict_edges.append((left, right))
            elif atom.op == "<=":
                nonstrict_edges.append((left, right))
            elif atom.op == ">":
                strict_edges.append((right, left))
            elif atom.op == ">=":
                nonstrict_edges.append((right, left))

        # Collect every node, including constants, before collapsing classes.
        nodes: set[object] = set()
        for a, b in strict_edges + nonstrict_edges + disequalities:
            nodes.add(a)
            nodes.add(b)
        for atom in self.atoms:
            if not atom.is_ground():
                nodes.add(key(atom.left))
                nodes.add(key(atom.right))

        # Two different constants in the same equality class -> unsat.
        class_constant: Dict[object, object] = {}
        for node in nodes:
            root = uf.find(node)
            if isinstance(node, tuple) and node[0] == "const":
                existing = class_constant.get(root, _MISSING)
                if existing is not _MISSING and existing != node[1]:
                    return False
                class_constant[root] = node[1]

        # Build the ordering graph over equality-class representatives and
        # compute its transitive closure, tracking whether some path uses a
        # strict edge.  The graphs produced by reformulation labels are tiny
        # (a handful of variables), so Floyd–Warshall is perfectly adequate.
        reps = sorted({uf.find(n) for n in nodes}, key=repr)
        rep_index = {rep: i for i, rep in enumerate(reps)}
        size = len(reps)
        NO, WEAK, STRICT = 0, 1, 2
        reach = [[NO] * size for _ in range(size)]

        def add_edge(a: object, b: object, strict: bool) -> None:
            i, j = rep_index[uf.find(a)], rep_index[uf.find(b)]
            reach[i][j] = max(reach[i][j], STRICT if strict else WEAK)

        for a, b in nonstrict_edges:
            add_edge(a, b, strict=False)
        for a, b in strict_edges:
            add_edge(a, b, strict=True)

        for k in range(size):
            for i in range(size):
                if reach[i][k] == NO:
                    continue
                for j in range(size):
                    if reach[k][j] == NO:
                        continue
                    combined = STRICT if STRICT in (reach[i][k], reach[k][j]) else WEAK
                    reach[i][j] = max(reach[i][j], combined)

        # A strict path from a class to itself means x < x: unsatisfiable.
        for i in range(size):
            if reach[i][i] == STRICT:
                return False

        # Ordering paths between constant-valued classes must agree with the
        # actual constant order (this catches e.g.  x < 5 together with x > 7,
        # where 7 reaches 5 through the class of x).
        for i in range(size):
            const_a = class_constant.get(reps[i], _MISSING)
            if const_a is _MISSING:
                continue
            for j in range(size):
                if reach[i][j] == NO or i == j:
                    continue
                const_b = class_constant.get(reps[j], _MISSING)
                if const_b is _MISSING:
                    continue
                op = "<" if reach[i][j] == STRICT else "<="
                if not compare_values(const_a, op, const_b):
                    return False

        # Disequality within a single class -> unsat; two classes ordered in
        # both directions (hence forced equal) with a disequality -> unsat.
        for a, b in disequalities:
            ra, rb = uf.find(a), uf.find(b)
            if ra == rb:
                return False
            i, j = rep_index[ra], rep_index[rb]
            if reach[i][j] == WEAK and reach[j][i] == WEAK:
                return False
        return True

    # -- projection and entailment ---------------------------------------------

    def project(self, variables: Iterable[Variable]) -> "ConstraintSet":
        """Project onto ``variables`` (least subsuming conjunction).

        We keep every atom whose variables are all within ``variables``
        (constants are always allowed), plus atoms derivable by one step of
        transitivity through an eliminated variable (e.g. from ``x < y`` and
        ``y < 5`` with ``y`` eliminated we keep ``x < 5``).  This
        over-approximates the true projection, which is exactly what the
        paper's footnote 3 permits.
        """
        if not self.atoms:
            return self
        keep = set(variables)

        def visible(atom: ComparisonAtom) -> bool:
            return all(v in keep for v in atom.variables())

        kept = [a for a in self.atoms if visible(a)]

        # One-step transitive closure through eliminated variables.
        hidden_atoms = [a for a in self.atoms if not visible(a)]
        derived: List[ComparisonAtom] = []
        order_ops = {"<", "<=", "="}
        for first in hidden_atoms:
            for second in hidden_atoms:
                if first is second:
                    continue
                chained = _chain(first, second, order_ops)
                if chained is not None and visible(chained):
                    derived.append(chained)
        return ConstraintSet(tuple(kept) + tuple(derived))

    def implies(self, atom: ComparisonAtom) -> bool:
        """Return ``True`` iff this conjunction entails ``atom``.

        Uses refutation: the conjunction entails ``atom`` iff conjunction
        ∧ ¬atom is unsatisfiable.
        """
        if not self.is_satisfiable():
            return True
        return not self.conjoin([atom.negated()]).is_satisfiable()

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return " ∧ ".join(str(a) for a in self.atoms)

    def __repr__(self) -> str:
        return f"ConstraintSet({self})"


class _Missing:
    """Sentinel distinct from any constant value."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()


def _chain(
    first: ComparisonAtom, second: ComparisonAtom, order_ops: set
) -> Optional[ComparisonAtom]:
    """One step of transitive chaining: from ``a op1 b`` and ``b op2 c``
    derive ``a op c`` where ``op`` is the stricter of the two order
    operators.  Only handles <, <=, = chains (sufficient for projection
    approximation)."""
    def normalise(atom: ComparisonAtom) -> Optional[Tuple[Term, str, Term]]:
        if atom.op in ("<", "<=", "="):
            return (atom.left, atom.op, atom.right)
        if atom.op in (">", ">="):
            flipped = atom.flipped()
            return (flipped.left, flipped.op, flipped.right)
        return None

    n1 = normalise(first)
    n2 = normalise(second)
    if n1 is None or n2 is None:
        return None
    a, op1, b = n1
    b2, op2, c = n2
    if b != b2 or not isinstance(b, Variable):
        return None
    if op1 not in order_ops or op2 not in order_ops:
        return None
    if "<" in (op1, op2):
        op = "<"
    elif op1 == "=" and op2 == "=":
        op = "="
    else:
        op = "<="
    if a == c:
        return None
    return ComparisonAtom(a, op, c)


def constraints_of(atoms: Iterable[ComparisonAtom]) -> ConstraintSet:
    """Convenience constructor mirroring :class:`ConstraintSet`."""
    return ConstraintSet(atoms)
