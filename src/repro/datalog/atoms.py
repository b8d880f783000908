"""Atoms: relational atoms and comparison atoms.

A *relational atom* ``R(t1, ..., tk)`` pairs a predicate name with a tuple
of terms.  Predicate names in a PDMS are qualified as
``peer_name:relation_name`` (the paper's ``H:Doctor`` syntax); the atom
itself treats the name as an opaque string, and :mod:`repro.pdms` layers
the peer/relation split on top.

A *comparison atom* ``x < 5`` or ``x = y`` relates two terms with one of
the operators ``=, !=, <, <=, >, >=``.  The paper's queries "do not contain
comparison predicates" unless explicitly allowed, but peer mappings and
storage descriptions may use them (Theorem 3.3), so the data model carries
them throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .terms import Constant, Term, Variable, is_variable, term_from_python

#: Comparison operators supported in comparison atoms.
COMPARISON_OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

_OPERATOR_FUNCS: Mapping[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Operator obtained by swapping the two sides of a comparison.
FLIPPED_OPERATOR: Mapping[str, str] = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}

#: Operator expressing the negation of a comparison.
NEGATED_OPERATOR: Mapping[str, str] = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


@dataclass(frozen=True)
class Atom:
    """A relational atom ``predicate(args...)``.

    Parameters
    ----------
    predicate:
        Relation name.  In a PDMS this is a fully qualified name such as
        ``"H:Doctor"`` or a stored-relation name such as ``"doc"``.
    args:
        Tuple of terms.
    """

    predicate: str
    args: Tuple[Term, ...]

    def __init__(self, predicate: str, args: Sequence[Union[Term, str, int, float]]):
        if not predicate:
            raise ValueError("atom predicate must be non-empty")
        coerced = tuple(
            arg if isinstance(arg, (Variable, Constant)) else term_from_python(arg)
            for arg in args
        )
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", coerced)
        # Atoms are hashed heavily (MCD memoization, homomorphism indexes,
        # unification tables); term hashes are themselves cached, so this
        # one-off tuple hash is cheap.
        object.__setattr__(self, "_hash", hash((predicate, coerced)))

    @classmethod
    def trusted(cls, predicate: str, args: Tuple[Term, ...]) -> "Atom":
        """Build an atom from a non-empty predicate and a tuple of terms.

        For internal callers whose arguments already are terms (the
        reformulation builds hundreds of thousands of atoms out of parts
        of existing ones); nothing is validated or coerced.  The result
        compares and hashes equal to ``Atom(predicate, args)``.
        """
        atom = object.__new__(cls)
        # A frozen dataclass only blocks ``__setattr__``.
        state = atom.__dict__
        state["predicate"] = predicate
        state["args"] = args
        state["_hash"] = hash((predicate, args))
        return atom

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    def variables(self) -> Iterator[Variable]:
        """Yield the variables among the arguments, left to right (with repeats)."""
        for arg in self.args:
            if isinstance(arg, Variable):
                yield arg

    def variable_set(self) -> frozenset[Variable]:
        """Return the set of distinct variables in the atom (computed once)."""
        try:
            return self._variable_set  # type: ignore[attr-defined]
        except AttributeError:
            variables = frozenset(a for a in self.args if isinstance(a, Variable))
            self.__dict__["_variable_set"] = variables
            return variables

    def constants(self) -> Iterator[Constant]:
        """Yield the constants among the arguments, left to right (with repeats)."""
        for arg in self.args:
            if isinstance(arg, Constant):
                yield arg

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Return a copy of the atom with variables replaced per ``mapping``.

        Variables not present in ``mapping`` are left unchanged; when no
        argument changes the atom itself is returned.
        """
        if not mapping:
            return self
        args = tuple(
            mapping.get(a, a) if isinstance(a, Variable) else a for a in self.args
        )
        if args == self.args:
            return self
        return Atom(self.predicate, args)

    def rename_predicate(self, new_predicate: str) -> "Atom":
        """Return the same atom under a different predicate name."""
        return Atom(new_predicate, self.args)

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"Atom({self})"


@dataclass(frozen=True)
class ComparisonAtom:
    """A comparison predicate ``left op right``.

    ``op`` is one of ``=, !=, <, <=, >, >=``.  Either side may be a
    variable or a constant.  A comparison between two constants is allowed
    and evaluates to a fixed truth value.
    """

    left: Term
    op: str
    right: Term

    def __init__(
        self,
        left: Union[Term, str, int, float],
        op: str,
        right: Union[Term, str, int, float],
    ):
        if op not in COMPARISON_OPERATORS:
            raise ValueError(f"unknown comparison operator {op!r}")
        object.__setattr__(self, "left", _coerce(left))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "right", _coerce(right))
        object.__setattr__(self, "_hash", hash((self.left, op, self.right)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def variables(self) -> Iterator[Variable]:
        """Yield the variables occurring in the comparison."""
        for side in (self.left, self.right):
            if is_variable(side):
                yield side  # type: ignore[misc]

    def variable_set(self) -> frozenset[Variable]:
        """Return the set of distinct variables in the comparison."""
        return frozenset(self.variables())

    def substitute(self, mapping: Mapping[Variable, Term]) -> "ComparisonAtom":
        """Return a copy with variables replaced per ``mapping`` (the atom
        itself when neither side changes)."""
        left = mapping.get(self.left, self.left) if is_variable(self.left) else self.left
        right = (
            mapping.get(self.right, self.right) if is_variable(self.right) else self.right
        )
        if left is self.left and right is self.right:
            return self
        return ComparisonAtom(left, self.op, right)

    def flipped(self) -> "ComparisonAtom":
        """Return the equivalent comparison with sides swapped."""
        return ComparisonAtom(self.right, FLIPPED_OPERATOR[self.op], self.left)

    def negated(self) -> "ComparisonAtom":
        """Return the comparison expressing the negation of this one."""
        return ComparisonAtom(self.left, NEGATED_OPERATOR[self.op], self.right)

    def is_ground(self) -> bool:
        """Return ``True`` iff both sides are constants."""
        return isinstance(self.left, Constant) and isinstance(self.right, Constant)

    def evaluate_ground(self) -> bool:
        """Evaluate a ground comparison; raises if not ground."""
        if not self.is_ground():
            raise ValueError(f"comparison {self} is not ground")
        assert isinstance(self.left, Constant) and isinstance(self.right, Constant)
        return compare_values(self.left.value, self.op, self.right.value)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"

    def __repr__(self) -> str:
        return f"ComparisonAtom({self})"


#: Either kind of atom can appear in a query body.
BodyAtom = Union[Atom, ComparisonAtom]


def _coerce(value: Union[Term, str, int, float]) -> Term:
    if isinstance(value, (Variable, Constant)):
        return value
    return term_from_python(value)


def compare_values(left: object, op: str, right: object) -> bool:
    """Compare two Python values under a comparison operator.

    Values of incomparable types (e.g. a string and an int under ``<``)
    are compared by type name first so that comparisons are total; for
    ``=`` / ``!=`` plain equality is used.
    """
    func = _OPERATOR_FUNCS[op]
    if op in ("=", "!="):
        return func(left, right)
    try:
        return func(left, right)
    except TypeError:
        return func((type(left).__name__, str(left)), (type(right).__name__, str(right)))


def atoms_variables(atoms: Iterable[BodyAtom]) -> frozenset[Variable]:
    """Return all distinct variables occurring in ``atoms``."""
    result: set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables())
    return frozenset(result)


def relational_atoms(atoms: Iterable[BodyAtom]) -> list[Atom]:
    """Return only the relational atoms from a mixed body."""
    return [a for a in atoms if isinstance(a, Atom)]


def comparison_atoms(atoms: Iterable[BodyAtom]) -> list[ComparisonAtom]:
    """Return only the comparison atoms from a mixed body."""
    return [a for a in atoms if isinstance(a, ComparisonAtom)]
