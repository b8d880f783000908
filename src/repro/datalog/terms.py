"""Terms of the conjunctive-query / datalog language.

A *term* is either a :class:`Variable` or a :class:`Constant`.  Terms are
immutable, hashable value objects: two variables with the same name are the
same variable, and two constants with the same value are the same constant.

The paper's notation uses lowercase identifiers for variables and quoted
strings / numbers for constants (e.g. ``SkilledPerson(PID, "Doctor")``);
:mod:`repro.datalog.parser` follows that convention.

A :class:`FreshVariableFactory` hands out variables that are guaranteed not
to collide with a given set of existing names; the reformulation algorithm
uses it when renaming mapping bodies apart (Section 4.2, Step 2 of the
paper: "Existential variables ... should be renamed so they are fresh
variables that do not occur anywhere else in the tree").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union


@dataclass(frozen=True, order=True)
class Variable:
    """A logical variable, identified by its name.

    Parameters
    ----------
    name:
        Variable name.  Names are case-sensitive; the parser maps
        identifiers starting with a letter or underscore to variables.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")
        # Variables are rehashed constantly (substitutions, MCD memoization,
        # binding dictionaries); cache the hash once at construction.  The
        # "var" tag keeps Variable("x") and Constant("x") from colliding.
        object.__setattr__(self, "_hash", hash(("var", self.name)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"?{self.name}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant:
    """A constant value (string, int, or float).

    Constants compare equal iff their values are equal and of compatible
    types (Python equality).  Strings and numbers are both supported since
    comparison predicates in the paper range over ordered domains.
    """

    value: Union[str, int, float]

    def __post_init__(self) -> None:
        # Cached hash; ``hash(1) == hash(1.0)`` so the cache stays consistent
        # with dataclass equality across int/float constants.
        object.__setattr__(self, "_hash", hash(("const", self.value)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return repr(self.value)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


#: A term is either a variable or a constant.
Term = Union[Variable, Constant]


def is_variable(term: Term) -> bool:
    """Return ``True`` iff ``term`` is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """Return ``True`` iff ``term`` is a :class:`Constant`."""
    return isinstance(term, Constant)


def term_from_python(value: Union[Term, str, int, float]) -> Term:
    """Coerce a Python value into a :class:`Term`.

    Strings are treated as *constants* here — use :class:`Variable`
    explicitly (or the parser) when you mean a variable.  Existing terms
    pass through unchanged.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean constants are not supported")
    if isinstance(value, (str, int, float)):
        return Constant(value)
    raise TypeError(f"cannot convert {value!r} to a term")


class FreshVariableFactory:
    """Produce variables guaranteed not to collide with known names.

    The factory remembers every name it has seen (either because it was
    registered via :meth:`reserve` or because the factory produced it) and
    never returns the same name twice.

    Examples
    --------
    >>> fresh = FreshVariableFactory(prefix="v")
    >>> fresh.reserve(["v0", "x"])
    >>> fresh()
    ?v1
    >>> fresh()
    ?v2
    """

    def __init__(self, prefix: str = "_v", used: Iterable[str] = (), start: int = 0) -> None:
        self._prefix = prefix
        self._used: set[str] = set(used)
        self._position = start

    @property
    def position(self) -> int:
        """The number the next fresh name is tried with.

        A name is its stem followed by this number, so while no stem ends
        in a digit, a factory started at another one's ``position``
        (``start=``) never produces a name that one already produced.
        """
        return self._position

    def reserve(self, names: Iterable[str]) -> None:
        """Mark ``names`` as already in use."""
        self._used.update(names)

    def reserve_from_terms(self, terms: Iterable[Term]) -> None:
        """Reserve the names of all variables appearing in ``terms``."""
        self._used.update(t.name for t in terms if isinstance(t, Variable))

    def __call__(self, hint: str | None = None) -> Variable:
        """Return a fresh variable.

        Parameters
        ----------
        hint:
            Optional readable stem; the fresh name will start with it.
        """
        stem = hint if hint is not None else self._prefix
        used, position = self._used, self._position
        while True:
            name = f"{stem}{position}"
            position += 1
            if name not in used:
                self._position = position
                used.add(name)
                return Variable(name)

    def fresh_many(self, count: int, hint: str | None = None) -> list[Variable]:
        """Return ``count`` distinct fresh variables."""
        return [self(hint) for _ in range(count)]
