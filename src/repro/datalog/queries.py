"""Conjunctive queries, unions of conjunctive queries, and datalog rules.

The paper's formal setting is select-project-join queries with set
semantics, written as conjunctive queries (CQs):

    Q(X̅) :- R1(X̅1), ..., Rn(X̅n), c1, ..., cm

where the ``ci`` are optional comparison predicates.  A union of
conjunctive queries (UCQ) is a set of CQs with identically named,
same-arity heads.  Datalog rules share the CQ structure but are
interpreted as *definitional mappings* (Section 2.1.2) when their head
relations are peer relations.

These classes are immutable value objects; transformation helpers return
new queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Tuple, Union

from ..errors import MalformedQueryError
from .atoms import (
    Atom,
    BodyAtom,
    ComparisonAtom,
    atoms_variables,
    comparison_atoms,
    relational_atoms,
)
from .terms import Constant, FreshVariableFactory, Term, Variable, is_variable


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``head :- body``.

    Parameters
    ----------
    head:
        The head atom.  Its predicate is the query name; its arguments are
        the distinguished terms (variables or constants).
    body:
        Relational and comparison atoms, in order.

    Raises
    ------
    MalformedQueryError
        If a head *variable* does not appear in any relational body atom
        (the classical safety condition), or the body is empty of
        relational atoms while the head contains variables.
    """

    head: Atom
    body: Tuple[BodyAtom, ...]

    def __init__(self, head: Atom, body: Sequence[BodyAtom]):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        self._check_safety()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        head_args: Sequence[Union[Term, str, int, float]],
        body: Sequence[BodyAtom],
    ) -> "ConjunctiveQuery":
        """Build a CQ from a head name, head arguments, and a body."""
        return cls(Atom(name, head_args), body)

    @classmethod
    def trusted(cls, head: Atom, body: Tuple[BodyAtom, ...]) -> "ConjunctiveQuery":
        """Build a query whose safety the caller has already established.

        For internal callers that derive a query from a safe one (a
        substitution cannot make a safe query unsafe) or that have checked
        the safety condition themselves; ``body`` must be a tuple.  The
        result compares and hashes equal to ``cls(head, body)``.
        """
        query = object.__new__(cls)
        # A frozen dataclass only blocks ``__setattr__``.
        state = query.__dict__
        state["head"] = head
        state["body"] = body
        return query

    def _check_safety(self) -> None:
        body_vars = atoms_variables(self.relational_body())
        for var in self.head.variables():
            if var not in body_vars:
                raise MalformedQueryError(
                    f"unsafe query: head variable {var} of {self.head.predicate} "
                    f"does not occur in any relational body atom"
                )
        for comp in self.comparison_body():
            for var in comp.variables():
                if var not in body_vars:
                    raise MalformedQueryError(
                        f"unsafe query: comparison variable {var} in {comp} does not "
                        f"occur in any relational body atom"
                    )

    # -- accessors -------------------------------------------------------------

    @property
    def name(self) -> str:
        """The head predicate name."""
        return self.head.predicate

    @property
    def arity(self) -> int:
        """The head arity."""
        return self.head.arity

    def relational_body(self) -> list[Atom]:
        """Relational atoms of the body, in order."""
        return relational_atoms(self.body)

    def comparison_body(self) -> list[ComparisonAtom]:
        """Comparison atoms of the body, in order."""
        return comparison_atoms(self.body)

    def head_variables(self) -> list[Variable]:
        """Distinguished variables (head variables), in head order, no repeats."""
        seen: list[Variable] = []
        for var in self.head.variables():
            if var not in seen:
                seen.append(var)
        return seen

    def body_variables(self) -> frozenset[Variable]:
        """All variables occurring in the body."""
        return atoms_variables(self.body)

    def existential_variables(self) -> frozenset[Variable]:
        """Body variables that are not distinguished."""
        return self.body_variables() - frozenset(self.head_variables())

    def all_variables(self) -> frozenset[Variable]:
        """All variables occurring anywhere in the query."""
        return self.body_variables() | frozenset(self.head.variables())

    def predicates(self) -> frozenset[str]:
        """Names of relations used in the body."""
        return frozenset(a.predicate for a in self.relational_body())

    def has_comparisons(self) -> bool:
        """Return ``True`` iff the body contains comparison atoms."""
        return any(isinstance(a, ComparisonAtom) for a in self.body)

    def has_projection(self) -> bool:
        """Return ``True`` iff some body variable is not in the head.

        Theorem 3.2 of the paper distinguishes *projection-free* equality
        descriptions: those whose queries expose every body variable in
        the head.
        """
        return bool(self.existential_variables())

    def is_single_atom(self) -> bool:
        """Return ``True`` iff the body is a single relational atom and nothing else."""
        return len(self.body) == 1 and isinstance(self.body[0], Atom)

    # -- transformations -------------------------------------------------------

    def substitute(self, mapping: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to head and body (not capture-avoiding)."""
        return ConjunctiveQuery.trusted(
            self.head.substitute(mapping),
            tuple(a.substitute(mapping) for a in self.body),
        )

    def rename_apart(
        self, fresh: FreshVariableFactory, keep: Iterable[Variable] = ()
    ) -> "ConjunctiveQuery":
        """Rename all variables except ``keep`` to fresh ones.

        Used when a mapping body is inlined into a larger query and its
        existential variables must not collide with anything already
        present (paper, Section 4.2, definitional expansion).
        """
        keep_set = set(keep)
        mapping: dict[Variable, Term] = {}
        for var in sorted(self.all_variables()):
            if var not in keep_set:
                mapping[var] = fresh(var.name + "_")
        return self.substitute(mapping)

    def with_body(self, body: Sequence[BodyAtom]) -> "ConjunctiveQuery":
        """Return a copy of the query with a different body."""
        return ConjunctiveQuery(self.head, body)

    def with_head(self, head: Atom) -> "ConjunctiveQuery":
        """Return a copy of the query with a different head."""
        return ConjunctiveQuery(head, self.body)

    def add_body_atoms(self, atoms: Sequence[BodyAtom]) -> "ConjunctiveQuery":
        """Return a copy of the query with extra body atoms appended."""
        return ConjunctiveQuery(self.head, self.body + tuple(atoms))

    def freeze(self) -> "ConjunctiveQuery":
        """Return this query (CQs are already immutable); kept for API symmetry."""
        return self

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}" if body else f"{self.head} :- true"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self})"


@dataclass(frozen=True)
class UnionQuery:
    """A union of conjunctive queries with compatible heads.

    All disjuncts must share the same head predicate name and arity.  A
    UCQ with zero disjuncts is permitted and denotes the empty answer; its
    name/arity are recorded explicitly in that case.
    """

    name: str
    arity: int
    disjuncts: Tuple[ConjunctiveQuery, ...] = field(default=())

    def __init__(
        self,
        disjuncts: Sequence[ConjunctiveQuery] = (),
        name: str | None = None,
        arity: int | None = None,
    ):
        disjuncts = tuple(disjuncts)
        if disjuncts:
            inferred_name = disjuncts[0].name
            inferred_arity = disjuncts[0].arity
            for cq in disjuncts:
                if cq.name != inferred_name or cq.arity != inferred_arity:
                    raise MalformedQueryError(
                        "all disjuncts of a union query must share the same head "
                        f"name and arity; got {cq.name}/{cq.arity} vs "
                        f"{inferred_name}/{inferred_arity}"
                    )
            name = inferred_name if name is None else name
            arity = inferred_arity if arity is None else arity
        if name is None or arity is None:
            raise MalformedQueryError(
                "an empty union query must specify name and arity explicitly"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "disjuncts", disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def is_empty(self) -> bool:
        """Return ``True`` iff the union has no disjuncts."""
        return not self.disjuncts

    def predicates(self) -> frozenset[str]:
        """All body relation names used across disjuncts."""
        result: set[str] = set()
        for cq in self.disjuncts:
            result.update(cq.predicates())
        return frozenset(result)

    def add(self, cq: ConjunctiveQuery) -> "UnionQuery":
        """Return a new union with ``cq`` appended."""
        return UnionQuery(self.disjuncts + (cq,), name=self.name, arity=self.arity)

    def __str__(self) -> str:
        if not self.disjuncts:
            return f"{self.name}/{self.arity} :- false"
        return "\n".join(str(cq) for cq in self.disjuncts)

    def __repr__(self) -> str:
        return f"UnionQuery({len(self.disjuncts)} disjuncts of {self.name}/{self.arity})"


class DatalogRule(ConjunctiveQuery):
    """A datalog rule; structurally identical to a conjunctive query.

    The distinction is one of interpretation: a rule's head predicate is
    *defined* by the rule (possibly together with other rules sharing the
    head predicate), whereas a query's head predicate is the query name.
    """

    def __repr__(self) -> str:
        return f"DatalogRule({self})"


@dataclass(frozen=True)
class DatalogProgram:
    """A set of datalog rules plus a distinguished query predicate.

    The program may be recursive.  :mod:`repro.datalog.evaluation` runs
    semi-naive evaluation over an extensional database.
    """

    rules: Tuple[DatalogRule, ...]
    query_predicate: str

    def __init__(self, rules: Sequence[ConjunctiveQuery], query_predicate: str):
        converted = tuple(
            r if isinstance(r, DatalogRule) else DatalogRule(r.head, r.body)
            for r in rules
        )
        object.__setattr__(self, "rules", converted)
        object.__setattr__(self, "query_predicate", query_predicate)

    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by some rule head (intensional predicates)."""
        return frozenset(r.name for r in self.rules)

    def edb_predicates(self) -> frozenset[str]:
        """Predicates used in bodies but never defined (extensional predicates)."""
        idb = self.idb_predicates()
        result: set[str] = set()
        for rule in self.rules:
            result.update(p for p in rule.predicates() if p not in idb)
        return frozenset(result)

    def rules_for(self, predicate: str) -> list[DatalogRule]:
        """All rules whose head predicate is ``predicate``."""
        return [r for r in self.rules if r.name == predicate]

    def is_recursive(self) -> bool:
        """Return ``True`` iff the predicate dependency graph has a cycle."""
        idb = self.idb_predicates()
        edges: dict[str, set[str]] = {p: set() for p in idb}
        for rule in self.rules:
            edges[rule.name].update(p for p in rule.predicates() if p in idb)
        # Depth-first cycle detection.
        WHITE, GREY, BLACK = 0, 1, 2
        color = {p: WHITE for p in idb}

        def visit(node: str) -> bool:
            color[node] = GREY
            for succ in edges[node]:
                if color[succ] == GREY:
                    return True
                if color[succ] == WHITE and visit(succ):
                    return True
            color[node] = BLACK
            return False

        return any(color[p] == WHITE and visit(p) for p in idb)

    def __iter__(self) -> Iterator[DatalogRule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def head_atom(name: str, variables: Sequence[str]) -> Atom:
    """Convenience: build a head atom from a name and variable names."""
    return Atom(name, [Variable(v) for v in variables])


def make_chain_query(
    name: str,
    predicates: Sequence[str],
    fresh_prefix: str = "c",
) -> ConjunctiveQuery:
    """Build a *chain query* over ``predicates``.

    Chain queries are the mapping bodies used by the paper's workload
    generator (Section 5): ``Q(x0, xn) :- P1(x0, x1), P2(x1, x2), ...``.
    Each predicate is assumed binary.
    """
    if not predicates:
        raise MalformedQueryError("a chain query needs at least one predicate")
    variables = [Variable(f"{fresh_prefix}{i}") for i in range(len(predicates) + 1)]
    body = [
        Atom(pred, [variables[i], variables[i + 1]]) for i, pred in enumerate(predicates)
    ]
    head = Atom(name, [variables[0], variables[-1]])
    return ConjunctiveQuery(head, body)
