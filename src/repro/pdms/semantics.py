"""Certain-answer semantics for PPL: consistency checking and a chase oracle.

Two pieces live here:

* :func:`is_consistent` implements Definition 2.1 literally: given a data
  instance assigning tuples to *every* relation (peer and stored), check
  that each storage description and peer mapping holds.

* :func:`certain_answers` is a ground-truth oracle used to validate the
  reformulation algorithm on small inputs.  It builds a canonical instance
  by chasing the storage descriptions and peer mappings with labelled
  nulls (Skolem values), evaluates the query over it, and keeps the
  null-free answers.  For the tractable PPL fragment of Theorem 3.2 — the
  fragment on which the paper's algorithm is complete — this yields
  exactly the certain answers of Definition 2.2.  Cyclic mappings with
  existential variables can keep the chase minting labelled nulls forever;
  a chase that reaches no fixpoint within ``max_rounds`` rounds raises
  :class:`~repro.errors.EvaluationError` rather than answer from a
  truncated instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..database.instance import Instance
from ..datalog.atoms import Atom
from ..datalog.evaluation import FactsLike, as_fact_source, evaluate_query
from ..datalog.queries import ConjunctiveQuery
from ..datalog.terms import Constant, Variable, is_variable
from ..errors import EvaluationError
from .mappings import (
    DefinitionalMapping,
    EqualityMapping,
    InclusionMapping,
    StorageDescription,
)
from .system import PDMS

Row = Tuple[object, ...]


@dataclass(frozen=True)
class SkolemValue:
    """A labelled null: the value of an existential for one chase step.

    ``function`` identifies the description and existential variable;
    ``args`` is the tuple of head values the Skolem term depends on.
    """

    function: str
    args: Tuple[object, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.function}({inner})"


def contains_skolem(row: Sequence[object]) -> bool:
    """Return ``True`` iff any position of the row is a labelled null."""
    return any(isinstance(value, SkolemValue) for value in row)


# ---------------------------------------------------------------------------
# Definition 2.1: consistency of a data instance
# ---------------------------------------------------------------------------

def is_consistent(pdms: PDMS, instance: FactsLike) -> bool:
    """Check Definition 2.1: is ``instance`` consistent with the PDMS?

    ``instance`` must assign tuples to both stored and peer relations
    (peer relations it does not mention are treated as empty).
    """
    source = as_fact_source(instance)

    def rows(query: ConjunctiveQuery) -> Set[Row]:
        return evaluate_query(query, source)

    for description in pdms.storage_descriptions():
        stored_rows = set(map(tuple, source.get_tuples(description.relation)))
        query_rows = rows(description.query)
        if description.exact:
            if stored_rows != query_rows:
                return False
        else:
            if not stored_rows <= query_rows:
                return False

    definitional_by_head: Dict[str, List[DefinitionalMapping]] = {}
    for mapping in pdms.peer_mappings():
        if isinstance(mapping, InclusionMapping):
            if not rows(mapping.left) <= rows(mapping.right):
                return False
        elif isinstance(mapping, EqualityMapping):
            if rows(mapping.left) != rows(mapping.right):
                return False
        elif isinstance(mapping, DefinitionalMapping):
            definitional_by_head.setdefault(mapping.head_predicate, []).append(mapping)

    for head_predicate, mappings in definitional_by_head.items():
        derived: Set[Row] = set()
        for mapping in mappings:
            derived |= rows(
                ConjunctiveQuery(mapping.rule.head, mapping.rule.body)
            )
        actual = set(map(tuple, source.get_tuples(head_predicate)))
        if actual != derived:
            return False
    return True


# ---------------------------------------------------------------------------
# Chase-based certain-answer oracle
# ---------------------------------------------------------------------------

def _instantiate(
    atom: Atom, binding: Mapping[Variable, object]
) -> Optional[Tuple[str, Row]]:
    """Ground an atom under a binding; returns ``None`` on a constant clash."""
    values: List[object] = []
    for arg in atom.args:
        if is_variable(arg):
            values.append(binding[arg])  # type: ignore[index]
        else:
            assert isinstance(arg, Constant)
            values.append(arg.value)
    return atom.predicate, tuple(values)


def _chase_step_from_view(
    target_query: ConjunctiveQuery,
    head_row: Row,
    skolem_prefix: str,
    instance: Instance,
) -> bool:
    """Add ``target_query``'s body facts for one head row; returns True if new facts appeared."""
    binding: Dict[Variable, object] = {}
    for arg, value in zip(target_query.head.args, head_row):
        if is_variable(arg):
            existing = binding.get(arg)  # type: ignore[arg-type]
            if existing is not None and existing != value:
                return False
            binding[arg] = value  # type: ignore[index]
        else:
            assert isinstance(arg, Constant)
            if arg.value != value:
                return False
    for existential in sorted(target_query.existential_variables()):
        binding[existential] = SkolemValue(
            f"{skolem_prefix}_{existential.name}", head_row
        )
    added = False
    for atom in target_query.relational_body():
        grounded = _instantiate(atom, binding)
        if grounded is None:
            continue
        predicate, row = grounded
        # An instance's get_tuples is its live row set: probe it, no copy.
        if row not in instance.get_tuples(predicate):
            instance.add(predicate, row)
            added = True
    return added


def build_canonical_instance(
    pdms: PDMS, stored_data: FactsLike, max_rounds: int = 64
) -> Instance:
    """Chase the PDMS descriptions over the stored data.

    Returns an instance over stored *and* peer relations whose unknown
    values are labelled nulls.  The chase fires every storage description
    once per stored tuple and every inclusion/equality/definitional
    mapping to fixpoint.  A chase still adding facts after ``max_rounds``
    rounds raises :class:`EvaluationError`: its instance would be cut off
    at an arbitrary point.
    """
    source = as_fact_source(stored_data)
    canonical = Instance()

    # Copy the stored data itself.
    for relation in pdms.stored_relation_names():
        for row in source.get_tuples(relation):
            canonical.add(relation, row)

    # Storage descriptions: D(R) ⊆ Q(I) — every stored tuple implies the
    # existence of matching peer-relation facts.
    for description in pdms.storage_descriptions():
        for row in source.get_tuples(description.relation):
            _chase_step_from_view(
                description.query, tuple(row), f"sk_{description.name}", canonical
            )

    # Peer mappings, to fixpoint.
    inclusion_like: List[Tuple[str, ConjunctiveQuery, ConjunctiveQuery]] = []
    definitional: List[DefinitionalMapping] = []
    for mapping in pdms.peer_mappings():
        if isinstance(mapping, InclusionMapping):
            inclusion_like.append((mapping.name, mapping.left, mapping.right))
        elif isinstance(mapping, EqualityMapping):
            forward, backward = mapping.as_inclusions()
            inclusion_like.append((forward.name, forward.left, forward.right))
            inclusion_like.append((backward.name, backward.left, backward.right))
        elif isinstance(mapping, DefinitionalMapping):
            definitional.append(mapping)

    fired: Dict[str, Set[Row]] = {name: set() for name, _, _ in inclusion_like}

    for _ in range(max_rounds):
        changed = False

        # Definitional mappings: body(I) ⊆ head(I).
        for mapping in definitional:
            head_atom = mapping.rule.head
            derived = evaluate_query(
                ConjunctiveQuery(head_atom, mapping.rule.body), canonical
            )
            existing = set(canonical.get_tuples(head_atom.predicate))
            for row in derived - existing:
                canonical.add(head_atom.predicate, row)
                changed = True

        # Inclusion mappings: Q1(I) ⊆ Q2(I) — fire a TGD-style chase step
        # once per (mapping, head-row) pair.
        for name, left, right in inclusion_like:
            left_rows = evaluate_query(left, canonical)
            for row in left_rows:
                if row in fired[name]:
                    continue
                fired[name].add(row)
                if _chase_step_from_view(right, row, f"sk_{name}", canonical):
                    changed = True

        if not changed:
            return canonical
    raise EvaluationError(
        f"the chase reached no fixpoint within max_rounds={max_rounds} rounds "
        "(a cyclic mapping keeps minting labelled nulls)"
    )


def certain_answers(
    pdms: PDMS,
    query: ConjunctiveQuery,
    stored_data: FactsLike,
    max_rounds: int = 64,
) -> Set[Row]:
    """Certain answers of ``query`` (Definition 2.2) via the canonical chase.

    Exact for the tractable fragment (acyclic inclusions, projection-free
    equalities, definitional mappings, comparisons only in storage
    descriptions / definitional bodies).  Outside it the chase may not
    terminate; when it reaches no fixpoint within ``max_rounds`` rounds
    this raises :class:`EvaluationError` instead of returning answers of
    a truncated instance.
    """
    canonical = build_canonical_instance(pdms, stored_data, max_rounds=max_rounds)
    answers = evaluate_query(query, canonical)
    return {row for row in answers if not contains_skolem(row)}
