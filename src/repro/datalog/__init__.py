"""Conjunctive-query / datalog substrate.

This package provides the logical foundation the rest of the library is
built on: terms, atoms, conjunctive queries, unions of conjunctive
queries, datalog rules and programs, a textual parser, unification,
homomorphism search, query containment, comparison
constraints, and query/program evaluation over fact sources.
"""

from .atoms import Atom, BodyAtom, ComparisonAtom
from .constraints import ConstraintSet
from .containment import (
    are_equivalent,
    containment_mapping,
    is_contained_in,
    remove_redundant_disjuncts,
    ucq_is_contained_in,
)
from .evaluation import evaluate_program, evaluate_program_query, evaluate_query, evaluate_union
from .homomorphism import find_homomorphism, find_homomorphisms, has_homomorphism
from .indexing import WILDCARD, IndexedFactSource, PredicateIndex
from .parser import parse_atom, parse_program, parse_query, parse_rule, parse_union
from .queries import (
    ConjunctiveQuery,
    DatalogProgram,
    DatalogRule,
    UnionQuery,
    make_chain_query,
)
from .terms import Constant, FreshVariableFactory, Term, Variable
from .unify import Substitution, match_atom, unify_atoms, unify_terms

__all__ = [
    "Atom",
    "BodyAtom",
    "ComparisonAtom",
    "ConjunctiveQuery",
    "Constant",
    "ConstraintSet",
    "DatalogProgram",
    "DatalogRule",
    "FreshVariableFactory",
    "IndexedFactSource",
    "PredicateIndex",
    "Substitution",
    "Term",
    "UnionQuery",
    "Variable",
    "WILDCARD",
    "are_equivalent",
    "containment_mapping",
    "evaluate_program",
    "evaluate_program_query",
    "evaluate_query",
    "evaluate_union",
    "find_homomorphism",
    "find_homomorphisms",
    "has_homomorphism",
    "is_contained_in",
    "make_chain_query",
    "match_atom",
    "parse_atom",
    "parse_program",
    "parse_query",
    "parse_rule",
    "parse_union",
    "remove_redundant_disjuncts",
    "ucq_is_contained_in",
    "unify_atoms",
    "unify_terms",
]
