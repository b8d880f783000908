"""repro — reproduction of *Schema Mediation in Peer Data Management Systems*.

This library re-implements, in pure Python, the Piazza peer data management
system (PDMS) described by Halevy, Ives, Suciu and Tatarinov at ICDE 2003:
the PPL mediation language (storage descriptions, inclusion/equality and
definitional peer mappings), its certain-answer semantics, the complexity
classification of query answering, the rule-goal-tree reformulation
algorithm that interleaves GAV- and LAV-style rewriting, the optimizations
described in the paper, and the synthetic workload generator behind its
experiments (Figures 3 and 4).  The two-tier mediators the PDMS
generalises (GAV unfolding, LAV rewriting with MiniCon or the Bucket
algorithm, inverse rules) and the row algebra behind the columnar kernels
are test oracles under ``tests/oracles/``, not part of the library.

Quick taste
-----------
>>> from repro import Peer, PDMS, parse_query
>>> from repro.pdms import StorageDescription, DefinitionalMapping
>>> pdms = PDMS()
>>> fire = pdms.add_peer(Peer("FS"))
>>> # ... declare relations, storage descriptions, peer mappings ...
>>> # reformulate a query over peer schemas into stored relations:
>>> # pdms.reformulate(parse_query('Q(x) :- FS:Engine(x, c, s, st, l, d)'))

See ``examples/quickstart.py`` for a complete runnable example.
"""

from .datalog import (
    Atom,
    ComparisonAtom,
    ConjunctiveQuery,
    Constant,
    DatalogProgram,
    DatalogRule,
    UnionQuery,
    Variable,
    parse_atom,
    parse_query,
    parse_rule,
)
from .database import DatabaseSchema, Instance, RelationSchema
from .errors import (
    EvaluationError,
    MalformedQueryError,
    MappingError,
    ParseError,
    PDMSConfigurationError,
    ReformulationError,
    ReproError,
    SchemaError,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "ComparisonAtom",
    "ConjunctiveQuery",
    "Constant",
    "DatabaseSchema",
    "DatalogProgram",
    "DatalogRule",
    "EvaluationError",
    "Instance",
    "MalformedQueryError",
    "MappingError",
    "PDMS",
    "PDMSConfigurationError",
    "ParseError",
    "Peer",
    "ReformulationError",
    "RelationSchema",
    "ReproError",
    "SchemaError",
    "UnionQuery",
    "Variable",
    "parse_atom",
    "parse_query",
    "parse_rule",
]


def __getattr__(name):  # pragma: no cover - thin lazy import shim
    """Lazily expose the PDMS layer to avoid import cycles at package load."""
    if name in ("PDMS", "Peer"):
        from . import pdms as _pdms

        return getattr(_pdms, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
