"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single exception type at API boundaries.  Finer-grained
subclasses distinguish parsing problems, malformed logical objects,
ill-formed PDMS specifications, and evaluation-time failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ParseError(ReproError):
    """A textual query, rule, or mapping could not be parsed.

    Attributes
    ----------
    text:
        The offending input text (possibly truncated).
    position:
        Character offset at which the problem was detected, or ``None``.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        base = super().__str__()
        if self.text:
            loc = f" at position {self.position}" if self.position is not None else ""
            return f"{base}{loc}: {self.text!r}"
        return base


class MalformedQueryError(ReproError):
    """A query object violates a structural invariant.

    Examples: unsafe head variables (head variables that do not occur in
    any relational body atom), duplicate variable names used as both
    constant and variable, or an atom whose arity disagrees with its
    schema.
    """


class SchemaError(ReproError):
    """A relation or attribute reference is inconsistent with the schema."""


class InstanceError(ReproError):
    """A database instance operation failed (e.g. arity mismatch on insert)."""


class MappingError(ReproError):
    """A PPL storage description or peer mapping is ill-formed."""


class PDMSConfigurationError(ReproError):
    """A PDMS specification is inconsistent (unknown peers, duplicate names...)."""


class ReformulationError(ReproError):
    """Query reformulation failed in an unexpected way."""


class EvaluationError(ReproError):
    """Evaluation of a query or datalog program over an instance failed."""


class TransportError(ReproError):
    """A peer-boundary RPC failed (peer down, timed out, or injected fault).

    Distinct from :class:`EvaluationError`: a transport fault does not mean
    the query is wrong, only that a peer could not be reached.  A remote
    fact source treats it as *missing data* — the answer degrades to a
    best-effort (sound-subset) answer and clears the ``completeness`` flag
    instead of failing the whole query.
    """

    def __init__(self, message: str, peer: str | None = None):
        super().__init__(message)
        self.peer = peer


class UnsatisfiableConstraintError(ReproError):
    """A constraint conjunction was required to be satisfiable but is not."""
