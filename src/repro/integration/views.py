"""Views: named conjunctive queries, the unit MCD formation reads.

A *view* is a named conjunctive query.  In GAV, views define mediated-schema
relations over source relations ("the relations in the mediated schema are
defined as views over the relations in the sources"); in LAV, views describe
source relations over the mediated schema ("the relations in the sources are
specified as views over the mediated schema"), optionally as containment
(open-world) rather than equality (closed-world) — Section 2.1.1 of the
paper.  The PDMS wraps the view of every normalised storage description
and inclusion mapping in a :class:`repro.pdms.system.NormalizedInclusion`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..datalog.queries import ConjunctiveQuery


class ViewKind(str, Enum):
    """Whether the view's extension equals or is contained in its definition."""

    EXACT = "exact"          # closed world: extension = query result
    CONTAINED = "contained"  # open world:  extension ⊆ query result

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class View:
    """A named view ``name(args) = / ⊆ definition``.

    Parameters
    ----------
    definition:
        The defining conjunctive query.  Its head predicate is the view
        name and its head arity the view arity.
    kind:
        ``ViewKind.EXACT`` for equality views, ``ViewKind.CONTAINED`` for
        containment (sound but possibly incomplete) views.
    """

    definition: ConjunctiveQuery
    kind: ViewKind = ViewKind.CONTAINED

    @property
    def name(self) -> str:
        """The view (head) name."""
        return self.definition.name

    @property
    def arity(self) -> int:
        """The view (head) arity."""
        return self.definition.arity

    def __str__(self) -> str:
        symbol = "=" if self.kind is ViewKind.EXACT else "⊆"
        body = ", ".join(str(a) for a in self.definition.body)
        return f"{self.definition.head} {symbol} {body}"
