"""Local-as-view (LAV) mediation facade.

A :class:`LAVMediator` holds the source descriptions (views over the
mediated schema) and answers queries posed over the mediated schema by
rewriting them over the sources with MiniCon, or computes certain answers
directly with the inverse-rules construction.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.datalog.evaluation import FactsLike, evaluate_union
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.integration import View

from . import minicon
from .inverse_rules import certain_answers
from .views import ViewSet

Row = Tuple[object, ...]


class LAVMediator:
    """A LAV data-integration mediator.

    Parameters
    ----------
    sources:
        Source descriptions: views whose head predicate is the *source*
        relation and whose body is over the mediated schema.
    """

    def __init__(self, sources: Iterable[View] = ()):
        self._views = ViewSet(sources)

    @property
    def views(self) -> ViewSet:
        """The registered source descriptions."""
        return self._views

    def add_source(self, view: View) -> None:
        """Register one more source description."""
        self._views.add(view)

    def rewrite(self, query: ConjunctiveQuery) -> UnionQuery:
        """Rewrite a mediated-schema query over the source relations."""
        return minicon.rewrite(query, self._views)

    def answer(self, query: ConjunctiveQuery, source_data: FactsLike) -> Set[Row]:
        """Rewrite the query and evaluate the rewriting over source extensions."""
        return evaluate_union(self.rewrite(query), source_data)

    def certain_answers(self, query: ConjunctiveQuery, source_data: FactsLike) -> Set[Row]:
        """Certain answers via the inverse-rules canonical instance (ground truth)."""
        return certain_answers(query, self._views, source_data)
